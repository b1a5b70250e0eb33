"""Exact span-wide representation search and the set-cover encoding.

Deciding whether any feasible committee satisfies the span-wide axiom is
NP-complete, so :func:`sw_jr_exists` is an exact exponential backtracking
search: it walks candidate ids in increasing order, growing a committee one
member at a time, on an explicit stack so that committees of any size fit.
The stack holds one frame per open node: the ids left to try, the member
picked there, and the unrepresented voters with a non-empty ballot as a
bitmask ``unrep``, which choosing c maps to ``unrep & ~approvers[c]``, where
``approvers`` is ``inst.approver_masks`` (bit i set when voter i approves c).

A subset whose quota equals its size lies whole in every feasible committee.
Such a forced subset is taken before the walk: its approvers leave
``unrep``, its ``need`` is 0, and its members join the committee at the
leaf, so the walk and the rules below never visit it.  Adding the same
members to every committee keeps the lexicographic order of the rest.

The walk itself keeps every subset fillable: a node tries only the ids up
to the ``need[j]``-th last member of each open subset j, since a child past
that leaves subset j with fewer members than open slots.  Every child it
enters has room, so no node is cut for lack of it.

Two exact rules cut a branch before it is walked:

* *Coverage capacity*: let t = ceil(n/k).  A committee satisfies the axiom
  iff every candidate keeps at most t - 1 unrepresented supporters, so
  every group of voters that needs a representative must get enough of
  them from the open slots.  The open slots can represent at most
  ``capacity`` voters of a group: ``top``, the sum over the open subsets j
  of the top ``need[j]`` gains ``|approvers[c'] & group|`` over j's members
  c' at or after the position, and never more than the group voters some
  such c' approves.  The branch is cut when some group g with |g| >= t has
  a capacity below |g| - t + 1.  When t >= 2 the groups are the distinct
  unrepresented supporter sets S_c.  When t == 1 the one group is every
  unrepresented voter with a non-empty ballot; in the set-cover encoding
  this is the classic "budget times best residual coverage < uncovered"
  test.  A voter none of the remaining candidates can represent counts
  against the capacity, so a dead ballot ends a branch as well.  A child c
  of subset j is cut from its parent's bound: each group of c is a parent
  group g less c's approvers, whose capacity is at most ``top - drops[j]``
  (``drops[j]``: the least of j's gains in ``top``).  So a node keeps the
  groups that can cut a child and, at one AND and one bit count, skips c
  when g less c's approvers keeps ``top - drops[j] + t`` voters or more;
  c counts as a node cut by the capacity rule, as it would count itself.
* *Packing* (t == 1 only, after the capacity test): take the lowest
  unrepresented voter, drop every voter that shares a remaining coverer
  (an approved candidate at or after the position in an open subset) with
  it, and repeat.  No member represents two of the voters taken, so the
  branch is cut when they outnumber the open slots.  A voter's coverers
  are its ballot row masked by the open ids, so each voter taken costs
  its coverers, not a pass over the candidates.

The capacity rule also runs at a leaf, where no slot is open and the rule
is the axiom itself: ``unrep`` must be 0 when t == 1, and no candidate may
keep t or more unrepresented supporters when t >= 2.  Only a leaf that
passes it is accepted, and every accepted leaf is re-verified with
``check_sw_jr``, so a returned committee always satisfies the axiom.  A
rule that cuts too eagerly still loses answers: the search then returns
None or a committee that is not the least.
``test_search_matches_the_oracles_in_both_regimes`` and
``test_search_agrees_with_exhaustive_enumeration`` check the rules against
the oracles.  The first accepted leaf in this order is the
lexicographically least satisfying committee, which is what the search
returns.  A :class:`SearchStats` passed in receives the work done.

:func:`encode_set_cover` embeds a set-cover question into this decision
problem: voters are the ground elements, as many candidates as voters,
approved by no voter, fill a first subset whose quota forces all of them
in, and the covering collection becomes the second subset with the cover
budget as its quota.  A span-wide representative committee exists iff the
cover does, and :func:`decode_committee_to_cover` extracts the cover.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import and_, or_
from typing import Optional

from .core import (
    Committee,
    ScvInstance,
    SetCoverInstance,
    _field_problems,
    count_feasible_committees,
    validate_set_cover,
)
from .errors import BudgetExceeded, InvalidInstance, NotACover
from .axioms import check_sw_jr

DEFAULT_SEARCH_BUDGET = 10_000_000


@dataclass
class SearchStats:
    """Work done by :func:`sw_jr_exists`; each call adds to the counts.

    ``nodes`` counts the search nodes: root, inner nodes and leaves, and
    the children cut from their parent's capacity bound without being
    entered; the members of forced subsets (quota equal to size) are taken
    before the walk and take no node.  ``leaves`` counts the complete
    committees that pass the capacity rule and are re-verified with
    ``check_sw_jr``: such a leaf satisfies the axiom and ends the search, so
    there is at most one per call.  ``pruned_capacity`` / ``pruned_packing``
    count the nodes cut by each prune rule, leaves and children cut from
    their parent's bound among the capacity cuts.
    """

    nodes: int = 0
    leaves: int = 0
    pruned_capacity: int = 0
    pruned_packing: int = 0


def sw_jr_exists(
    inst: ScvInstance,
    budget: int = DEFAULT_SEARCH_BUDGET,
    stats: Optional[SearchStats] = None,
) -> Optional[Committee]:
    """Lexicographically least committee passing ``check_sw_jr``, or None.

    Raises :class:`BudgetExceeded` when the feasible-committee count is
    beyond ``budget``, and :class:`InvalidInstance` when ``budget`` is no
    int.  The counts of the search are added to ``stats`` when one is
    given; the result is the same either way.
    """
    if type(budget) is not int:  # so a plain int costs one test, and no message is built
        problems = _field_problems("sw_jr_exists", [("budget", "int", budget)])
        if problems:
            raise InvalidInstance(problems)
    total = count_feasible_committees(inst)
    if total > budget:
        raise BudgetExceeded(total, budget)
    if stats is None:
        stats = SearchStats()

    t = -(-inst.num_voters // inst.committee_size)
    subset_of = inst.subset_index
    members = [tuple(sorted(sub.members)) for sub in inst.subsets]
    member_bits = [sum(1 << c for c in ids) for ids in members]
    approvers = inst.approver_masks
    # each subset's approver masks in id order, and their unions from each on
    masks = [[approvers[c] for c in ids] for ids in members]
    tails = [list(accumulate(reversed(ms), or_))[::-1] for ms in masks]
    rows = inst.ballot_rows

    def capacity(pos: int, need: list[int], group: int) -> tuple[int, int, list[int]]:
        """Most voters of ``group`` the open slots can still represent, the
        sum ``top`` of the top gains, and each open subset j's least gain in it."""
        top = reach = 0
        drops = need[:]  # 0 for every closed subset
        for j, left in enumerate(need):
            if left:
                i = bisect_left(members[j], pos)
                reach |= tails[j][i]
                gains = []
                for mask in masks[j][i:]:
                    gains.append((mask & group).bit_count())
                gains.sort(reverse=True)
                top += sum(gains[:left])
                drops[j] = gains[left - 1]
        return min(top, (reach & group).bit_count()), top, drops

    def cutters(pos: int, need: list[int], unrep: int) -> Optional[list]:
        """None if the node is cut, else each ``(group, top + t, drops)`` that can cut a child."""
        cuts = []
        for group in (unrep,) if t == 1 else set(map(and_, approvers, repeat(unrep))):
            size = group.bit_count()
            if size >= t:
                most, top, drops = capacity(pos, need, group)
                if most < size - t + 1:
                    return None
                if size + max(drops) >= top + t:
                    cuts.append((group, top + t, drops))
        return cuts

    def overpacked(pos: int, need: list[int], unrep: int) -> bool:
        """More unrepresented voters need pairwise distinct members than
        there are open slots (t == 1, after the capacity test)."""
        open_ids = 0
        for left, bits in zip(need, member_bits):
            if left:
                open_ids |= bits
        open_ids = open_ids >> pos << pos
        slots = sum(need)
        while unrep:
            slots -= 1
            if slots < 0:
                return True
            # drop the lowest voter and every voter sharing a remaining
            # coverer with it; the capacity test has cut dead voters, so the
            # lowest voter approves one of its coverers and is dropped too
            coverers = rows[(unrep & -unrep).bit_length() - 1] & open_ids
            while coverers:
                low = coverers & -coverers
                unrep &= ~approvers[low.bit_length() - 1]
                coverers ^= low
        return False

    # voters with an empty ballot never count against the axiom
    unrep = 0
    for mask in approvers:
        unrep |= mask
    # a subset whose quota equals its size lies whole in every feasible
    # committee, so it is taken before the walk and never visited by it
    need = list(inst.quotas)
    forced = [c for j, ids in enumerate(members) if need[j] == len(ids) for c in ids]
    for c in forced:
        need[subset_of[c]] = 0
        unrep &= ~approvers[c]
    # one frame per open node on the path: an iterator over the ids left to
    # try below it, its unrepresented voters, the groups that can cut its
    # children, and the member picked there (-1 before the first pick)
    path: list[list] = []
    pos = 0
    while True:
        stats.nodes += 1
        groups = cutters(pos, need, unrep)
        if groups is None:
            stats.pruned_capacity += 1
        elif not any(need):
            # with no open slot the capacity rule is the axiom itself
            stats.leaves += 1
            committee = Committee(frozenset(forced + [frame[3] for frame in path]))
            if check_sw_jr(inst, committee).satisfied:
                return committee
        elif t == 1 and overpacked(pos, need, unrep):
            stats.pruned_packing += 1
        else:
            # past the need[j]-th last member of an open subset j, that
            # subset would lack the members to fill its slots
            stop = min(ids[-left] for left, ids in zip(need, members) if left) + 1
            path.append([iter(range(pos, stop)), unrep, groups, -1])
        # move to the next child of the deepest open node
        while path:
            walk, unrep, groups, c = frame = path[-1]
            if c >= 0:
                need[subset_of[c]] += 1
            for c in walk:
                j = subset_of[c]
                if need[j]:
                    # c's own capacity test would cut it (*Coverage capacity*)
                    for group, bound, drops in groups:
                        if (group & ~approvers[c]).bit_count() + drops[j] >= bound:
                            stats.nodes += 1
                            stats.pruned_capacity += 1
                            break
                    else:
                        break
            else:
                path.pop()
                continue
            need[j] -= 1
            frame[3] = c
            pos, unrep = c + 1, unrep & ~approvers[c]
            break
        else:
            return None


def encode_set_cover(sc: SetCoverInstance) -> ScvInstance:
    """Voting instance whose span-wide representative committees are exactly
    the covers of the given set-cover question.

    Voter i approves the collection candidates ``s{j+1}`` of the entries
    containing i; the per-voter candidates ``a{i+1}`` fill the first subset
    completely.  Every voter has a non-empty ballot and n/k < 1, so a
    committee is span-wide representative iff every voter is represented,
    which only the second subset can decide.
    """
    validate_set_cover(sc)
    n, t = sc.ground_size, len(sc.collection)
    rows = [0] * n
    for j, entry in enumerate(sc.collection):
        for i in entry:
            rows[i] |= 1 << n + j
    names = [f"a{i + 1}" for i in range(n)] + [f"s{j + 1}" for j in range(t)]
    return ScvInstance._from_rows(n, names, [("C1", n, n), ("C2", t, sc.budget)], rows)


def decode_committee_to_cover(sc: SetCoverInstance, committee) -> frozenset[int]:
    """Collection indices selected by a committee of the encoded instance.

    The committee must satisfy the span-wide axiom there, in which case the
    returned indices (0-based into ``sc.collection``) cover the ground set
    within budget; otherwise :class:`NotACover` is raised.
    """
    inst = encode_set_cover(sc)
    members = Committee.of(inst, committee).members
    n = sc.ground_size
    chosen = frozenset(c - n for c in members if c >= n)
    covered = frozenset().union(*(sc.collection[j] for j in chosen))
    if covered != frozenset(range(n)):
        raise NotACover(
            f"selected entries {sorted(chosen)} cover {sorted(covered)}, "
            f"not the full ground set of size {n}"
        )
    return chosen
