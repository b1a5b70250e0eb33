"""Exact span-wide representation search and the set-cover encoding.

Deciding whether any feasible committee satisfies the span-wide axiom is
NP-complete, so :func:`sw_jr_exists` is an exact exponential backtracking
search: it walks candidate ids in increasing order, growing a committee one
member at a time, on an explicit stack so that committees of any size fit.
Its state is the list of chosen members, the open slots of each subset, and
the unrepresented voters with a non-empty ballot as a Python-int bitmask:
choosing c maps the mask ``unrep`` to ``unrep & ~approvers[c]``, where
``approvers`` is ``inst.approver_masks`` (bit i set when voter i approves c).

Two exact rules cut a branch before it is walked:

* *Quota room*: some subset has more open slots than members left at or
  after the current position.
* *Coverage capacity*: let t = ceil(n/k).  A committee satisfies the axiom
  iff every candidate keeps at most t - 1 unrepresented supporters, so
  every group of voters that needs a representative must get enough of
  them from the open slots.  The open slots can represent at most
  ``capacity`` voters of a group: for each subset j, the sum of the top
  ``need[j]`` values of ``|approvers[c'] & group|`` over its members c' at
  or after the position, added over the subsets, and never more than the
  group voters some such c' approves.  When t == 1 the group is every
  unrepresented voter with a non-empty ballot, and the branch is cut when
  the capacity is below its size; in the set-cover encoding this is the
  classic "budget times best residual coverage < uncovered" test.  When
  t >= 2 the groups are the unrepresented supporters S_c of each candidate
  with |S_c| >= t, and the branch is cut when the capacity is below
  |S_c| - t + 1.  A voter none of the remaining candidates can represent
  counts against the capacity, so a dead ballot ends a branch as well.

Every accepted leaf is re-verified with ``check_sw_jr``, so a returned
committee always satisfies the axiom.  A rule that cuts too eagerly still
loses answers: the search then returns None or a committee that is not the
least.  ``test_search_matches_the_oracles_in_both_regimes`` and
``test_search_agrees_with_exhaustive_enumeration`` check the rules against
the oracles.  The first accepted leaf in this order is the
lexicographically least satisfying committee, which is what the search
returns.  A :class:`SearchStats` passed in receives the work done.

:func:`encode_set_cover` embeds a set-cover question into this decision
problem: voters are the ground elements, one single-voter candidate per
voter fills a first subset whose quota forces all of them in, and the
covering collection becomes the second subset with the cover budget as its
quota.  The encoded instance admits a span-wide representative committee iff
the cover exists, and :func:`decode_committee_to_cover` extracts the cover.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import (
    Committee,
    ScvInstance,
    SetCoverInstance,
    count_feasible_committees,
    validate_set_cover,
)
from .errors import BudgetExceeded, NotACover
from .axioms import check_sw_jr

DEFAULT_SEARCH_BUDGET = 10_000_000


@dataclass
class SearchStats:
    """Work done by :func:`sw_jr_exists`; each call adds to the counts.

    ``nodes`` counts the search nodes entered (root, inner nodes and
    leaves), ``leaves`` the complete committees re-verified with
    ``check_sw_jr``, and ``pruned_quota`` / ``pruned_capacity`` the nodes
    cut by each prune rule.
    """

    nodes: int = 0
    leaves: int = 0
    pruned_quota: int = 0
    pruned_capacity: int = 0


def sw_jr_exists(
    inst: ScvInstance,
    budget: int = DEFAULT_SEARCH_BUDGET,
    stats: Optional[SearchStats] = None,
) -> Optional[Committee]:
    """Lexicographically least committee passing ``check_sw_jr``, or None.

    Raises :class:`BudgetExceeded` when the feasible-committee count is
    beyond ``budget``.  The counts of the search are added to ``stats``
    when one is given; the result is the same either way.
    """
    total = count_feasible_committees(inst)
    if total > budget:
        raise BudgetExceeded(total, budget)
    if stats is None:
        stats = SearchStats()

    m = inst.num_candidates
    t = -(-inst.num_voters // inst.committee_size)
    subset_of = inst.subset_index
    members = [tuple(sorted(sub.members)) for sub in inst.subsets]
    approvers = inst.approver_masks
    voiced = 0
    for mask in approvers:
        voiced |= mask

    def capacity(pos: int, need: list[int], group: int) -> int:
        """Most voters of ``group`` the open slots can still represent."""
        top = covered = 0
        for j, left in enumerate(need):
            if left:
                gains = []
                for c in members[j][bisect_left(members[j], pos):]:
                    hit = approvers[c] & group
                    covered |= hit
                    gains.append(hit.bit_count())
                gains.sort(reverse=True)
                top += sum(gains[:left])
        return min(top, covered.bit_count())

    def hopeless(pos: int, need: list[int], unrep: int) -> bool:
        """No completion keeps every candidate below t unrepresented supporters."""
        if t == 1:
            return capacity(pos, need, unrep) < unrep.bit_count()
        for group in {approvers[c] & unrep for c in range(m)}:
            size = group.bit_count()
            if size >= t and capacity(pos, need, group) < size - t + 1:
                return True
        return False

    # one entry per open node on the path: an iterator over the candidate
    # ids left to try below it, its unrepresented voters, and the member
    # picked there (-1 before the first pick), so ``chosen`` holds the
    # members of the path
    need = list(inst.quotas)
    walks: list[Iterator[int]] = []
    unreps: list[int] = []
    chosen: list[int] = []
    # voters with an empty ballot never count against the axiom
    pos, unrep = 0, voiced
    while True:
        stats.nodes += 1
        if not any(need):
            stats.leaves += 1
            committee = Committee(frozenset(chosen))
            if check_sw_jr(inst, committee).satisfied:
                return committee
        elif any(
            left > len(ids) - bisect_left(ids, pos)
            for left, ids in zip(need, members)
        ):
            stats.pruned_quota += 1
        elif hopeless(pos, need, unrep):
            stats.pruned_capacity += 1
        else:
            walks.append(iter(range(pos, m)))
            unreps.append(unrep)
            chosen.append(-1)
        # move to the next child of the deepest open node
        while walks:
            c = chosen[-1]
            if c >= 0:
                need[subset_of[c]] += 1
            for c in walks[-1]:
                j = subset_of[c]
                if need[j]:
                    break
            else:
                walks.pop()
                unreps.pop()
                chosen.pop()
                continue
            need[j] -= 1
            chosen[-1] = c
            pos, unrep = c + 1, unreps[-1] & ~approvers[c]
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
    n = sc.ground_size
    t = len(sc.collection)
    voter_candidates = [f"a{i + 1}" for i in range(n)]
    entry_candidates = [f"s{j + 1}" for j in range(t)]
    ballots = [
        [entry_candidates[j] for j, entry in enumerate(sc.collection) if i in entry]
        for i in range(n)
    ]
    return ScvInstance.from_names(
        num_voters=n,
        subsets=[
            ("C1", voter_candidates, n),
            ("C2", entry_candidates, sc.budget),
        ],
        ballots=ballots,
    )


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
    covered = frozenset().union(*(sc.collection[j] for j in chosen)) if chosen else frozenset()
    if len(chosen) > sc.budget or covered != frozenset(range(n)):
        raise NotACover(
            f"selected entries {sorted(chosen)} cover {sorted(covered)}, "
            f"not the full ground set of size {n}"
        )
    return chosen
