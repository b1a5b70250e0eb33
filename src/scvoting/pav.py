"""Exact harmonic (PAV-style) scoring and optimization over committees.

Two generalizations of proportional approval voting are scored and
maximized, always exactly:

* ``sw-pav``: a voter with j approved committee members anywhere contributes
  the j-th harmonic number, H(j) = 1 + 1/2 + ... + 1/j.
* ``iw-pav``: the harmonic utility is earned per subset and summed, so a
  voter contributes sum_j H(|committee /\\ ballot /\\ subset j|).

Scoring walks no ballot: the approver bitmasks of a scope's members are
added into binary count planes, and the voters are split by plane into
exact-count classes, so a score costs O(k log k) big-int operations per
scope of k members.  All arithmetic is on integers scaled by L =
lcm(1..c_max), where c_max is the largest count any voter can reach in the
scope being scored: then every L·H(j) and every step L/j is an integer.
One :class:`~fractions.Fraction` is built per result, at the API boundary.

Maximization is exact (these optima are NP-hard in general) over the
feasible committees and guarded by a count budget.  One depth-first branch
and bound serves both variants: it picks one candidate per level, keeps
each level's voters as exact-count classes on the approver masks, so
backing out of a pick undoes nothing, and cuts a branch when the top
marginal gains of its open pools cannot reach the best score found.  The
scores are monotone submodular (a voter's step L/j only falls as j rises),
so those gains bound every completion.  One loop cuts each child of a node,
leaves included, or scores its single completion in one pass, or enters it.
A variant is its list of scopes, searched one by one: one scope of all
subsets for ``sw-pav``, one per subset for ``iw-pav``.  Ties always resolve
to the committee whose sorted member-id tuple is lexicographically least.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from heapq import heapify, heapreplace
from math import comb, lcm, prod
from operator import or_
from typing import Iterable, Optional, Sequence

from .core import Committee, ScvInstance, _field_problems
from .errors import BudgetExceeded, InvalidInstance, NotMember, exact_repr, exact_str

SW_PAV = "sw-pav"
IW_PAV = "iw-pav"
VARIANTS = (SW_PAV, IW_PAV)

DEFAULT_MAXIMIZE_BUDGET = 10_000_000


@dataclass
class MaximizeStats:
    """Work done by :func:`maximize`; each call adds to the counts.

    ``nodes`` counts the search nodes of every scope searched: each root,
    and each pick the search considers, whether it is entered, scored as a
    leaf or a forced completion, or cut by the bound.  ``leaves`` counts the
    complete committees whose score is computed exactly, ``forced`` those
    among them scored in one pass as the single completion, adding two or
    more members, of a node with no spare candidate: a last-seat child is a
    leaf, never forced.  ``pruned_bound`` counts the children and leaves
    cut because their bound on the best completion is below the best score
    found.
    """

    nodes: int = 0
    leaves: int = 0
    pruned_bound: int = 0
    forced: int = 0


def _scaled_harmonics(counts: Iterable[int]) -> tuple[int, dict[int, int]]:
    """``(L, sums)`` with L = lcm(1..c) for the largest count c and
    ``sums[j] == L * H(j)`` for j = 0 and every j in ``counts``, in
    ascending order.

    L // i is summed once for i <= c, and only the partial sums at the
    given counts are kept, so the work is O(c) big-int steps and the memory
    O(c) bits for each count asked for.
    """
    wanted = set(counts)
    c_max = max(wanted, default=0)
    scale = lcm(*range(1, c_max + 1))
    sums, partial = {0: 0}, 0
    for j in range(1, c_max + 1):
        partial += scale // j
        if j in wanted:
            sums[j] = partial
    return scale, sums


def harmonic(j: int) -> Fraction:
    """The j-th harmonic number as an exact rational; ``harmonic(0) == 0``."""
    if j < 0:
        raise ValueError(f"harmonic undefined for negative {exact_str(j)}")
    scale, sums = _scaled_harmonics([j])
    return Fraction(sums[j], scale)


def _count_classes(masks: Sequence[int], scope: Iterable[int]) -> list[tuple[int, int]]:
    """The voters who approve some member of ``scope``, split by how many
    they approve, as ``(count, voter mask)`` pairs, highest count first.

    The members' approver masks are added into binary count planes by ripple
    carry, so plane p holds bit p of every voter's count; the voters are then
    split plane by plane, highest first, dropping empty groups.
    """
    planes: list[int] = []
    for c in scope:
        carry = masks[c]
        for p, plane in enumerate(planes):
            if not carry:
                break
            planes[p], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
    classes = [(0, reduce(or_, planes, 0))]
    for p in reversed(range(len(planes))):
        split = []
        for count, voters in classes:
            high = voters & planes[p]
            if high:
                split.append((count + (1 << p), high))
            if high != voters:
                split.append((count, voters ^ high))
        classes = split
    return classes


def _score(inst: ScvInstance, scopes: Iterable[Iterable[int]]) -> Fraction:
    """Exact sum of H(count) over every voter and scope."""
    masks = inst.approver_masks
    classes = [pair for scope in scopes for pair in _count_classes(masks, scope)]
    scale, sums = _scaled_harmonics(count for count, _ in classes)
    return Fraction(sum(sums[count] * voters.bit_count() for count, voters in classes), scale)


def sw_pav_score(inst: ScvInstance, committee) -> Fraction:
    """Span-wide harmonic score of a feasible committee."""
    return _score(inst, [Committee.of(inst, committee).members])


def iw_pav_score(inst: ScvInstance, committee) -> Fraction:
    """Per-subset harmonic score of a feasible committee."""
    members = Committee.of(inst, committee).members
    return _score(inst, [members.intersection(sub.members) for sub in inst.subsets])


def marginal_contribution(inst: ScvInstance, committee, candidate: int) -> Fraction:
    """Span-wide score drop from removing ``candidate`` from the committee.

    Always non-negative; raises :class:`NotMember` if the candidate is not
    elected.
    """
    members = Committee.of(inst, committee).members
    if candidate not in members:
        raise NotMember(
            f"candidate {exact_str(candidate)} is not in the committee {sorted(members)}"
        )
    return _score(inst, [members]) - _score(inst, [members - {candidate}])


def score_to_json(score: Fraction) -> dict:
    """Exact rational as JSON-safe strings, of any length."""
    return {"num": exact_repr(score.numerator), "den": exact_repr(score.denominator)}


def maximize(
    inst: ScvInstance,
    variant: str,
    budget: int = DEFAULT_MAXIMIZE_BUDGET,
    stats: Optional[MaximizeStats] = None,
) -> tuple[Committee, Fraction]:
    """Exact optimum of the chosen variant over all feasible committees.

    The variant only picks the scopes: ``sw-pav`` searches one holding every
    subset, ``iw-pav`` one per subset.  Raises :class:`BudgetExceeded`
    (reporting the committee count that would be enumerated) instead of
    starting a search larger than ``budget``, and :class:`InvalidInstance`
    when ``budget`` is no int.  Among co-optimal committees the
    lexicographically least sorted member tuple is returned.  The counts of
    the search are added to ``stats`` when one is given; the result is the
    same either way.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if type(budget) is not int:  # so a plain int costs one test, and no message is built
        problems = _field_problems("maximize", [("budget", "int", budget)])
        if problems:
            raise InvalidInstance(problems)
    subsets = [(sorted(sub.members), sub.quota) for sub in inst.subsets]
    scopes = [subsets] if variant == SW_PAV else [[part] for part in subsets]
    total = sum(prod(comb(len(pool), q) for pool, q in scope) for scope in scopes)
    if total > budget:
        raise BudgetExceeded(total, budget)

    masks = inst.approver_masks
    c_max = max(min(sum(q for _, q in scope),
                    _count_classes(masks, [c for pool, _ in scope for c in pool])[0][0])
                for scope in scopes)
    scale = lcm(*range(1, c_max + 1))
    steps = [scale // j for j in range(1, c_max + 1)]
    stats = MaximizeStats() if stats is None else stats
    parts = [_search(masks, inst.num_voters, scope, steps, stats) for scope in scopes]
    score, members = sum(s for s, _ in parts), [c for _, part in parts for c in part]
    return Committee(frozenset(members)), Fraction(score, scale)


def _search(
    masks: Sequence[int],
    num_voters: int,
    subsets: Sequence[tuple[Sequence[int], int]],
    steps: Sequence[int],
    stats: MaximizeStats,
) -> tuple[int, tuple[int, ...]]:
    """Best scaled score over every choice of ``quota`` members from each
    ``(sorted pool, quota)`` pair, with the lexicographically least sorted
    member tuple among ties; the search's counts are added to ``stats``.

    ``steps[j]`` is L // (j + 1), a voter's scaled gain when its count rises
    from j to j + 1, up to the largest count any voter can reach here.  Each
    level picks one member after the previous pick of the same pool, so
    every combination is reached once and shares the work of its prefix.
    ``stack[d]`` holds the voters before level d's pick as ``(count, voter
    mask)`` classes by ascending count, none empty.  A pick with approver
    mask a gains ``steps[j] * |v & a|`` on each class ``(j, v)`` and splits
    it into ``v & ~a``, staying at j, and ``v & a``, which joins the
    stayers at j + 1.  The loop is iterative so that thousands of seats do
    not exhaust the interpreter stack.

    The search is a branch and bound.  The steps only fall, so a voter's
    gain from a candidate only shrinks as members join, and the sum of the
    candidates' gains at a node bounds every completion below it.  A node
    with 2 or more spare candidates (open candidates beyond the seats still
    to fill, over every open pool) computes each open candidate's gain once.
    A child is cut when the node's score plus its gain, the largest gains
    of the seats left after it in its pool and of every later pool is below
    the best score found.  The last level takes as caps the gains of the
    nearest node above it that has them, and its score as floor, so a leaf
    is cut by the same test.  The tests are strict, so every co-optimal
    committee is reached and the least one wins.  One loop walks a node's
    children: one not cut with no spare candidate has one completion,
    scored in one pass (a leaf adds its gain class by class; a forced one
    splits its two or more members into count classes, and each class of
    the node rises by their count at once), and any other is entered.
    """
    order = [c for pool, _ in subsets for c in pool]  # every level picks a position here
    levels, later_pools, later, stop = [], (), 0, len(order)
    for pool, quota in reversed(subsets):
        start = stop - len(pool)
        # per level: where its pool's first pick starts, the end of its picks,
        # the seats left, the spare of the later pools, its pool's stop and
        # the (start, stop, quota) of the later pools
        levels[:0] = [(start - 1 if s == 0 else None, stop - quota + s + 1, quota - s,
                       later, stop, later_pools) for s in range(quota)]
        later_pools = ((start, stop, quota),) + later_pools
        later += len(pool) - quota
        stop = start
    depth, top = len(levels), len(steps)
    stack = [[(0, (1 << num_voters) - 1)]] * depth  # the root: everyone at count 0
    picks, partial = [-1] * depth, [0] * depth
    gains, caps, floors = [None] * depth, [None] * depth, [0] * depth
    best, best_members = -1, ()
    entered, leaves, pruned, forced = 1, 0, 0, 0  # the root counts as entered
    d, fresh = 0, True
    while d >= 0:
        _, end, need, later, stop, later_pools = levels[d]
        p = picks[d] + 1
        if fresh:  # first visit: the caps of a last level or of a node with 2+ spare
            fresh = False
            caps[d], gains[d] = None, gains[d - 1] if d else None
            if d + 1 == depth:  # a leaf is cut by the nearest gains above it
                caps[d], floors[d] = gains[d], partial[d]
            elif end - p + later > 2:
                approvers = [masks[c] for c in order[p:]]
                gain = [0] * len(approvers)
                for j, voters in stack[d]:
                    if j < top:  # a voter at the top count approves no open candidate
                        step = steps[j]
                        gain = [g + step * (voters & a).bit_count() for g, a in zip(gain, approvers)]
                gains[d] = gain = [0] * p + gain
                floors[d] = partial[d] + sum(sum(sorted(gain[lo:hi], reverse=True)[:quota])
                                             for lo, hi, quota in later_pools)
                cap = gain
                if need > 1:  # add the top need - 1 gains after each child
                    cap, heap = gain[:end], gain[end:stop]
                    rest = sum(heap)
                    heapify(heap)
                    for i in range(end - 1, p - 1, -1):
                        cap[i] += rest
                        if gain[i] > heap[0]:
                            rest += gain[i] - heapreplace(heap, gain[i])
                caps[d] = cap
        cap, floor = caps[d], floors[d]
        while p < end:
            if cap and floor + cap[p] < best:
                pruned += 1
            elif not later and (need == 1 or p + 1 == end):  # a single completion
                leaves += 1
                score = partial[d]
                if d + 1 == depth:  # a leaf adds one member: sum its gain per class
                    approved = masks[order[p]]
                    for j, voters in stack[d]:
                        hit = voters & approved
                        if hit:
                            score += steps[j] * hit.bit_count()
                else:
                    forced += 1
                    for c, risers in _count_classes(masks, order[p:p + need] + order[stop:]):
                        for j, voters in stack[d]:
                            hit = (voters & risers).bit_count()
                            if hit:
                                score += sum(steps[j:j + c]) * hit
                if score >= best:
                    members = tuple(sorted([order[q] for q in picks[:d]]
                                           + order[p:p + need] + order[stop:]))
                    if score > best or members < best_members:
                        best, best_members = score, members
            else:
                break
            p += 1
        if p >= end:
            d -= 1
            continue
        picks[d] = p
        approved = masks[order[p]]
        score = partial[d]
        split, up = [], 0  # up: the previous class's hits, now at count `rise`
        for j, voters in stack[d]:
            hit = voters & approved
            if up:
                if rise == j:
                    voters |= up
                else:
                    split.append((rise, up))
                up = 0
            if hit:
                score += steps[j] * hit.bit_count()
                voters ^= hit
                up, rise = hit, j + 1
            if voters:
                split.append((j, voters))
        if up:
            split.append((rise, up))
        d, entered = d + 1, entered + 1
        stack[d] = split
        partial[d] = score
        picks[d] = p if levels[d][0] is None else levels[d][0]
        fresh = True
    # every child is cut, scored or entered, so those counts sum to the nodes
    stats.nodes += entered + leaves + pruned
    stats.leaves += leaves
    stats.pruned_bound += pruned
    stats.forced += forced
    return best, best_members
