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

Maximization is exhaustive (these optima are NP-hard in general) over the
feasible committees and guarded by a count budget.  One depth-first search
serves both variants: it picks one candidate per level, keeps the per-voter
approval counts up to date as it descends and backs out, and prunes a branch
once even a full point per voter in every open slot could not reach the
incumbent.  ``sw-pav`` searches all subsets at once; the ``iw-pav``
objective splits per subset, so it searches each subset alone.  Ties always
resolve to the committee whose sorted member-id tuple is lexicographically
least.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, lcm, prod
from operator import or_
from typing import Iterable, Sequence

from .core import Committee, ScvInstance
from .errors import BudgetExceeded, NotMember

SW_PAV = "sw-pav"
IW_PAV = "iw-pav"
VARIANTS = (SW_PAV, IW_PAV)

DEFAULT_MAXIMIZE_BUDGET = 10_000_000


@lru_cache(maxsize=16)
def _scaled_harmonics(c_max: int) -> tuple[int, tuple[int, ...]]:
    """``(L, table)`` with L = lcm(1..c_max) and ``table[j] == L * H(j)``
    for every j <= c_max."""
    scale = lcm(*range(1, c_max + 1))
    table = [0]
    for j in range(1, c_max + 1):
        table.append(table[-1] + scale // j)
    return scale, tuple(table)


def harmonic(j: int) -> Fraction:
    """The j-th harmonic number as an exact rational; ``harmonic(0) == 0``."""
    if j < 0:
        raise ValueError(f"harmonic undefined for negative {j}")
    scale, table = _scaled_harmonics(j)
    return Fraction(table[j], scale)


def _count_classes(masks: Sequence[int], scope: Iterable[int]) -> list[tuple[int, int]]:
    """The voters who approve some member of ``scope``, split by how many
    they approve, as ``(count, voter mask)`` pairs.

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
    scale, table = _scaled_harmonics(max((count for count, _ in classes), default=0))
    return Fraction(sum(table[count] * voters.bit_count() for count, voters in classes), scale)


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
            f"candidate {candidate} is not in the committee {sorted(members)}"
        )
    return _score(inst, [members]) - _score(inst, [members - {candidate}])


def score_to_json(score: Fraction) -> dict:
    """Exact rational as JSON-safe strings."""
    return {"num": str(score.numerator), "den": str(score.denominator)}


def maximize(
    inst: ScvInstance,
    variant: str,
    budget: int = DEFAULT_MAXIMIZE_BUDGET,
) -> tuple[Committee, Fraction]:
    """Exact optimum of the chosen variant over all feasible committees.

    Raises :class:`BudgetExceeded` (reporting the committee count that would
    be enumerated) instead of starting a search larger than ``budget``.
    Among co-optimal committees the lexicographically least sorted member
    tuple is returned.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    per_subset = [comb(sub.size, sub.quota) for sub in inst.subsets]
    total = sum(per_subset) if variant == IW_PAV else prod(per_subset)
    if total > budget:
        raise BudgetExceeded(total, budget)

    approvers: list[list[int]] = [[] for _ in range(inst.num_candidates)]
    for i, ballot in enumerate(inst.ballots):
        for c in ballot:
            approvers[c].append(i)
    subsets = [(sorted(sub.members), sub.quota) for sub in inst.subsets]
    if variant == SW_PAV:
        c_max = min(inst.committee_size, max(map(len, inst.ballots), default=0))
        scale, table = _scaled_harmonics(c_max)
        score, members = _search(approvers, inst.num_voters, subsets, table)
    else:
        c_max = 0
        for pool, quota in subsets:
            reach = max((len(ballot.intersection(pool)) for ballot in inst.ballots), default=0)
            c_max = max(c_max, min(quota, reach))
        scale, table = _scaled_harmonics(c_max)
        score, members = 0, ()
        for part in subsets:
            part_score, part_members = _search(approvers, inst.num_voters, [part], table)
            score += part_score
            members += part_members
    return Committee(frozenset(members)), Fraction(score, scale)


def _search(
    approvers: Sequence[Sequence[int]],
    num_voters: int,
    subsets: Sequence[tuple[Sequence[int], int]],
    table: Sequence[int],
) -> tuple[int, tuple[int, ...]]:
    """Best scaled score over every choice of ``quota`` members from each
    ``(sorted pool, quota)`` pair, with the lexicographically least sorted
    member tuple among ties.

    A voter's count starts at 0 and its score at count j is ``table[j]``, so
    ``table`` must reach the largest count any voter can get here.  Each
    level of the search picks one member, after the previous pick of the
    same pool, so every combination is reached once and shares the work of
    its prefix.  The loop is iterative so that a committee with thousands of
    seats does not exhaust the interpreter stack.
    """
    levels = [
        (pool, s == 0, len(pool) - quota + s + 1)
        for pool, quota in subsets
        for s in range(quota)
    ]
    depth = len(levels)
    if depth == 0:
        return 0, ()
    steps = [b - a for a, b in zip(table, table[1:])]  # steps[j]: gain of count j -> j+1
    # the most the levels from d onward can add: a first approval, L, per voter each
    full = steps[0] if steps else 0
    room = [num_voters * full * (depth - d) for d in range(depth + 1)]
    counts = [0] * num_voters
    picks = [-1] * depth
    partial = [0] * depth
    best, best_members = -1, ()

    d, applied = 0, False
    while d >= 0:
        pool, fresh, end = levels[d]
        if applied:
            for i in approvers[pool[picks[d]]]:
                counts[i] -= 1
        p = picks[d] + 1
        if p >= end:
            d, applied = d - 1, True
            continue
        picks[d] = p
        voters = approvers[pool[p]]
        if d + 1 == depth:
            # a leaf is scored without touching the counts
            score = partial[d]
            for i in voters:
                score += steps[counts[i]]
            if score >= best:
                members = tuple(sorted(lv[0][q] for lv, q in zip(levels, picks)))
                if score > best or members < best_members:
                    best, best_members = score, members
            applied = False
            continue
        score = partial[d]
        for i in voters:
            t = counts[i]
            score += steps[t]
            counts[i] = t + 1
        applied = True
        if score + room[d + 1] < best:
            continue
        d += 1
        partial[d] = score
        picks[d] = -1 if levels[d][1] else p
        applied = False
    return best, best_members
