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
serves both variants: it picks one candidate per level, keeps each level's
voters as exact-count classes on the approver masks, so backing out of a
pick undoes nothing, and prunes a branch once even a full point per voter in
every open slot could not reach the incumbent.  A variant is its list of
scopes, searched one by one: one scope of all subsets for ``sw-pav``, one
per subset for ``iw-pav``.  Ties always resolve to the committee whose
sorted member-id tuple is lexicographically least.
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

    The variant only picks the scopes: ``sw-pav`` searches one holding every
    subset, ``iw-pav`` one per subset.  Raises :class:`BudgetExceeded`
    (reporting the committee count that would be enumerated) instead of
    starting a search larger than ``budget``.  Among co-optimal committees
    the lexicographically least sorted member tuple is returned.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    subsets = [(sorted(sub.members), sub.quota) for sub in inst.subsets]
    scopes = [subsets] if variant == SW_PAV else [[part] for part in subsets]
    total = sum(prod(comb(len(pool), q) for pool, q in scope) for scope in scopes)
    if total > budget:
        raise BudgetExceeded(total, budget)

    masks = inst.approver_masks
    c_max = max(min(sum(q for _, q in scope),
                    _count_classes(masks, [c for pool, _ in scope for c in pool])[0][0])
                for scope in scopes)
    scale, table = _scaled_harmonics(c_max)
    parts = [_search(masks, inst.num_voters, scope, table) for scope in scopes]
    score, members = sum(s for s, _ in parts), [c for _, part in parts for c in part]
    return Committee(frozenset(members)), Fraction(score, scale)


def _search(
    masks: Sequence[int],
    num_voters: int,
    subsets: Sequence[tuple[Sequence[int], int]],
    table: Sequence[int],
) -> tuple[int, tuple[int, ...]]:
    """Best scaled score over every choice of ``quota`` members from each
    ``(sorted pool, quota)`` pair, with the lexicographically least sorted
    member tuple among ties.

    ``table[j]`` is a voter's score at count j, up to the largest count any
    voter can reach here.  Each level picks one member after the previous
    pick of the same pool, so every combination is reached once and shares
    the work of its prefix.  ``stack[d]`` holds the voters before level d's
    pick as ``(count, voter mask)`` classes by ascending count, none empty.
    A pick with approver mask a gains ``steps[j] * |v & a|`` on each class
    ``(j, v)`` and splits it into ``v & ~a``, staying at j, and ``v & a``,
    which joins the stayers at j + 1.  The loop is iterative so that
    thousands of seats do not exhaust the interpreter stack.
    """
    levels = [(pool, s == 0, len(pool) - quota + s + 1)
              for pool, quota in subsets for s in range(quota)]
    depth = len(levels)
    steps = [b - a for a, b in zip(table, table[1:])]  # steps[j]: gain of count j -> j+1
    # the most the levels from d onward can add: a first approval, L, per voter each
    full = steps[0] if steps else 0
    room = [num_voters * full * (depth - d) for d in range(depth + 1)]
    stack = [[(0, (1 << num_voters) - 1)]] * depth  # the root: everyone at count 0
    picks, partial = [-1] * depth, [0] * depth
    best, best_members = -1, ()
    need = [best - r for r in room]  # a level-d score below need[d] cannot catch up
    d = 0
    while d >= 0:
        pool, fresh, end = levels[d]
        p = picks[d] + 1
        if d + 1 == depth:  # the leaves left on this branch only sum their gains
            for p in range(p, end):
                approved = masks[pool[p]]
                score = partial[d]
                for j, voters in stack[d]:
                    hit = voters & approved
                    if hit:
                        score += steps[j] * hit.bit_count()
                if score >= best:
                    picks[d] = p
                    members = tuple(sorted(lv[0][q] for lv, q in zip(levels, picks)))
                    if score > best or members < best_members:
                        best, best_members = score, members
                        need = [best - r for r in room]
            p = end
        if p >= end:
            d -= 1
            continue
        picks[d] = p
        approved = masks[pool[p]]
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
        if score < need[d + 1]:
            continue
        d += 1
        stack[d] = split
        partial[d] = score
        picks[d] = -1 if levels[d][1] else p
    return best, best_members
