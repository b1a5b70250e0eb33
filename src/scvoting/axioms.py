"""Justified-representation checks for sub-committee approval voting.

Four axioms are verified, each quantifying over "large enough" cohesive
voter groups (size thresholds are compared exactly via cross-multiplication,
never floats):

* ``jr``          - classic single-pool justified representation: sw-jr
                    never reads the partition, so on an instance it is
                    sw-jr relabelled; raw ballots are first embedded as a
                    one-subset instance,
* ``sw-jr``       - span-wide: any group of >= n/k voters sharing a candidate
                    must get someone it approves, anywhere in the committee,
* ``iw-jr``       - per subset: within subset j, groups of >= n/k_j voters
                    sharing a candidate of that subset must be represented
                    inside that subset,
* ``weak-sw-jr``  - span-wide, but only for groups sharing a candidate in
                    *every* subset.

Each checker returns an :class:`AxiomVerdict`; failures carry a concrete
:class:`Violation` witness.  :func:`brute_force_axiom` re-decides any of the
four by enumerating all voter groups and is the testing oracle for the fast
checkers.

The fast checkers count support on voter bitmasks
(:attr:`ScvInstance.approver_masks`, cached per instance): the unrepresented
voters are everyone outside the union of the members' approver masks, and
:func:`~scvoting.core.best_supported` returns the candidate most of them
approve, only when those supporters reach the size threshold.  The weak-sw-jr
search intersects the same masks.  A pass is vacuous when the same violation
finder finds nothing with no voter represented; that depends on the instance
alone, so each finder's vacuity pass runs once per instance (jr shares
sw-jr's) and is kept on the instance.  The oracle keeps to plain frozensets,
so it shares none of this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    CandidateSubset,
    Committee,
    ScvInstance,
    best_supported,
    validate_instance,
)
from .errors import TooLarge, exact_str

JR = "jr"
SW_JR = "sw-jr"
IW_JR = "iw-jr"
WEAK_SW_JR = "weak-sw-jr"
ALL_AXIOMS = (JR, SW_JR, IW_JR, WEAK_SW_JR)

VACUOUS_NOTE = "vacuous: no cohesive group reaches the size threshold"

DEFAULT_BRUTE_FORCE_CAP = 16


@dataclass(frozen=True)
class Violation:
    """Witness of an axiom failure.

    ``voters`` is an unrepresented group meeting the axiom's size threshold;
    ``candidates`` the commonly approved evidence (one candidate for ``jr`` /
    ``sw-jr`` / ``iw-jr``, one per subset for ``weak-sw-jr``); ``subset`` the
    offended subset index for ``iw-jr``, else ``None``.
    """

    voters: frozenset[int]
    candidates: tuple[int, ...]
    subset: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "voters", frozenset(self.voters))
        object.__setattr__(self, "candidates", tuple(self.candidates))


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome of one axiom check: ``satisfied`` iff ``witness`` is absent."""

    axiom: str
    satisfied: bool
    witness: Optional[Violation] = None
    note: str = ""


def verdict_to_json(inst: ScvInstance, verdict: AxiomVerdict) -> dict:
    """JSON-ready form of a verdict, with candidates and subsets by name."""
    witness = None
    if verdict.witness is not None:
        wit = verdict.witness
        witness = {
            "voters": sorted(wit.voters),
            "candidates": [inst.candidate_name(c) for c in wit.candidates],
            "subset": None if wit.subset is None else inst.subsets[wit.subset].name,
        }
    return {
        "axiom": verdict.axiom,
        "satisfied": verdict.satisfied,
        "witness": witness,
    }


def _unrepresented(inst: ScvInstance, won) -> int:
    """Voters approving none of ``won``, as a bitmask."""
    masks = inst.approver_masks
    represented = 0
    for c in won:
        represented |= masks[c]
    return ((1 << inst.num_voters) - 1) & ~represented


def _verdict(axiom: str, find, inst: ScvInstance, committee) -> AxiomVerdict:
    """Verdict from ``find(inst, won)``: (supporter mask, evidence, subset or
    None) for a violation, else None.  A pass is vacuous when ``find`` finds
    nothing with no voter represented.  That depends on the instance alone,
    so it is found once per instance and finder and kept in the instance's
    ``__dict__``, as its cached properties are: it lives as long as the
    instance does."""
    found = find(inst, Committee.of(inst, committee).members)
    if found is None:
        vacuous = inst.__dict__.setdefault("_vacuous", {})
        if find not in vacuous:
            vacuous[find] = find(inst, frozenset()) is None
        return AxiomVerdict(axiom, True, note=VACUOUS_NOTE if vacuous[find] else "")
    supporters, candidates, subset = found
    return AxiomVerdict(axiom, False, Violation(inst.voters_of(supporters), candidates, subset))


def _sw_violation(inst: ScvInstance, won: frozenset[int]) -> Optional[tuple]:
    """Best span-wide witness: maximal support, lowest id on ties."""
    unrep = _unrepresented(inst, won)
    pick = best_supported(inst, range(inst.num_candidates), unrep, inst.committee_size)
    if pick is None:
        return None
    best, supporters = pick
    return supporters, (best,), None


def check_sw_jr(inst: ScvInstance, committee) -> AxiomVerdict:
    """Span-wide justified representation.

    Runs the support-count test: the committee fails iff some candidate is
    approved by at least n/k voters none of whom has any approved committee
    member.  O(m) bitmask operations on n-bit voter masks.
    """
    return _verdict(SW_JR, _sw_violation, inst, committee)


def _iw_violation(inst: ScvInstance, won: frozenset[int]) -> Optional[tuple]:
    """First failing subset (ascending), then its maximal-support candidate."""
    for j, sub in enumerate(inst.subsets):
        unrep = _unrepresented(inst, won.intersection(sub.members))
        pick = best_supported(inst, sub.members, unrep, sub.quota)
        if pick is not None:
            best, supporters = pick
            return supporters, (best,), j
    return None


def check_iw_jr(inst: ScvInstance, committee) -> AxiomVerdict:
    """Per-subset justified representation.

    Restricts ballots and committee to each subset in turn and runs the
    support-count test at threshold n/k_j.  The witness reports the first
    failing subset (ascending), then the maximal-support candidate.
    """
    return _verdict(IW_JR, _iw_violation, inst, committee)


def _weak_violation(inst: ScvInstance, won: frozenset[int]) -> Optional[tuple]:
    """Lexicographically least candidate tuple commonly approved by a large
    enough group of the voters unrepresented by ``won``, with all of those
    common supporters.

    Depth-first over subsets in order, candidates in ascending id, pruning a
    branch once the running supporter intersection drops below n/k.  Exact,
    but exponential in the number of subsets in the worst case.  The walk
    keeps its own stack, one frame per open node, so any number of subsets fits.
    """
    n, k = inst.num_voters, inst.committee_size
    pool = _unrepresented(inst, won)
    masks = inst.approver_masks
    levels: list[list[tuple[int, int]]] = []
    for sub in inst.subsets:
        level = []
        for c in sorted(sub.members):
            supp = masks[c] & pool
            if supp.bit_count() * k >= n:
                level.append((c, supp))
        if not level:
            return None
        levels.append(level)

    # one frame per open level d: the supporter intersection of the first
    # d choices and the index in levels[d] tried last
    path = [[pool, -1]]
    while path:
        d = len(path) - 1
        group, last = path[d]
        for p in range(last + 1, len(levels[d])):
            narrowed = group & levels[d][p][1]
            if narrowed.bit_count() * k >= n:
                break
        else:
            path.pop()
            continue
        path[d][1] = p
        if d + 1 == len(levels):
            chosen = tuple(level[q][0] for level, (_, q) in zip(levels, path))
            return narrowed, chosen, None
        path.append([narrowed, -1])
    return None


def check_weak_sw_jr(inst: ScvInstance, committee) -> AxiomVerdict:
    """Weak span-wide justified representation.

    Fails iff some candidate tuple, one per subset, is commonly approved by
    at least n/k voters with no approved committee member at all.  The
    reported witness is the lexicographically least such tuple together with
    all of its unrepresented common supporters.
    """
    return _verdict(WEAK_SW_JR, _weak_violation, inst, committee)


def check_jr(
    ballots: ScvInstance | Iterable[Iterable[int]],
    committee: Iterable[int],
    k: int,
    num_candidates: Optional[int] = None,
) -> AxiomVerdict:
    """Classic justified representation for a single candidate pool.

    ``ballots`` is either raw ballots of integer candidate ids, embedded as a
    one-subset instance (:func:`jr_embedding`), or an :class:`ScvInstance`,
    checked as it is: sw-jr reads only n, k, the candidates and their
    approvers, never the partition, so it is jr relabelled.  The committee
    is still validated against that instance's quotas.  With an instance,
    ``k`` must be its committee size and ``num_candidates`` ``None`` or its
    candidate count, else :class:`ValueError`.
    """
    if isinstance(ballots, ScvInstance):
        inst = ballots
        if k != inst.committee_size:
            raise ValueError(
                f"k = {exact_str(k)} but the instance's committee size is {inst.committee_size}"
            )
        if num_candidates not in (None, inst.num_candidates):
            raise ValueError(
                f"num_candidates = {exact_str(num_candidates)} but the instance has {inst.num_candidates}"
            )
    else:
        ballots, committee = [list(b) for b in ballots], list(committee)
        if num_candidates is None:
            num_candidates = max((c for b in (committee, *ballots) for c in b
                                  if isinstance(c, int)), default=-1) + 1
        inst = jr_embedding(ballots, k, num_candidates)
    verdict = check_sw_jr(inst, committee)
    return AxiomVerdict(JR, verdict.satisfied, verdict.witness, verdict.note)


def jr_embedding(
    ballots: Iterable[Iterable[int]], k: int, num_candidates: int
) -> ScvInstance:
    """One-subset instance over candidates ``0 .. num_candidates-1``."""
    ballots = list(ballots)
    inst = ScvInstance(
        num_voters=len(ballots),
        candidate_names=tuple(f"c{c}" for c in range(num_candidates)),
        subsets=(CandidateSubset("C", tuple(range(num_candidates)), k),),
        ballots=ballots,
    )
    return validate_instance(inst)


def brute_force_axiom(
    inst: ScvInstance,
    committee,
    axiom: str,
    cap: int = DEFAULT_BRUTE_FORCE_CAP,
) -> AxiomVerdict:
    """Ground-truth verdict by enumerating every voter group.

    Checks the quantified definition of ``axiom`` over all non-empty subsets
    of voters, independently of the fast checkers.  Raises :class:`TooLarge`
    when the voter count exceeds ``cap``.
    """
    if axiom not in ALL_AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}")
    if inst.num_voters > cap:
        raise TooLarge(
            f"{inst.num_voters} voters exceeds the enumeration cap of {exact_str(cap)}"
        )
    won = Committee.of(inst, committee).members
    n, k = inst.num_voters, inst.committee_size
    ballots = inst.ballots
    subset_members = [frozenset(sub.members) for sub in inst.subsets]

    for mask in range(1, 1 << n):
        group = [i for i in range(n) if mask >> i & 1]
        size = len(group)
        common = frozenset.intersection(*(ballots[i] for i in group))
        if axiom in (JR, SW_JR):
            if size * k < n or not common:
                continue
            if any(ballots[i] & won for i in group):
                continue
            return AxiomVerdict(
                axiom, False, Violation(frozenset(group), (min(common),))
            )
        if axiom == WEAK_SW_JR:
            if size * k < n:
                continue
            per_subset = [common & members for members in subset_members]
            if not all(per_subset):
                continue
            if any(ballots[i] & won for i in group):
                continue
            evidence = tuple(min(part) for part in per_subset)
            return AxiomVerdict(axiom, False, Violation(frozenset(group), evidence))
        # iw-jr
        for j, members in enumerate(subset_members):
            if size * inst.subsets[j].quota < n:
                continue
            common_j = common & members
            if not common_j:
                continue
            if any(ballots[i] & won & members for i in group):
                continue
            return AxiomVerdict(
                axiom, False, Violation(frozenset(group), (min(common_j),), subset=j)
            )
    return AxiomVerdict(axiom, True)


def check_axiom(inst: ScvInstance, committee, axiom: str) -> AxiomVerdict:
    """Dispatch to the fast checker for ``axiom``.

    For ``jr`` the whole profile is treated as a single pool with the full
    committee size (the classic definition, ignoring the partition): the
    instance goes to :func:`check_jr` as it is, with its cached approver
    masks, and nothing is rebuilt.
    """
    if axiom == SW_JR:
        return check_sw_jr(inst, committee)
    if axiom == IW_JR:
        return check_iw_jr(inst, committee)
    if axiom == WEAK_SW_JR:
        return check_weak_sw_jr(inst, committee)
    if axiom == JR:
        return check_jr(inst, committee, inst.committee_size)
    raise ValueError(f"unknown axiom {axiom!r}")
