"""Greedy committee construction: one election loop over rounds, then padding.

The solver fills quotas deterministically and always returns a committee
satisfying both the per-subset axiom (``iw-jr``) and the weak span-wide
axiom (``weak-sw-jr``).  It runs one election loop over a list of rounds,
each a phase, the subsets it may elect into, and a threshold:

1. ``intra``: one round per subset j (ascending), at n/k_j within j.
2. ``span``: one round across all subsets, at n/k.

A round starts from the voters represented by the won members of its own
subsets (none for an ``intra`` round, every won member for the ``span``
round) and repeatedly elects, among the unelected members of its subsets
with open slots, the candidate approved by the most of its unrepresented
voters, as long as that support reaches the round's threshold.  Then
``fill`` pads every remaining slot with the lowest-id unelected candidate of
its subset, continuing from the ``span`` round's represented voters.

Ties always break toward the lowest candidate id, so identical instances
yield identical committees and traces.  Supports are counted on voter
bitmasks: a round keeps the voters it represents as a mask that each pick
ORs its approver mask into, and :func:`~scvoting.core.best_supported`
scores the candidates against its complement.  That kernel also applies
the round's threshold, so a round ends when it returns no pick.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Committee, ScvInstance, best_supported
from .errors import EmptySequence

PHASE_INTRA = "intra"
PHASE_SPAN = "span"
PHASE_FILL = "fill"


@dataclass(frozen=True)
class GreedyStep:
    """One election step: who was picked, where, and on what support.

    ``support`` counts the approvals among voters unrepresented at selection
    time (within the subset for ``intra`` steps, globally for ``span`` and
    ``fill`` steps); ``newly_represented`` lists exactly those voters.
    """

    phase: str
    candidate: int
    subset: int
    support: int
    newly_represented: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "newly_represented", tuple(self.newly_represented)
        )


@dataclass(frozen=True)
class GreedyTrace:
    steps: tuple[GreedyStep, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


def solve_greedy(inst: ScvInstance) -> tuple[Committee, GreedyTrace]:
    """Run the greedy construction on a validated instance.

    Returns the committee and the full step trace.  Polynomial time; the
    output is feasible and passes both ``check_iw_jr`` and
    ``check_weak_sw_jr``.
    """
    masks = inst.approver_masks
    subset_of = inst.subset_index
    everyone = (1 << inst.num_voters) - 1
    steps: list[GreedyStep] = []
    won: set[int] = set()
    need = list(inst.quotas)  # open slots per subset

    def elect(phase: str, candidate: int, supporters: int) -> int:
        won.add(candidate)
        need[subset_of[candidate]] -= 1
        steps.append(GreedyStep(phase, candidate, subset_of[candidate],
                                supporters.bit_count(), inst.voters_of(supporters)))
        return masks[candidate]

    # a round's voters start as those that won members of its subsets represent
    rounds = [(PHASE_INTRA, (j,), sub.quota) for j, sub in enumerate(inst.subsets)]
    rounds.append((PHASE_SPAN, range(len(need)), inst.committee_size))
    for phase, scope, threshold in rounds:
        represented = 0
        for c in won:
            if subset_of[c] in scope:
                represented |= masks[c]
        while pick := best_supported(
            inst,
            [c for j in scope if need[j] for c in inst.subsets[j].members if c not in won],
            everyone & ~represented,
            threshold,
        ):
            represented |= elect(phase, *pick)

    # fill: lowest-id padding after the span round, recorded with sub-threshold support
    for j, sub in enumerate(inst.subsets):
        while need[j]:
            candidate = min(c for c in sub.members if c not in won)
            represented |= elect(PHASE_FILL, candidate, masks[candidate] & ~represented)

    return Committee(frozenset(won)), GreedyTrace(tuple(steps))


def lemma1_gap(
    quotas: Sequence[int], filled: Sequence[int]
) -> tuple[Fraction, Fraction]:
    """Both sides of the slot-counting bound behind the greedy guarantee.

    For positive quotas ``k_j`` and non-negative fill counts ``k_j'``,
    returns ``(sum_j k_j' / sum_j k_j, max_j k_j'/k_j)`` as exact rationals;
    the left side never exceeds the right.  Exposed for property testing.
    """
    quotas = list(quotas)
    filled = list(filled)
    if not quotas:
        raise EmptySequence("need at least one quota")
    if len(quotas) != len(filled):
        raise ValueError(
            f"quota and fill sequences differ in length: {len(quotas)} vs {len(filled)}"
        )
    if any(q < 1 for q in quotas):
        raise ValueError("quotas must be positive")
    if any(f < 0 for f in filled):
        raise ValueError("fill counts must be non-negative")
    lhs = Fraction(sum(filled), sum(quotas))
    rhs = max(Fraction(f, q) for f, q in zip(filled, quotas))
    return lhs, rhs


def trace_to_json_lines(inst: ScvInstance, trace: GreedyTrace) -> str:
    """One compact JSON object per line, one line per step."""
    return "".join(json.dumps({
        "phase": step.phase,
        "candidate": inst.candidate_name(step.candidate),
        "subset": inst.subsets[step.subset].name,
        "support": step.support,
        "newly_represented": list(step.newly_represented),
    }) + "\n" for step in trace.steps)
