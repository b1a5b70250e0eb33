"""Greedy committee construction with a per-subset then span-wide sweep.

The solver fills quotas in three deterministic phases and always returns a
committee satisfying both the per-subset axiom (``iw-jr``) and the weak
span-wide axiom (``weak-sw-jr``):

1. ``intra``: within each subset (ascending), repeatedly elect the candidate
   approved by the most voters not yet represented inside that subset, as
   long as that support reaches n/k_j and slots remain.
2. ``span``: across all subsets with open slots, repeatedly elect the
   candidate approved by the most globally unrepresented voters, as long as
   that support reaches n/k.
3. ``fill``: pad every remaining slot with the lowest-id unelected candidate
   of its subset.

Ties always break toward the lowest candidate id, so identical instances
yield identical committees and traces.  Supports are counted on voter
bitmasks: the voters represented by the committee, and in ``intra`` by the
subset's own members, are kept as masks that each pick ORs its approver
mask into, and :func:`~scvoting.core.best_supported` scores the candidates
against their complement.  That kernel also applies the phase's threshold,
so a phase ends when it returns no pick.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Committee, ScvInstance, best_supported, mask_voters
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
    """Run the three-phase greedy construction on a validated instance.

    Returns the committee and the full step trace.  Polynomial time; the
    output is feasible and passes both ``check_iw_jr`` and
    ``check_weak_sw_jr``.
    """
    masks = inst.approver_masks
    everyone = (1 << inst.num_voters) - 1
    steps: list[GreedyStep] = []
    won: set[int] = set()
    need = list(inst.quotas)  # open slots per subset
    represented = 0  # voters approving some member

    def elect(phase: str, j: int, candidate: int, supporters: int):
        nonlocal represented
        won.add(candidate)
        need[j] -= 1
        represented |= masks[candidate]
        steps.append(
            GreedyStep(phase, candidate, j, supporters.bit_count(), mask_voters(supporters))
        )

    # intra: per-subset representation at threshold n / k_j
    for j, sub in enumerate(inst.subsets):
        represented_here = 0  # voters approving a member of this subset
        while need[j]:
            offered = (c for c in sub.members if c not in won)
            pick = best_supported(inst, offered, everyone & ~represented_here, sub.quota)
            if pick is None:
                break
            represented_here |= masks[pick[0]]
            elect(PHASE_INTRA, j, *pick)

    # span: global representation at threshold n / k
    while True:
        eligible = [
            c
            for j, sub in enumerate(inst.subsets)
            if need[j]
            for c in sub.members
            if c not in won
        ]
        pick = best_supported(inst, eligible, everyone & ~represented, inst.committee_size)
        if pick is None:
            break
        elect(PHASE_SPAN, inst.subset_index[pick[0]], *pick)

    # fill: lowest-id padding, recorded with its (sub-threshold) support
    for j, sub in enumerate(inst.subsets):
        while need[j]:
            candidate = min(c for c in sub.members if c not in won)
            elect(PHASE_FILL, j, candidate, masks[candidate] & ~represented)

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


def trace_step_to_json(inst: ScvInstance, step: GreedyStep) -> dict:
    return {
        "phase": step.phase,
        "candidate": inst.candidate_name(step.candidate),
        "subset": inst.subsets[step.subset].name,
        "support": step.support,
        "newly_represented": list(step.newly_represented),
    }


def trace_to_json_lines(inst: ScvInstance, trace: GreedyTrace) -> str:
    """One compact JSON object per line, one line per step."""
    return "".join(
        json.dumps(trace_step_to_json(inst, step)) + "\n" for step in trace.steps
    )
