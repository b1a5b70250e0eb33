"""The bitmask support counts against a frozenset reference, verdict for verdict.

The reference below scans the ballots as plain frozensets, one voter at a
time, and shares no code with the library's support-count kernel.  Every
part of a verdict must match it: satisfied, note, witness voters,
candidates and subset, for all four axioms; and for ``solve_greedy`` the
committee and the whole trace.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import scvoting as sv
from scvoting.axioms import VACUOUS_NOTE


# -- reference: frozenset scans ----------------------------------------------------


def ref_sw(inst, won, axiom=sv.SW_JR):
    n, k = inst.num_voters, inst.committee_size
    support = [0] * inst.num_candidates
    for ballot in inst.ballots:
        if not ballot & won:
            for c in ballot:
                support[c] += 1
    best = max(range(inst.num_candidates), key=lambda c: (support[c], -c))
    if support[best] * k >= n:
        voters = [i for i, b in enumerate(inst.ballots) if best in b and not b & won]
        return axiom, False, "", (voters, (best,), None)
    approvals = [sum(c in b for b in inst.ballots) for c in range(inst.num_candidates)]
    cohesive = any(a * k >= n for a in approvals)
    return axiom, True, "" if cohesive else VACUOUS_NOTE, None


def ref_iw(inst, won):
    n = inst.num_voters
    for j, sub in enumerate(inst.subsets):
        pool = frozenset(sub.members)
        won_j = won & pool
        support = {c: 0 for c in sub.members}
        for ballot in inst.ballots:
            if not ballot & won_j:
                for c in ballot & pool:
                    support[c] += 1
        best = max(support, key=lambda c: (support[c], -c))
        if support[best] * sub.quota >= n:
            voters = [i for i, b in enumerate(inst.ballots) if best in b and not b & won_j]
            return sv.IW_JR, False, "", (voters, (best,), j)
    cohesive = any(
        sum(c in b for b in inst.ballots) * sub.quota >= n
        for sub in inst.subsets
        for c in sub.members
    )
    return sv.IW_JR, True, "" if cohesive else VACUOUS_NOTE, None


def ref_weak_tuple(inst, pool):
    n, k = inst.num_voters, inst.committee_size
    pool = frozenset(pool)
    if len(pool) * k < n:
        return None
    levels = []
    for sub in inst.subsets:
        level = []
        for c in sorted(sub.members):
            supp = frozenset(i for i in pool if c in inst.ballots[i])
            if len(supp) * k >= n:
                level.append((c, supp))
        if not level:
            return None
        levels.append(level)

    def descend(depth, chosen, group):
        if depth == len(levels):
            return chosen, group
        for c, supp in levels[depth]:
            narrowed = group & supp
            if len(narrowed) * k >= n:
                found = descend(depth + 1, chosen + (c,), narrowed)
                if found is not None:
                    return found
        return None

    return descend(0, (), pool)


def ref_weak(inst, won):
    unrep = [i for i, b in enumerate(inst.ballots) if not b & won]
    found = ref_weak_tuple(inst, unrep)
    if found is not None:
        chosen, group = found
        return sv.WEAK_SW_JR, False, "", (sorted(group), chosen, None)
    vacuous = ref_weak_tuple(inst, range(inst.num_voters)) is None
    return sv.WEAK_SW_JR, True, VACUOUS_NOTE if vacuous else "", None


def ref_verdict(inst, won, axiom):
    if axiom == sv.IW_JR:
        return ref_iw(inst, won)
    if axiom == sv.WEAK_SW_JR:
        return ref_weak(inst, won)
    # jr is sw-jr on one pool of all candidates with the full committee size
    return ref_sw(inst, won, axiom)


def ref_best(candidates, voters, ballots):
    best, best_supporters = None, []
    for c in sorted(candidates):
        supporters = [i for i in voters if c in ballots[i]]
        if best is None or len(supporters) > len(best_supporters):
            best, best_supporters = c, supporters
    return best, best_supporters


def ref_greedy(inst):
    n, k, ballots = inst.num_voters, inst.committee_size, inst.ballots
    steps, won = [], set()
    won_in = [set() for _ in inst.subsets]

    def elect(phase, c, j, supporters):
        won.add(c)
        won_in[j].add(c)
        steps.append((phase, c, j, len(supporters), tuple(supporters)))

    for j, sub in enumerate(inst.subsets):
        while len(won_in[j]) < sub.quota:
            unrep = [i for i in range(n) if not ballots[i] & won_in[j]]
            c, supporters = ref_best([c for c in sub.members if c not in won], unrep, ballots)
            if c is None or len(supporters) * sub.quota < n:
                break
            elect("intra", c, j, supporters)
    while True:
        eligible = [
            c
            for j, sub in enumerate(inst.subsets)
            if len(won_in[j]) < sub.quota
            for c in sub.members
            if c not in won
        ]
        unrep = [i for i in range(n) if not ballots[i] & won]
        c, supporters = ref_best(eligible, unrep, ballots)
        if c is None or len(supporters) * k < n:
            break
        elect("span", c, inst.subset_index[c], supporters)
    for j, sub in enumerate(inst.subsets):
        while len(won_in[j]) < sub.quota:
            c = min(c for c in sub.members if c not in won)
            elect("fill", c, j, [i for i in range(n) if c in ballots[i] and not ballots[i] & won])
    return sorted(won), steps


# -- the comparison ------------------------------------------------------------------


def as_row(verdict):
    wit = verdict.witness
    if wit is not None:
        wit = (sorted(wit.voters), wit.candidates, wit.subset)
    return verdict.axiom, verdict.satisfied, verdict.note, wit


@st.composite
def kernel_cases(draw):
    """A programmatic instance with interleaved subset ids, and a committee.

    Voters number up to 12 or 65 to 130, so masks span several machine
    words; ballots are copied from a few kinds, which may be empty, so
    support ties are common.
    """
    total = draw(st.integers(1, 10))
    ids = draw(st.permutations(range(total)))
    cuts = draw(st.sets(st.integers(1, total - 1), max_size=3)) if total > 1 else set()
    bounds = [0, *sorted(cuts), total]
    subsets = [
        sv.CandidateSubset(f"S{j}", ids[lo:hi], draw(st.integers(1, hi - lo)))
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]
    voters = draw(st.integers(1, 12) | st.integers(65, 130))
    kinds = draw(st.lists(st.frozensets(st.integers(0, total - 1)), min_size=1, max_size=5))
    ballots = draw(st.lists(st.sampled_from(kinds), min_size=voters, max_size=voters))
    names = [f"c{i}" for i in range(total)]
    inst = sv.validate_instance(sv.ScvInstance(voters, names, subsets, ballots))
    members = [c for sub in subsets for c in draw(st.permutations(sub.members))[: sub.quota]]
    return inst, sv.Committee.of(inst, members)


def interleaved_tie():
    # y (id 0) and x (id 2) tie on 30 unrepresented supporters, over the
    # threshold 70/3; the subsets interleave their ids
    inst = sv.validate_instance(
        sv.ScvInstance(
            70,
            ("y", "u", "x", "v", "w"),
            (sv.CandidateSubset("A", (2, 0, 4), 1), sv.CandidateSubset("B", (3, 1), 2)),
            [frozenset({0})] * 30 + [frozenset({2})] * 30 + [frozenset({3})] * 4
            + [frozenset()] * 6,
        )
    )
    return inst, sv.Committee.of(inst, [4, 3, 1])


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
@example(interleaved_tie())
def test_verdicts_and_greedy_equal_the_frozenset_reference(case):
    inst, committee = case
    for axiom in sv.ALL_AXIOMS:
        got = as_row(sv.check_axiom(inst, committee, axiom))
        assert got == ref_verdict(inst, committee.members, axiom), axiom
    jr = sv.check_jr(inst.ballots, committee.members, inst.committee_size, inst.num_candidates)
    assert as_row(jr) == ref_sw(inst, committee.members, sv.JR)
    greedy, trace = sv.solve_greedy(inst)
    got_steps = [
        (s.phase, s.candidate, s.subset, s.support, s.newly_represented) for s in trace.steps
    ]
    assert (list(greedy.sorted_members), got_steps) == ref_greedy(inst)
