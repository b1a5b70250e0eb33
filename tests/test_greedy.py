"""Greedy construction: traces, guarantees, and the slot-counting bound."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scvoting as sv
from scvoting import fixtures
from conftest import random_instance

PHASE_ORDER = {"intra": 0, "span": 1, "fill": 2}


def test_split_fixture_trace():
    inst = fixtures.axiom_split_instance()
    committee, trace = sv.solve_greedy(inst)
    assert inst.names_of(committee.members) == ("c7", "a", "b")
    steps = [
        (s.phase, inst.candidate_name(s.candidate), s.subset, s.support)
        for s in trace.steps
    ]
    assert steps == [
        ("intra", "a", 1, 6),
        ("span", "c7", 0, 4),
        ("fill", "b", 1, 0),
    ]
    assert trace.steps[0].newly_represented == tuple(range(6))
    assert trace.steps[1].newly_represented == (6, 7, 8, 9)
    assert trace.steps[2].newly_represented == ()
    assert sv.check_iw_jr(inst, committee).satisfied
    assert sv.check_weak_sw_jr(inst, committee).satisfied


def test_deadlock_fixture_still_passes_the_weaker_axioms():
    inst = fixtures.no_swjr_instance()
    committee, trace = sv.solve_greedy(inst)
    assert inst.names_of(committee.members) == ("a1", "b1")
    assert [s.phase for s in trace.steps] == ["span", "fill"]
    assert sv.check_iw_jr(inst, committee).satisfied
    assert sv.check_weak_sw_jr(inst, committee).satisfied
    assert not sv.check_sw_jr(inst, committee).satisfied


def test_empty_profile_is_filled_by_lowest_ids():
    inst = sv.ScvInstance.from_names(
        3, [("C1", ["x", "y", "z"], 2), ("C2", ["u", "v"], 1)], [[], [], []]
    )
    committee, trace = sv.solve_greedy(inst)
    assert inst.names_of(committee.members) == ("x", "y", "u")
    assert all(s.phase == "fill" for s in trace.steps)
    assert sv.check_iw_jr(inst, committee).satisfied
    assert sv.check_weak_sw_jr(inst, committee).satisfied


def test_intra_support_recomputes_after_each_pick():
    # one-shot ranking would elect x then y and abandon the z voters
    inst = sv.ScvInstance.from_names(
        4,
        [("C", ["x", "y", "z"], 2)],
        [["x", "y"], ["x", "y"], ["z"], ["z"]],
    )
    committee, trace = sv.solve_greedy(inst)
    assert inst.names_of(committee.members) == ("x", "z")
    assert [s.phase for s in trace.steps] == ["intra", "intra"]
    assert sv.check_iw_jr(inst, committee).satisfied


def test_determinism():
    rng = random.Random(11)
    for _ in range(20):
        inst = random_instance(rng)
        assert sv.solve_greedy(inst) == sv.solve_greedy(inst)


def test_trace_shape_invariants():
    rng = random.Random(12)
    for _ in range(80):
        inst = random_instance(rng)
        committee, trace = sv.solve_greedy(inst)
        phases = [PHASE_ORDER[s.phase] for s in trace.steps]
        assert phases == sorted(phases)
        candidates = [s.candidate for s in trace.steps]
        assert len(set(candidates)) == len(candidates)
        assert frozenset(candidates) == committee.members
        for j, sub in enumerate(inst.subsets):
            assert sum(1 for s in trace.steps if s.subset == j) == sub.quota
        # intra steps visit subsets in ascending order
        intra_subsets = [s.subset for s in trace.steps if s.phase == "intra"]
        assert intra_subsets == sorted(intra_subsets)


def test_output_always_satisfies_both_axioms():
    rng = random.Random(13)
    for _ in range(200):
        inst = random_instance(rng)
        committee, _ = sv.solve_greedy(inst)
        assert sv.check_iw_jr(inst, committee).satisfied
        assert sv.check_weak_sw_jr(inst, committee).satisfied


def test_replaying_the_trace_reproduces_supports_and_committee():
    rng = random.Random(14)
    for _ in range(60):
        inst = random_instance(rng)
        committee, trace = sv.solve_greedy(inst)
        won = set()
        won_by_subset = [set() for _ in inst.subsets]
        for step in trace.steps:
            if step.phase == "intra":
                pool = won_by_subset[step.subset]
            else:
                pool = won
            supporters = [
                i
                for i in range(inst.num_voters)
                if step.candidate in inst.ballots[i] and not inst.ballots[i] & pool
            ]
            assert step.support == len(supporters)
            assert step.newly_represented == tuple(supporters)
            won.add(step.candidate)
            won_by_subset[step.subset].add(step.candidate)
        assert frozenset(won) == committee.members


def test_trace_serialization_round_trips_per_line():
    inst = fixtures.axiom_split_instance()
    _, trace = sv.solve_greedy(inst)
    lines = sv.trace_to_json_lines(inst, trace).splitlines()
    assert len(lines) == len(trace.steps)
    first = json.loads(lines[0])
    assert first == {
        "phase": "intra",
        "candidate": "a",
        "subset": "C2",
        "support": 6,
        "newly_represented": [0, 1, 2, 3, 4, 5],
    }


# SHA-256 of (sorted committee, every step as [phase, candidate, subset,
# support, newly represented]): the fixtures, a party-list profile, and the
# shapes of the benchmark's audit workload
GOLDEN_RUNS = [
    (fixtures.no_swjr_instance,
     "db8244f880f513334a8973e6227f2d3506db4ef9f781951f49c75d0563ad9225"),
    (fixtures.axiom_split_instance,
     "103d0c79e579bf8e621ac672ba643bf70b487bdbe84d798f4d34bb5ea93190c6"),
    (fixtures.pav_vs_swjr_instance,
     "7a9518e9ad85da7c4862a8b71b27364fe7b63346a43f725a43297b957ad5a699"),
    (fixtures.swpav_vs_iwjr_instance,
     "fe62865dd27afaf08716a14f7daca7ceab486e45edb9b5d39a6ee67ef7e64002"),
    (fixtures.swpav_misses_iwjr_instance,
     "cb2c53ec099b0fcbf42da483100f65e2b5fe747887ad17f78a75e1f6a34abbf1"),
    (fixtures.iwpav_vs_weak_instance,
     "ed40ef3691058d09faa87578a97df925add35f01e127f8a91ff37215681d58e8"),
    (lambda: sv.generate_instance(sv.PartyListModel(
        (("Left", ("l1", "l2", "l3"), 2), ("Right", ("r1", "r2"), 1)),
        ((4, ("l1", "r1")), (3, ("l2", "l3", "r2")), (2, ("l3",)), (1, ()))), 0),
     "ce7cf5edc0b38e0c34d107ae31711ec6442b23bccb5e3d15fa92feb45cf6a327"),
    (lambda: sv.generate_instance(sv.UniformModel(2000, (20, 20, 20), (3, 3, 3), 0.12), 1),
     "1c9f6f2a605e129a22bf91776c6e2c0c94600c84731d54685d131a35c6737ce7"),
    (lambda: sv.generate_instance(sv.UniformModel(2000, (20, 20, 20), (3, 3, 3), 0.12), 2),
     "0e369c16d71b47f2927a1c65d137e9dfddb60bf8faab56259505ec93fe11b62d"),
    (lambda: sv.generate_instance(sv.UniformModel(2000, (20, 20, 20), (3, 3, 3), 0.12), 3),
     "e1c129c4def90ba4b51871f02f3f76619a3ad96fdd5e2f5d585e1a09f7ccdd94"),
    (lambda: sv.generate_instance(sv.UniformModel(200, (3,) * 12, (1,) * 12, 0.6), 1),
     "30c8a2eaf0bff325bb5875e29ad583800a56a38aff1ec9dfd3c20df42b2a0861"),
]


@pytest.mark.parametrize("build, digest", GOLDEN_RUNS, ids=[
    "deadlock", "split", "rivalry", "tension", "misses", "blocks", "party-list",
    "audit-2000-seed-1", "audit-2000-seed-2", "audit-2000-seed-3", "audit-200-by-12"])
def test_committee_and_trace_match_their_golden_digest(build, digest):
    committee, trace = sv.solve_greedy(build())
    record = [
        list(committee.sorted_members),
        [[s.phase, s.candidate, s.subset, s.support, list(s.newly_represented)]
         for s in trace.steps],
    ]
    assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == digest


# -- the slot-counting bound --------------------------------------------------------


def test_gap_examples():
    assert sv.lemma1_gap([1, 2], [0, 1]) == (Fraction(1, 3), Fraction(1, 2))
    assert sv.lemma1_gap([3, 4], [0, 0]) == (Fraction(0), Fraction(0))
    assert sv.lemma1_gap([2, 5, 1], [2, 5, 1]) == (Fraction(1), Fraction(1))


def test_gap_rejects_bad_input():
    with pytest.raises(sv.EmptySequence):
        sv.lemma1_gap([], [])
    with pytest.raises(ValueError):
        sv.lemma1_gap([1, 2], [1])
    with pytest.raises(ValueError):
        sv.lemma1_gap([0], [0])
    with pytest.raises(ValueError):
        sv.lemma1_gap([1], [-1])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 50), st.integers(0, 50)),
        min_size=1,
        max_size=8,
    )
)
def test_gap_left_side_never_exceeds_right(pairs):
    quotas = [q for q, _ in pairs]
    filled = [f for _, f in pairs]
    lhs, rhs = sv.lemma1_gap(quotas, filled)
    assert lhs <= rhs
