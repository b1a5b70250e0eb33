"""Fast verifiers against their definitions and the brute-force oracle."""

import random

import pytest

import scvoting as sv
from scvoting import axioms, fixtures
from conftest import Unreadable, random_committee, random_instance


def assert_witness_sound(inst, committee, verdict):
    """Every returned violation must satisfy its own invariants."""
    assert verdict.satisfied == (verdict.witness is None)
    if verdict.witness is None:
        return
    wit = verdict.witness
    members = sv.Committee.of(inst, committee).members
    n = inst.num_voters
    assert wit.voters
    if verdict.axiom == sv.IW_JR:
        sub = inst.subsets[wit.subset]
        (cand,) = wit.candidates
        assert cand in sub.members
        assert len(wit.voters) * sub.quota >= n
        for i in wit.voters:
            assert cand in inst.ballots[i]
            assert not inst.ballots[i] & members & frozenset(sub.members)
    elif verdict.axiom == sv.WEAK_SW_JR:
        assert len(wit.candidates) == inst.num_subsets
        assert len(wit.voters) * inst.committee_size >= n
        for cand, sub in zip(wit.candidates, inst.subsets):
            assert cand in sub.members
        for i in wit.voters:
            assert set(wit.candidates) <= inst.ballots[i]
            assert not inst.ballots[i] & members
    else:  # jr / sw-jr
        (cand,) = wit.candidates
        assert len(wit.voters) * inst.committee_size >= n
        for i in wit.voters:
            assert cand in inst.ballots[i]
            assert not inst.ballots[i] & members


# -- span-wide checks -------------------------------------------------------------


def test_deadlock_committee_fails_with_the_left_out_voter():
    inst = fixtures.no_swjr_instance()
    w = inst.committee([inst.candidate_id("a1"), inst.candidate_id("b1")])
    verdict = sv.check_sw_jr(inst, w)
    assert not verdict.satisfied
    assert verdict.witness.candidates == (inst.candidate_id("a2"),)
    assert verdict.witness.voters == frozenset({1})
    assert_witness_sound(inst, w, verdict)


def test_everyone_represented_passes():
    inst = sv.ScvInstance.from_names(
        3, [("C", ["x", "y"], 1)], [["x"], ["x"], ["x", "y"]]
    )
    assert sv.check_sw_jr(inst, inst.committee([0])).satisfied


def test_witness_picks_max_support_then_lowest_id():
    inst = sv.ScvInstance.from_names(
        4,
        [("C", ["v", "w", "x", "y", "z"], 2)],
        [["x"], ["y"], ["y"], ["z"]],
    )
    verdict = sv.check_sw_jr(inst, inst.committee([0, 1]))
    assert not verdict.satisfied
    assert verdict.witness.candidates == (inst.candidate_id("y"),)
    assert verdict.witness.voters == frozenset({1, 2})


def test_tied_support_breaks_to_lowest_id():
    inst = sv.ScvInstance.from_names(
        2, [("C", ["v", "w", "x", "y"], 2)], [["y"], ["x"]]
    )
    verdict = sv.check_sw_jr(inst, inst.committee([0, 1]))
    assert verdict.witness.candidates == (inst.candidate_id("x"),)


# Quotas (2, 2), so k = 4 and k_A = 2.  The first s voters approve only a3 and
# b3, the rest only a1 and b1; the committee is a1, a2, b1, b2.  Each pair of
# rows puts the group of s exactly at a threshold, then one voter short of it.
# Columns: n, s, whether jr / sw-jr / weak-sw-jr hold, whether iw-jr holds,
# and the greedy phase that elects a3 (None when fill passes it by).
THRESHOLD_BOUNDARY = [
    (8, 2, False, True, "span"),  # s*k == n
    (9, 2, True, True, None),  # s*k == n - 1
    (8, 4, False, False, "intra"),  # s*k_A == n
    (9, 4, False, True, "span"),  # s*k_A == n - 1
]


@pytest.mark.parametrize("n, s, span_wide, per_subset, a3_phase", THRESHOLD_BOUNDARY)
def test_size_threshold_is_exact_at_the_boundary(n, s, span_wide, per_subset, a3_phase):
    inst = sv.ScvInstance.from_names(
        n,
        [("A", ["a1", "a2", "a3"], 2), ("B", ["b1", "b2", "b3"], 2)],
        [["a3", "b3"]] * s + [["a1", "b1"]] * (n - s),
    )
    w = inst.committee([inst.candidate_id(x) for x in ("a1", "a2", "b1", "b2")])
    want = {sv.JR: span_wide, sv.SW_JR: span_wide, sv.WEAK_SW_JR: span_wide,
            sv.IW_JR: per_subset}
    for axiom, satisfied in want.items():
        verdict = sv.check_axiom(inst, w, axiom)
        assert verdict.satisfied is satisfied, axiom
        assert sv.brute_force_axiom(inst, w, axiom).satisfied is satisfied, axiom
        if not satisfied:
            assert verdict.witness.voters == frozenset(range(s)), axiom
    _, trace = sv.solve_greedy(inst)
    phases = {inst.candidate_name(step.candidate): step.phase for step in trace.steps}
    assert phases.get("a3") == a3_phase


# -- per-subset checks --------------------------------------------------------------


def test_split_fixture_verdicts():
    inst = fixtures.axiom_split_instance()
    ids = lambda *names: [inst.candidate_id(x) for x in names]

    weak_not_iw = inst.committee(ids("c1", "b", "c"))
    verdict = sv.check_iw_jr(inst, weak_not_iw)
    assert not verdict.satisfied
    assert verdict.witness.subset == 1
    assert verdict.witness.candidates == (inst.candidate_id("a"),)
    assert verdict.witness.voters == frozenset(range(6))
    assert sv.check_weak_sw_jr(inst, weak_not_iw).satisfied

    iw_not_weak = inst.committee(ids("c1", "a", "c"))
    assert sv.check_iw_jr(inst, iw_not_weak).satisfied
    verdict = sv.check_weak_sw_jr(inst, iw_not_weak)
    assert not verdict.satisfied
    assert verdict.witness.candidates == tuple(ids("c7", "b"))
    assert verdict.witness.voters == frozenset({6, 7, 8, 9})

    both = inst.committee(ids("c7", "a", "c"))
    assert sv.check_iw_jr(inst, both).satisfied
    assert sv.check_weak_sw_jr(inst, both).satisfied


def test_single_subset_iw_equals_sw():
    rng = random.Random(5)
    for _ in range(40):
        inst = random_instance(rng, max_subsets=1)
        w = random_committee(rng, inst)
        assert (
            sv.check_iw_jr(inst, w).satisfied
            == sv.check_sw_jr(inst, w).satisfied
        )


# -- classic single-pool wrapper -------------------------------------------------------


def test_jr_wrapper_examples():
    ballots = [{0}, {0}, {1}, {1}]
    assert sv.check_jr(ballots, {0, 1}, k=2).satisfied

    verdict = sv.check_jr(ballots, {0, 2}, k=2, num_candidates=3)
    assert not verdict.satisfied
    assert verdict.witness.candidates == (1,)
    assert verdict.witness.voters == frozenset({2, 3})

    verdict = sv.check_jr([{0}], {1}, k=1)
    assert not verdict.satisfied
    assert verdict.witness.candidates == (0,)


@pytest.mark.parametrize(
    "ballots, problems",
    [
        ([{-1}], ["ballot 0 references unknown candidate ids [-1]"]),
        ([{"0"}], ["ballot 0 references unknown candidate ids ['0']"]),
        ([{0.5}], ["ballot 0 references unknown candidate ids [0.5]"]),
        ([[[1]]], ["ballot 0 references unknown candidate ids [[1]]"]),
        ([[0, 0.0]], ["ballot 0 references unknown candidate ids [0.0]"]),
        ([[0.5, 0.5]], ["ballot 0 references unknown candidate ids [0.5]"]),
    ],
    ids=["negative-id", "string-id", "float-id", "unhashable-id", "float-beside-its-int-id",
         "repeated-float-id"],
)
def test_jr_wrapper_names_a_bad_ballot_id(ballots, problems):
    # only the int ids size the candidate pool, so any other id is named
    # as validation names it, an unhashable one included
    with pytest.raises(sv.BadBallot) as excinfo:
        sv.check_jr(ballots, {0}, k=1)
    assert excinfo.value.problems == problems


def test_jr_wrapper_names_an_unhashable_committee_member():
    with pytest.raises(sv.InfeasibleCommittee, match=r"^unknown candidate id \[0\]$"):
        sv.check_jr([[0], [1]], [[0]], k=1)


def test_jr_wrapper_matches_sw_on_flat_instances():
    rng = random.Random(6)
    for _ in range(30):
        inst = random_instance(rng, max_subsets=1)
        w = random_committee(rng, inst)
        jr = sv.check_jr(inst.ballots, w.members, inst.committee_size, inst.num_candidates)
        assert jr.satisfied == sv.check_sw_jr(inst, w).satisfied


def test_jr_on_an_instance_builds_nothing_new(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("check_axiom(..., 'jr') must not embed or validate again")

    monkeypatch.setattr(axioms, "jr_embedding", refuse)
    monkeypatch.setattr(axioms, "validate_instance", refuse)
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(("enter", name))
            verdict = fn(*args, **kwargs)
            calls.append(("exit", name))
            return verdict

        return wrapper

    monkeypatch.setattr(axioms, "check_jr", spy("check_jr", axioms.check_jr))
    monkeypatch.setattr(axioms, "check_sw_jr", spy("check_sw_jr", axioms.check_sw_jr))

    inst = fixtures.no_swjr_instance()
    assert inst.num_subsets > 1
    w = inst.committee([inst.candidate_id("a1"), inst.candidate_id("b1")])
    verdict = sv.check_axiom(inst, w, sv.JR)
    assert verdict == sv.AxiomVerdict(
        sv.JR, False, sv.Violation({1}, (inst.candidate_id("a2"),))
    )
    assert calls == [
        ("enter", "check_jr"),
        ("enter", "check_sw_jr"),
        ("exit", "check_sw_jr"),
        ("exit", "check_jr"),
    ]


def seeded_jr_instance(rng):
    """1 to 140 voters, 1 to 4 subsets with interleaved ids, and ballots that
    are all empty, copied from a few kinds (which may be empty) or drawn
    independently.  Half of the draws have at most 16 voters, within reach
    of the oracle."""
    total = rng.randint(1, 10)
    ids = rng.sample(range(total), total)
    cuts = sorted(rng.sample(range(1, total), min(rng.randint(0, 3), total - 1)))
    bounds = [0, *cuts, total]
    subsets = [
        sv.CandidateSubset(f"S{j}", ids[lo:hi], rng.randint(1, hi - lo))
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]
    voters = rng.randint(1, 16) if rng.random() < 0.5 else rng.randint(17, 140)
    approval_prob = rng.choice([0.1, 0.2, 0.4])

    def draw():
        return frozenset(c for c in range(total) if rng.random() < approval_prob)

    shape = rng.choice(["empty", "copies", "copies", "free"])
    if shape == "empty":
        ballots = [frozenset()] * voters
    elif shape == "copies":
        # most kinds approve someone, so that cohesive groups are common
        kinds = [
            draw() | {rng.randrange(total)} if rng.random() < 0.75 else draw()
            for _ in range(rng.randint(1, 4))
        ]
        ballots = [rng.choice(kinds) for _ in range(voters)]
    else:
        ballots = [draw() for _ in range(voters)]
    names = [f"c{i}" for i in range(total)]
    return sv.validate_instance(sv.ScvInstance(voters, names, subsets, ballots))


def least_approved_committee(inst):
    """Each subset's quota of least-approved candidates, lowest id on ties,
    so that large groups are often left out."""
    support = [sum(c in b for b in inst.ballots) for c in range(inst.num_candidates)]
    members = []
    for sub in inst.subsets:
        members += sorted(sub.members, key=lambda c: (support[c], c))[: sub.quota]
    return inst.committee(members)


def test_jr_on_an_instance_equals_jr_on_its_ballots():
    rng = random.Random(8)
    for draw in range(300):
        inst = seeded_jr_instance(rng)
        w = random_committee(rng, inst) if draw % 2 else least_approved_committee(inst)
        got = sv.check_jr(inst, w, inst.committee_size)
        want = sv.check_jr(
            [set(b) for b in inst.ballots], w.members, inst.committee_size, inst.num_candidates
        )
        assert got.axiom == want.axiom == sv.JR
        assert (got.satisfied, got.note) == (want.satisfied, want.note)
        assert got.witness == want.witness
        if inst.num_voters <= 16:
            assert got.satisfied == sv.brute_force_axiom(inst, w, sv.JR).satisfied


def test_jr_on_an_instance_rejects_another_committee_size():
    inst = fixtures.no_swjr_instance()
    w = inst.committee([inst.candidate_id("a1"), inst.candidate_id("b1")])
    with pytest.raises(ValueError, match="committee size"):
        sv.check_jr(inst, w, inst.committee_size + 1)


def test_jr_on_an_instance_rejects_another_candidate_count():
    inst = fixtures.no_swjr_instance()
    w = inst.committee([inst.candidate_id("a1"), inst.candidate_id("b1")])
    assert not sv.check_jr(inst, w, inst.committee_size, inst.num_candidates).satisfied
    with pytest.raises(ValueError, match="num_candidates"):
        sv.check_jr(inst, w, inst.committee_size, inst.num_candidates + 1)


# -- brute-force oracle ----------------------------------------------------------------


def test_oracle_rejects_every_deadlock_committee():
    inst = fixtures.no_swjr_instance()
    for w in sv.iter_feasible_committees(inst):
        assert not sv.brute_force_axiom(inst, w, sv.SW_JR).satisfied


def test_oracle_reads_neither_the_rows_nor_the_masks():
    rng = random.Random(31)
    draws = [fixtures.axiom_split_instance(), fixtures.swpav_misses_iwjr_instance()]
    draws += [random_instance(rng, max_voters=9) for _ in range(30)]
    for inst in draws:
        committee = random_committee(rng, inst)
        want = [sv.brute_force_axiom(inst, committee, axiom) for axiom in sv.ALL_AXIOMS]
        parsed = sv.parse_instance(sv.serialize_instance(inst))
        parsed.ballots  # decoded before the rows go
        object.__setattr__(parsed, "ballot_rows", Unreadable())
        object.__setattr__(parsed, "approver_masks", Unreadable())
        assert [sv.brute_force_axiom(parsed, committee, axiom) for axiom in sv.ALL_AXIOMS] == want


def test_oracle_cap():
    inst = sv.generate_instance(sv.UniformModel(17, (2,), (1,), 0.5), 0)
    with pytest.raises(sv.TooLarge):
        sv.brute_force_axiom(inst, next(sv.iter_feasible_committees(inst)), sv.SW_JR)


@pytest.mark.parametrize("check", [sv.check_axiom, sv.brute_force_axiom])
def test_unknown_axiom_is_a_value_error(check):
    inst = fixtures.no_swjr_instance()
    with pytest.raises(ValueError, match="unknown axiom 'pjr'"):
        check(inst, next(sv.iter_feasible_committees(inst)), "pjr")


def test_empty_profile_satisfies_everything():
    inst = sv.ScvInstance.from_names(
        2, [("C1", ["x", "y"], 1), ("C2", ["z"], 1)], [[], []]
    )
    w = inst.committee([0, 2])
    for axiom in sv.ALL_AXIOMS:
        assert sv.brute_force_axiom(inst, w, axiom).satisfied
        verdict = sv.check_axiom(inst, w, axiom)
        assert verdict.satisfied


def test_fast_checkers_agree_with_oracle():
    rng = random.Random(7)
    for _ in range(120):
        inst = random_instance(rng, max_voters=7, max_candidates=7)
        w = random_committee(rng, inst)
        for axiom in sv.ALL_AXIOMS:
            fast = sv.check_axiom(inst, w, axiom)
            slow = sv.brute_force_axiom(inst, w, axiom)
            assert fast.satisfied == slow.satisfied, (inst, sorted(w.members), axiom)
            assert_witness_sound(inst, w, fast)
            assert_witness_sound(inst, w, slow)


def test_weak_check_walks_thousands_of_subsets():
    # the vacuity search finds voter 0's tuple 1,200 subsets deep
    inst = sv.ScvInstance.from_names(
        2,
        [(f"S{j}", [f"x{j}"], 1) for j in range(1200)],
        [[f"x{j}" for j in range(1200)], []],
    )
    verdict = sv.check_weak_sw_jr(inst, inst.committee(range(1200)))
    assert verdict.satisfied
    assert verdict.note == ""


def test_sw_implies_weak_on_samples():
    rng = random.Random(8)
    for _ in range(120):
        inst = random_instance(rng, max_voters=8, max_candidates=8)
        w = random_committee(rng, inst)
        if sv.check_sw_jr(inst, w).satisfied:
            assert sv.check_weak_sw_jr(inst, w).satisfied


def _sw_violating_groups(inst, members):
    """All voter groups witnessing a span-wide failure, by direct enumeration."""
    n, k = inst.num_voters, inst.committee_size
    groups = set()
    for mask in range(1, 1 << n):
        voters = [i for i in range(n) if mask >> i & 1]
        if len(voters) * k < n:
            continue
        if any(inst.ballots[i] & members for i in voters):
            continue
        if frozenset.intersection(*(inst.ballots[i] for i in voters)):
            groups.add(frozenset(voters))
    return groups


def test_adding_members_only_shrinks_violating_groups():
    rng = random.Random(9)
    for _ in range(60):
        inst = random_instance(rng, max_voters=6, max_candidates=6)
        w = random_committee(rng, inst)
        before = _sw_violating_groups(inst, w.members)
        extra = [c for c in range(inst.num_candidates) if c not in w.members]
        if not extra:
            continue
        grown = w.members | {rng.choice(extra)}
        after = _sw_violating_groups(inst, grown)
        assert after <= before


# -- vacuity note and serialization -------------------------------------------------------


def test_vacuous_pass_is_flagged_in_the_note_only():
    inst = sv.ScvInstance.from_names(
        2, [("C1", ["x", "y"], 1), ("C2", ["z"], 1)], [[], []]
    )
    w = inst.committee([0, 2])
    for check in (sv.check_sw_jr, sv.check_iw_jr, sv.check_weak_sw_jr):
        verdict = check(inst, w)
        assert verdict.satisfied
        assert "vacuous" in verdict.note

    crowded = sv.ScvInstance.from_names(2, [("C", ["x", "y"], 1)], [["x"], ["x"]])
    verdict = sv.check_sw_jr(crowded, crowded.committee([0]))
    assert verdict.satisfied
    assert verdict.note == ""


def _count_vacuity_passes(monkeypatch):
    """Count, per violation finder, its calls with no voter represented."""
    calls = dict.fromkeys(("_sw_violation", "_iw_violation", "_weak_violation"), 0)
    for name in calls:
        def spy(inst, won, find=getattr(axioms, name), name=name):
            calls[name] += not won
            return find(inst, won)
        monkeypatch.setattr(axioms, name, spy)
    return calls


def test_each_vacuity_pass_runs_once_per_instance(monkeypatch):
    # every voter approves every candidate, so every committee passes all
    # four axioms and each pass asks whether it was vacuous (it was not)
    args = (4, [("C1", ["a", "b"], 1), ("C2", ["c", "d"], 1)], [["a", "b", "c", "d"]] * 4)
    calls = _count_vacuity_passes(monkeypatch)
    inst = sv.ScvInstance.from_names(*args)
    for members in ([0, 2], [1, 3]):
        for axiom in sv.ALL_AXIOMS:
            verdict = sv.check_axiom(inst, members, axiom)
            assert verdict.satisfied and verdict.note == ""
    # jr runs sw-jr's finder, so it shares sw-jr's pass
    assert calls == {"_sw_violation": 1, "_iw_violation": 1, "_weak_violation": 1}

    # the memo lives on the instance: an equal instance pays its own passes
    twin = sv.ScvInstance.from_names(*args)
    assert twin == inst
    for axiom in sv.ALL_AXIOMS:
        sv.check_axiom(twin, [0, 2], axiom)
    assert calls == {"_sw_violation": 2, "_iw_violation": 2, "_weak_violation": 2}


def test_a_vacuous_pass_is_remembered_as_vacuous(monkeypatch):
    calls = _count_vacuity_passes(monkeypatch)
    inst = sv.ScvInstance.from_names(2, [("C1", ["x", "y"], 1), ("C2", ["z"], 1)], [[], []])
    for members in ([0, 2], [1, 2]):
        for axiom in sv.ALL_AXIOMS:
            assert sv.check_axiom(inst, members, axiom).note == axioms.VACUOUS_NOTE
    assert calls == {"_sw_violation": 1, "_iw_violation": 1, "_weak_violation": 1}


def test_verdicts_on_a_checked_instance_equal_those_on_a_fresh_parse():
    rng = random.Random(24)
    notes = set()
    for _ in range(300):
        inst = random_instance(rng)
        text = sv.serialize_instance(inst)
        assert sv.parse_instance(text) == inst  # same ids, so same witnesses
        committees = [sv.solve_greedy(inst)[0]] + [random_committee(rng, inst) for _ in range(3)]
        for committee in committees:
            for axiom in sv.ALL_AXIOMS:
                seen = sv.check_axiom(inst, committee, axiom)
                fresh = sv.check_axiom(sv.parse_instance(text), committee, axiom)
                assert (seen.satisfied, seen.note, seen.witness) == (
                    fresh.satisfied, fresh.note, fresh.witness)
                notes.add(seen.note if seen.satisfied else None)
    assert notes == {"", axioms.VACUOUS_NOTE, None}  # every kind of verdict was drawn


def test_verdict_serialization_uses_names():
    inst = fixtures.axiom_split_instance()
    w = inst.committee([inst.candidate_id(x) for x in ("c1", "b", "c")])
    doc = sv.verdict_to_json(inst, sv.check_iw_jr(inst, w))
    assert doc == {
        "axiom": "iw-jr",
        "satisfied": False,
        "witness": {
            "voters": [0, 1, 2, 3, 4, 5],
            "candidates": ["a"],
            "subset": "C2",
        },
    }
    doc = sv.verdict_to_json(inst, sv.check_sw_jr(inst, inst.committee(
        [inst.candidate_id(x) for x in ("c7", "a", "c")])))
    assert doc == {"axiom": "sw-jr", "satisfied": True, "witness": None}
