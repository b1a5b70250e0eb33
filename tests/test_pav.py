"""Exact harmonic scores, marginal contributions, and maximization."""

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scvoting as sv
from scvoting import fixtures
from scvoting.cli import run
from conftest import random_committee, random_instance


# -- the oracle: plain rational sums, sharing no code with scvoting.pav -------------


@lru_cache(maxsize=None)
def exact_harmonic(j):
    return sum((Fraction(1, t) for t in range(1, j + 1)), Fraction(0))


def oracle_score(inst, members, variant):
    if variant == sv.SW_PAV:
        scopes = [frozenset(members)]
    else:
        scopes = [frozenset(members) & frozenset(sub.members) for sub in inst.subsets]
    return sum(
        (exact_harmonic(len(scope & ballot)) for scope in scopes for ballot in inst.ballots),
        Fraction(0),
    )


def lexmin_argmax(inst, variant):
    best = None
    for w in sv.iter_feasible_committees(inst):
        key = (-oracle_score(inst, w.members, variant), w.sorted_members)
        if best is None or key < best[0]:
            best = (key, w)
    return best[1], -best[0][0]


def test_harmonic_values():
    assert sv.harmonic(0) == 0
    assert sv.harmonic(1) == 1
    assert sv.harmonic(2) == Fraction(3, 2)
    assert sv.harmonic(3) == Fraction(11, 6)
    assert sv.harmonic(5) == Fraction(137, 60)
    assert sv.harmonic(5000) == exact_harmonic(5000)
    with pytest.raises(ValueError):
        sv.harmonic(-1)


def test_scores_of_a_committee_with_thousands_of_seats(tmp_path, capsys):
    a = [f"a{i}" for i in range(1200)]
    b = [f"b{i}" for i in range(1000)]
    inst = sv.ScvInstance.from_names(3, [("A", a, 1200), ("B", b, 800)], [a + b, b, []])
    w = inst.committee(range(2000))  # all of A and b0..b799
    want_sw = exact_harmonic(2000) + exact_harmonic(800)
    want_iw = exact_harmonic(1200) + 2 * exact_harmonic(800)
    assert sv.sw_pav_score(inst, w) == want_sw
    assert sv.iw_pav_score(inst, w) == want_iw

    path = tmp_path / "wide.json"
    path.write_text(sv.serialize_instance(inst))
    names = ",".join(inst.names_of(w.members))
    for variant, want in ((sv.SW_PAV, want_sw), (sv.IW_PAV, want_iw)):
        assert run(["--json", "score", "--variant", variant, "--committee", names, str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["score"] == {"num": str(want.numerator), "den": str(want.denominator)}


def test_maximize_fills_a_committee_with_thousands_of_seats():
    # 801 feasible committees, each of 2,000 seats: A is forced, and voter 2
    # approves only b800, so the optimum drops b799, the largest of the tied rest
    a = [f"a{i}" for i in range(1200)]
    b = [f"b{i}" for i in range(801)]
    inst = sv.ScvInstance.from_names(3, [("A", a, 1200), ("B", b, 800)], [a + b, b, ["b800"]])
    want = frozenset(range(2001)) - {inst.candidate_id("b799")}
    w, score = sv.maximize(inst, sv.SW_PAV)
    assert (w.members, score) == (want, exact_harmonic(2000) + exact_harmonic(800) + 1)
    w, score = sv.maximize(inst, sv.IW_PAV)
    assert (w.members, score) == (want, exact_harmonic(1200) + exact_harmonic(800) * 2 + 1)


def test_single_voter_span_vs_per_subset_contribution():
    inst = sv.ScvInstance.from_names(
        1,
        [("C1", ["a", "b"], 2), ("C2", ["d"], 1), ("C3", ["c", "e"], 1)],
        [["a", "b", "c"]],
    )
    w = inst.committee([inst.candidate_id(x) for x in ("a", "b", "d", "c")])
    assert sv.sw_pav_score(inst, w) == Fraction(11, 6)
    assert sv.iw_pav_score(inst, w) == Fraction(5, 2)


def test_rivalry_fixture_scores():
    inst = fixtures.pav_vs_swjr_instance()
    ids = lambda *names: [inst.candidate_id(x) for x in names]
    w_star = inst.committee(ids("a", "c1", "b1"))
    assert sv.sw_pav_score(inst, w_star) == 8
    assert sv.iw_pav_score(inst, w_star) == 8
    assert sv.sw_pav_score(inst, inst.committee(ids("a", "b1", "b2"))) == 7
    for i, j in combinations(range(1, 6), 2):
        for w in (ids("a", f"b{i}", f"b{j}"), ids("b", f"a{i}", f"a{j}")):
            committee = inst.committee(w)
            assert sv.sw_pav_score(inst, committee) == 7
            assert sv.iw_pav_score(inst, committee) == 7
            assert sv.check_sw_jr(inst, committee).satisfied


def test_single_subset_variants_coincide():
    rng = random.Random(21)
    for _ in range(40):
        inst = random_instance(rng, max_subsets=1)
        w = random_committee(rng, inst)
        assert sv.sw_pav_score(inst, w) == sv.iw_pav_score(inst, w)
    inst = sv.generate_instance(sv.UniformModel(6, (6,), (3,), 0.5), seed=3)
    assert sv.maximize(inst, sv.SW_PAV) == sv.maximize(inst, sv.IW_PAV)


@st.composite
def wide_electorates(draw):
    """8 to 14 candidates in up to 3 subsets with quotas of at least half the
    subset, so committees have 4 or more members, and 1 to 1,100 voters, so
    the approver masks cross 64-bit words and the 1,024-voter block.  Each
    voter casts one of a few ballots, one of them approving everyone, so the
    counts fill several binary planes."""
    total = draw(st.integers(8, 14))
    ids = draw(st.permutations(range(total)))
    cuts = draw(st.sets(st.integers(1, total - 1), max_size=2))
    bounds = [0, *sorted(cuts), total]
    subsets = [
        sv.CandidateSubset(f"S{j}", ids[lo:hi], draw(st.integers((hi - lo + 1) // 2, hi - lo)))
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]
    voters = draw(st.integers(1, 1100) | st.sampled_from([63, 64, 65, 1023, 1024, 1025, 1100]))
    kinds = [frozenset(ids), *draw(st.lists(st.frozensets(st.integers(0, total - 1)), max_size=4))]
    rng = draw(st.randoms(use_true_random=False))
    ballots = [rng.choice(kinds) for _ in range(voters)]
    names = [f"c{i}" for i in range(total)]
    inst = sv.validate_instance(sv.ScvInstance(voters, names, subsets, ballots))
    members = [c for sub in subsets for c in rng.sample(sub.members, sub.quota)]
    return inst, inst.committee(members), rng.choice(members)


@settings(max_examples=60, deadline=None)
@given(wide_electorates())
def test_mask_scores_match_the_oracle(draw):
    inst, w, c = draw
    assert sv.sw_pav_score(inst, w) == oracle_score(inst, w.members, sv.SW_PAV)
    assert sv.iw_pav_score(inst, w) == oracle_score(inst, w.members, sv.IW_PAV)
    assert sv.marginal_contribution(inst, w, c) == oracle_score(
        inst, w.members, sv.SW_PAV
    ) - oracle_score(inst, w.members - {c}, sv.SW_PAV)


# -- marginal contributions ------------------------------------------------------------


def test_unapproved_member_contributes_nothing():
    inst = sv.ScvInstance.from_names(
        2, [("C", ["x", "y"], 1)], [["x"], ["x"]]
    )
    assert sv.marginal_contribution(inst, inst.committee([1]), 1) == 0


def test_sole_approval_contributes_one_per_supporter():
    inst = sv.ScvInstance.from_names(
        4, [("C", ["x", "y"], 1)], [["x"], ["x"], ["x"], ["y"]]
    )
    assert sv.marginal_contribution(inst, inst.committee([0]), 0) == 3


def test_non_member_rejected():
    inst = fixtures.no_swjr_instance()
    with pytest.raises(sv.NotMember):
        sv.marginal_contribution(inst, inst.committee([0, 2]), 1)


def test_contribution_is_the_exact_score_difference():
    rng = random.Random(22)
    for _ in range(40):
        inst = random_instance(rng, max_voters=8, max_candidates=8)
        w = random_committee(rng, inst)
        for c in w.members:
            mc = sv.marginal_contribution(inst, w, c)
            assert mc >= 0
            direct = oracle_score(inst, w.members, sv.SW_PAV) - oracle_score(
                inst, w.members - {c}, sv.SW_PAV
            )
            assert mc == direct


def test_some_member_contributes_at_most_the_represented_share():
    rng = random.Random(23)
    for _ in range(200):
        inst = random_instance(rng, max_voters=8, max_candidates=8)
        w = random_committee(rng, inst)
        represented = sum(1 for b in inst.ballots if b & w.members)
        least = min(sv.marginal_contribution(inst, w, c) for c in w.members)
        assert least * inst.committee_size <= represented


# -- maximization ------------------------------------------------------------------------


def test_rivalry_fixture_optima_miss_span_wide_representation():
    inst = fixtures.pav_vs_swjr_instance()
    w, score = sv.maximize(inst, sv.SW_PAV)
    assert score == 8
    assert inst.names_of(w.members) == ("a", "b1", "c1")
    assert not sv.check_sw_jr(inst, w).satisfied

    w, score = sv.maximize(inst, sv.IW_PAV)
    assert score == 8
    assert inst.names_of(w.members) == ("a", "a1", "c1")
    assert not sv.check_sw_jr(inst, w).satisfied

    assert sv.sw_jr_exists(inst) is not None


def test_diversity_scoring_fixture_actual_behavior():
    # with a two-slot third subset the span-wide optimum keeps a'' and the
    # per-subset axiom holds at the optimum
    inst = fixtures.swpav_vs_iwjr_instance(third_quota=2)
    w, score = sv.maximize(inst, sv.SW_PAV)
    assert score == Fraction(107, 6)
    assert inst.names_of(w.members) == ("a", "a'", "a''", "c''")
    assert sv.check_iw_jr(inst, w).satisfied

    # with a single slot the optimum is {a, a', c''} at 95/6, but then every
    # per-subset threshold is n/1 = 12 and no group can invoke the axiom
    inst = fixtures.swpav_vs_iwjr_instance(third_quota=1)
    w, score = sv.maximize(inst, sv.SW_PAV)
    assert score == Fraction(95, 6)
    assert inst.names_of(w.members) == ("a", "a'", "c''")
    verdict = sv.check_iw_jr(inst, w)
    assert verdict.satisfied
    assert "vacuous" in verdict.note


def test_blocks_fixture_per_subset_optimum_fails_weak():
    inst = fixtures.iwpav_vs_weak_instance()
    w, score = sv.maximize(inst, sv.IW_PAV)
    assert score == 18
    assert inst.names_of(w.members) == ("a", "b", "a'", "b'")
    verdict = sv.check_weak_sw_jr(inst, w)
    assert not verdict.satisfied
    assert verdict.witness.voters == frozenset({9, 10, 11})


def test_maximize_matches_exhaustive_enumeration():
    rng = random.Random(24)
    for _ in range(40):
        inst = random_instance(rng, max_voters=8, max_candidates=8)
        for variant in sv.VARIANTS:
            got_w, got_score = sv.maximize(inst, variant)
            want_w, want_score = lexmin_argmax(inst, variant)
            assert got_score == want_score
            assert got_w.members == want_w.members, (variant, sorted(got_w.members))


def interleaved_subsets(draw, total):
    """Candidate ids 0..total-1 shuffled and cut into up to 3 subsets with
    random quotas, so the subsets' ids may interleave."""
    ids = draw(st.permutations(range(total)))
    cuts = draw(st.sets(st.integers(1, total - 1), max_size=2)) if total > 1 else set()
    bounds = [0, *sorted(cuts), total]
    subsets = [
        sv.CandidateSubset(f"S{j}", ids[lo:hi], draw(st.integers(1, hi - lo)))
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]
    return ids, subsets


@st.composite
def tie_heavy_instances(draw):
    """Up to 10 voters, 10 candidates and 3 subsets, whose candidate ids may
    interleave.  Ballots are all empty (approval probability 0), all full
    (probability 1), copies of at most three distinct ballots, or drawn
    independently."""
    total = draw(st.integers(1, 10))
    ids, subsets = interleaved_subsets(draw, total)
    voters = draw(st.integers(1, 10))
    ballot = st.frozensets(st.integers(0, total - 1))
    shape = draw(st.sampled_from(["empty", "full", "copies", "free"]))
    if shape == "empty":
        ballots = [frozenset()] * voters
    elif shape == "full":
        ballots = [frozenset(ids)] * voters
    elif shape == "copies":
        kinds = draw(st.lists(ballot, min_size=1, max_size=3))
        ballots = [draw(st.sampled_from(kinds)) for _ in range(voters)]
    else:
        ballots = [draw(ballot) for _ in range(voters)]
    names = [f"c{i}" for i in range(total)]
    return sv.validate_instance(sv.ScvInstance(voters, names, subsets, ballots))


# {1, 2} and {0, 3} tie at 2, so the search must replace the first optimum it meets
INTERLEAVED_TIE = sv.validate_instance(
    sv.ScvInstance(
        2,
        ["c0", "c1", "c2", "c3"],
        [sv.CandidateSubset("S0", (1, 3), 1), sv.CandidateSubset("S1", (0, 2), 1)],
        [frozenset({0, 1}), frozenset({2, 3})],
    )
)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances(), st.sampled_from(sv.VARIANTS))
@example(INTERLEAVED_TIE, sv.SW_PAV)
def test_maximize_matches_the_oracle_on_tie_heavy_draws(inst, variant):
    got_w, got_score = sv.maximize(inst, variant)
    want_w, want_score = lexmin_argmax(inst, variant)
    assert (got_w.sorted_members, got_score) == (want_w.sorted_members, want_score)


@st.composite
def wide_tie_heavy_instances(draw):
    """Up to 8 candidates in up to 3 subsets with interleaved ids, and 63, 64,
    65, 129 or 1,025 voters, so the approver masks and the search's count
    classes span several int digits and cross the 64-bit and 1,024-bit marks.
    Ballots are all empty, all full, copies of at most three distinct ballots,
    or drawn independently; the voters' ballots come from a seeded generator,
    as a thousand drawn one by one would overrun the example's data."""
    total = draw(st.integers(1, 8))
    ids, subsets = interleaved_subsets(draw, total)
    voters = draw(st.sampled_from([63, 64, 65, 129, 1025]))
    rng = draw(st.randoms(use_true_random=False))
    shape = draw(st.sampled_from(["empty", "full", "copies", "free"]))
    if shape == "empty":
        ballots = [frozenset()] * voters
    elif shape == "full":
        ballots = [frozenset(ids)] * voters
    elif shape == "copies":
        kinds = draw(st.lists(st.frozensets(st.integers(0, total - 1)), min_size=1, max_size=3))
        ballots = [rng.choice(kinds) for _ in range(voters)]
    else:
        prob = rng.random()
        ballots = [frozenset(c for c in ids if rng.random() < prob) for _ in range(voters)]
    names = [f"c{i}" for i in range(total)]
    return sv.validate_instance(sv.ScvInstance(voters, names, subsets, ballots))


@settings(max_examples=100, deadline=None)
@given(wide_tie_heavy_instances())
def test_maximize_matches_the_oracle_across_mask_word_boundaries(inst):
    for variant in sv.VARIANTS:
        got_w, got_score = sv.maximize(inst, variant)
        want_w, want_score = lexmin_argmax(inst, variant)
        assert (got_w.sorted_members, got_score) == (want_w.sorted_members, want_score), variant


class Unreadable:
    """Stands in for an instance's ballots and fails on any use."""

    def refuse(self, *args):
        raise AssertionError("the ballots were read")

    __getattr__ = __iter__ = __len__ = __getitem__ = __contains__ = __bool__ = refuse


def interleaved_instance(rng):
    """Up to 12 voters and 9 candidates in up to 3 subsets, with shuffled ids."""
    total = rng.randint(1, 9)
    ids = rng.sample(range(total), total)
    cuts = sorted(rng.sample(range(1, total), min(total - 1, rng.randint(0, 2))))
    bounds = [0, *cuts, total]
    subsets = [
        sv.CandidateSubset(f"S{j}", ids[lo:hi], rng.randint(1, hi - lo))
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]
    prob = rng.random()
    ballots = [frozenset(c for c in ids if rng.random() < prob) for _ in range(rng.randint(1, 12))]
    names = [f"c{i}" for i in range(total)]
    return sv.validate_instance(sv.ScvInstance(len(ballots), names, subsets, ballots))


def test_maximize_reads_only_the_approver_masks():
    rng = random.Random(27)
    draws = [make() for make in (
        fixtures.no_swjr_instance,
        fixtures.axiom_split_instance,
        fixtures.pav_vs_swjr_instance,
        fixtures.swpav_vs_iwjr_instance,
        fixtures.swpav_misses_iwjr_instance,
        fixtures.iwpav_vs_weak_instance,
    )]
    draws += [interleaved_instance(rng) for _ in range(50)]
    for inst in draws:
        fresh = sv.ScvInstance(inst.num_voters, inst.candidate_names, inst.subsets, inst.ballots)
        inst.approver_masks  # cached before the ballots go
        object.__setattr__(inst, "ballots", Unreadable())
        for variant in sv.VARIANTS:
            got_w, got_score = sv.maximize(inst, variant)
            want_w, want_score = sv.maximize(fresh, variant)
            assert (got_w.members, got_score) == (want_w.members, want_score), variant


def test_optima_keep_their_axiom_guarantees():
    rng = random.Random(25)
    for _ in range(100):
        inst = random_instance(rng, max_voters=10, max_candidates=10)
        w, _ = sv.maximize(inst, sv.SW_PAV)
        assert sv.check_weak_sw_jr(inst, w).satisfied
        w, _ = sv.maximize(inst, sv.IW_PAV)
        assert sv.check_iw_jr(inst, w).satisfied


def test_score_denominators_stay_harmonic():
    rng = random.Random(26)
    for _ in range(40):
        inst = random_instance(rng, max_voters=8, max_candidates=8)
        w = random_committee(rng, inst)
        bound = lcm(*range(1, inst.committee_size + 1))
        assert bound % sv.sw_pav_score(inst, w).denominator == 0
        assert bound % sv.iw_pav_score(inst, w).denominator == 0


def test_budget_guard_reports_the_count():
    inst = fixtures.pav_vs_swjr_instance()  # 3 * C(11, 2) = 165 committees
    with pytest.raises(sv.BudgetExceeded) as excinfo:
        sv.maximize(inst, sv.SW_PAV, budget=100)
    assert excinfo.value.count == 165
    # the per-subset split enumerates 3 + 55 candidates sets instead
    sv.maximize(inst, sv.IW_PAV, budget=100)
    with pytest.raises(sv.BudgetExceeded) as excinfo:
        sv.maximize(inst, sv.IW_PAV, budget=10)
    assert excinfo.value.count == 58
    inst = fixtures.swpav_vs_iwjr_instance()  # 2 * 2 * C(3, 2) = 12; per subset 2 + 2 + 3 = 7
    for variant, count in ((sv.SW_PAV, 12), (sv.IW_PAV, 7)):
        with pytest.raises(sv.BudgetExceeded) as excinfo:
            sv.maximize(inst, variant, budget=6)
        assert excinfo.value.count == count


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        sv.maximize(fixtures.no_swjr_instance(), "max-av")
