"""Existence search and the set-cover encoding, against brute force."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scvoting as sv
from scvoting import core, fixtures, search
from conftest import cover_exists, planted_deadlock, random_instance

FIXTURES = [
    fixtures.no_swjr_instance,
    fixtures.axiom_split_instance,
    fixtures.pav_vs_swjr_instance,
    fixtures.swpav_vs_iwjr_instance,
    fixtures.iwpav_vs_weak_instance,
]


def exhaustive_sw_jr(inst):
    for w in sv.iter_feasible_committees(inst):
        if sv.check_sw_jr(inst, w).satisfied:
            return w
    return None


def lexmin_passing(inst):
    """Least sorted member tuple of a committee passing ``check_sw_jr``, or None."""
    return min(
        (
            w.sorted_members
            for w in sv.iter_feasible_committees(inst)
            if sv.check_sw_jr(inst, w).satisfied
        ),
        default=None,
    )


def all_pairs(ground, budget):
    """Demo 04's family: every pair of a ground set of the given size."""
    pairs = [frozenset(pair) for pair in combinations(range(ground), 2)]
    return sv.SetCoverInstance.of(ground, pairs, budget)


def partitioned(groups, ballots):
    """Instance on candidates c0, c1, ... split into (ids, quota) subsets,
    whose ids may interleave; ``ballots`` are sets of candidate ids."""
    subsets = [sv.CandidateSubset(f"S{j}", ids, quota) for j, (ids, quota) in enumerate(groups)]
    names = [f"c{i}" for i in range(sum(len(ids) for ids, _ in groups))]
    return sv.validate_instance(sv.ScvInstance(len(ballots), names, subsets, ballots))


def doubled_voters(sc):
    """t = 2 encoding of a cover question: two identical voters per ground
    element, and g unapproved fillers in a first subset of quota g - budget,
    so that k = g and n = 2g.  A committee passes the span-wide axiom iff
    its entries cover the ground set."""
    g = sc.ground_size
    entries = [f"s{j + 1}" for j in range(len(sc.collection))]
    ballots = [[entries[j] for j, entry in enumerate(sc.collection) if i in entry] for i in range(g)]
    return sv.ScvInstance.from_names(
        2 * g,
        [("F", [f"f{i + 1}" for i in range(g)], g - sc.budget), ("C", entries, sc.budget)],
        [ballot for ballot in ballots for _ in range(2)],
    )


# the forced subset {1, 2} lies between the ids of the open {0, 4} and {3, 5}
AROUND_FORCED = [((0, 4), 1), ((1, 2), 2), ((3, 5), 1)]


def deadlock(scale, mirrored=False, spare=0):
    """``scale`` voters on each of a1 and a2, which share one slot.

    n/k = scale, so t = scale: t == 1 for scale 1 and t >= 2 above it.  The
    spare candidates in the a-subset are approved by nobody.
    """
    subsets = [
        ("C1", ["a1", "a2"] + [f"x{i}" for i in range(spare)], 1),
        ("C2", ["b1", "b2"], 1),
    ]
    if mirrored:
        subsets.reverse()
    return sv.ScvInstance.from_names(
        2 * scale, subsets, [["a1"]] * scale + [["a2"]] * scale
    )


# -- existence search -----------------------------------------------------------


def test_deadlock_instance_has_no_committee():
    assert sv.sw_jr_exists(fixtures.no_swjr_instance()) is None


def test_deadlock_variants_have_no_committee():
    # mirrored and padded versions of the two-voter deadlock
    assert sv.sw_jr_exists(deadlock(1, mirrored=True)) is None
    assert sv.sw_jr_exists(deadlock(2)) is None


def test_unanimous_candidates_are_found():
    inst = sv.ScvInstance.from_names(
        3,
        [("C1", ["x", "y"], 1), ("C2", ["u", "v"], 1)],
        [["x", "u"], ["x", "u"], ["x", "u"]],
    )
    found = sv.sw_jr_exists(inst)
    assert found is not None
    assert inst.names_of(found.members) == ("x", "u")
    assert sv.check_sw_jr(inst, found).satisfied


def test_split_fixture_committee_exists_and_is_lexicographically_least():
    inst = fixtures.axiom_split_instance()
    found = sv.sw_jr_exists(inst)
    assert found is not None
    assert sv.check_sw_jr(inst, found).satisfied
    passing = [
        w.sorted_members
        for w in sv.iter_feasible_committees(inst)
        if sv.check_sw_jr(inst, w).satisfied
    ]
    assert found.sorted_members == min(passing)
    assert inst.names_of(found.members) == ("c1", "a", "b")


def test_search_agrees_with_exhaustive_enumeration():
    rng = random.Random(31)
    for _ in range(150):
        inst = random_instance(rng, max_voters=8, max_candidates=8)
        found = sv.sw_jr_exists(inst)
        if exhaustive_sw_jr(inst) is None:
            assert found is None
        else:
            assert found is not None
            assert sv.check_sw_jr(inst, found).satisfied
            assert found.sorted_members == lexmin_passing(inst)


@st.composite
def search_instances(draw):
    """Up to 9 candidates in at most 3 subsets whose ids may interleave.

    The voters number at most k (so t = ceil(n/k) = 1) or more than k
    (t >= 2); ballots hold at most three candidates and are either drawn
    independently or copied from at most three kinds.
    """
    total = draw(st.integers(1, 9))
    ids = draw(st.permutations(range(total)))
    cuts = draw(st.sets(st.integers(1, total - 1), max_size=2)) if total > 1 else set()
    bounds = [0, *sorted(cuts), total]
    quotas = [draw(st.integers(1, hi - lo)) for lo, hi in zip(bounds, bounds[1:])]
    k = sum(quotas)
    voters = draw(st.integers(1, k) | st.integers(k + 1, 3 * k + 2))
    ballot = st.frozensets(st.integers(0, total - 1), max_size=3)
    if draw(st.booleans()):
        kinds = draw(st.lists(ballot, min_size=1, max_size=3))
        ballots = [draw(st.sampled_from(kinds)) for _ in range(voters)]
    else:
        ballots = [draw(ballot) for _ in range(voters)]
    return partitioned([(ids[lo:hi], q) for lo, hi, q in zip(bounds, bounds[1:], quotas)], ballots)


@settings(max_examples=300, deadline=None)
@given(
    search_instances()
    | st.builds(deadlock, st.integers(1, 4), st.booleans(), st.integers(0, 2))
)
@example(deadlock(1))
@example(deadlock(3, mirrored=True, spare=1))
# t == 1; the packing cut refutes the branch that takes the entry {1} first,
# and the least answer has exactly as many voters to pack as open slots
@example(sv.encode_set_cover(sv.SetCoverInstance.of(5, [{1}, {0, 1, 4}, {3, 4}, {2}], 3)))
# t == 1; voter 0 is represented only by the forced c1
@example(partitioned(AROUND_FORCED, [{1}, {4}, {3}, {1, 5}]))
# t == 2; the forced c1 represents voters 0 and 1, so c5 keeps no supporter
# and S2's one slot goes to c3
@example(partitioned(AROUND_FORCED, [{1, 5}, {1, 5}, {3}, {3}, {4}, {4}, {0, 2}, {0}]))
# every subset is forced, so the root is the leaf
@example(partitioned([((0, 2), 2), ((1,), 1)], [{1}, {0, 2}, set()]))
def test_search_matches_the_oracles_in_both_regimes(inst):
    want = lexmin_passing(inst)
    assert (exhaustive_sw_jr(inst) is None) == (want is None)
    found = sv.sw_jr_exists(inst)
    assert (None if found is None else found.sorted_members) == want


@settings(max_examples=200, deadline=None)
@given(st.builds(planted_deadlock, st.integers(0, 2**32 - 1).map(random.Random)))
def test_search_matches_enumeration_on_planted_deadlocks(inst):
    # about one draw in nine is refuted, against a few in a thousand from
    # random_instance, and every refutation here sits at t >= 2
    found = sv.sw_jr_exists(inst)
    assert (None if found is None else found.sorted_members) == lexmin_passing(inst)


def test_every_returned_committee_is_verified_by_the_checker(monkeypatch):
    verified = []

    def checker(inst, committee):
        verified.append(committee)
        return sv.check_sw_jr(inst, committee)

    monkeypatch.setattr(search, "check_sw_jr", checker)
    inst = partitioned(AROUND_FORCED, [{1}, {4}, {3}, {1, 5}])
    found = sv.sw_jr_exists(inst)
    assert inst.names_of(found.members) == ("c1", "c2", "c3", "c4")
    assert verified == [found]


def test_capacity_equal_to_the_shortfall_does_not_prune():
    # n/k = 2, so t = 2.  After a, the three b-supporters still need two
    # representatives, and the one open slot can give exactly two (u).
    inst = sv.ScvInstance.from_names(
        4,
        [("C1", ["a", "b"], 1), ("C2", ["u", "v"], 1)],
        [["b", "u"], ["b", "u"], ["b"], ["a"]],
    )
    found = sv.sw_jr_exists(inst)
    assert found is not None
    assert inst.names_of(found.members) == ("a", "u")
    assert found.sorted_members == lexmin_passing(inst)


def test_a_dead_ballot_ends_its_branch_at_once():
    # once a fills C1, no open slot can represent voter 0, although the two
    # C2 slots still sum to as many coverings as there are unrepresented voters
    inst = sv.ScvInstance.from_names(
        2,
        [("C1", ["a", "d"], 1), ("C2", ["x", "y", "z"], 2)],
        [["d"], ["x", "y"]],
    )
    stats = sv.SearchStats()
    found = sv.sw_jr_exists(inst, stats=stats)
    assert inst.names_of(found.members) == ("d", "x", "y")
    # root, {a} (cut), {d}, {d, x}, {d, x, y}
    assert stats == sv.SearchStats(nodes=5, leaves=1, pruned_capacity=1)


def test_a_committee_with_thousands_of_seats_is_found():
    # one feasible committee of 1,200 seats: the subset is taken whole before
    # the walk, so the root is the leaf
    inst = sv.ScvInstance.from_names(
        2, [("C", [f"x{i}" for i in range(1200)], 1200)], [["x0"], []]
    )
    stats = sv.SearchStats()
    found = sv.sw_jr_exists(inst, stats=stats)
    assert found is not None
    assert found.sorted_members == tuple(range(1200))
    assert stats == sv.SearchStats(nodes=1, leaves=1)


def test_a_walk_a_thousand_levels_deep_is_found():
    # 1,200 of 1,201 seats: the least committee is the first path walked, one
    # node per seat plus the root, all on the explicit stack
    inst = sv.ScvInstance.from_names(
        2, [("C", [f"x{i}" for i in range(1201)], 1200)], [["x0"], []]
    )
    stats = sv.SearchStats()
    found = sv.sw_jr_exists(inst, stats=stats)
    assert found is not None
    assert found.sorted_members == tuple(range(1200))
    assert stats == sv.SearchStats(nodes=1201, leaves=1)


def test_stats_of_a_find_at_t_of_four():
    # 12 voters, k = 3: a candidate keeping 4 unrepresented supporters
    # violates the axiom, so the capacity test runs on every S_c group
    inst = sv.generate_instance(sv.UniformModel(12, (4, 4, 4), (1, 1, 1), 0.3), 84)
    stats = sv.SearchStats()
    found = sv.sw_jr_exists(inst, stats=stats)
    assert found.sorted_members == (0, 6, 8) == lexmin_passing(inst)
    assert stats == sv.SearchStats(nodes=14, leaves=1, pruned_capacity=8)


def test_stats_of_a_refutation_at_t_of_two():
    # 6 voters, k = 3: no committee keeps every candidate below 2
    # unrepresented supporters, and the walk ends without a leaf
    inst = sv.generate_instance(sv.UniformModel(6, (4, 4), (2, 1), 0.2), 30)
    stats = sv.SearchStats()
    assert sv.sw_jr_exists(inst, stats=stats) is None
    assert lexmin_passing(inst) is None
    assert stats == sv.SearchStats(nodes=34, pruned_capacity=24)


@pytest.mark.parametrize("build", FIXTURES)
def test_search_stats_are_deterministic_and_change_nothing(build):
    inst = build()
    first, second = sv.SearchStats(), sv.SearchStats()
    plain = sv.sw_jr_exists(inst)
    assert sv.sw_jr_exists(inst, stats=first) == plain
    assert sv.sw_jr_exists(build(), stats=second) == plain
    assert first == second
    assert first.nodes >= 1
    assert first.nodes >= (
        first.leaves + first.pruned_capacity + first.pruned_packing
    )
    sv.sw_jr_exists(inst, stats=first)  # a second call adds to the counts
    assert first.nodes == 2 * second.nodes
    assert first.pruned_capacity == 2 * second.pruned_capacity
    assert first.pruned_packing == 2 * second.pruned_packing


def test_search_budget_guard():
    inst = sv.generate_instance(sv.UniformModel(2, (10, 10), (5, 5), 0.5), 1)
    with pytest.raises(sv.BudgetExceeded) as excinfo:
        sv.sw_jr_exists(inst, budget=1000)
    assert excinfo.value.count == 252 * 252


# -- set-cover encoding ------------------------------------------------------------


def test_encoding_shape_and_round_trip():
    sc = sv.SetCoverInstance.of(3, [{0, 1}, {1, 2}, {2}], budget=2)
    inst = sv.encode_set_cover(sc)
    assert inst.num_voters == 3
    assert [sub.size for sub in inst.subsets] == [3, 3]
    assert inst.quotas == (3, 2)
    assert inst.candidate_names == ("a1", "a2", "a3", "s1", "s2", "s3")
    # voter i approves exactly the entries containing i
    assert inst.names_of(inst.ballots[0]) == ("s1",)
    assert inst.names_of(inst.ballots[1]) == ("s1", "s2")
    assert inst.names_of(inst.ballots[2]) == ("s2", "s3")

    found = sv.sw_jr_exists(inst)
    assert found is not None
    assert {inst.candidate_id("s1"), inst.candidate_id("s2")} <= found.members
    assert sv.decode_committee_to_cover(sc, found) == frozenset({0, 1})


def test_taking_every_entry_always_covers():
    sc = sv.SetCoverInstance.of(4, [{0, 1}, {2}, {3}], budget=3)
    inst = sv.encode_set_cover(sc)
    found = sv.sw_jr_exists(inst)
    assert found is not None
    assert sv.decode_committee_to_cover(sc, found) == frozenset({0, 1, 2})


def test_uncoverable_ground_is_rejected_upstream():
    with pytest.raises(sv.InvalidSetCover):
        sv.SetCoverInstance.of(1, [frozenset()], budget=1)
    sc = sv.SetCoverInstance.of(1, [{0}], budget=1)
    assert sv.sw_jr_exists(sv.encode_set_cover(sc)) is not None
    with pytest.raises(sv.InvalidSetCover) as excinfo:
        sv.parse_set_cover('{"ground": 0, "subsets": [], "budget": 1}')
    assert excinfo.value.problems == [
        "ground set must be non-empty, got size 0",
        "collection must contain at least one subset",
    ]


def test_bad_budgets_rejected():
    with pytest.raises(sv.InvalidSetCover):
        sv.SetCoverInstance.of(2, [{0, 1}], budget=0)
    with pytest.raises(sv.InvalidSetCover):
        sv.SetCoverInstance.of(2, [{0, 1}], budget=2)
    with pytest.raises(sv.InvalidSetCover):
        sv.SetCoverInstance.of(2, [{0, 1, 5}], budget=1)


def test_pairs_of_ten_are_refuted_at_the_root():
    # four pairs cover at most 8 of the 10 voters
    stats = sv.SearchStats()
    assert sv.sw_jr_exists(sv.encode_set_cover(all_pairs(10, 4)), stats=stats) is None
    assert stats == sv.SearchStats(nodes=1, pruned_capacity=1)


def test_exact_fit_cover_survives_the_capacity_prune():
    # at the root, four pairs can cover the eight voters exactly
    sc = all_pairs(8, 4)
    found = sv.sw_jr_exists(sv.encode_set_cover(sc))
    assert found is not None
    chosen = sv.decode_committee_to_cover(sc, found)
    assert sorted(sorted(sc.collection[j]) for j in chosen) == [[0, 1], [2, 3], [4, 5], [6, 7]]


def test_stats_of_the_pairs_of_eight_find():
    # most nodes are children cut by the capacity rule as soon as they open
    stats = sv.SearchStats()
    assert sv.sw_jr_exists(sv.encode_set_cover(all_pairs(8, 4)), stats=stats) is not None
    assert stats == sv.SearchStats(nodes=29, leaves=1, pruned_capacity=24)


def test_stats_of_a_doubled_voter_refutation_at_t_of_two():
    sc = sv.generate_set_cover(sv.SetCoverModel(10, 14, 0.2, 3), 2)
    inst = doubled_voters(sc)
    assert -(-inst.num_voters // inst.committee_size) == 2
    assert not cover_exists(sc)
    stats = sv.SearchStats()
    assert sv.sw_jr_exists(inst, stats=stats) is None
    assert stats == sv.SearchStats(nodes=5970, pruned_capacity=5280)


def test_doubled_voter_encodings_match_the_cover_oracle():
    rng = random.Random(33)
    for _ in range(40):
        ground, entries = rng.randint(2, 6), rng.randint(2, 7)
        budget = rng.randint(1, min(ground - 1, entries))
        model = sv.SetCoverModel(ground, entries, rng.uniform(0.2, 0.6), budget)
        sc = sv.generate_set_cover(model, seed=rng.randrange(2**32))
        inst = doubled_voters(sc)
        found = sv.sw_jr_exists(inst)
        assert (found is not None) == cover_exists(sc)
        assert (None if found is None else found.sorted_members) == lexmin_passing(inst)


def test_packing_refutes_a_cover_the_capacity_allows():
    # budget 2: the best two entries reach all six voters, so the capacity
    # test passes, but voters 0, 4 and 5 share no entry and need three
    sc = sv.SetCoverInstance.of(6, [{0, 1, 2, 3}, {2, 3, 4}, {5}], 2)
    stats = sv.SearchStats()
    assert sv.sw_jr_exists(sv.encode_set_cover(sc), stats=stats) is None
    # a1..a6 are taken before the walk, so the root is cut
    assert stats == sv.SearchStats(nodes=1, pruned_packing=1)


def test_random_ground_30_cover_is_refuted_in_few_nodes():
    # the worst of seeds 1-8 for this model; its 18,643,560 feasible
    # committees exceed the default budget, and without the packing cut and
    # the room-bounded walk the search visits 105,604 nodes
    sc = sv.generate_set_cover(sv.SetCoverModel(30, 40, 0.12, 7), 5)
    stats = sv.SearchStats()
    found = sv.sw_jr_exists(sv.encode_set_cover(sc), budget=10**12, stats=stats)
    assert found is None
    assert stats == sv.SearchStats(nodes=7891, pruned_capacity=6367, pruned_packing=1174)


def test_no_cover_means_no_committee():
    sc = sv.SetCoverInstance.of(3, [{0}, {1}, {2}], budget=2)
    assert not cover_exists(sc)
    assert sv.sw_jr_exists(sv.encode_set_cover(sc)) is None


def test_decoding_a_failing_committee_is_flagged():
    sc = sv.SetCoverInstance.of(3, [{0, 1}, {1, 2}, {2}], budget=2)
    inst = sv.encode_set_cover(sc)
    bad = inst.committee(
        [0, 1, 2, inst.candidate_id("s2"), inst.candidate_id("s3")]
    )
    assert not sv.check_sw_jr(inst, bad).satisfied
    with pytest.raises(sv.NotACover):
        sv.decode_committee_to_cover(sc, bad)


def test_reduction_biconditional_on_random_questions():
    rng = random.Random(32)
    for _ in range(60):
        model = sv.SetCoverModel(
            ground_size=rng.randint(1, 8),
            num_subsets=rng.randint(1, 6),
            membership_prob=rng.uniform(0.1, 0.9),
            budget=0,
        )
        model = sv.SetCoverModel(
            model.ground_size,
            model.num_subsets,
            model.membership_prob,
            rng.randint(1, model.num_subsets),
        )
        sc = sv.generate_set_cover(model, seed=rng.randrange(2**32))
        committee = sv.sw_jr_exists(sv.encode_set_cover(sc))
        if cover_exists(sc):
            assert committee is not None
            chosen = sv.decode_committee_to_cover(sc, committee)
            assert len(chosen) <= sc.budget
        else:
            assert committee is None


@st.composite
def cover_questions(draw):
    """Ground sets of at most 10 elements, budget 1 to 4; elements no drawn
    entry covers get a singleton entry each."""
    ground = draw(st.integers(1, 10))
    entries = st.frozensets(st.integers(0, ground - 1), min_size=1)
    collection = draw(st.lists(entries, min_size=1, max_size=8))
    covered = frozenset().union(*collection)
    collection += [frozenset({e}) for e in range(ground) if e not in covered]
    budget = draw(st.integers(1, min(4, len(collection))))
    return sv.SetCoverInstance.of(ground, collection, budget)


@settings(max_examples=300, deadline=None)
@given(cover_questions())
def test_encoded_covers_match_the_cover_oracle(sc):
    encoded = sv.encode_set_cover(sc)
    committee = sv.sw_jr_exists(encoded)
    assert (committee is not None) == cover_exists(sc)
    if committee is not None:
        assert len(sv.decode_committee_to_cover(sc, committee)) <= sc.budget
        assert committee.sorted_members == lexmin_passing(encoded)


def encoded_through_names(sc):
    """The encoding as names resolved again: candidates ``a1…`` and ``s1…``,
    each ballot written as the names of the entries that hold its voter."""
    n = sc.ground_size
    voter_candidates = [f"a{i + 1}" for i in range(n)]
    entry_candidates = [f"s{j + 1}" for j in range(len(sc.collection))]
    ballots = [[entry_candidates[j] for j, entry in enumerate(sc.collection) if i in entry]
               for i in range(n)]
    return sv.ScvInstance.from_names(
        n, [("C1", voter_candidates, n), ("C2", entry_candidates, sc.budget)], ballots)


def refuse(*args, **kwargs):
    raise AssertionError("the encoding resolved candidate names")


@settings(max_examples=300, deadline=None)
@given(cover_questions())
def test_the_encoding_lays_out_what_the_names_resolve_to(sc):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_resolve_ballots", refuse)
        patch.setattr(sv.ScvInstance, "from_names", refuse)
        encoded = sv.encode_set_cover(sc)
    want = encoded_through_names(sc)
    assert encoded == want
    assert encoded.ballot_rows == want.ballot_rows
    assert sv.serialize_instance(encoded) == sv.serialize_instance(want)
