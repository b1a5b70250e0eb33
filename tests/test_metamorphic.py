"""Metamorphic relations: answers on a transformed instance follow from the
answers on the original, at sizes no oracle reaches.

Cloning repeats every voter r times.  The JR axioms compare group sizes with
n/k, so they are homogeneous in the voters, and a harmonic score adds up per
voter: every verdict, witness and existence answer carries over, and every
optimum stays optimal with r times its score.  Most t = 1 instances become
t >= 2 ones, and about half the clones pass 64 voters, so the multi-word
masks and the t >= 2 capacity groups are checked against the one-word,
t = 1 paths.

Permuting the voters renumbers them and changes nothing else: every
verdict keeps its note, candidates and subset with its witness voters
renumbered, and every committee that a search or greedy returns stays the
same, since each breaks ties by candidate ids.  About a third of the draws
are planted deadlocks, so refutations are permuted too, and another third
have 65 to 100 voters, so voters move between the words of a mask.

Relabelling the candidates renumbers them, in the names, the subsets and
every ballot, and keeps the subsets in their order.  Every verdict keeps
its answer and note, and a one-candidate witness (sw-jr, iw-jr, jr) keeps
its subset and its number of voters; the candidate picked on a tie, and the
weak-sw-jr tuple, may change with the ids.  Both optimum scores stay, and
so does whether a representative committee exists.  The draws are those of
the voter permutations, so the id-order rules (lower-id dominators,
packing and branching order) are checked past 64 voters and on
refutations.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scvoting as sv
from scvoting import fixtures
from conftest import planted_deadlock, random_committee, random_instance


def cloned(inst, r):
    """``inst`` with voter i + q·n a clone of voter i, for q < r."""
    return sv.validate_instance(sv.ScvInstance(
        inst.num_voters * r, inst.candidate_names, inst.subsets, inst.ballots * r))


def clones_of(voters, n, r):
    return frozenset(i + q * n for i in voters for q in range(r))


def seeded(seed):
    """A ``conftest.random_instance`` draw, at most 924 feasible committees,
    so every exact search is cheap, and a committee of it."""
    rng = random.Random(seed)
    inst = random_instance(rng)
    return inst, random_committee(rng, inst)


@st.composite
def clone_draws(draw):
    """A seeded draw and a clone count: either 2 to 7, or one that takes its
    n voters to 65 or more, up to 70."""
    inst, w = seeded(draw(st.integers(0, 2**32 - 1)))
    past_one_word = st.integers(-(-65 // inst.num_voters), 70)
    return inst, w, draw(st.one_of(st.integers(2, 7), past_one_word))


# a cut one voter too eager at t >= 2 changes the answer on about 1 draw
# in 200; this is one of them
EAGER_CAPACITY_CUT = (*seeded(1200), 2)


@settings(max_examples=300, deadline=None)
@given(clone_draws())
def test_cloning_scales_every_optimum_score(draw):
    inst, _, r = draw
    big = cloned(inst, r)
    for variant in sv.VARIANTS:
        w, score = sv.maximize(inst, variant)
        assert sv.maximize(big, variant) == (w, score * r), variant


@settings(max_examples=300, deadline=None)
@given(clone_draws())
def test_cloning_keeps_every_verdict_with_cloned_witness_voters(draw):
    inst, w, r = draw
    big = cloned(inst, r)
    for axiom in sv.ALL_AXIOMS:
        want = sv.check_axiom(inst, w, axiom)
        if want.witness is not None:
            want = replace(want, witness=replace(
                want.witness, voters=clones_of(want.witness.voters, inst.num_voters, r)))
        assert sv.check_axiom(big, w, axiom) == want, axiom


@settings(max_examples=300, deadline=None)
@given(clone_draws())
@example(EAGER_CAPACITY_CUT)
def test_cloning_keeps_the_existence_answer(draw):
    inst, _, r = draw
    assert sv.sw_jr_exists(cloned(inst, r)) == sv.sw_jr_exists(inst)


# about one planted draw in nine has no representative committee
@settings(max_examples=150, deadline=None)
@given(st.builds(planted_deadlock, st.integers(0, 2**32 - 1).map(random.Random)), st.integers(2, 7))
def test_cloning_keeps_the_existence_answer_on_planted_deadlocks(inst, r):
    assert sv.sw_jr_exists(cloned(inst, r)) == sv.sw_jr_exists(inst)


# random draws nearly always have a representative committee, so the
# refutations come from instances built to have none
@pytest.mark.parametrize("r", [2, 3, 70])
@pytest.mark.parametrize("inst", [
    fixtures.no_swjr_instance(),
    sv.encode_set_cover(sv.SetCoverInstance.of(4, [{0, 1}, {1, 2}, {2, 3}, {3, 0}], budget=1)),
], ids=["no-swjr", "cover-without-answer"])
def test_cloning_keeps_a_refutation(inst, r):
    assert sv.sw_jr_exists(inst) is None
    assert sv.sw_jr_exists(cloned(inst, r)) is None


def permuted(inst, order):
    """``inst`` with voter i renumbered ``order[i]``."""
    ballots = [None] * inst.num_voters
    for i, ballot in zip(order, inst.ballots):
        ballots[i] = ballot
    return sv.validate_instance(sv.ScvInstance(
        inst.num_voters, inst.candidate_names, inst.subsets, ballots))


def relabelled(inst, perm):
    """``inst`` with candidate c renumbered ``perm[c]``; the subsets keep
    their order, so their ids interleave."""
    names = [None] * inst.num_candidates
    for c, name in enumerate(inst.candidate_names):
        names[perm[c]] = name
    subsets = [sv.CandidateSubset(sub.name, [perm[c] for c in sub.members], sub.quota)
               for sub in inst.subsets]
    ballots = [{perm[c] for c in ballot} for ballot in inst.ballots]
    return sv.validate_instance(sv.ScvInstance(inst.num_voters, names, subsets, ballots))


@st.composite
def permutation_draws(draw, count="num_voters"):
    """An instance, a committee of it and an order of its voters (or of
    what ``count`` counts), all from one seed, so that a failure shrinks
    fast.  The instance is a seeded draw of up to 12 voters, one of 65 to
    100, or a planted deadlock."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["small", "wide", "planted"]))
    if kind == "planted":
        inst = planted_deadlock(rng)
    else:
        inst = random_instance(rng, 12) if kind == "small" else random_instance(rng, 100, min_voters=65)
    order = list(range(getattr(inst, count)))
    rng.shuffle(order)
    return inst, random_committee(rng, inst), order


@settings(max_examples=300, deadline=None)
@given(permutation_draws())
def test_permuting_voters_keeps_every_verdict_with_renumbered_witness_voters(draw):
    inst, w, order = draw
    moved = permuted(inst, order)
    for axiom in sv.ALL_AXIOMS:
        want = sv.check_axiom(inst, w, axiom)
        if want.witness is not None:
            want = replace(want, witness=replace(
                want.witness, voters=frozenset(order[i] for i in want.witness.voters)))
        assert sv.check_axiom(moved, w, axiom) == want, axiom


@settings(max_examples=300, deadline=None)
@given(permutation_draws())
def test_permuting_voters_keeps_every_committee_found(draw):
    inst, _, order = draw
    moved = permuted(inst, order)
    for variant in sv.VARIANTS:
        assert sv.maximize(moved, variant) == sv.maximize(inst, variant), variant
    assert sv.sw_jr_exists(moved) == sv.sw_jr_exists(inst)
    assert sv.solve_greedy(moved)[0] == sv.solve_greedy(inst)[0]


@settings(max_examples=300, deadline=None)
@given(permutation_draws("num_candidates"))
def test_relabelling_candidates_keeps_every_verdict_score_and_existence_answer(draw):
    inst, w, perm = draw
    moved, w_moved = relabelled(inst, perm), [perm[c] for c in w]
    for axiom in sv.ALL_AXIOMS:
        want, got = sv.check_axiom(inst, w, axiom), sv.check_axiom(moved, w_moved, axiom)
        assert (got.satisfied, got.note) == (want.satisfied, want.note), axiom
        if want.witness is not None and axiom != sv.WEAK_SW_JR:
            assert got.witness.subset == want.witness.subset, axiom
            assert len(got.witness.voters) == len(want.witness.voters), axiom
    for variant in sv.VARIANTS:
        assert sv.maximize(moved, variant)[1] == sv.maximize(inst, variant)[1], variant
    assert (sv.sw_jr_exists(moved) is None) == (sv.sw_jr_exists(inst) is None)
