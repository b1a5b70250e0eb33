"""Instance validation, JSON round trips, committees, and generators."""

import gc
import hashlib
import json
import math
import random
import sys
import tempfile
import threading
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scvoting as sv
from scvoting import core, fixtures
from scvoting.cli import run
from conftest import random_committee, random_instance


def mask_voters(mask: int) -> list[int]:
    """Reference decoder: ids of the voters whose bits are set in ``mask``,
    ascending, read one bit at a time."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


# -- validation ----------------------------------------------------------------


def test_two_subset_instance_validates():
    inst = fixtures.no_swjr_instance()
    assert inst.num_voters == 2
    assert inst.quotas == (1, 1)
    assert inst.committee_size == 2
    assert inst.ballots[0] == frozenset({0})


def test_quota_exceeding_subset_size_rejected():
    with pytest.raises(sv.QuotaInfeasible):
        sv.ScvInstance.from_names(
            num_voters=1,
            subsets=[("C1", ["x", "y"], 3)],
            ballots=[["x"]],
        )


def test_nonpositive_quota_rejected():
    with pytest.raises(sv.QuotaInfeasible):
        sv.ScvInstance.from_names(
            num_voters=1,
            subsets=[("C1", ["x", "y"], 0)],
            ballots=[[]],
        )


def test_duplicate_candidate_id_breaks_partition():
    inst = sv.ScvInstance(
        num_voters=1,
        candidate_names=("x", "y"),
        subsets=(
            sv.CandidateSubset("C1", (0, 1), 1),
            sv.CandidateSubset("C2", (1,), 1),
        ),
        ballots=(frozenset(),),
    )
    with pytest.raises(sv.PartitionBroken):
        sv.validate_instance(inst)


def test_uncovered_candidate_id_breaks_partition():
    inst = sv.ScvInstance(
        num_voters=1,
        candidate_names=("x", "y"),
        subsets=(sv.CandidateSubset("C1", (0,), 1),),
        ballots=(frozenset(),),
    )
    with pytest.raises(sv.PartitionBroken):
        sv.validate_instance(inst)


def test_unknown_ballot_id_rejected():
    inst = sv.ScvInstance(
        num_voters=1,
        candidate_names=("x",),
        subsets=(sv.CandidateSubset("C1", (0,), 1),),
        ballots=(frozenset({5}),),
    )
    with pytest.raises(sv.BadBallot):
        sv.validate_instance(inst)


def test_every_bad_ballot_is_named_with_its_ids():
    inst = sv.ScvInstance(
        num_voters=4,
        candidate_names=("x", "y"),
        subsets=(sv.CandidateSubset("C1", (0, 1), 1),),
        ballots=(frozenset({0}), frozenset({7, 1, -2}), frozenset(), frozenset({2})),
    )
    with pytest.raises(sv.BadBallot) as excinfo:
        sv.validate_instance(inst)
    assert excinfo.value.problems == [
        "ballot 1 references unknown candidate ids [-2, 7]",
        "ballot 3 references unknown candidate ids [2]",
    ]


def test_every_violation_is_reported_at_once():
    inst = sv.ScvInstance(
        num_voters=1,
        candidate_names=("x", "y"),
        subsets=(
            sv.CandidateSubset("C1", (0,), 2),
            sv.CandidateSubset("C2", (1,), 1),
        ),
        ballots=(frozenset({9}),),
    )
    with pytest.raises(sv.QuotaInfeasible) as excinfo:
        sv.validate_instance(inst)
    text = "\n".join(excinfo.value.problems)
    assert "quota" in text and "ballot 0" in text
    assert len(excinfo.value.problems) == 2


def _programmatic(names, subsets):
    return sv.ScvInstance(1, names, [sv.CandidateSubset(*sub) for sub in subsets], [frozenset()])


@pytest.mark.parametrize(
    "inst, kind, problems",
    [
        (_programmatic(("x",), []), sv.InvalidInstance,
         ["need at least one candidate subset", "candidate ids [0] belong to no subset"]),
        (_programmatic(("x", "x"), [("C1", (0, 1), 1)]), sv.InvalidInstance,
         ["candidate names are not unique"]),
        (_programmatic(("x", "y"), [("C1", (0,), 1), ("C1", (1,), 1)]), sv.InvalidInstance,
         ["subset names are not unique"]),
        (_programmatic(("x",), [("C1", (0, 3), 1)]), sv.PartitionBroken,
         ["subset 'C1' lists out-of-range id 3"]),
        (sv.ScvInstance(3, ("x",), [sv.CandidateSubset("C1", (0,), 1)], [frozenset()] * 2),
         sv.InvalidInstance, ["expected 3 ballots, got 2"]),
        (_programmatic(("x",), [("C1", (0.0,), 1)]), sv.PartitionBroken,
         ["subset 'C1' lists out-of-range id 0.0", "candidate ids [0] belong to no subset"]),
        (_programmatic(("x",), [("C1", ("0",), 1)]), sv.PartitionBroken,
         ["subset 'C1' lists out-of-range id '0'", "candidate ids [0] belong to no subset"]),
        (sv.ScvInstance(1, ("x",), [sv.CandidateSubset("C1", (0,), 1)], [frozenset({0.0})]),
         sv.BadBallot, ["ballot 0 references unknown candidate ids [0.0]"]),
        (sv.ScvInstance(1, ("x",), [sv.CandidateSubset("C1", (0,), 1)], [frozenset({"0", 4, 0})]),
         sv.BadBallot, ["ballot 0 references unknown candidate ids [4, '0']"]),
        (sv.ScvInstance(1, ("x",), [sv.CandidateSubset("C1", (0,), 1)], [[0, 0.0]]),
         sv.BadBallot, ["ballot 0 references unknown candidate ids [0.0]"]),
        (sv.ScvInstance(1, ("x",), [sv.CandidateSubset("C1", (0,), 1)], [[0, [1]]]),
         sv.BadBallot, ["ballot 0 references unknown candidate ids [[1]]"]),
        (sv.ScvInstance(1, ("x",), [sv.CandidateSubset("C1", (0,), 1)], [[0, "x"]]),
         sv.BadBallot, ["ballot 0 references unknown candidate ids ['x']"]),
        (sv.ScvInstance(1, ("x",), [sv.CandidateSubset("C1", (0,), 1)], [[0.5, [1], 0.5, [1]]]),
         sv.BadBallot, ["ballot 0 references unknown candidate ids [0.5, [1]]"]),
        (_programmatic((["x"], ["x"]), [("C1", (0, 1), 1)]), sv.InvalidInstance,
         ["subset entry 0 field 'candidates' must list strings"]),
        (_programmatic(("x", "y"), [(["C1"], (0,), 1), (["C1"], (1,), 1)]), sv.InvalidInstance,
         ["subset entry 0 field 'name' has the wrong type",
          "subset entry 1 field 'name' has the wrong type"]),
        (_programmatic(("x", "y\ud800\udc00"), [("C1", (0, 1), 1)]), sv.InvalidInstance,
         ["candidate name 'y\\ud800\\udc00' holds a surrogate pair, "
          "which JSON reads back as one character"]),
        (_programmatic(("x",), [("\ud800\udc00C1", (0,), 1)]), sv.InvalidInstance,
         ["subset name '\\ud800\\udc00C1' holds a surrogate pair, "
          "which JSON reads back as one character"]),
    ],
    ids=["no-subsets", "duplicate-candidate-names", "duplicate-subset-names", "out-of-range-id",
         "too-few-ballots", "float-member-id", "string-member-id", "float-ballot-id",
         "string-ballot-id", "float-beside-its-int-ballot-id", "unhashable-ballot-id",
         "string-beside-an-int-ballot-id", "repeated-bad-ballot-ids", "list-candidate-name", "list-subset-name",
         "surrogate-pair-candidate-name", "surrogate-pair-subset-name"],
)
def test_structural_violations_name_their_class_and_cause(inst, kind, problems):
    with pytest.raises(sv.InvalidInstance) as excinfo:
        sv.validate_instance(inst)
    assert type(excinfo.value) is kind
    assert excinfo.value.problems == problems


@pytest.mark.parametrize(
    "voters, subsets, problems",
    [
        (2.0, [("C1", ["x", "y"], 1)], ["instance field 'voters' must be an integer"]),
        (True, [("C1", ["x", "y"], 1)], ["instance field 'voters' must be an integer"]),
        ("2", [("C1", ["x", "y"], 1)], ["instance field 'voters' must be an integer"]),
        (2, [("C1", ["x", "y"], True)], ["subset entry 0 field 'quota' must be an integer"]),
        (2, [("C1", ["x", "y"], 1.0)], ["subset entry 0 field 'quota' must be an integer"]),
        (2, [("C1", ["x"], 1), (7, ["y"], 1)], ["subset entry 1 field 'name' has the wrong type"]),
        (2, [("C1", ["x", 5], 1)], ["subset entry 0 field 'candidates' must list strings"]),
        (2, [("C1", ["x", ["y"]], 1)], ["subset entry 0 field 'candidates' must list strings"]),
        (2.0, [(None, ["x", 5], "1")], [
            "instance field 'voters' must be an integer",
            "subset entry 0 field 'name' has the wrong type",
            "subset entry 0 field 'candidates' must list strings",
            "subset entry 0 field 'quota' must be an integer",
        ]),
        (2, [("C1", 5, 1)], ["subset entry 0 field 'candidates' must list strings"]),
        (2, [("C1", "x", 1)], ["subset entry 0 field 'candidates' must list strings"]),
        (2, [("C1", None, 1)], ["subset entry 0 field 'candidates' must list strings"]),
        (2, [("C1", {"a": 1}, 1)], ["subset entry 0 field 'candidates' must list strings"]),
    ],
    ids=["float-voters", "true-voters", "string-voters", "true-quota", "float-quota",
         "integer-subset-name", "integer-candidate-name", "list-candidate-name",
         "all-in-check-order", "integer-candidates", "string-candidates", "null-candidates",
         "mapping-candidates"],
)
def test_fields_parsing_rejects_fail_validation_in_its_words(voters, subsets, problems):
    with pytest.raises(sv.InvalidInstance) as excinfo:
        sv.ScvInstance.from_names(voters, subsets, [["x"], []])
    assert type(excinfo.value) is sv.InvalidInstance
    assert excinfo.value.problems == problems
    doc = {
        "voters": voters,
        "subsets": [{"name": n, "candidates": c, "quota": q} for n, c, q in subsets],
        "ballots": [["x"], []],
    }
    with pytest.raises(sv.ParseError) as excinfo:
        sv.parse_instance(json.dumps(doc))
    assert str(excinfo.value) == problems[0]


def test_voterless_instance_rejected():
    with pytest.raises(sv.InvalidInstance):
        sv.ScvInstance.from_names(0, [("C1", ["x"], 1)], [])


def test_empty_ballots_are_fine():
    inst = sv.ScvInstance.from_names(
        3, [("C1", ["x", "y"], 1)], [[], [], ["y"]]
    )
    assert inst.ballots[0] == frozenset()


def test_single_subset_is_plain_committee_voting():
    inst = sv.ScvInstance.from_names(
        2, [("C", ["x", "y", "z"], 2)], [["x"], ["z"]]
    )
    assert inst.num_subsets == 1
    assert inst.committee_size == 2


def test_duplicate_candidate_name_rejected():
    with pytest.raises(sv.SemanticError):
        sv.ScvInstance.from_names(
            1,
            [("C1", ["x"], 1), ("C2", ["x"], 1)],
            [[]],
        )


def test_ballot_with_undeclared_name_rejected():
    with pytest.raises(sv.SemanticError):
        sv.ScvInstance.from_names(1, [("C1", ["x"], 1)], [["ghost"]])


@pytest.mark.parametrize(
    "entry, shown",
    [("ghost", "'ghost'"), (5, "5"), (["x"], "['x']"), ({}, "{}")],
    ids=["unknown-name", "integer-name", "list-name", "dict-name"],
)
def test_an_undeclared_or_unhashable_ballot_entry_is_named(entry, shown):
    with pytest.raises(sv.SemanticError) as excinfo:
        sv.ScvInstance.from_names(2, [("C1", ["x"], 1)], [["x"], ["x", entry]])
    assert str(excinfo.value) == f"ballot 1 approves undeclared candidate {shown}"


@pytest.mark.parametrize(
    "ballots, message",
    [
        ([["x", "x"], ["y"], ["ghost"]], "ballot 2 approves undeclared candidate 'ghost'"),
        ([["x"], iter(["y", ["x"]])], "ballot 1 approves undeclared candidate ['x']"),
        ((iter(b) for b in [["x", "x"], [], ["y", "ghost", "ghost"]]),
         "ballot 2 approves undeclared candidate 'ghost'"),
    ],
    ids=["repeat-then-undeclared", "unhashable-in-an-iterator", "iterators-repeat-then-undeclared"],
)
def test_a_ballot_read_name_by_name_names_the_first_bad_entry(ballots, message):
    # a repeated name or a ballot without a length sends every ballot
    # through the name-by-name pass, which names the same entry
    with pytest.raises(sv.SemanticError) as excinfo:
        sv.ScvInstance.from_names(3, [("C1", ["x", "y"], 1)], ballots)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "subsets, ballots, problem",
    [
        ([("C", ["x"], 1)], [5], "ballot entry 0 must be a list of candidate names"),
        ([("C", ["x"], 1)], [None], "ballot entry 0 must be a list of candidate names"),
        ([("C", 5, 1)], [[]], "subset entry 0 field 'candidates' must list strings"),
        ([("C", "x", 1)], ["x"], "subset entry 0 field 'candidates' must list strings"),
        ([("C", ["x"], 1)], [["x"], "x"], "ballot entry 1 must be a list of candidate names"),
        ([("C1", ["x"], 1), ("C2", None, 1)], [[]],
         "subset entry 1 field 'candidates' must list strings"),
        ([("C", ["x"], 1)], [{"x": 1}], "ballot entry 0 must be a list of candidate names"),
        ([("C", ["x"], 1)], [["x"], {"x": 1}], "ballot entry 1 must be a list of candidate names"),
    ],
    ids=["integer-ballot", "null-ballot", "integer-candidates", "string-candidates",
         "string-ballot", "null-candidates-after-a-list", "mapping-ballot",
         "mapping-ballot-after-a-list"],
)
def test_a_ballot_or_candidates_field_that_lists_no_names_is_invalid(subsets, ballots, problem):
    # a string would otherwise be read as its characters
    with pytest.raises(sv.InvalidInstance) as excinfo:
        sv.ScvInstance.from_names(len(ballots), subsets, ballots)
    assert type(excinfo.value) is sv.InvalidInstance
    assert excinfo.value.problems == [problem]


def test_validate_accepts_parsed_documents_too():
    doc = {
        "voters": 1,
        "subsets": [{"name": "C1", "candidates": ["x"], "quota": 1}],
        "ballots": [["x"]],
    }
    inst = sv.validate_instance(doc)
    assert inst.num_voters == 1
    assert sv.validate_instance(inst) is inst


# -- committees ------------------------------------------------------------------


def test_committee_count_matches_enumeration():
    inst = fixtures.axiom_split_instance()
    expected = math.comb(8, 1) * math.comb(3, 2)
    assert sv.count_feasible_committees(inst) == expected
    committees = {w.members for w in sv.iter_feasible_committees(inst)}
    assert len(committees) == expected
    for members in committees:
        w = sv.Committee.of(inst, members)  # all feasible
        assert list(w) == list(w.sorted_members)
        assert len(w) == inst.committee_size
        assert all(c in w for c in members)
        assert not any(c in w for c in range(inst.num_candidates) if c not in members)


def test_approver_masks_mirror_the_ballots():
    rng = random.Random(4)
    for voters in (1, 7, 8, 9, 64, 65, 200):
        inst = sv.generate_instance(sv.UniformModel(voters, (3, 4), (1, 2), rng.random()), voters)
        masks = inst.approver_masks
        assert len(masks) == inst.num_candidates
        for c, mask in enumerate(masks):
            want = [i for i, ballot in enumerate(inst.ballots) if c in ballot]
            assert mask == sum(1 << i for i in want)
            assert mask_voters(mask) == want
    # bits on either side of the 64-bit word edge and past the 1,024-voter block
    assert mask_voters(0) == []
    assert mask_voters(1) == [0]
    assert mask_voters(1 << 63) == [63]
    assert mask_voters(1 << 64) == [64]
    assert mask_voters(1 << 1024) == [1024]
    assert mask_voters((1 << 1025) - 1) == list(range(1025))
    assert mask_voters((1 << 1024) | (1 << 64) | 1) == [0, 64, 1024]


@pytest.mark.parametrize("voters", [1, 64, 65, 2100])
def test_an_instance_decodes_its_masks_as_mask_voters_does(voters):
    inst = sv.generate_instance(sv.UniformModel(voters, (2,), (1,), 0.5), voters)
    bits = {b for b in (0, 1, 63, 64, 65, voters - 1) if b < voters}
    rng = random.Random(voters)
    masks = [0, (1 << voters) - 1, sum(1 << b for b in bits), *inst.approver_masks,
             *(1 << b for b in bits), *(rng.getrandbits(voters) for _ in range(20))]
    for mask in masks:
        assert inst.voters_of(mask) == mask_voters(mask)


def _naive(names, ballots):
    """Ids, rows and approver masks of name ballots, one name at a time."""
    id_of = {name: cid for cid, name in enumerate(names)}
    ids = tuple(frozenset(id_of[name] for name in ballot) for ballot in ballots)
    rows = tuple(sum(1 << c for c in ballot) for ballot in ids)
    masks = tuple(
        sum(1 << i for i, ballot in enumerate(ids) if c in ballot) for c in range(len(names))
    )
    return ids, rows, masks


# voter counts on either side of the 64-voter blocks and candidate counts on
# either side of the 64-bit word columns of the transpose
@pytest.mark.parametrize("voters", [1, 63, 64, 65, 1023, 1025, 2100])
@pytest.mark.parametrize("candidates", [1, 64, 65, 130])
@settings(max_examples=4, deadline=None)
@given(density=st.sampled_from([0.0, 0.05, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_rows_and_masks_match_a_naive_resolver(voters, candidates, density, seed):
    rng = random.Random(seed)
    # ids run in declaration order while the names sort otherwise, so the
    # serializer's name order differs from id order
    names = [f"c{(7 * c) % candidates}-{c}" for c in range(candidates)]
    parts = min(3, candidates)
    subsets = [(f"S{j}", names[j::parts], 1) for j in range(parts)]
    names = [name for _, members, _ in subsets for name in members]  # in id order
    ballots = []
    for _ in range(voters):
        ballot = [name for name in names if rng.random() < density]
        if ballot and rng.random() < 0.2:
            ballot += rng.choices(ballot, k=2)  # repeated names count once
        rng.shuffle(ballot)
        ballots.append([] if rng.random() < 0.1 else ballot)
    ids, rows, masks = _naive(names, ballots)

    # the subset of each name, found by name, as resolution must store it
    index = tuple(next(j for j, (_, members, _) in enumerate(subsets) if name in members)
                  for name in names)

    inst = sv.ScvInstance.from_names(voters, subsets, ballots)
    assert inst.__dict__["subset_index"] == index
    assert inst.ballot_rows == rows
    assert inst.approver_masks == masks
    assert inst.ballots == ids
    by_ids = sv.validate_instance(sv.ScvInstance(voters, names, inst.subsets, ids))
    assert by_ids.ballot_rows == rows
    assert by_ids.approver_masks == masks

    parsed = sv.parse_instance(sv.serialize_instance(inst))
    assert parsed.__dict__["subset_index"] == index
    assert "ballots" not in parsed.__dict__
    assert hash(parsed) == hash(by_ids) == hash(inst)
    assert parsed == by_ids == inst
    assert parsed.approver_masks == masks


@pytest.mark.parametrize("voters", [1, 63, 64])
@pytest.mark.parametrize("candidates", [1, 64, 65, 130])
def test_a_one_block_transpose_reads_the_columns_of_two_blocks(voters, candidates):
    # one block unpacks its words at once, two slice them: empty voters pad
    # the same rows to a second block, which adds no bit to any column
    rng = random.Random(voters * 1000 + candidates)
    rows = [(1 << candidates) - 1] + [rng.getrandbits(candidates) for _ in range(voters - 1)]
    one = core._transpose(rows, candidates)
    two = core._transpose(rows + [0] * (128 - voters), candidates)
    assert one == two
    assert one == tuple(
        sum((row >> c & 1) << i for i, row in enumerate(rows)) for c in range(candidates)
    )


def test_doubled_swap_masks_equal_repeated_ones():
    for shift, mask in core._SWAPS:
        for blocks in range(1, 71):
            repeated = int.from_bytes(mask.to_bytes(512, "little") * blocks, "little")
            assert core._tiled(mask, blocks) == repeated, (shift, blocks)


def test_the_mask_paths_never_decode_the_ballots(monkeypatch):
    decoded = []

    def spy(rows):
        decoded.append(rows)
        return decode(rows)

    decode = core._decode_rows
    small = [make() for make in (fixtures.axiom_split_instance, fixtures.pav_vs_swjr_instance,
                                 fixtures.swpav_misses_iwjr_instance)]
    small.append(sv.generate_instance(sv.UniformModel(130, (4, 5), (2, 2), 0.3), 5))
    large = sv.generate_instance(sv.UniformModel(3000, (30, 30, 20), (3, 3, 2), 0.1), 6)
    texts = [sv.serialize_instance(inst) for inst in small + [large]]
    monkeypatch.setattr(core, "_decode_rows", spy)
    rng = random.Random(7)
    for i, text in enumerate(texts):
        inst = sv.parse_instance(text)
        greedy, _ = sv.solve_greedy(inst)
        for committee in (greedy, random_committee(rng, inst)):
            for axiom in sv.ALL_AXIOMS:
                sv.check_axiom(inst, committee, axiom)
            sv.sw_pav_score(inst, committee)
            sv.iw_pav_score(inst, committee)
        if i < len(small):
            for variant in sv.VARIANTS:
                sv.maximize(inst, variant)
            sv.sw_jr_exists(inst)
        assert decoded == [] and "ballots" not in inst.__dict__
    assert len(inst.ballots) == inst.num_voters  # the spy sits on the path that decodes
    assert decoded == [inst.ballot_rows]


def test_infeasible_committee_rejected():
    inst = fixtures.no_swjr_instance()
    with pytest.raises(sv.InfeasibleCommittee):
        sv.Committee.of(inst, [0, 1])  # both from the same subset
    with pytest.raises(sv.InfeasibleCommittee):
        sv.Committee.of(inst, [0])
    with pytest.raises(sv.InfeasibleCommittee):
        sv.Committee.of(inst, [0, 99])
    with pytest.raises(sv.InfeasibleCommittee, match=r"^unknown candidate id 0\.0$"):
        sv.Committee.of(inst, [0.0, 2])
    with pytest.raises(sv.InfeasibleCommittee, match=r"^unknown candidate id 'a1'$"):
        sv.Committee.of(inst, ["a1", 2])
    with pytest.raises(sv.InfeasibleCommittee, match=r"^unknown candidate id \[1\]$"):
        sv.Committee.of(inst, [[1], 2])  # unhashable
    # named before a frozenset merges 0.0 into 0, and each once
    for members in ([0, 0.0, 2], [0.0, 0, 0.0, 2]):
        with pytest.raises(sv.InfeasibleCommittee, match=r"^unknown candidate id 0\.0$"):
            sv.Committee.of(inst, members)
        with pytest.raises(sv.InfeasibleCommittee, match=r"^unknown candidate id 0\.0$"):
            sv.check_sw_jr(inst, members)


BIG = 7 * 10**5_000  # 5,001 digits, past what str() of an int gives


def one_subset(voters, members, quota, ballot):
    """Validate an instance of one subset ``C`` on candidate ``x``."""
    return sv.validate_instance(
        sv.ScvInstance(voters, ["x"], [sv.CandidateSubset("C", members, quota)], [ballot]))


@pytest.mark.parametrize("build, message", [
    (lambda: sv.Committee.of(fixtures.no_swjr_instance(), [BIG, 2]), "unknown candidate id 7000"),
    (lambda: one_subset(1, (0,), 1, [BIG]), "ballot 0 references unknown candidate ids [7000"),
    (lambda: one_subset(1, (0, BIG), 1, [0]), "subset 'C' lists out-of-range id 7000"),
    (lambda: one_subset(1, (0,), BIG, [0]), "subset 'C' has quota 7000"),
    (lambda: one_subset(BIG, (0,), 1, [0]), "expected 7000"),
    (lambda: one_subset(-BIG, (0,), 1, [0]), "need at least one voter, got -7000"),
    (lambda: sv.SetCoverInstance.of(2, [{0, 1, BIG}], 1),
     "collection references out-of-range elements [7000"),
    (lambda: sv.SetCoverInstance.of(-BIG, [{0}], 1), "ground set must be non-empty, got size -7000"),
    (lambda: sv.SetCoverInstance.of(1, [{0}], BIG), "budget 7000"),
    (lambda: sv.generate_instance(sv.UniformModel(-BIG, (2,), (1,), 0.5), 1),
     "need at least one voter, got -7000"),
    (lambda: sv.generate_instance(sv.UniformModel(1, (2,), (BIG,), 0.5), 1),
     "bad subset shape: size 2, quota 7000"),
    (lambda: sv.generate_instance(sv.PartyListModel([("C", ["x"], 1)], [(-BIG, ["x"])]), 1),
     "block size must be positive, got -7000"),
    (lambda: sv.generate_instance(sv.SetCoverModel(2, 2, 0.5, BIG), 1), "budget 7000"),
    (lambda: sv.marginal_contribution(fixtures.no_swjr_instance(), [0, 2], BIG), "candidate 7000"),
    (lambda: sv.brute_force_axiom(fixtures.no_swjr_instance(), [0, 2], sv.JR, -BIG),
     "enumeration cap of -7000"),
], ids=["committee", "ballot", "subset-id", "quota", "voters", "no-voters", "cover",
        "cover-ground", "cover-budget", "uniform-voters", "uniform-quota", "party-list-block",
        "set-cover-model-budget", "marginal", "brute-force-cap"])
def test_an_int_past_the_digit_limit_is_named_in_full(build, message):
    with pytest.raises(sv.ScvError) as excinfo:
        build()
    assert message in str(excinfo.value)
    assert str(Decimal(abs(BIG))) in str(excinfo.value)


# these arguments are documented to raise ValueError, as a wrong argument
# to a plain function does; its message names the number in full as well
@pytest.mark.parametrize("build, message", [
    (lambda: sv.harmonic(-BIG), "harmonic undefined for negative -7000"),
    (lambda: sv.check_jr(fixtures.no_swjr_instance(), [0, 2], BIG), "k = 7000"),
    (lambda: sv.check_jr(fixtures.no_swjr_instance(), [0, 2], 2, BIG), "num_candidates = 7000"),
], ids=["harmonic", "jr-committee-size", "jr-candidate-count"])
def test_an_int_past_the_digit_limit_in_a_value_error_is_named_in_full(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert type(excinfo.value) is ValueError
    assert message in str(excinfo.value)
    assert str(Decimal(abs(BIG))) in str(excinfo.value)


@pytest.mark.parametrize("ground, subsets, budget, problems", [
    ("3", [[0]], 1, ["set cover field 'ground' must be an integer"]),
    (1, [[0]], "1", ["set cover field 'budget' must be an integer"]),
    (1.0, [[0]], True, ["set cover field 'ground' must be an integer",
                        "set cover field 'budget' must be an integer"]),
    (2, [[0], ["a", 1]], 1, ["set-cover subset 1 must be a list of integers"]),
    (1, [[0.0]], 1, ["set-cover subset 0 must be a list of integers"]),
    (2, [[0, True]], 1, ["set-cover subset 0 must be a list of integers"]),
    (1, [5], 1, ["set-cover subset 0 must be a list of integers"]),
    (1, [None], 1, ["set-cover subset 0 must be a list of integers"]),
    (1, [[[0]]], 1, ["set-cover subset 0 must be a list of integers"]),
    (1, 5, 1, ["set cover field 'subsets' has the wrong type"]),
    (1, {0: 1}, 1, ["set cover field 'subsets' has the wrong type"]),
    (1, "ab", 1, ["set cover field 'subsets' has the wrong type"]),
    (2, [[0, 1, 1.0]], 1, ["set-cover subset 0 must be a list of integers"]),
    (2, [[1, True]], 1, ["set-cover subset 0 must be a list of integers"]),
    ("3", 5, 1, ["set cover field 'ground' must be an integer",
                 "set cover field 'subsets' has the wrong type"]),
], ids=["ground", "budget", "both", "string-element", "float-element", "bool-element",
        "int-subset", "null-subset", "nested-subset", "int-collection", "mapping-collection",
        "string-collection", "float-equal-to-an-element", "bool-equal-to-an-element",
        "ground-and-collection"])
def test_a_mistyped_set_cover_names_its_fields_as_its_document_does(ground, subsets, budget,
                                                                     problems):
    with pytest.raises(sv.InvalidSetCover) as excinfo:
        sv.SetCoverInstance.of(ground, subsets, budget)
    assert excinfo.value.problems == problems
    doc = json.dumps({"ground": ground, "subsets": subsets, "budget": budget})
    with pytest.raises(sv.ParseError, match=problems[0]):
        sv.parse_set_cover(doc)


@pytest.mark.parametrize("subsets, problem", [
    ([5], "set-cover subset 0 must be a list of integers"),
    (5, "set cover field 'subsets' has the wrong type"),
    ("ab", "set cover field 'subsets' has the wrong type"),
], ids=["int-subset", "int-collection", "string-collection"])
def test_a_directly_built_set_cover_reads_its_collection_as_of_does(subsets, problem):
    with pytest.raises(sv.InvalidSetCover) as excinfo:
        sv.SetCoverInstance(1, subsets, 1)
    assert excinfo.value.problems == [problem]


def test_iterators_of_names_or_elements_are_typed_and_read_once():
    inst = sv.ScvInstance.from_names(1, [("C", iter(["a", "b"]), 1)], [["b"]])
    assert inst.candidate_names == ("a", "b")
    sc = sv.SetCoverInstance.of(2, (iter(entry) for entry in [[0, 1], [1]]), 1)
    assert sc.collection == (frozenset({0, 1}), frozenset({1}))
    with pytest.raises(sv.InvalidSetCover) as excinfo:
        sv.SetCoverInstance.of(2, [iter([0, 1.0])], 1)
    assert excinfo.value.problems == ["set-cover subset 0 must be a list of integers"]


FIELD_PHRASES = ["must be an integer", "has the wrong type", "must list strings",
                 "must be a list of integers", "must be a list of candidate names",
                 "not an integer"]


@pytest.mark.parametrize("phrase", FIELD_PHRASES)
def test_each_field_message_is_written_once(phrase):
    # core._KINDS words every field type, so a second check site shows here
    sources = [path.read_text(encoding="utf-8") for path in Path(core.__file__).parent.glob("*.py")]
    assert sum(text.count(phrase) for text in sources) == 1


def test_committee_problems_keep_their_messages_and_order():
    rng = random.Random(8)
    for _ in range(200):
        inst = random_instance(rng)
        m = inst.num_candidates
        members = frozenset(rng.sample(range(m), rng.randint(0, m)))
        want = [
            f"subset {sub.name!r} needs exactly {sub.quota} members, got {got}"
            for sub in inst.subsets
            if (got := len(members & frozenset(sub.members))) != sub.quota
        ]
        if not want:
            assert sv.Committee.of(inst, members).members == members
            continue
        with pytest.raises(sv.InfeasibleCommittee) as excinfo:
            sv.Committee.of(inst, members)
        assert str(excinfo.value) == "; ".join(want)


# -- JSON round trips --------------------------------------------------------------


def test_fixture_round_trips():
    for build in (
        fixtures.no_swjr_instance,
        fixtures.axiom_split_instance,
        fixtures.pav_vs_swjr_instance,
        fixtures.iwpav_vs_weak_instance,
        fixtures.swpav_misses_iwjr_instance,
    ):
        inst = build()
        assert sv.parse_instance(sv.serialize_instance(inst)) == inst


def test_serializer_sorts_ballots_by_name():
    inst = sv.ScvInstance.from_names(
        1, [("C", ["zz", "aa"], 1)], [["zz", "aa"]]
    )
    doc = json.loads(sv.serialize_instance(inst))
    assert doc["ballots"] == [["aa", "zz"]]
    assert doc["subsets"][0]["candidates"] == ["zz", "aa"]  # declaration order


def test_missing_quota_field_is_a_parse_error():
    doc = {
        "voters": 1,
        "subsets": [{"name": "C1", "candidates": ["x"]}],
        "ballots": [[]],
    }
    with pytest.raises(sv.ParseError, match="quota"):
        sv.instance_from_document(doc)


def test_missing_top_level_field_is_a_parse_error():
    with pytest.raises(sv.ParseError, match="ballots"):
        sv.instance_from_document({"voters": 1, "subsets": []})


def test_undeclared_ballot_name_is_a_semantic_error():
    doc = {
        "voters": 1,
        "subsets": [{"name": "C1", "candidates": ["x"], "quota": 1}],
        "ballots": [["ghost"]],
    }
    with pytest.raises(sv.SemanticError, match="ghost"):
        sv.instance_from_document(doc)


def test_validation_problems_surface_as_semantic_error():
    doc = {
        "voters": 1,
        "subsets": [{"name": "C1", "candidates": ["x"], "quota": 2}],
        "ballots": [[]],
    }
    with pytest.raises(sv.SemanticError) as excinfo:
        sv.instance_from_document(doc)
    assert excinfo.value.problems


def test_broken_json_reports_position():
    with pytest.raises(sv.ParseError) as excinfo:
        sv.parse_instance('{"voters": 1,,}')
    assert excinfo.value.line == 1
    assert excinfo.value.column is not None


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, "[" + "7" * 5001 + "]"],
    ids=["nested-100000-deep", "integer-of-5001-digits"],
)
@pytest.mark.parametrize(
    "parse", [sv.parse_instance, sv.parse_set_cover], ids=["instance", "set-cover"]
)
def test_json_past_the_decoder_limits_is_a_parse_error(parse, text):
    with pytest.raises(sv.ParseError, match="invalid JSON"):
        parse(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "set-cover document must be a JSON object"),
        ('{"ground": 2, "subsets": [[0], [1, "x"]], "budget": 1}',
         "set-cover subset 1 must be a list of integers"),
        ('{"ground": 2, "subsets": [[0, true], [1]], "budget": 1}',
         "set-cover subset 0 must be a list of integers"),
    ],
    ids=["array-document", "string-element", "true-element"],
)
def test_malformed_set_cover_is_a_parse_error(text, message):
    with pytest.raises(sv.ParseError) as excinfo:
        sv.parse_set_cover(text)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("parse, doc, message", [
    (sv.parse_instance, {"voters": "1", "subsets": []}, "instance is missing required field 'ballots'"),
    (sv.parse_instance, {"voters": 1, "ballots": [[]], "subsets": [
        {"name": 5, "candidates": ["a"], "quota": 1}, {"name": "B"}]},
     "subset entry 1 is missing required field 'candidates'"),
    (sv.parse_instance, {"voters": 1, "ballots": [[]], "subsets": [
        {"name": 5, "candidates": ["a"], "quota": 1}, 7]}, "subset entry 1 must be an object"),
    (sv.parse_set_cover, {"ground": "3", "subsets": [[0]]}, "set cover is missing required field 'budget'"),
], ids=["instance", "subset-entry", "subset-not-an-object", "set-cover"])
def test_a_missing_field_is_named_before_a_mistyped_one(parse, doc, message):
    with pytest.raises(sv.ParseError) as excinfo:
        parse(json.dumps(doc))
    assert str(excinfo.value) == message


def test_too_long_integer_names_its_cause_not_an_interpreter_setting():
    limit = sys.get_int_max_str_digits()
    for parse in (sv.parse_instance, sv.parse_set_cover):
        with pytest.raises(sv.ParseError) as excinfo:
            parse('{"voters": ' + "7" * (limit + 1) + "}")
        assert str(excinfo.value) == f"invalid JSON: number too long (over {limit} digits)"


def test_long_id_lists_are_cut_after_ten_with_their_count():
    with pytest.raises(sv.InvalidSetCover) as excinfo:
        sv.SetCoverInstance.of(1_000_000, [frozenset({0})], 1)
    text = str(excinfo.value)
    assert len(text.encode()) < 1024
    assert text == (
        "elements [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 999989 more (999999 in all) "
        "are covered by no subset"
    )
    inst = sv.ScvInstance(
        num_voters=1,
        candidate_names=tuple(f"c{i}" for i in range(12)),
        subsets=(sv.CandidateSubset("C1", (0,), 1),),
        ballots=(frozenset(range(-11, 1)),),
    )
    with pytest.raises(sv.PartitionBroken) as excinfo:
        sv.validate_instance(inst)
    assert excinfo.value.problems == [
        "candidate ids [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 1 more (11 in all) belong to no subset",
        "ballot 0 references unknown candidate ids "
        "[-11, -10, -9, -8, -7, -6, -5, -4, -3, -2] and 1 more (11 in all)",
    ]


def collections_started(call) -> int:
    """How many collections of the cyclic garbage collector ``call()``
    starts, counted from just after a full collection."""
    starts = []

    def note(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(note)
    try:
        call()
    finally:
        gc.callbacks.remove(note)
    return len(starts)


@pytest.mark.parametrize("parse, text", [
    (sv.parse_instance, lambda: sv.serialize_instance(
        sv.generate_instance(sv.UniformModel(5000, (20, 20, 20), (3, 3, 3), 0.15), 1))),
    (sv.parse_set_cover, lambda: sv.serialize_set_cover(
        sv.generate_set_cover(sv.SetCoverModel(10, 2000, 0.3, 5), 1))),
], ids=["instance-of-5000-ballots", "set-cover-of-2000-subsets"])
def test_parsing_a_large_document_starts_no_collection(parse, text):
    text = text()
    assert gc.isenabled()
    # the same lists built with the collector on set off several collections
    assert collections_started(lambda: json.loads(text)) > 0
    assert collections_started(lambda: parse(text)) == 0


def test_a_parse_begun_while_another_pauses_the_collector_leaves_it_on(monkeypatch):
    # thread "second" starts its parse while "first" has the collector off,
    # and "first" ends before "second" does.  A check of the collector's state
    # made in "second" waits until "first" is done, so a parse that read the
    # state and only then turned the collector off would leave it off.
    text = one_subset_document(1, ["x"])
    want = sv.parse_instance(text)
    first_inside, second_inside, first_done = (threading.Event() for _ in range(3))
    real_isenabled, real_build = gc.isenabled, core.instance_from_document

    def isenabled():
        state = real_isenabled()
        if threading.current_thread().name == "second":
            second_inside.set()
            first_done.wait(10)
        return state

    def build(doc):
        if threading.current_thread().name == "first":
            first_inside.set()
            second_inside.wait(10)
        else:
            second_inside.set()
            first_done.wait(10)
        return real_build(doc)

    results = []

    def first():
        results.append(sv.parse_instance(text) == want)
        first_done.set()

    def second():
        first_inside.wait(10)
        results.append(sv.parse_instance(text) == want)

    monkeypatch.setattr(core.gc, "isenabled", isenabled)
    monkeypatch.setattr(core, "instance_from_document", build)
    threads = [threading.Thread(target=first, name="first"),
               threading.Thread(target=second, name="second")]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [True, True]
        assert real_isenabled()
    finally:
        gc.enable()


def one_subset_document(quota, ballot):
    return json.dumps({"voters": 1, "subsets": [{"name": "C1", "candidates": ["x"], "quota": quota}],
                       "ballots": [ballot]})


@pytest.mark.parametrize("parse, text, error", [
    (sv.parse_instance, one_subset_document(1, ["x"]), None),
    (sv.parse_instance, "{", sv.ParseError),
    (sv.parse_instance, '{"voters": "1", "subsets": [], "ballots": []}', sv.ParseError),
    (sv.parse_instance, one_subset_document(1, ["ghost"]), sv.SemanticError),
    (sv.parse_instance, one_subset_document(0, ["x"]), sv.SemanticError),
    (sv.parse_set_cover, '{"ground": 1, "subsets": [[0]], "budget": 1}', None),
    (sv.parse_set_cover, "{", sv.ParseError),
], ids=["instance", "broken-json", "string-voters", "undeclared-name", "quota-0", "set-cover",
        "broken-set-cover"])
@pytest.mark.parametrize("was_on", [True, False], ids=["collector-on", "collector-off"])
def test_a_parse_leaves_the_collector_as_it_found_it(parse, text, error, was_on):
    if not was_on:
        gc.disable()
    try:
        if error is None:
            parse(text)
        else:
            with pytest.raises(error):
                parse(text)
        assert gc.isenabled() is was_on
    finally:
        gc.enable()


# -- parse diagnostics ---------------------------------------------------------

AB = [{"name": "C1", "candidates": ["a", "b"], "quota": 1}]
AB_AND_A_AGAIN = AB + [{"name": "C2", "candidates": ["a"], "quota": 1}]
ENTRY = "ballot entry {} must be a list of candidate names"


@pytest.mark.parametrize(
    "subsets, ballots, voters, kind, message",
    [
        (AB, [["a"], ["ghost"], "a"], 3, sv.ParseError, ENTRY.format(2)),
        (AB, [["a"], {"a": 1}], 2, sv.ParseError, ENTRY.format(1)),
        (AB, ["ab", ["a"]], 2, sv.ParseError, ENTRY.format(0)),
        (AB, [["a"], ["b", 7]], 2, sv.ParseError, ENTRY.format(1)),
        (AB, [[True]], 1, sv.ParseError, ENTRY.format(0)),
        (AB, [["a"], [None]], 2, sv.ParseError, ENTRY.format(1)),
        (AB, [["a", []]], 1, sv.ParseError, ENTRY.format(0)),
        (AB, [["b"], [{}]], 2, sv.ParseError, ENTRY.format(1)),
        (AB, [["ghost", []]], 1, sv.ParseError, ENTRY.format(0)),
        (AB, [["ghost"], ["a", 7]], 2, sv.ParseError, ENTRY.format(1)),
        (AB, [["a"], ["b", "ghost", "zed"]], 2, sv.SemanticError,
         "ballot 1 approves undeclared candidate 'ghost'"),
        (AB, [["ghost"]], 2, sv.SemanticError,
         "ballot 0 approves undeclared candidate 'ghost'"),
        (AB_AND_A_AGAIN, [["a"], [7]], 2, sv.ParseError, ENTRY.format(1)),
        (AB_AND_A_AGAIN, [["ghost"], ["a"]], 2, sv.SemanticError,
         "candidate name 'a' declared twice (in 'C1' and 'C2')"),
        ([{"name": "C1", "candidates": ["a", 7], "quota": 1}], [["a"]], 1, sv.ParseError,
         "subset entry 0 field 'candidates' must list strings"),
        ([5], [[]], 1, sv.ParseError, "subset entry 0 must be an object"),
    ],
    ids=[
        "non-list-after-unknown-name",
        "object-ballot",
        "string-ballot",
        "integer-name",
        "true-name",
        "null-name",
        "list-name",
        "object-name",
        "unhashable-after-unknown-name",
        "unknown-name-before-integer",
        "unknown-name",
        "unknown-name-and-wrong-ballot-count",
        "duplicate-names-and-bad-ballot",
        "duplicate-names-and-unknown-name",
        "integer-candidate",
        "subset-not-an-object",
    ],
)
def test_ballot_diagnostics_keep_their_class_and_order(subsets, ballots, voters, kind, message):
    doc = {"voters": voters, "subsets": subsets, "ballots": ballots}
    with pytest.raises(sv.ScvError) as excinfo:
        sv.parse_instance(json.dumps(doc))
    assert type(excinfo.value) is kind
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "ballots, voters, kind, message",
    [
        ([["a"], ["ghost"]], 2, sv.SemanticError, "ballot 1 approves undeclared candidate 'ghost'"),
        ([["a"], ["ghost"]], 3, sv.SemanticError, "ballot 1 approves undeclared candidate 'ghost'"),
        ([["a"], ["b"]], 3, sv.SemanticError, "expected 3 ballots, got 2"),
        ([["a"], ["b"]], 2, None, None),
    ],
    ids=["unknown-name", "unknown-name-and-wrong-ballot-count", "wrong-ballot-count", "valid"],
)
def test_a_document_resolves_its_ballots_once(monkeypatch, ballots, voters, kind, message):
    calls, resolve = [], core._resolve_ballots

    def counted(bit_of, ballots):
        calls.append(ballots)
        return resolve(bit_of, ballots)

    monkeypatch.setattr(core, "_resolve_ballots", counted)
    text = json.dumps({"voters": voters, "subsets": AB, "ballots": ballots})
    if kind is None:
        assert sv.parse_instance(text).num_voters == voters
    else:
        with pytest.raises(sv.ScvError) as excinfo:
            sv.parse_instance(text)
        assert type(excinfo.value) is kind
        assert str(excinfo.value) == message
    assert len(calls) == 1


def test_a_name_repeated_within_a_ballot_counts_once():
    doc = {"voters": 3, "subsets": AB, "ballots": [["a", "a"], ["b", "a", "b"], []]}
    inst = sv.parse_instance(json.dumps(doc))
    assert inst.ballots == (frozenset({0}), frozenset({0, 1}), frozenset())
    assert inst.ballot_rows == (0b01, 0b11, 0)
    assert inst.approver_masks == (0b011, 0b010)
    assert inst == sv.ScvInstance.from_names(3, [("C1", ["a", "b"], 1)], [["a"], ["a", "b"], []])
    # ballots without a length resolve the same way
    assert inst == sv.ScvInstance.from_names(
        3, [("C1", ["a", "b"], 1)], (iter(b) for b in doc["ballots"])
    )


def _pairs_surrogates(name: str) -> bool:
    """Whether a high surrogate is followed by a low one, two code points
    that JSON reads back as one character, so no valid name holds them."""
    return any("\ud800" <= a <= "\udbff" and "\udc00" <= b <= "\udfff"
               for a, b in zip(name, name[1:]))


# characters whose JSON escapes are awkward: quotes, backslashes, control
# characters, non-ASCII ("\u00e9" sorts before "z", "é" after it), astral
# characters and lone surrogates; then any code point at all, in the names
# of valid instances only
tricky = st.sampled_from(['"', "\\", "\x00", "\n", "\x7f", "a", "z", "é", "\U0001f600", "\ud800",
                          "\udc00"])
names = st.text(tricky | st.characters(exclude_categories=()), min_size=1, max_size=4).filter(
    lambda name: not _pairs_surrogates(name))


@st.composite
def instance_args(draw):
    """``ScvInstance.from_names`` arguments of a valid instance."""
    num_subsets = draw(st.integers(1, 3))
    all_names = draw(
        st.lists(names, min_size=num_subsets, max_size=8, unique=True)
    )
    subset_names = draw(st.lists(names, min_size=num_subsets, max_size=num_subsets, unique=True))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(1, len(all_names) - 1),
                min_size=num_subsets - 1,
                max_size=num_subsets - 1,
                unique=True,
            )
        )
    ) if num_subsets > 1 else []
    bounds = [0] + cuts + [len(all_names)]
    subsets = []
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        members = all_names[lo:hi]
        quota = draw(st.integers(1, len(members)))
        subsets.append((subset_names[j], members, quota))
    num_voters = draw(st.integers(1, 6))
    ballots = [
        draw(st.lists(st.sampled_from(all_names), max_size=len(all_names), unique=True))
        for _ in range(num_voters)
    ]
    return num_voters, subsets, ballots


def instances():
    return instance_args().map(lambda args: sv.ScvInstance.from_names(*args))


@settings(max_examples=150, deadline=None)
@given(instances())
@example(sv.ScvInstance.from_names(  # "é" sorts after "z", its escape "\u00e9" before
    4,
    [('q"\\', ["z", "é", "\U0001f600", "\ud800", "\x00"], 2), ("", ["a"], 1)],
    [["é", "z", "\ud800"], [], ["\x00", "\U0001f600", "a"], ["é", "z", "\ud800"]],
))
def test_parse_of_serialize_is_identity(inst):
    text = sv.serialize_instance(inst)
    assert text == core.to_json_text(sv.instance_to_document(inst))  # the encoder's bytes
    assert sv.parse_instance(text) == inst


def test_a_name_that_json_would_join_into_one_character_is_invalid():
    pair = "\ud800" + "\udc00"
    for subsets in ([("C1", ["a" + pair], 1)], [(pair, ["a"], 1)]):
        with pytest.raises(sv.InvalidInstance) as excinfo:
            sv.ScvInstance.from_names(1, subsets, [[]])
        assert type(excinfo.value) is sv.InvalidInstance
        assert "surrogate pair" in excinfo.value.problems[0]
    # a raw high surrogate before an escaped low one parses into a pair
    with pytest.raises(sv.SemanticError, match="surrogate pair"):
        sv.parse_instance('{"voters": 1, "subsets": [{"name": "C1", "candidates": '
                          '["\ud800\\udc00"], "quota": 1}], "ballots": [[]]}')
    # apart, or low before high, they come back as they were
    inst = sv.ScvInstance.from_names(1, [("\udc00\ud800", ["\ud800", "\udc00"], 1)], [["\udc00"]])
    assert sv.parse_instance(sv.serialize_instance(inst)) == inst


# values of the other JSON types, and of none, for a field of each type
NOT_AN_INT = st.sampled_from([True, False, 1.0, 2.5, "1", None])
NOT_A_STRING = st.sampled_from([0, 7, True, 1.5, None])


@st.composite
def retyped_args(draw):
    """``from_names`` arguments of a valid instance with, or without, one
    field of another type, and that field's name."""
    num_voters, subsets, ballots = draw(instance_args())
    field = draw(st.sampled_from([None, "voters", "name", "candidates", "quota"]))
    j = draw(st.integers(0, len(subsets) - 1))
    name, members, quota = subsets[j]
    if field == "voters":
        num_voters = draw(NOT_AN_INT | st.just(float(num_voters)))
    elif field == "name":
        name = draw(NOT_A_STRING)
    elif field == "candidates":
        old, new = members[0], draw(NOT_A_STRING)
        members = [new, *members[1:]]
        ballots = [[new if c == old else c for c in ballot] for ballot in ballots]
    elif field == "quota":
        quota = draw(NOT_AN_INT | st.just(float(quota)))
    subsets = subsets[:j] + [(name, members, quota)] + subsets[j + 1:]
    return (num_voters, subsets, ballots), field


@settings(max_examples=300, deadline=None)
@given(retyped_args())
def test_every_valid_instance_serializes_and_parses_back(drawn):
    args, retyped = drawn
    try:
        inst = sv.ScvInstance.from_names(*args)
    except sv.InvalidInstance as exc:
        assert retyped, exc.problems  # only a field of another type fails
        return
    assert retyped is None
    assert sv.parse_instance(sv.serialize_instance(inst)) == inst


@st.composite
def instances_from_ids(draw):
    """Valid instances built from ids, each subset listing its members in
    any order, so that subsets may interleave."""
    m = draw(st.integers(1, 8))
    ids = draw(st.permutations(range(m)))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=2))) if m > 1 else []
    bounds = [0, *cuts, m]
    subsets = [
        sv.CandidateSubset(f"S{j}", ids[lo:hi], draw(st.integers(1, hi - lo)))
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]
    ballots = draw(st.lists(st.frozensets(st.integers(0, m - 1)), min_size=1, max_size=5))
    labels = draw(st.lists(names, min_size=m, max_size=m, unique=True))
    return sv.validate_instance(sv.ScvInstance(len(ballots), labels, subsets, ballots))


@settings(max_examples=200, deadline=None)
@given(instances_from_ids())
@example(sv.validate_instance(sv.ScvInstance(  # interleaved subsets
    2, ("a", "b", "c", "d"),
    [sv.CandidateSubset("X", (0, 2), 1), sv.CandidateSubset("Y", (1, 3), 1)],
    [frozenset({1, 2}), frozenset({3})],
)))
@example(sv.validate_instance(sv.ScvInstance(  # members listed in reverse
    1, ("a", "b", "c"), [sv.CandidateSubset("X", (2, 1, 0), 2)], [frozenset({0})],
)))
def test_instances_from_ids_parse_back_to_the_same_document(inst):
    # parsing numbers the candidates in declaration order, so the ids may
    # differ from the original's; the document they describe may not
    parsed = sv.parse_instance(sv.serialize_instance(inst))
    assert sv.instance_to_document(parsed) == sv.instance_to_document(inst)


def _json_paths(node, path=()):
    """Every path into a JSON tree, the root's empty path first."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


def json_values(names):
    """Random JSON values whose strings are often field or candidate names."""
    leaves = (
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
        | st.text(max_size=3) | st.sampled_from(["ghost", "S0", *names])
    )
    keys = st.sampled_from(["voters", "subsets", "ballots", "name", "candidates", "quota"])
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(keys, children, max_size=3),
        max_leaves=6,
    )


@st.composite
def mutated_documents(draw):
    """The text of a valid instance after one mutation: a node of its JSON
    tree replaced by a random value, or a slice of its text replaced by a
    random string."""
    inst = draw(instances())
    text = sv.serialize_instance(inst)
    if draw(st.booleans()):
        doc = json.loads(text)
        path = draw(st.sampled_from(list(_json_paths(doc))))
        return json.dumps(_replaced(doc, path, draw(json_values(inst.candidate_names))))
    start = draw(st.integers(0, len(text)))
    stop = draw(st.integers(start, min(len(text), start + 8)))
    insert = draw(st.text(alphabet='{}[]",:0123456789abxe-. \\', max_size=4))
    return text[:start] + insert + text[stop:]


@settings(max_examples=200, deadline=None)
@given(mutated_documents())
def test_mutated_documents_fail_only_with_library_errors(text):
    try:
        inst = sv.parse_instance(text)
    except sv.ScvError:
        inst = None
    else:
        assert sv.parse_instance(sv.serialize_instance(inst)) == inst
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(text, encoding="utf-8")
        assert run(["--quiet", "validate", str(path)]) == (2 if inst is None else 0)


# -- generators ----------------------------------------------------------------


def test_uniform_model_is_deterministic():
    model = sv.UniformModel(6, (3, 3), (1, 1), 0.5)
    assert sv.generate_instance(model, 7) == sv.generate_instance(model, 7)
    assert sv.generate_instance(model, 7) != sv.generate_instance(model, 8)


def test_uniform_model_zero_probability():
    model = sv.UniformModel(4, (2, 2), (1, 2), 0.0)
    inst = sv.generate_instance(model, 3)
    assert all(ballot == frozenset() for ballot in inst.ballots)
    sv.validate_instance(inst)


@pytest.mark.parametrize("prob, approves", [(1, True), (0, False)])
def test_integer_probabilities_draw_as_their_floats(prob, approves):
    inst = sv.generate_instance(sv.UniformModel(5, (3, 4), (1, 2), prob), 9)
    assert inst == sv.generate_instance(sv.UniformModel(5, (3, 4), (1, 2), float(prob)), 9)
    everyone = frozenset(range(7)) if approves else frozenset()
    assert inst.ballots == (everyone,) * 5


# SHA-256 of the serialized draw: a change to the random stream, the
# generators or the written layout changes these
GOLDEN_DRAWS = [
    (sv.UniformModel(12, (4, 3, 5), (2, 1, 3), 0.35), 7,
     "f866526dd7823845866802d09aa819134bb525adb140a5681635c989e94cacd9"),
    (sv.UniformModel(3000, (10, 10), (3, 2), 0.3), 1,
     "3719e17abaefa4ee79560706bd0d6abe4ccf850474dab0764a1d23d68a7e8e64"),
    (sv.PartyListModel(
        (("Ω", ("é", "z", '"q"', "a\\b"), 2), ("C2", ("\U0001f600", "tab\t", "x"), 1)),
        ((3, ("é", "z", "\U0001f600")), (2, ('"q"', "a\\b", "tab\t")), (1, ()), (4, ("z", "x")))),
     0, "f44d9c9b5334f8a981b92637a3adeac0fe50bc714dcaa301e4a2d99fac5449f0"),
    (sv.SetCoverModel(12, 20, 0.3, 4), 5,
     "eaab1d5abdc7fbdd3814506b09452334ac3d02c345344570e9f3c9b1d1e77d71"),
]


@pytest.mark.parametrize("model, seed, digest", GOLDEN_DRAWS,
                         ids=["uniform", "uniform-3000", "party-list", "set-cover"])
def test_generators_draw_the_golden_instances(model, seed, digest):
    text = sv.serialize_instance(sv.generate_instance(model, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@st.composite
def constructed_instances(draw, kind):
    """Instances that :meth:`ScvInstance._from_rows` builds: ``from_names``
    draws and the draws of each generator model."""
    if kind == "names":
        return sv.ScvInstance.from_names(*draw(instance_args()))
    if kind == "uniform":
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        quotas = [draw(st.integers(1, size)) for size in sizes]
        model = sv.UniformModel(draw(st.integers(1, 6)), sizes, quotas, draw(st.floats(0, 1)))
    elif kind == "party-list":
        _, subsets, ballots = draw(instance_args())
        model = sv.PartyListModel(subsets, [(draw(st.integers(1, 3)), b) for b in ballots])
    else:
        entries = draw(st.integers(1, 5))
        model = sv.SetCoverModel(draw(st.integers(1, 6)), entries, draw(st.floats(0, 1)),
                                 draw(st.integers(1, entries)))
    return sv.generate_instance(model, draw(st.integers(0, 2**32 - 1)))


@pytest.mark.parametrize("kind", ["names", "uniform", "party-list", "set-cover"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_constructed_instances_number_their_members_in_declaration_order(kind, data):
    # what lets validation skip the partition and name checks of these instances
    inst = data.draw(constructed_instances(kind))
    members = [c for sub in inst.subsets for c in sub.members]
    assert members == list(range(inst.num_candidates))
    assert len(set(inst.candidate_names)) == inst.num_candidates
    by_ids = sv.ScvInstance(inst.num_voters, inst.candidate_names, inst.subsets, inst.ballots)
    assert sv.validate_instance(by_ids) == inst
    assert inst.__dict__["subset_index"] == by_ids.subset_index


def test_an_instance_built_from_ids_gets_its_subset_index_from_validation():
    # interleaved members: the partition check records each id's subset as it passes it
    inst = sv.ScvInstance(1, ("a", "b", "c", "d"),
                          [sv.CandidateSubset("S0", (2, 0), 1), sv.CandidateSubset("S1", (3, 1), 1)],
                          [frozenset({0})])
    assert not hasattr(inst, "subset_index")
    assert sv.validate_instance(inst) is inst
    assert inst.subset_index == (0, 1, 0, 1)
    assert sv.Committee.of(inst, {0, 1}).members == {0, 1}
    with pytest.raises(sv.InfeasibleCommittee) as excinfo:
        sv.Committee.of(inst, {0, 2})
    assert str(excinfo.value) == ("subset 'S0' needs exactly 1 members, got 2; "
                                  "subset 'S1' needs exactly 1 members, got 0")
    broken = sv.ScvInstance(1, ("a", "b"),
                            [sv.CandidateSubset("S0", (0, 1), 1), sv.CandidateSubset("S1", (1,), 1)],
                            [frozenset()])
    with pytest.raises(sv.PartitionBroken):
        sv.validate_instance(broken)
    assert not hasattr(broken, "subset_index")


def test_generated_instances_always_validate():
    rng = random.Random(42)
    for _ in range(50):
        inst = random_instance(rng)
        assert sv.validate_instance(inst) is inst


def test_party_list_blocks_reproduce_the_axiom_split_instance():
    expected = fixtures.axiom_split_instance()
    layout = [
        ("C1", tuple(f"c{i}" for i in range(1, 9)), 1),
        ("C2", ("a", "b", "c"), 2),
    ]
    blocks = [(1, (f"c{i}", "a")) for i in range(1, 7)]
    blocks += [(4, ("c7", "b")), (2, ("c8", "c"))]
    model = sv.PartyListModel(subsets=tuple(layout), blocks=tuple(blocks))
    assert sv.generate_instance(model, seed=0) == expected


def test_bad_generator_specs():
    with pytest.raises(sv.BadSpec):
        sv.generate_instance(sv.UniformModel(0, (2,), (1,), 0.5), 1)
    with pytest.raises(sv.BadSpec):
        sv.generate_instance(sv.UniformModel(2, (2, 2), (1,), 0.5), 1)
    with pytest.raises(sv.BadSpec):
        sv.generate_instance(sv.UniformModel(2, (2,), (3,), 0.5), 1)
    with pytest.raises(sv.BadSpec):
        sv.generate_instance(sv.UniformModel(2, (2,), (1,), 1.5), 1)
    with pytest.raises(sv.BadSpec):
        sv.generate_instance(sv.PartyListModel((("C", ("x",), 1),), ((0, ("x",)),)), 1)
    with pytest.raises(sv.BadSpec):
        sv.generate_instance("mystery", 1)


@pytest.mark.parametrize(
    "model, message",
    [
        (sv.SetCoverModel(0, 2, 0.5, 1), "ground size and subset count must be positive"),
        (sv.SetCoverModel(2, 0, 0.5, 1), "ground size and subset count must be positive"),
        (sv.SetCoverModel(2, 2, 1.5, 1), "membership probability 1.5 outside [0, 1]"),
        (sv.SetCoverModel(2, 2, -0.5, 1), "membership probability -0.5 outside [0, 1]"),
        (sv.SetCoverModel(2, 2, 0.5, 0), "budget 0 outside 1 .. 2"),
        (sv.SetCoverModel(2, 2, 0.5, 3), "budget 3 outside 1 .. 2"),
        (sv.PartyListModel((("C", ("x",), 1),), ()), "party-list model needs at least one block"),
        (sv.PartyListModel((("C", ("x",), 1),), ((1, ("ghost",)),)),
         "ballot 0 approves undeclared candidate 'ghost'"),
        (sv.PartyListModel((("C", "ab", 1),), ((1, ("a",)),)),
         "PartyListModel field 'subsets' must list strings"),
        (sv.PartyListModel((("C", ("a", "b"), 1),), ((1, "ab"),)),
         "PartyListModel field 'blocks' must list strings"),
        (sv.PartyListModel((("C", 5, 1),), ((1, ("a",)),)),
         "PartyListModel field 'subsets' must list strings"),
        (sv.PartyListModel((("C", ("a",), 1),), ((1, None),)),
         "PartyListModel field 'blocks' must list strings"),
        (sv.PartyListModel(((5, ("a",), 1),), ((1, ("a",)),)),
         "PartyListModel field 'subsets' has the wrong type"),
        (sv.PartyListModel((("C", ("a",), 0),), ((1, ("a",)),)),
         "subset 'C' has quota 0, needs 1 <= quota <= 1"),
        (sv.PartyListModel((("C", ("a",), 1), ("C", ("b",), 1)), ((1, ("a",)),)),
         "subset names are not unique"),
        (sv.PartyListModel((("C", ("a",)),), ((1, ("a",)),)),
         "PartyListModel field 'subsets' has the wrong type"),
        (sv.PartyListModel(5, ((1, ("a",)),)), "PartyListModel field 'subsets' has the wrong type"),
        (sv.PartyListModel((("C", ("a",), 1),), (5,)), "PartyListModel field 'blocks' has the wrong type"),
        (sv.UniformModel(2, 5, (1,), 0.5), "UniformModel field 'sizes' has the wrong type"),
        (sv.UniformModel(2, (2,), 5, 0.5), "UniformModel field 'quotas' has the wrong type"),
    ],
    ids=["no-ground", "no-subsets", "probability-over-1", "negative-probability",
         "budget-0", "budget-over-subsets", "no-blocks", "undeclared-block-candidate",
         "string-candidates", "string-block-ballot", "int-candidates", "null-block-ballot",
         "int-subset-name", "quota-0", "repeated-subset-name", "short-subset", "int-subsets",
         "int-block", "int-sizes", "int-quotas"],
)
def test_bad_generator_specs_name_their_cause(model, message):
    with pytest.raises(sv.BadSpec) as excinfo:
        sv.generate_instance(model, 1)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("model, field", [
    (sv.UniformModel(2.5, (2,), (1,), 0.5), "num_voters"),
    (sv.UniformModel("2", (2,), (1,), 0.5), "num_voters"),
    (sv.UniformModel(2, (2.0,), (1,), 0.5), "sizes"),
    (sv.UniformModel(2, ("2",), (1,), 0.5), "sizes"),
    (sv.UniformModel(2, (2,), (1.0,), 0.5), "quotas"),
    (sv.UniformModel(2, (2,), (1,), "x"), "approval_prob"),
    (sv.PartyListModel((("C", ("a",), 1),), (("3", ("a",)),)), "blocks"),
    (sv.PartyListModel((("C", ("a",), 1),), ((2.0, ("a",)),)), "blocks"),
    (sv.SetCoverModel("3", 2, 0.5, 1), "ground_size"),
    (sv.SetCoverModel(2.5, 2, 0.5, 1), "ground_size"),
    (sv.SetCoverModel(3, 2.0, 0.5, 1), "num_subsets"),
    (sv.SetCoverModel(3, 2, "x", 1), "membership_prob"),
    (sv.SetCoverModel(3, 2, 0.5, 1.5), "budget"),
    (sv.PartyListModel((("C", ("a",), 1.0),), ((1, ("a",)),)), "subsets"),
    (sv.PartyListModel((("C", ("a",), "1"),), ((1, ("a",)),)), "subsets"),
    (sv.UniformModel(2, (2,), (1,), 0.5j), "approval_prob"),
    (sv.UniformModel(0, (2,), (1,), None), "approval_prob"),
], ids=["float-voters", "string-voters", "float-size", "string-size", "float-quota",
        "string-probability", "string-block", "float-block", "string-ground", "float-ground",
        "float-subsets", "string-membership", "float-budget", "float-party-quota",
        "string-party-quota", "complex-probability", "null-probability-and-no-voters"])
def test_a_mistyped_generator_model_names_its_field(model, field):
    # checked before anything is drawn, in the dataclass's own field names
    with pytest.raises(sv.BadSpec, match=f"^{type(model).__name__} field '{field}' holds "):
        sv.generate_instance(model, 1)


def test_a_bool_count_or_a_fraction_probability_still_draws():
    # a bool passes as an int does in arithmetic, and a Fraction compares with 0 and 1
    assert sv.generate_instance(sv.UniformModel(2, (True,), (1,), 0.5), 1).num_candidates == 1
    party = sv.PartyListModel((("C", ("a",), 1),), ((True, ("a",)),))
    assert sv.generate_instance(party, 1).num_voters == 1
    half = Fraction(1, 2)
    assert (sv.generate_instance(sv.UniformModel(3, (2,), (1,), half), 5)
            == sv.generate_instance(sv.UniformModel(3, (2,), (1,), 0.5), 5))
    assert (sv.generate_instance(sv.SetCoverModel(3, 2, half, 1), 5)
            == sv.generate_instance(sv.SetCoverModel(3, 2, 0.5, 1), 5))
    # a bool count, quota, voter count, ground size or budget is read as 1
    # before anything is built, so it draws what the model with 1 draws
    for with_bool, with_one in [
        (sv.UniformModel(True, (2,), (1,), 0.5), sv.UniformModel(1, (2,), (1,), 0.5)),
        (sv.UniformModel(2, (2,), (True,), 0.5), sv.UniformModel(2, (2,), (1,), 0.5)),
        (sv.SetCoverModel(3, 2, 0.5, True), sv.SetCoverModel(3, 2, 0.5, 1)),
        (sv.SetCoverModel(True, 2, 0.5, 1), sv.SetCoverModel(1, 2, 0.5, 1)),
        (sv.PartyListModel((("C", ("a",), True),), ((1, ("a",)),)),
         sv.PartyListModel((("C", ("a",), 1),), ((1, ("a",)),))),
    ]:
        assert sv.generate_instance(with_bool, 1) == sv.generate_instance(with_one, 1), with_bool
    assert (sv.generate_set_cover(sv.SetCoverModel(3, 2, 0.5, True), 1)
            == sv.generate_set_cover(sv.SetCoverModel(3, 2, 0.5, 1), 1))


def test_a_decimal_probability_draws_as_its_float_does():
    half = Decimal("0.5")
    assert (sv.generate_instance(sv.UniformModel(3, (2,), (1,), half), 5)
            == sv.generate_instance(sv.UniformModel(3, (2,), (1,), 0.5), 5))
    assert (sv.generate_set_cover(sv.SetCoverModel(3, 2, half, 1), 5)
            == sv.generate_set_cover(sv.SetCoverModel(3, 2, 0.5, 1), 5))


def test_set_cover_model_emits_the_encoding():
    model = sv.SetCoverModel(ground_size=4, num_subsets=3, membership_prob=0.4, budget=2)
    inst = sv.generate_instance(model, 11)
    assert inst == sv.generate_instance(model, 11)
    assert inst.num_subsets == 2
    assert inst.quotas == (4, 2)
    assert inst.num_voters == 4
    sv.validate_instance(inst)
