"""Instance validation, JSON round trips, committees, and generators."""

import json
import math
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scvoting as sv
from scvoting import fixtures
from scvoting.cli import run
from conftest import random_instance
from scvoting.core import mask_voters


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
    ],
    ids=["no-subsets", "duplicate-candidate-names", "duplicate-subset-names", "out-of-range-id"],
)
def test_structural_violations_name_their_class_and_cause(inst, kind, problems):
    with pytest.raises(sv.InvalidInstance) as excinfo:
        sv.validate_instance(inst)
    assert type(excinfo.value) is kind
    assert excinfo.value.problems == problems


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
    for w in committees:
        sv.Committee.of(inst, w)  # all feasible


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


def test_infeasible_committee_rejected():
    inst = fixtures.no_swjr_instance()
    with pytest.raises(sv.InfeasibleCommittee):
        sv.Committee.of(inst, [0, 1])  # both from the same subset
    with pytest.raises(sv.InfeasibleCommittee):
        sv.Committee.of(inst, [0])
    with pytest.raises(sv.InfeasibleCommittee):
        sv.Committee.of(inst, [0, 99])


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
    ],
)
def test_ballot_diagnostics_keep_their_class_and_order(subsets, ballots, voters, kind, message):
    doc = {"voters": voters, "subsets": subsets, "ballots": ballots}
    with pytest.raises(sv.ScvError) as excinfo:
        sv.parse_instance(json.dumps(doc))
    assert type(excinfo.value) is kind
    assert str(excinfo.value) == message


names = st.text(alphabet="abcxyz'_0123456789", min_size=1, max_size=4)


@st.composite
def instances(draw):
    num_subsets = draw(st.integers(1, 3))
    all_names = draw(
        st.lists(names, min_size=num_subsets, max_size=8, unique=True)
    )
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
        subsets.append((f"S{j}", members, quota))
    num_voters = draw(st.integers(1, 6))
    ballots = [
        draw(st.lists(st.sampled_from(all_names), max_size=len(all_names), unique=True))
        for _ in range(num_voters)
    ]
    return sv.ScvInstance.from_names(num_voters, subsets, ballots)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_parse_of_serialize_is_identity(inst):
    assert sv.parse_instance(sv.serialize_instance(inst)) == inst


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
    ],
    ids=["no-ground", "no-subsets", "probability-over-1", "negative-probability",
         "budget-0", "budget-over-subsets", "no-blocks", "undeclared-block-candidate"],
)
def test_bad_generator_specs_name_their_cause(model, message):
    with pytest.raises(sv.BadSpec) as excinfo:
        sv.generate_instance(model, 1)
    assert str(excinfo.value) == message


def test_set_cover_model_emits_the_encoding():
    model = sv.SetCoverModel(ground_size=4, num_subsets=3, membership_prob=0.4, budget=2)
    inst = sv.generate_instance(model, 11)
    assert inst == sv.generate_instance(model, 11)
    assert inst.num_subsets == 2
    assert inst.quotas == (4, 2)
    assert inst.num_voters == 4
    sv.validate_instance(inst)
