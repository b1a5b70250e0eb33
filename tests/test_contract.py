"""The input contract of the public API, one row per wrong input.

Data that can come from a document, a CLI flag or a model field (names,
ballots, committee members, quotas, counts, budgets, probabilities) raises
a library error, of the class and with the message its row names.  A value
that is no object of the kind a call expects, such as no instance at all or
a committee that does not iterate, keeps Python's own error: a
``TypeError``, or an ``AttributeError`` where an instance's field is read.

A wrong input that a module test already pins, such as a mistyped model
field or ``check_jr``'s ``k``, has its row there, not here.
"""

import pytest

import scvoting as sv
from scvoting import fixtures

# the table's word for a row that keeps Python's own error
TYPE_ERROR_ALLOWED = "TypeError allowed"

INST = fixtures.no_swjr_instance()

SUBSETS_TYPE = (sv.InvalidInstance, "instance field 'subsets' has the wrong type")
BALLOT_ENTRY = (sv.BadBallot, "ballot entry 0 must be a list of candidate ids")


def built_from_ids(members, ballots, num_voters=1):
    """An instance of one candidate built directly from ids, validated."""
    return sv.validate_instance(
        sv.ScvInstance(num_voters, ("x",), [sv.CandidateSubset("C", members, 1)], ballots))


def from_names_through_an_iterator(num_voters, subsets, ballots):
    """``from_names`` handed its subset entries as an iterator, made at the call."""
    return sv.ScvInstance.from_names(num_voters, iter(subsets), ballots)


# (id, callable, positional arguments, keyword arguments, expected)
CONTRACT = [
    # a subsets argument that is no list of triples
    ("from_names-mapping-entry", sv.ScvInstance.from_names,
     (1, [{"name": "C", "candidates": ["a"], "quota": 1}], [["a"]]), {}, SUBSETS_TYPE),
    ("from_names-string-entry", sv.ScvInstance.from_names, (1, ["abc"], [[]]), {}, SUBSETS_TYPE),
    ("from_names-string-entry-after-a-triple", sv.ScvInstance.from_names,
     (1, [("C", ["a"], 1), "abc"], [[]]), {}, SUBSETS_TYPE),
    ("from_names-string-entry-from-an-iterator", from_names_through_an_iterator,
     (1, [("C", ["a"], 1), "abc"], [[]]), {}, SUBSETS_TYPE),
    # ballots and members of an instance built directly from ids
    ("direct-null-ballot", built_from_ids, ((0,), [None]), {}, BALLOT_ENTRY),
    ("direct-string-ballot-after-a-bad-id", built_from_ids, ((0,), [[0.5], "x"]), {"num_voters": 2},
     (sv.BadBallot, "ballot entry 1 must be a list of candidate ids; "
                    "ballot 0 references unknown candidate ids [0.5]")),
    ("direct-null-ballots", built_from_ids, ((0,), None), {},
     (sv.InvalidInstance, "instance field 'ballots' has the wrong type")),
    ("direct-integer-members", built_from_ids, (5, [[0]]), {},
     (sv.InvalidInstance, "subset entry 0 field 'candidates' has the wrong type")),
    ("direct-mapping-members", built_from_ids, ({0: 1}, [[0]]), {},
     (sv.InvalidInstance, "subset entry 0 field 'candidates' has the wrong type")),
    # the arguments of the classic single-pool check
    ("check_jr-null-ballot", sv.check_jr, ([None], {0}), {"k": 1}, BALLOT_ENTRY),
    ("check_jr-integer-ballot", sv.check_jr, ([[0], 5], {0}), {"k": 1},
     (sv.BadBallot, "ballot entry 1 must be a list of candidate ids")),
    ("check_jr-mapping-ballot", sv.check_jr, ([{0: 1}], {0}), {"k": 1}, BALLOT_ENTRY),
    # budgets
    ("maximize-null-budget", sv.maximize, (INST, sv.SW_PAV), {"budget": None},
     (sv.InvalidInstance, "maximize field 'budget' must be an integer")),
    ("maximize-float-budget", sv.maximize, (INST, sv.IW_PAV), {"budget": 1.5},
     (sv.InvalidInstance, "maximize field 'budget' must be an integer")),
    ("maximize-bool-budget", sv.maximize, (INST, sv.SW_PAV), {"budget": True},
     (sv.InvalidInstance, "maximize field 'budget' must be an integer")),
    ("sw_jr_exists-null-budget", sv.sw_jr_exists, (INST,), {"budget": None},
     (sv.InvalidInstance, "sw_jr_exists field 'budget' must be an integer")),
    ("sw_jr_exists-string-budget", sv.sw_jr_exists, (INST,), {"budget": "5"},
     (sv.InvalidInstance, "sw_jr_exists field 'budget' must be an integer")),
    # no object of the kind expected
    ("check_sw_jr-null-committee", sv.check_sw_jr, (INST, None), {}, TYPE_ERROR_ALLOWED),
    ("sw_pav_score-null-committee", sv.sw_pav_score, (INST, None), {}, TYPE_ERROR_ALLOWED),
    ("maximize-null-instance", sv.maximize, (None, sv.SW_PAV), {}, TYPE_ERROR_ALLOWED),
]


@pytest.mark.parametrize("call, args, kwargs, expected",
                         [pytest.param(*row[1:], id=row[0]) for row in CONTRACT])
def test_each_wrong_input_raises_the_error_its_contract_names(call, args, kwargs, expected):
    if expected == TYPE_ERROR_ALLOWED:
        with pytest.raises((TypeError, AttributeError)) as excinfo:
            call(*args, **kwargs)
        assert not isinstance(excinfo.value, sv.ScvError)
    else:
        with pytest.raises(sv.ScvError) as excinfo:
            call(*args, **kwargs)
        assert (type(excinfo.value), str(excinfo.value)) == expected
