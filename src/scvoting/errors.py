"""Exception types shared across the library, and the exact int text of
the messages that hold unbounded counts."""

from __future__ import annotations

import decimal

# decimal's own int conversion has no digit limit, and this context rounds none
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)


def exact_repr(value) -> str:
    """``repr(value)``, but an int (not a bool) prints at any size: ``repr``
    refuses one past CPython's 4,300-digit limit, and lifting that limit
    would lift it for the whole process, not for this library alone."""
    return str(_EXACT.create_decimal(value)) if type(value) is int else repr(value)


def exact_str(value) -> str:
    """``str(value)``, but an int (not a bool) prints at any size, as in
    :func:`exact_repr`: for the messages that print a caller's value as
    ``str`` does, before or without a type check."""
    return str(_EXACT.create_decimal(value)) if type(value) is int else str(value)


class ScvError(Exception):
    """Base class for all library errors."""


class InvalidInstance(ScvError):
    """An instance violates one or more structural invariants.

    ``problems`` lists every violated invariant, not just the first one
    found, so callers can report a complete diagnostic.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class QuotaInfeasible(InvalidInstance):
    """Some subset quota is non-positive or exceeds the subset size."""


class PartitionBroken(InvalidInstance):
    """Candidate ids do not form a partition (duplicate or missing id)."""


class BadBallot(InvalidInstance):
    """A ballot references an unknown candidate id."""


class InvalidSetCover(InvalidInstance):
    """A set-cover instance violates its invariants."""


class ParseError(ScvError):
    """A document is not syntactically valid (bad JSON or missing field)."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class SemanticError(ScvError):
    """A well-formed document fails name resolution or validation."""

    def __init__(self, message, problems=()):
        self.problems = list(problems)
        super().__init__(message)


class InfeasibleCommittee(ScvError):
    """A candidate set does not meet every subset quota exactly."""


class BadSpec(ScvError):
    """Inconsistent parameters passed to an instance generator."""


class TooLarge(ScvError):
    """Input exceeds the size cap of an exhaustive routine."""


class BudgetExceeded(ScvError):
    """The feasible-committee count exceeds the enumeration budget."""

    def __init__(self, count, budget):
        self.count = count
        self.budget = budget
        super().__init__(
            f"enumeration would visit {exact_repr(count)} committees, "
            f"budget is {exact_repr(budget)}"
        )


class NotMember(ScvError):
    """The candidate is not a member of the given committee."""


class NotACover(ScvError):
    """A decoded subset selection fails to cover the ground set."""


class EmptySequence(ScvError):
    """An aggregate over quotas was called with no subsets."""
