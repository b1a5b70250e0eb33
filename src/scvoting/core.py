"""Instances, committees, and set-cover inputs for sub-committee approval voting.

An instance partitions the candidates into named subsets, fixes a quota for
each subset, and stores one approval ballot per voter.  A committee is any
candidate set meeting every quota exactly.  Everything is immutable once
validated, so instances can be shared freely between threads.
"""

from __future__ import annotations

import gc
import json
import math
import random
import re
import struct
import sys
import threading
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from decimal import Decimal
from functools import cache, cached_property
from itertools import combinations, compress, count, product, repeat
from numbers import Real
from typing import Optional

from .errors import (
    BadBallot,
    BadSpec,
    InfeasibleCommittee,
    InvalidInstance,
    InvalidSetCover,
    ParseError,
    PartitionBroken,
    QuotaInfeasible,
    SemanticError,
    exact_repr,
    exact_str,
)


def _id_list(ids: list) -> str:
    """``ids`` for a message: all of them, or the first 10 and a count."""
    shown = f"[{', '.join(map(exact_repr, ids[:10]))}]"
    return shown if len(ids) <= 10 else f"{shown} and {len(ids) - 10} more ({len(ids)} in all)"


@dataclass(frozen=True)
class CandidateSubset:
    """One named block of the candidate partition, with its quota."""

    name: str
    members: tuple[int, ...]
    quota: int

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ScvInstance:
    """A sub-committee voting instance.

    Voters are ``0 .. num_voters-1``; candidates carry global ids
    ``0 .. num_candidates-1`` plus a display name per id.  ``subsets`` is the
    ordered candidate partition and ``ballots[i]`` the approval set of voter
    ``i``; an instance resolved from names holds :attr:`ballot_rows` and
    decodes ``ballots`` from them when first read.  Use
    :func:`validate_instance` (or the ``from_names`` / ``parse_instance``
    factories, which call it) before handing an instance to any solver; it
    stores ``subset_index``, each id's subset, which an unvalidated one lacks.
    """

    num_voters: int
    candidate_names: tuple[str, ...]
    subsets: tuple[CandidateSubset, ...]
    ballots: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "candidate_names", tuple(self.candidate_names))
        object.__setattr__(self, "subsets", tuple(self.subsets))
        # a ballot of ints is frozen, any other kept for validation to name (0.0 is no 0)
        object.__setattr__(self, "ballots", tuple(
            frozenset(b) if all(map(int.__instancecheck__, b)) else b for b in map(tuple, self.ballots)))

    # -- derived quantities -------------------------------------------------

    @property
    def num_candidates(self) -> int:
        return len(self.candidate_names)

    @property
    def num_subsets(self) -> int:
        return len(self.subsets)

    @property
    def quotas(self) -> tuple[int, ...]:
        return tuple(s.quota for s in self.subsets)

    @property
    def committee_size(self) -> int:
        return sum(s.quota for s in self.subsets)

    @cached_property
    def ballot_rows(self) -> tuple[int, ...]:
        """Approvals of every voter as a candidate bitmask.

        Bit c of ``ballot_rows[i]`` is set when voter i approves c.  An
        instance resolved from names is built with these rows; one built
        from ids derives them from its ballots.
        """
        return tuple(sum(map((1).__lshift__, ballot)) for ballot in self.ballots)

    @cached_property
    def approver_masks(self) -> tuple[int, ...]:
        """Approvers of every candidate id as a voter bitmask.

        Bit i of ``approver_masks[c]`` is set when voter i approves c: the
        masks are the bit transpose of :attr:`ballot_rows`, built by
        :func:`_transpose` without a loop over the approvals.
        """
        return _transpose(self.ballot_rows, self.num_candidates)

    def __getattr__(self, name):
        # reached only for attributes the instance lacks: an instance resolved
        # from names holds rows, not ballots, until something reads them
        if name != "ballots" or "ballot_rows" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ballots = _decode_rows(self.ballot_rows)
        object.__setattr__(self, "ballots", ballots)
        return ballots

    @cached_property
    def _voter_ids(self) -> tuple[int, ...]:
        return tuple(range(self.num_voters))

    def voters_of(self, mask: int) -> list[int]:
        """Ids of the voters whose bits are set in ``mask``, ascending,
        picked from one tuple of ids kept on the instance instead of an int
        made per bit."""
        return list(compress(self._voter_ids, _selectors(mask)))

    @cached_property
    def _id_by_name(self) -> dict[str, int]:
        return {name: cid for cid, name in enumerate(self.candidate_names)}

    def candidate_id(self, name: str) -> int:
        try:
            return self._id_by_name[name]
        except KeyError:
            raise SemanticError(f"unknown candidate name {name!r}") from None

    def candidate_name(self, cid: int) -> str:
        return self.candidate_names[cid]

    def names_of(self, cids: Iterable[int]) -> tuple[str, ...]:
        """Display names of the given candidate ids, in id order."""
        return tuple(self.candidate_names[c] for c in sorted(cids))

    def committee(self, members) -> "Committee":
        return Committee.of(self, members)

    # -- factories ----------------------------------------------------------

    @classmethod
    def from_names(
        cls,
        num_voters: int,
        subsets: Sequence[tuple[str, Sequence[str], int]],
        ballots: Sequence[Iterable[str]],
    ) -> "ScvInstance":
        """Build and validate an instance from candidate names.

        ``subsets`` lists ``(subset name, candidate names, quota)`` triples;
        global candidate ids are assigned in declaration order, and a name
        repeated within one ballot counts once.  Raises
        :class:`SemanticError` for duplicate or unknown names and the
        :class:`InvalidInstance` family for structural violations, the
        mistyped fields first and alone, as a parse reports them.
        """
        # an iterator of names is read once, before it is typed
        subsets = [(n, list(c) if isinstance(c, Iterator) else c, q) for n, c, q in subsets]
        problems = _instance_problems(num_voters, subsets)
        if problems:
            raise InvalidInstance(problems)
        names: list[str] = []
        shape: list[tuple[str, int, int]] = []
        for sub_name, cand_names, quota in subsets:
            start = len(names)
            names += cand_names
            shape.append((sub_name, len(names) - start, quota))
        bit_of = {name: 1 << c for c, name in enumerate(names)}
        if len(bit_of) != len(names):  # a name declared twice
            bit_of, owner = {}, [sub_name for sub_name, size, _ in shape for _ in range(size)]
            for c, cand in enumerate(names):
                if cand in bit_of:
                    first = owner[bit_of[cand].bit_length() - 1]
                    raise SemanticError(
                        f"candidate name {cand!r} declared twice (in {first!r} and {owner[c]!r})")
                bit_of[cand] = 1 << c
        rows = _resolve_ballots(bit_of, ballots)
        return cls._from_rows(num_voters, names, shape, rows)

    @classmethod
    def _from_rows(
        cls,
        num_voters: int,
        names: Sequence[str],
        shape: Iterable[tuple[str, int, int]],
        rows: Sequence[int],
    ) -> "ScvInstance":
        """Build and validate an instance whose :attr:`ballot_rows` are
        ``rows``, whose names are distinct, and whose subsets are laid out
        from their (name, size, quota) ``shape``: each takes the next
        ``size`` ids in declaration order, so the partition holds by
        construction and the subset index is written with it.  Its callers
        are :meth:`from_names`, the uniform generator and
        :func:`search.encode_set_cover`, and each types the fields first."""
        subsets, index = [], []
        for j, (name, size, quota) in enumerate(shape):
            subsets.append(CandidateSubset(name, range(len(index), len(index) + size), quota))
            index += [j] * size
        inst = cls.__new__(cls)
        inst.__dict__.update(
            num_voters=num_voters,
            candidate_names=tuple(names),
            subsets=tuple(subsets),
            ballot_rows=tuple(rows),
            subset_index=tuple(index),
        )
        return _validated(inst, None)


def validate_instance(raw) -> ScvInstance:
    """Check every instance invariant, raising a full diagnostic on failure.

    ``raw`` is either an :class:`ScvInstance` built programmatically or a
    parsed JSON document (mapping).  All violations are collected before
    raising.  An instance raises the class of the first violation found
    (:class:`QuotaInfeasible`, :class:`PartitionBroken`, or
    :class:`BadBallot`, with plain :class:`InvalidInstance` for structural
    problems such as ``n < 1``).  A field of a type the JSON format cannot
    hold, such as a float quota, is a structural problem checked first.  A
    mapping raises :class:`ParseError` when malformed and
    :class:`SemanticError` otherwise, listing any violations above in
    ``.problems`` (see :func:`instance_from_document`).
    """
    if isinstance(raw, Mapping):
        return instance_from_document(raw)
    return _validated(raw, raw.ballots)


@cache  # one entry per type: the two abstract-class tests cost more than the lookup
def _listlike(kind: type) -> bool:
    """Whether values of ``kind`` are read as a list: iterable, and neither a
    string nor a mapping, which iterate over characters or keys."""
    return issubclass(kind, Iterable) and not issubclass(kind, (str, Mapping))


def _tupled(value):
    """``value`` as a tuple when it reads as a list (:func:`_listlike`), else as it is."""
    return tuple(value) if _listlike(type(value)) else value


def _resolve_ballots(bit_of: Mapping[str, int], ballots) -> tuple[int, ...]:
    """One candidate bitmask per ballot of names, ``bit_of[name]`` summed.

    A name repeated within a ballot counts once.  A string or a mapping (which
    iterate over characters or keys) and a non-iterable are no ballot (:class:`InvalidInstance`);
    :class:`SemanticError` names the first ballot with an undeclared name.
    """
    ballots = list(ballots)
    if not all(map(_listlike, set(map(type, ballots)))):
        i = next(i for i, b in enumerate(ballots) if not _listlike(type(b)))
        raise InvalidInstance(_field_problems("ballot entry", [(i, "ballot", ballots[i])]))
    try:
        total = sum(map(len, ballots))
        rows = list(map(sum, map(map, repeat(bit_of.__getitem__), ballots)))
        if sum(map(int.bit_count, rows)) == total:  # else some sum carried: a repeated name
            return tuple(rows)  # from a list: tuple(map(...)) here made repeated parses' RSS climb
    except (KeyError, TypeError):  # a ballot without a length, an undeclared or an unhashable name
        pass
    rows = [0] * len(ballots)  # name by name: ORing counts a repeated name once
    for i, ballot in enumerate(ballots):
        for name in ballot:
            try:
                rows[i] |= bit_of[name]
            except (KeyError, TypeError):
                raise SemanticError(f"ballot {i} approves undeclared candidate {name!r}") from None
    return tuple(rows)


def _decode_rows(rows: Iterable[int]) -> tuple[frozenset[int], ...]:
    """The ballots of :attr:`ScvInstance.ballot_rows`, as id sets."""
    return tuple(frozenset(compress(count(), _selectors(row))) for row in rows)


def _validated(inst: ScvInstance, ballots) -> ScvInstance:
    """:func:`validate_instance` on an instance with the given ballots, or,
    with None, on one built by :meth:`ScvInstance._from_rows`: its fields
    were typed by its caller, its names and partition hold by construction
    and it has one ballot per row.  The partition check of an instance
    built from ids records the subset of each id it passes, and a valid
    instance keeps that record as its ``subset_index``."""
    problems: list[tuple[type, str]] = []  # (class, message), in check order
    m = inst.num_candidates

    # the field types parsing requires, in its words, so that a valid
    # instance serializes to a document that parses back
    if ballots is not None:
        problems += [(InvalidInstance, message) for message in _instance_problems(inst.num_voters, [
            (sub.name, [inst.candidate_names[c] for c in sub.members if _is_id(c, m)], sub.quota)
            for sub in inst.subsets])]

    # a high surrogate then a low one is written as two escapes, which JSON
    # reads back as one character; an ASCII name has neither
    subset_names = [sub.name for sub in inst.subsets]
    try:
        plain = "".join(inst.candidate_names).isascii() and "".join(subset_names).isascii()
    except TypeError:  # a name of another type, reported above
        plain = False
    if not plain:
        problems += [
            (InvalidInstance, f"{kind} name {name!r} holds a surrogate pair, "
                              "which JSON reads back as one character")
            for kind, names in (("candidate", inst.candidate_names), ("subset", subset_names))
            for name in names if isinstance(name, str) and re.search(_SURROGATE_PAIR, name)
        ]

    # a count or quota that is no int is not compared to anything
    counted = _is_int(inst.num_voters)
    if counted and inst.num_voters < 1:
        problems.append((InvalidInstance, f"need at least one voter, got {exact_repr(inst.num_voters)}"))
    if inst.num_subsets < 1:
        problems.append((InvalidInstance, "need at least one candidate subset"))
    got = len(inst.ballot_rows if ballots is None else ballots)
    if counted and got != inst.num_voters:
        problems.append((InvalidInstance, f"expected {exact_repr(inst.num_voters)} ballots, got {got}"))
    if ballots is not None and _repeats(inst.candidate_names):
        problems.append((InvalidInstance, "candidate names are not unique"))
    if _repeats(subset_names):
        problems.append((InvalidInstance, "subset names are not unique"))

    if ballots is not None:  # see _from_rows for the instances skipped
        index = [-1] * m  # the subset of each id, -1 until one lists it
        for j, sub in enumerate(inst.subsets):
            for c in sub.members:
                if not _is_id(c, m):
                    problems.append((PartitionBroken,
                                     f"subset {sub.name!r} lists out-of-range id {exact_repr(c)}"))
                elif index[c] >= 0:
                    problems.append((PartitionBroken, f"candidate id {c} appears in both "
                                                      f"{subset_names[index[c]]!r} and {sub.name!r}"))
                else:
                    index[c] = j
        missing = [c for c, j in enumerate(index) if j < 0]
        if missing:
            problems.append((PartitionBroken, f"candidate ids {_id_list(missing)} belong to no subset"))

    for sub in inst.subsets:
        if _is_int(sub.quota) and not 1 <= sub.quota <= sub.size:
            problems.append((QuotaInfeasible, f"subset {sub.name!r} has quota {exact_repr(sub.quota)}, "
                                              f"needs 1 <= quota <= {sub.size}"))

    # test the distinct ids of frozen ballots first; walk the ballots only to name them
    if ballots is not None and not (all(map(frozenset.__instancecheck__, ballots))
                                    and all(_is_id(c, m) for c in frozenset().union(*ballots))):
        problems += [(BadBallot, message) for message in _ballot_problems(ballots, m)]

    if problems:
        raise problems[0][0]([message for _, message in problems])
    if ballots is not None:
        inst.__dict__["subset_index"] = tuple(index)
    return inst


@dataclass(frozen=True)
class Committee:
    """A candidate set meeting every subset quota exactly."""

    members: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))

    @classmethod
    def of(cls, inst: ScvInstance, members) -> "Committee":
        """Validate ``members`` against the instance quotas.

        Accepts a :class:`Committee` or any iterable of candidate ids and
        raises :class:`InfeasibleCommittee` unless every subset quota is met
        exactly.
        """
        members = members.members if isinstance(members, Committee) else list(members)
        # named as listed, before a frozenset merges 0.0 into 0
        problems = [f"unknown candidate id {exact_repr(c)}" for c in members
                    if not _is_id(c, inst.num_candidates)]
        if not problems:
            members = frozenset(members)
            index = inst.subset_index
            counts = [0] * inst.num_subsets
            for c in members:
                counts[index[c]] += 1
            for sub, got in zip(inst.subsets, counts):
                if got != sub.quota:
                    problems.append(
                        f"subset {sub.name!r} needs exactly {sub.quota} members, got {got}"
                    )
        if problems:
            raise InfeasibleCommittee("; ".join(dict.fromkeys(problems)))  # each once
        return cls(members)

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __contains__(self, cid) -> bool:
        return cid in self.members

    def __iter__(self):
        return iter(self.sorted_members)

    def __len__(self) -> int:
        return len(self.members)


def count_feasible_committees(inst: ScvInstance) -> int:
    """Number of feasible committees: the product of per-subset binomials."""
    total = 1
    for sub in inst.subsets:
        total *= math.comb(sub.size, sub.quota)
    return total


def iter_feasible_committees(inst: ScvInstance) -> Iterator[Committee]:
    """Yield every feasible committee (desk scale only)."""
    per_subset = [
        combinations(sorted(sub.members), sub.quota) for sub in inst.subsets
    ]
    for choice in product(*per_subset):
        yield Committee(frozenset(c for part in choice for c in part))


# -- voter bitmasks -------------------------------------------------------------


_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits as selector bytes


def _selectors(mask: int) -> bytes:
    """One byte per bit of ``mask``, bit 0 first: 1 where the bit is set."""
    return bin(mask)[:1:-1].encode().translate(_BITS)


def _swap_mask(j: int) -> int:
    """The delta-swap mask of one 64x64 block at distance ``j``: bit c of
    word r, bit 64*r + c, is set when c has bit ``j`` and r has not."""
    word = sum(1 << c for c in range(64) if c & j)
    return sum(word << 64 * r for r in range(64) if not r & j)


# (shift, one-block mask) for the six swaps of a 64x64 transpose
_SWAPS = tuple((63 * j, _swap_mask(j)) for j in (32, 16, 8, 4, 2, 1))


def _tiled(mask: int, blocks: int) -> int:
    """``blocks`` copies of a one-block swap mask, copy b at bit 4096*b:
    doubled while the copies fit, then topped up with the first ones."""
    copies = 1
    while 2 * copies <= blocks:
        mask |= mask << 4096 * copies
        copies *= 2
    if copies < blocks:
        mask |= (mask & ((1 << 4096 * (blocks - copies)) - 1)) << 4096 * copies
    return mask


def _transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """The ``width`` columns of the bit matrix whose row i is ``rows[i]``:
    bit i of column c is bit c of ``rows[i]``.

    The rows are written as little-endian 64-bit words, and the words of one
    word column are packed 64 rows to a block into one int, so bit 64*i + c
    holds bit c of row i.  Six delta swaps transpose every 64x64 block at
    once; word c of each block then holds 64 bits of column c, and one
    strided slice of the words collects them.  Rows of one word are packed
    by one ``array`` call in the host's byte order, swapped to little-endian
    on a big-endian host; wider rows are written little-endian one by one.
    The words are only sliced, or, with one block, unpacked at once as
    little-endian words, so nothing else depends on the host's byte order.
    """
    size = -(-width // 64)  # words per row
    blocks = -(-len(rows) // 64)
    if size == 1:
        words = array("Q", rows)
        if sys.byteorder == "big":
            words.byteswap()
    else:
        words = array("Q", b"".join(map(int.to_bytes, rows, repeat(8 * size), repeat("little"))))
    swaps = _SWAPS if blocks == 1 else [(shift, _tiled(mask, blocks)) for shift, mask in _SWAPS]
    columns = []
    for w in range(size):
        x = int.from_bytes(words[w::size], "little")
        for shift, mask in swaps:
            t = (x >> shift ^ x) & mask
            x ^= t ^ t << shift
        out, last = array("Q", x.to_bytes(512 * blocks, "little")), min(64, width - 64 * w)
        columns += struct.unpack("<64Q", out)[:last] if blocks == 1 else [
            int.from_bytes(out[c::64], "little") for c in range(last)]
    return tuple(columns)


def best_supported(
    inst: ScvInstance, candidates: Iterable[int], voters: int, quota: int
) -> Optional[tuple[int, int]]:
    """The support count and its size test: the candidate approved by the
    most voters of the ``voters`` bitmask, lowest id on ties, with those
    supporters as a mask, when they number at least n/``quota`` (compared by
    cross-multiplication); None when they are fewer or no candidate is
    offered."""
    masks = inst.approver_masks
    best, best_count = None, -1
    for c in sorted(candidates):
        count = (masks[c] & voters).bit_count()
        if count > best_count:
            best, best_count = c, count
    if best is None or best_count * quota < inst.num_voters:
        return None
    return best, masks[best] & voters


# -- JSON instance documents ------------------------------------------------
#
#   { "voters": n,
#     "subsets": [ { "name": str, "candidates": [str, ...], "quota": int }, ... ],
#     "ballots": [ [candidate-name, ...], ... ] }


# compiled on first use, by a name that is not ASCII
_SURROGATE_PAIR = r"[\ud800-\udbff][\udc00-\udfff]"


def _is_int(value) -> bool:
    """An int and not a bool, as the document's integer fields are."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_id(value, m: int) -> bool:
    """Whether ``value`` is a candidate id of an instance with m candidates
    (a bool counts, as it does in arithmetic)."""
    return isinstance(value, int) and 0 <= value < m


def _ballot_problems(ballots: Iterable[Iterable], m: int) -> list[str]:
    """A message per ballot naming, once each, its entries that are no id of m candidates."""
    bad = [sorted({exact_repr(c): c for c in b if not _is_id(c, m)}.values(),
                  key=lambda c: (0, c) if isinstance(c, int) else (1, repr(c))) for b in ballots]
    return [f"ballot {i} references unknown candidate ids {_id_list(ids)}"
            for i, ids in enumerate(bad) if ids]


def _repeats(names: Sequence) -> bool:
    """Whether a name occurs twice; False when some name cannot be hashed,
    a wrong type that the type checks report."""
    try:
        return len(set(names)) != len(names)
    except TypeError:
        return False


def _listed(kind: str):
    """The test of a list (see :func:`_listlike`) of values of ``kind``."""
    return lambda value: _listlike(type(value)) and all(map(_KINDS[kind][0], value))


_WRONG_TYPE = "field {field!r} has the wrong type"


def _records(width: int):
    """The test of a model's list of records as its constructor reads one:
    a tuple of tuples of ``width`` values."""
    return lambda value: isinstance(value, tuple) and all(
        isinstance(record, tuple) and len(record) == width for record in value)


# every kind of field a record holds: its test, and the words that follow the
# record's name for a value that fails it.  The fields of a list, such as the
# ballots, are its entries, named by their index.
_KINDS = {
    "int": (_is_int, "field {field!r} must be an integer"),
    "str": (str.__instancecheck__, _WRONG_TYPE),  # isinstance(value, str), in C for each name
    "list": (lambda value: _listlike(type(value)), _WRONG_TYPE),
    "names": (_listed("str"), "field {field!r} must list strings"),
    "ballot": (_listed("str"), "{field} must be a list of candidate names"),
    "set-cover entry": (_listed("int"), "{field} must be a list of integers"),
    # a model's counts and probabilities, which a bool passes as in arithmetic
    "count": (lambda value: isinstance(value, int), "field {field!r} holds {value!r}, not an integer"),
    "number": (lambda value: isinstance(value, (Real, Decimal)),
               "field {field!r} holds {value!r}, not a number"),
    # a model's lists of subsets and of blocks, as its constructor reads them
    "subset records": (_records(3), _WRONG_TYPE),
    "block records": (_records(2), _WRONG_TYPE),
}


def _field_problems(where: str, fields: Iterable[tuple]) -> list[str]:
    """What is wrong with one record, in the words of :data:`_KINDS`:
    ``fields`` holds its (field, kind, value) triples, and ``where`` names
    the record, as "subset entry 2" or "ballot entry" does."""
    return [f"{where} {_KINDS[kind][1].format(field=field, value=value)}"
            for field, kind, value in fields if not _KINDS[kind][0](value)]


# the fields of a subset entry, in document order, with their kinds
_SUBSET_FIELDS = {"name": "str", "candidates": "names", "quota": "int"}


def _instance_problems(voters, subsets: Iterable[tuple]) -> list[str]:
    """The field problems of a voter count and of the subsets' (name,
    candidate names, quota) triples."""
    problems = _field_problems("instance", [("voters", "int", voters)])
    for idx, values in enumerate(subsets):
        problems += _field_problems(
            f"subset entry {idx}", zip(_SUBSET_FIELDS, _SUBSET_FIELDS.values(), values))
    return problems


def _require(doc: Mapping, where: str, *fields: str) -> list:
    """The values of ``doc``'s fields named; :class:`ParseError` names the
    first one missing."""
    for field in fields:
        if field not in doc:
            raise ParseError(f"{where} is missing required field {field!r}")
    return [doc[field] for field in fields]


def instance_from_document(doc: Mapping) -> ScvInstance:
    """Build a validated instance from a parsed JSON document."""
    if not isinstance(doc, Mapping):
        raise ParseError("instance document must be a JSON object")
    voters, raw_subsets, raw_ballots = _require(doc, "instance", "voters", "subsets", "ballots")
    for problem in _field_problems("instance", [("voters", "int", voters),
                                                ("subsets", "list", raw_subsets),
                                                ("ballots", "list", raw_ballots)]):
        raise ParseError(problem)
    subsets = []
    for idx, sub in enumerate(raw_subsets):
        if not isinstance(sub, Mapping):
            raise ParseError(f"subset entry {idx} must be an object")
        subsets.append(_require(sub, f"subset entry {idx}", *_SUBSET_FIELDS))
    # from_names types the subsets' fields, raising their problems alone, and
    # only strings resolve to ids; so both are typed here only when it fails,
    # a badly typed ballot before any unknown or duplicate name
    try:
        return ScvInstance.from_names(voters, subsets, raw_ballots)
    except (InvalidInstance, SemanticError) as exc:
        for problem in _instance_problems(voters, subsets) + _field_problems(
                "ballot entry", zip(count(), repeat("ballot"), raw_ballots)):
            raise ParseError(problem) from None
        if isinstance(exc, InvalidInstance):
            raise SemanticError(str(exc), problems=exc.problems) from exc
        raise


def _load_json(text: str):
    """``json.loads``, raising :class:`ParseError` on every text it rejects."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    except RecursionError as exc:  # too deeply nested
        raise ParseError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # the interpreter's cap on the digits of an int
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"invalid JSON: number too long (over {limit} digits)") from exc


# how many parses are inside _parsed, and whether the collector was on when
# the first of them came in
_pausing = [0, False]
_pausing_lock = threading.Lock()


def _parsed(text: str, build):
    """``build(_load_json(text))``, its lists built and freed with the cyclic
    collector off.  Of parses running at once, the first turns it off and the
    last out turns it back on if it was on when the first came in."""
    with _pausing_lock:
        if not _pausing[0]:
            _pausing[1] = gc.isenabled()
            gc.disable()
        _pausing[0] += 1
    try:
        return build(_load_json(text))
    finally:
        with _pausing_lock:
            _pausing[0] -= 1
            if not _pausing[0] and _pausing[1]:
                gc.enable()


def parse_instance(text: str) -> ScvInstance:
    """Parse the JSON instance format, validating as :func:`validate_instance`."""
    return _parsed(text, instance_from_document)


def instance_to_document(inst: ScvInstance) -> dict:
    """Canonical JSON-ready document of a validated instance: declaration
    order, sorted ballots, written from the rows without decoding them."""
    return {
        "voters": inst.num_voters,
        "subsets": [
            {
                "name": sub.name,
                "candidates": [inst.candidate_names[c] for c in sub.members],
                "quota": sub.quota,
            }
            for sub in inst.subsets
        ],
        "ballots": [
            sorted(compress(inst.candidate_names, _selectors(row)))
            for row in inst.ballot_rows
        ],
    }


def serialize_instance(inst: ScvInstance) -> str:
    """``to_json_text(instance_to_document(inst))``, written without the
    encoder's walk over the document.

    Every name is quoted once by ``json.dumps`` (for a string, the C
    function ``encode_basestring_ascii``).  The rows are relabelled so that
    bit r stands for the r-th name in sorted order, by transposing the
    approver masks taken in that order: each ballot then lists its names
    sorted by raw name, as :func:`instance_to_document` sorts them, and is
    written once however many voters cast it.

    Parsing the text gives back the same document.  The parser numbers the
    candidates in declaration order, so an instance built from ids in any
    other order, such as interleaved subsets, comes back relabelled.
    """
    names = inst.candidate_names
    quoted = list(map(json.dumps, names))
    order = sorted(range(len(names)), key=names.__getitem__)
    masks = inst.approver_masks
    rows = _transpose([masks[c] for c in order], len(inst.ballot_rows))
    by_name = [quoted[c] for c in order]
    ballots = {row: _json_list(compress(by_name, _selectors(row)), 4) for row in dict.fromkeys(rows)}
    subsets = [
        '{\n      "name": %s,\n      "candidates": %s,\n      "quota": %s\n    }'
        % (json.dumps(sub.name), _json_list(map(quoted.__getitem__, sub.members), 6),
           json.dumps(sub.quota))
        for sub in inst.subsets
    ]
    return '{\n  "voters": %s,\n  "subsets": %s,\n  "ballots": %s\n}\n' % (
        json.dumps(inst.num_voters),
        _json_list(subsets, 2),
        _json_list(map(ballots.__getitem__, rows), 2),
    )


def _json_list(items: Iterable[str], indent: int) -> str:
    """The ``indent=2`` layout of a list of JSON texts whose closing bracket
    sits ``indent`` spaces in."""
    pad = "\n" + " " * (indent + 2)
    text = ("," + pad).join(items)
    return f"[{pad}{text}\n{' ' * indent}]" if text else "[]"


def to_json_text(obj) -> str:
    """The one canonical JSON rendering used by serializers and the CLI."""
    return json.dumps(obj, indent=2) + "\n"


# -- set cover ----------------------------------------------------------------


@dataclass(frozen=True)
class SetCoverInstance:
    """A set-cover question: can ``budget`` collection entries cover the ground set?

    Ground elements are ``0 .. ground_size-1``.  Every element must occur in
    at least one collection entry and ``1 <= budget <= len(collection)``.
    """

    ground_size: int
    collection: tuple[frozenset[int], ...]
    budget: int

    def __post_init__(self):
        # typed as parsing types the same document, in its words, and before
        # a frozenset merges 1.0 or True into 1; an entry is read once
        entries = list(map(_tupled, self.collection if _listlike(type(self.collection)) else ()))
        problems = _field_problems("set cover", [
            ("ground", "int", self.ground_size), ("subsets", "list", self.collection),
            ("budget", "int", self.budget)])
        problems += _field_problems("set-cover subset", zip(count(), repeat("set-cover entry"), entries))
        if problems:
            raise InvalidSetCover(problems)
        object.__setattr__(self, "collection", tuple(map(frozenset, entries)))

    @classmethod
    def of(cls, ground_size: int, collection, budget: int) -> "SetCoverInstance":
        return validate_set_cover(cls(ground_size, collection, budget))


def validate_set_cover(sc: SetCoverInstance) -> SetCoverInstance:
    """Check a set cover's values; its types were checked on construction."""
    problems = []
    if sc.ground_size < 1:
        problems.append(f"ground set must be non-empty, got size {exact_str(sc.ground_size)}")
    if not sc.collection:
        problems.append("collection must contain at least one subset")
    out_of_range = sorted(
        e for s in sc.collection for e in s if not 0 <= e < sc.ground_size
    )
    if out_of_range:
        problems.append(f"collection references out-of-range elements {_id_list(out_of_range)}")
    covered = frozenset().union(*sc.collection) if sc.collection else frozenset()
    missing = [e for e in range(sc.ground_size) if e not in covered]
    if missing and not out_of_range:
        problems.append(f"elements {_id_list(missing)} are covered by no subset")
    if not 1 <= sc.budget <= max(len(sc.collection), 1):
        problems.append(
            f"budget {exact_str(sc.budget)} outside 1 .. {len(sc.collection)}"
        )
    if problems:
        raise InvalidSetCover(problems)
    return sc


def set_cover_from_document(doc: Mapping) -> SetCoverInstance:
    if not isinstance(doc, Mapping):
        raise ParseError("set-cover document must be a JSON object")
    fields = _require(doc, "set cover", "ground", "subsets", "budget")
    try:
        sc = SetCoverInstance(*fields)
    except InvalidSetCover as exc:  # a mistyped field or entry
        raise ParseError(exc.problems[0]) from None
    return validate_set_cover(sc)


def parse_set_cover(text: str) -> SetCoverInstance:
    return _parsed(text, set_cover_from_document)


def set_cover_to_document(sc: SetCoverInstance) -> dict:
    return {
        "ground": sc.ground_size,
        "subsets": [sorted(s) for s in sc.collection],
        "budget": sc.budget,
    }


def serialize_set_cover(sc: SetCoverInstance) -> str:
    return to_json_text(set_cover_to_document(sc))


# -- instance generators -------------------------------------------------------


@dataclass(frozen=True)
class UniformModel:
    """Independent approvals: each voter approves each candidate with prob. ``approval_prob``."""

    num_voters: int
    sizes: tuple[int, ...]
    quotas: tuple[int, ...]
    approval_prob: float

    def __post_init__(self):
        # a field is read only as a list, and checked when a draw reads it
        object.__setattr__(self, "sizes", _tupled(self.sizes))
        object.__setattr__(self, "quotas", _tupled(self.quotas))


@dataclass(frozen=True)
class PartyListModel:
    """Blocks of voters with identical ballots over an explicit candidate layout."""

    subsets: tuple[tuple[str, tuple[str, ...], int], ...]
    blocks: tuple[tuple[int, tuple[str, ...]], ...]

    def __post_init__(self):
        # a field is read only as a list of records of its width, and names
        # from a list only, as parsing reads them (see _generate_party_list)
        object.__setattr__(self, "subsets", _read_records(self.subsets, "subset records"))
        object.__setattr__(self, "blocks", _read_records(self.blocks, "block records"))


@dataclass(frozen=True)
class SetCoverModel:
    """Random set-cover question, emitted as its voting encoding."""

    ground_size: int
    num_subsets: int
    membership_prob: float
    budget: int


def _read_records(field, kind: str):
    """A model's ``field`` read as a list of records (:func:`_tupled`), and
    the names in each, its second value, read the same way, when the
    records pass ``kind``; else as the list read, or as it is."""
    records = tuple(map(_tupled, field)) if _listlike(type(field)) else field
    return tuple((r[0], _tupled(r[1]), *r[2:]) for r in records) if _KINDS[kind][0](records) else records


def _read_model(model, *numbers: str, **counts) -> list:
    """The ``counts``, each given as its value or as a tuple of its values,
    read as ints, once they and ``model``'s fields named in ``numbers`` are
    typed; :class:`BadSpec` names the first field that holds a value of
    another kind.  A bool passes, as it does in arithmetic and in
    :func:`_is_id`, and a count reads as 0 or 1 before anything is built."""
    listed = {field: v if isinstance(v, tuple) else (v,) for field, v in counts.items()}
    for problem in _field_problems(type(model).__name__, [
            *[(field, "count", v) for field, values in listed.items() for v in values],
            *[(field, "number", getattr(model, field)) for field in numbers]]):
        raise BadSpec(problem)
    return [tuple(map(int, values)) if isinstance(counts[field], tuple) else int(values[0])
            for field, values in listed.items()]


def generate_set_cover(model: SetCoverModel, seed: int) -> SetCoverInstance:
    """Random covering collection; deterministic in ``(model, seed)``."""
    ground, count, budget = _read_model(model, "membership_prob", ground_size=model.ground_size,
                                        num_subsets=model.num_subsets, budget=model.budget)
    if ground < 1 or count < 1:
        raise BadSpec("ground size and subset count must be positive")
    if not 0.0 <= model.membership_prob <= 1.0:
        raise BadSpec(f"membership probability {exact_str(model.membership_prob)} outside [0, 1]")
    if not 1 <= budget <= count:
        raise BadSpec(f"budget {exact_str(budget)} outside 1 .. {exact_str(count)}")
    rng = random.Random(seed)
    subsets = [
        {e for e in range(ground) if rng.random() < model.membership_prob}
        for _ in range(count)
    ]
    # patch coverage so the instance is valid: every element joins some subset
    for e in range(ground):
        if not any(e in s for s in subsets):
            subsets[rng.randrange(count)].add(e)
    return SetCoverInstance.of(ground, subsets, budget)


def generate_instance(model, seed: int) -> ScvInstance:
    """Draw a validated instance from a distribution model, deterministically.

    Models: :class:`UniformModel`, :class:`PartyListModel`, and
    :class:`SetCoverModel` (which draws a covering collection and returns its
    voting encoding).  Inconsistent parameters raise :class:`BadSpec`.
    """
    if isinstance(model, UniformModel):
        return _generate_uniform(model, seed)
    if isinstance(model, PartyListModel):
        return _generate_party_list(model)
    if isinstance(model, SetCoverModel):
        from .search import encode_set_cover

        return encode_set_cover(generate_set_cover(model, seed))
    raise BadSpec(f"unknown model {model!r}")


def _generate_uniform(model: UniformModel, seed: int) -> ScvInstance:
    for problem in _field_problems(type(model).__name__, [
            ("sizes", "list", model.sizes), ("quotas", "list", model.quotas)]):
        raise BadSpec(problem)
    num_voters, sizes, quotas = _read_model(
        model, "approval_prob", num_voters=model.num_voters, sizes=model.sizes, quotas=model.quotas)
    if num_voters < 1:
        raise BadSpec(f"need at least one voter, got {exact_str(num_voters)}")
    if len(sizes) != len(quotas) or not sizes:
        raise BadSpec("sizes and quotas must be non-empty lists of equal length")
    for size, quota in zip(sizes, quotas):
        if size < 1 or not 1 <= quota <= size:
            raise BadSpec(f"bad subset shape: size {exact_str(size)}, quota {exact_str(quota)}")
    if not 0.0 <= model.approval_prob <= 1.0:
        raise BadSpec(f"approval probability {exact_str(model.approval_prob)} outside [0, 1]")
    shape = [(f"C{j + 1}", size, quota) for j, (size, quota) in enumerate(zip(sizes, quotas))]
    bits = [1 << c for c in range(sum(sizes))]
    draw, prob = random.Random(seed).random, model.approval_prob
    # draws in the order they always had, voter by voter and candidates in
    # id order, so a seed draws the same instance
    rows = [sum([bit for bit in bits if draw() < prob]) for _ in range(num_voters)]
    return ScvInstance._from_rows(num_voters, [f"c{c}" for c in range(len(bits))], shape, rows)


def _generate_party_list(model: PartyListModel) -> ScvInstance:
    for problem in _field_problems(type(model).__name__, [
            ("subsets", "subset records", model.subsets), ("blocks", "block records", model.blocks)]):
        raise BadSpec(problem)
    if not model.blocks:
        raise BadSpec("party-list model needs at least one block")
    for problem in _field_problems(type(model).__name__, [
            *[("subsets", "str", name) for name, _, _ in model.subsets],
            *[("subsets", "names", members) for _, members, _ in model.subsets],
            *[("blocks", "names", approved) for _, approved in model.blocks]]):
        raise BadSpec(problem)
    quotas, counts = _read_model(model, subsets=tuple(q for _, _, q in model.subsets),
                                 blocks=tuple(count for count, _ in model.blocks))
    ballots: list[tuple[str, ...]] = []
    for count, (_, approved) in zip(counts, model.blocks):
        if count < 1:
            raise BadSpec(f"block size must be positive, got {exact_str(count)}")
        ballots.extend([approved] * count)
    subsets = [(name, members, q) for (name, members, _), q in zip(model.subsets, quotas)]
    try:
        return ScvInstance.from_names(len(ballots), subsets, ballots)
    except (InvalidInstance, SemanticError) as exc:  # such as a quota of 0 or a name twice
        raise BadSpec(str(exc)) from exc
