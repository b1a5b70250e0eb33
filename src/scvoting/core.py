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
from functools import cached_property
from itertools import chain, combinations, compress, count, product, repeat
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
    factories, which call it) before handing an instance to any solver.
    """

    num_voters: int
    candidate_names: tuple[str, ...]
    subsets: tuple[CandidateSubset, ...]
    ballots: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "candidate_names", tuple(self.candidate_names))
        object.__setattr__(self, "subsets", tuple(self.subsets))
        object.__setattr__(self, "ballots", tuple(map(frozenset, self.ballots)))

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
    def subset_index(self) -> tuple[int, ...]:
        """Subset index of every candidate id (valid on validated instances)."""
        idx = [-1] * self.num_candidates
        for j, sub in enumerate(self.subsets):
            for c in sub.members:
                if 0 <= c < self.num_candidates:
                    idx[c] = j
        return tuple(idx)

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
        :class:`InvalidInstance` family for structural violations.
        """
        names: list[str] = []
        built: list[CandidateSubset] = []
        for j, (sub_name, cand_names, quota) in enumerate(subsets):
            if isinstance(cand_names, str) or not isinstance(cand_names, Iterable):
                raise InvalidInstance([f"subset entry {j} field 'candidates' must list strings"])
            start = len(names)
            names += cand_names
            built.append(CandidateSubset(sub_name, range(start, len(names)), quota))
        try:  # one pass; a repeated or an unhashable name takes the loop below
            bit_of = {name: 1 << c for c, name in enumerate(names)}
        except TypeError:
            bit_of = {}
        if len(bit_of) != len(names):
            bit_of, owner = {}, [sub.name for sub in built for _ in sub.members]
            for c, cand in enumerate(names):
                try:  # an unhashable name has a wrong type, which validation reports
                    if cand in bit_of:
                        first = owner[bit_of[cand].bit_length() - 1]
                        raise SemanticError(
                            f"candidate name {cand!r} declared twice (in {first!r} and {owner[c]!r})")
                    bit_of[cand] = 1 << c
                except TypeError:
                    pass
        rows = _resolve_ballots(bit_of, ballots)
        return cls._from_rows(num_voters, names, built, rows)

    @classmethod
    def _from_rows(
        cls,
        num_voters: int,
        names: Sequence[str],
        subsets: Sequence[CandidateSubset],
        rows: Sequence[int],
    ) -> "ScvInstance":
        """Build and validate an instance whose :attr:`ballot_rows` are
        ``rows``, whose names are distinct and whose subsets number their
        members 0 .. m-1 in declaration order, once each: its partition
        holds by construction and the sizes give its subset index.  Its
        callers are :meth:`from_names`, the uniform generator and
        :func:`search.encode_set_cover`."""
        inst = cls.__new__(cls)
        inst.__dict__.update(
            num_voters=num_voters,
            candidate_names=tuple(names),
            subsets=tuple(subsets),
            ballot_rows=tuple(rows),
            subset_index=tuple(chain.from_iterable([j] * s.size for j, s in enumerate(subsets))),
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


def _listlike(kind: type) -> bool:
    """Whether values of ``kind`` are read as a list: iterable, and neither a
    string nor a mapping, which iterate over characters or keys."""
    return issubclass(kind, Iterable) and not issubclass(kind, (str, Mapping))


def _resolve_ballots(bit_of: Mapping[str, int], ballots) -> tuple[int, ...]:
    """One candidate bitmask per ballot of names, ``bit_of[name]`` summed.

    A name repeated within a ballot counts once.  A string or a mapping (which
    iterate over characters or keys) and a non-iterable are no ballot (:class:`InvalidInstance`);
    :class:`SemanticError` names the first ballot with an undeclared name.
    """
    ballots = list(ballots)
    if not all(map(_listlike, set(map(type, ballots)))):
        i = next(i for i, b in enumerate(ballots) if not _listlike(type(b)))
        raise InvalidInstance([f"ballot entry {i} must be a list of candidate names"])
    try:
        sizes = list(map(len, ballots))
    except TypeError:  # a ballot without a length, such as a generator
        ballots = list(map(list, ballots))
        sizes = list(map(len, ballots))
    try:
        rows = list(map(sum, map(map, repeat(bit_of.__getitem__), ballots)))
    except (KeyError, TypeError):  # an undeclared or an unhashable name
        for i, ballot in enumerate(ballots):
            for name in ballot:
                try:
                    bit_of[name]
                except (KeyError, TypeError):
                    raise SemanticError(
                        f"ballot {i} approves undeclared candidate {name!r}") from None
    # a sum of distinct bits has one bit per term: fewer means a repeated name
    if list(map(int.bit_count, rows)) != sizes:
        for i in compress(range(len(rows)), map(int.__ne__, map(int.bit_count, rows), sizes)):
            rows[i] = sum(map(bit_of.__getitem__, set(ballots[i])))
    return tuple(rows)


def _decode_rows(rows: Iterable[int]) -> tuple[frozenset[int], ...]:
    """The ballots of :attr:`ScvInstance.ballot_rows`, as id sets."""
    return tuple(frozenset(compress(count(), _selectors(row))) for row in rows)


def _validated(inst: ScvInstance, ballots) -> ScvInstance:
    """:func:`validate_instance` on an instance with the given ballots, or,
    with None, on one built by :meth:`ScvInstance._from_rows`: its names
    and partition hold by construction and it has one ballot per row."""
    problems: list[tuple[type, str]] = []  # (class, message), in check order
    m = inst.num_candidates

    # the field types parsing requires, in its words, so that a valid
    # instance serializes to a document that parses back
    wrong = [_wrong_type(inst.num_voters, int, "instance", "voters")]
    named = all(map(isinstance, inst.candidate_names, repeat(str)))
    for idx, sub in enumerate(inst.subsets):
        where = f"subset entry {idx}"
        wrong.append(_wrong_type(sub.name, str, where, "name"))
        if not named and not all(
            isinstance(inst.candidate_names[c], str) for c in sub.members if _is_id(c, m)
        ):
            wrong.append(f"{where} field 'candidates' must list strings")
        wrong.append(_wrong_type(sub.quota, int, where, "quota"))
    problems += [(InvalidInstance, message) for message in wrong if message]

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
        seen: dict[int, str] = {}
        for sub in inst.subsets:
            members = sub.members
            if not all(map(isinstance, members, repeat(int))):  # only int ids are compared
                problems += [(PartitionBroken, f"subset {sub.name!r} lists out-of-range id {c!r}")
                             for c in members if not isinstance(c, int)]
                members = [c for c in members if isinstance(c, int)]
            for c in members:
                if not 0 <= c < m:
                    problems.append((PartitionBroken,
                                     f"subset {sub.name!r} lists out-of-range id {exact_repr(c)}"))
                elif c in seen:
                    problems.append((PartitionBroken,
                                     f"candidate id {c} appears in both {seen[c]!r} and {sub.name!r}"))
                else:
                    seen[c] = sub.name
        missing = [c for c in range(m) if c not in seen]
        if missing:
            problems.append((PartitionBroken, f"candidate ids {_id_list(missing)} belong to no subset"))

    for sub in inst.subsets:
        if _is_int(sub.quota) and not 1 <= sub.quota <= sub.size:
            problems.append((QuotaInfeasible, f"subset {sub.name!r} has quota {exact_repr(sub.quota)}, "
                                              f"needs 1 <= quota <= {sub.size}"))

    # test the distinct approved ids first; walk the ballots only to name them
    if ballots is not None and not all(_is_id(c, m) for c in frozenset().union(*ballots)):
        problems += [(BadBallot, message) for message in _ballot_problems(ballots, m)]

    if problems:
        raise problems[0][0]([message for _, message in problems])
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
        if not isinstance(members, frozenset):
            members = members.members if isinstance(members, Committee) else list(members)
        try:
            members = frozenset(members)
        except TypeError:  # an unhashable member, no candidate id, is named below
            pass
        problems = [f"unknown candidate id {exact_repr(c)}" for c in members
                    if not _is_id(c, inst.num_candidates)]
        if not problems:
            index = inst.subset_index
            counts = [0] * (inst.num_subsets + 1)  # the spare slot takes ids in no subset
            for c in members:
                counts[index[c]] += 1
            for sub, got in zip(inst.subsets, counts):
                if got != sub.quota:
                    problems.append(
                        f"subset {sub.name!r} needs exactly {sub.quota} members, got {got}"
                    )
        if problems:
            raise InfeasibleCommittee("; ".join(problems))
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
    """A message per ballot naming its entries that are no id of m candidates."""
    bad = [sorted((c for c in b if not _is_id(c, m)),
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


def _wrong_type(value, kind, where: str, field: str) -> Optional[str]:
    """Why ``value`` cannot be the document's ``field``, or None when it
    has type ``kind``."""
    if kind is int:
        if not _is_int(value):
            return f"{where} field {field!r} must be an integer"
    elif not isinstance(value, kind):
        return f"{where} field {field!r} has the wrong type"
    return None


def _require(doc: Mapping, field: str, kind, where: str):
    if field not in doc:
        raise ParseError(f"{where} is missing required field {field!r}")
    value = doc[field]
    problem = _wrong_type(value, kind, where, field)
    if problem:
        raise ParseError(problem)
    return value


def instance_from_document(doc: Mapping) -> ScvInstance:
    """Build a validated instance from a parsed JSON document."""
    if not isinstance(doc, Mapping):
        raise ParseError("instance document must be a JSON object")
    voters = _require(doc, "voters", int, "instance")
    raw_subsets = _require(doc, "subsets", list, "instance")
    raw_ballots = _require(doc, "ballots", list, "instance")
    subsets = []
    for idx, sub in enumerate(raw_subsets):
        if not isinstance(sub, Mapping):
            raise ParseError(f"subset entry {idx} must be an object")
        where = f"subset entry {idx}"
        name = _require(sub, "name", str, where)
        cands = _require(sub, "candidates", list, where)
        quota = _require(sub, "quota", int, where)
        if not all(map(isinstance, cands, repeat(str))):
            raise ParseError(f"{where} field 'candidates' must list strings")
        subsets.append((name, cands, quota))
    # only strings resolve to ids, so the name-by-name type check runs only
    # when resolution fails; it reports a badly typed ballot before any
    # unknown or duplicate name, as a check ahead of resolution would
    try:
        return ScvInstance.from_names(voters, subsets, raw_ballots)
    except (InvalidInstance, SemanticError) as exc:
        for idx, ballot in enumerate(raw_ballots):
            if not isinstance(ballot, list) or not all(isinstance(c, str) for c in ballot):
                raise ParseError(f"ballot entry {idx} must be a list of candidate names") from None
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
        # named in the words parsing uses for the same document
        if not _listlike(type(self.collection)):
            raise InvalidSetCover(["set cover field 'subsets' has the wrong type"])
        sets = []
        for idx, entry in enumerate(self.collection):
            try:
                sets.append(frozenset(entry))
            except TypeError:  # not iterable, or holding an unhashable item
                problem = f"set-cover subset {idx} must be a list of integers"
                raise InvalidSetCover([problem]) from None
        object.__setattr__(self, "collection", tuple(sets))

    @classmethod
    def of(cls, ground_size: int, collection, budget: int) -> "SetCoverInstance":
        return validate_set_cover(cls(ground_size, collection, budget))


def validate_set_cover(sc: SetCoverInstance) -> SetCoverInstance:
    # the field types parsing requires, in its words, before any comparison
    wrong = [_wrong_type(sc.ground_size, int, "set cover", "ground"),
             _wrong_type(sc.budget, int, "set cover", "budget")]
    wrong += [f"set-cover subset {idx} must be a list of integers"
              for idx, entry in enumerate(sc.collection) if not all(map(_is_int, entry))]
    if any(wrong):
        raise InvalidSetCover(filter(None, wrong))
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
    ground = _require(doc, "ground", int, "set cover")
    subsets = _require(doc, "subsets", list, "set cover")
    budget = _require(doc, "budget", int, "set cover")
    for idx, s in enumerate(subsets):
        if not isinstance(s, list) or not all(map(_is_int, s)):
            raise ParseError(f"set-cover subset {idx} must be a list of integers")
    return SetCoverInstance.of(ground, subsets, budget)


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
        object.__setattr__(self, "sizes", tuple(self.sizes))
        object.__setattr__(self, "quotas", tuple(self.quotas))


@dataclass(frozen=True)
class PartyListModel:
    """Blocks of voters with identical ballots over an explicit candidate layout."""

    subsets: tuple[tuple[str, tuple[str, ...], int], ...]
    blocks: tuple[tuple[int, tuple[str, ...]], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "subsets",
            tuple((n, tuple(c), q) for n, c, q in self.subsets),
        )
        object.__setattr__(
            self, "blocks", tuple((cnt, tuple(b)) for cnt, b in self.blocks)
        )


@dataclass(frozen=True)
class SetCoverModel:
    """Random set-cover question, emitted as its voting encoding."""

    ground_size: int
    num_subsets: int
    membership_prob: float
    budget: int


def _require_ints(model, **fields) -> list:
    """Each field, given as its value or as a tuple of its counts, read as
    ints; :class:`BadSpec` names the first field that holds a value that is
    not an int.  A bool passes, as it does in arithmetic and in
    :func:`_is_id`, and is read as 0 or 1 before anything is built."""
    read = []
    for field, values in fields.items():
        many = isinstance(values, tuple)
        ints = []
        for value in values if many else (values,):
            if not isinstance(value, int):
                raise BadSpec(f"{type(model).__name__} field {field!r} holds {value!r}, "
                              "not an integer")
            ints.append(int(value))
        read.append(tuple(ints) if many else ints[0])
    return read


def _in_unit_range(model, field: str) -> bool:
    """Whether the probability in ``field`` lies in [0, 1]; :class:`BadSpec`
    when it cannot be compared with a number (a Fraction can)."""
    value = getattr(model, field)
    try:
        return 0.0 <= value <= 1.0
    except TypeError:
        raise BadSpec(f"{type(model).__name__} field {field!r} holds {value!r}, "
                      "not a number") from None


def generate_set_cover(model: SetCoverModel, seed: int) -> SetCoverInstance:
    """Random covering collection; deterministic in ``(model, seed)``."""
    ground, count, budget = _require_ints(
        model, ground_size=model.ground_size, num_subsets=model.num_subsets, budget=model.budget)
    if ground < 1 or count < 1:
        raise BadSpec("ground size and subset count must be positive")
    if not _in_unit_range(model, "membership_prob"):
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
    num_voters, sizes, quotas = _require_ints(
        model, num_voters=model.num_voters, sizes=model.sizes, quotas=model.quotas)
    if num_voters < 1:
        raise BadSpec(f"need at least one voter, got {exact_str(num_voters)}")
    if len(sizes) != len(quotas) or not sizes:
        raise BadSpec("sizes and quotas must be non-empty lists of equal length")
    for size, quota in zip(sizes, quotas):
        if size < 1 or not 1 <= quota <= size:
            raise BadSpec(f"bad subset shape: size {exact_str(size)}, quota {exact_str(quota)}")
    if not _in_unit_range(model, "approval_prob"):
        raise BadSpec(f"approval probability {exact_str(model.approval_prob)} outside [0, 1]")
    subsets = []
    next_id = 0
    for j, (size, quota) in enumerate(zip(sizes, quotas)):
        subsets.append(CandidateSubset(f"C{j + 1}", range(next_id, next_id + size), quota))
        next_id += size
    bits = [1 << c for c in range(next_id)]
    draw, prob = random.Random(seed).random, model.approval_prob
    # draws in the order they always had, voter by voter and candidates in
    # id order, so a seed draws the same instance
    rows = [sum([bit for bit in bits if draw() < prob]) for _ in range(num_voters)]
    return ScvInstance._from_rows(num_voters, [f"c{c}" for c in range(next_id)], subsets, rows)


def _generate_party_list(model: PartyListModel) -> ScvInstance:
    if not model.blocks:
        raise BadSpec("party-list model needs at least one block")
    quotas, counts = _require_ints(model, subsets=tuple(q for _, _, q in model.subsets),
                                   blocks=tuple(count for count, _ in model.blocks))
    ballots: list[tuple[str, ...]] = []
    for count, (_, approved) in zip(counts, model.blocks):
        if count < 1:
            raise BadSpec(f"block size must be positive, got {exact_str(count)}")
        ballots.extend([approved] * count)
    subsets = [(name, members, q) for (name, members, _), q in zip(model.subsets, quotas)]
    try:
        return ScvInstance.from_names(len(ballots), subsets, ballots)
    except SemanticError as exc:
        raise BadSpec(str(exc)) from exc
