"""Instances, committees, and set-cover inputs for sub-committee approval voting.

An instance partitions the candidates into named subsets, fixes a quota for
each subset, and stores one approval ballot per voter.  A committee is any
candidate set meeting every quota exactly.  Everything is immutable once
validated, so instances can be shared freely between threads.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress, product, repeat
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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
)


def _id_list(ids: list) -> str:
    """``ids`` for a message: all of them, or the first 10 and a count."""
    if len(ids) <= 10:
        return str(ids)
    return f"{ids[:10]} and {len(ids) - 10} more ({len(ids)} in all)"


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
    ``i``.  Use :func:`validate_instance` (or the ``from_names`` /
    ``parse_instance`` factories, which call it) before handing an instance
    to any solver.
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
    def approver_masks(self) -> tuple[int, ...]:
        """Approvers of every candidate id as a voter bitmask.

        Bit i of ``approver_masks[c]`` is set when voter i approves c.  Bits
        are set on ints of at most 1,024 bits, one block of voters at a time,
        and each block is then shifted into place: setting a bit on an int
        that spans all voters would copy the whole int.
        """
        m = self.num_candidates
        masks = [0] * m
        for base in range(0, self.num_voters, 1024):
            block = [0] * m
            bit = 1
            for ballot in self.ballots[base : base + 1024]:
                for c in ballot:
                    block[c] |= bit
                bit <<= 1
            for c, b in enumerate(block):
                if b:
                    masks[c] |= b << base
        return tuple(masks)

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
        global candidate ids are assigned in declaration order.  Raises
        :class:`SemanticError` for duplicate or unknown names and the
        :class:`InvalidInstance` family for structural violations.
        """
        names: list[str] = []
        built: list[CandidateSubset] = []
        seen: dict[str, str] = {}
        for sub_name, cand_names, quota in subsets:
            ids = []
            for cand in cand_names:
                if cand in seen:
                    raise SemanticError(
                        f"candidate name {cand!r} declared twice "
                        f"(in {seen[cand]!r} and {sub_name!r})"
                    )
                seen[cand] = sub_name
                ids.append(len(names))
                names.append(cand)
            built.append(CandidateSubset(sub_name, tuple(ids), quota))
        id_of = {name: cid for cid, name in enumerate(names)}
        resolved = []
        for i, ballot in enumerate(ballots):
            try:
                resolved.append(frozenset(map(id_of.__getitem__, ballot)))
            except KeyError as exc:
                raise SemanticError(
                    f"ballot {i} approves undeclared candidate {exc.args[0]!r}"
                ) from None
        inst = cls(num_voters, tuple(names), tuple(built), tuple(resolved))
        return validate_instance(inst)


def validate_instance(raw) -> ScvInstance:
    """Check every instance invariant, raising a full diagnostic on failure.

    ``raw`` is either an :class:`ScvInstance` built programmatically or a
    parsed JSON document (mapping).  All violations are collected before
    raising; the exception class matches the first violation found
    (:class:`QuotaInfeasible`, :class:`PartitionBroken`, or
    :class:`BadBallot`, with plain :class:`InvalidInstance` for structural
    problems such as ``n < 1``).
    """
    if isinstance(raw, Mapping):
        return instance_from_document(raw)
    inst = raw
    problems: list[tuple[type, str]] = []  # (class, message), in check order

    if inst.num_voters < 1:
        problems.append((InvalidInstance, f"need at least one voter, got {inst.num_voters}"))
    if inst.num_subsets < 1:
        problems.append((InvalidInstance, "need at least one candidate subset"))
    if len(inst.ballots) != inst.num_voters:
        problems.append(
            (InvalidInstance, f"expected {inst.num_voters} ballots, got {len(inst.ballots)}")
        )
    if len(set(inst.candidate_names)) != len(inst.candidate_names):
        problems.append((InvalidInstance, "candidate names are not unique"))
    if len({s.name for s in inst.subsets}) != len(inst.subsets):
        problems.append((InvalidInstance, "subset names are not unique"))

    m = inst.num_candidates
    seen: dict[int, str] = {}
    for sub in inst.subsets:
        for c in sub.members:
            if not 0 <= c < m:
                problems.append((PartitionBroken, f"subset {sub.name!r} lists out-of-range id {c}"))
            elif c in seen:
                problems.append((PartitionBroken,
                                 f"candidate id {c} appears in both {seen[c]!r} and {sub.name!r}"))
            else:
                seen[c] = sub.name
    missing = [c for c in range(m) if c not in seen]
    if missing:
        problems.append((PartitionBroken, f"candidate ids {_id_list(missing)} belong to no subset"))

    for sub in inst.subsets:
        if not 1 <= sub.quota <= sub.size:
            problems.append((QuotaInfeasible, f"subset {sub.name!r} has quota {sub.quota}, "
                                              f"needs 1 <= quota <= {sub.size}"))

    # test the distinct approved ids first; walk the ballots only to name them
    if any(not 0 <= c < m for c in frozenset().union(*inst.ballots)):
        for i, b in enumerate(inst.ballots):
            bad = sorted(c for c in b if not 0 <= c < m)
            if bad:
                problems.append(
                    (BadBallot, f"ballot {i} references unknown candidate ids {_id_list(bad)}")
                )

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
        if isinstance(members, Committee):
            members = members.members
        members = frozenset(members)
        problems = []
        for c in members:
            if not 0 <= c < inst.num_candidates:
                problems.append(f"unknown candidate id {c}")
        if not problems:
            for sub in inst.subsets:
                got = len(members & frozenset(sub.members))
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


def mask_voters(mask: int) -> list[int]:
    """Ids of the voters whose bits are set in ``mask``, ascending."""
    bits = bin(mask)[:1:-1].encode().translate(_BITS)  # voter 0 first
    return list(compress(range(len(bits)), bits))


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


def _require(doc: Mapping, field: str, kind, where: str):
    if field not in doc:
        raise ParseError(f"{where} is missing required field {field!r}")
    value = doc[field]
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParseError(f"{where} field {field!r} must be an integer")
    elif not isinstance(value, kind):
        raise ParseError(f"{where} field {field!r} has the wrong type")
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
        if not all(isinstance(c, str) for c in cands):
            raise ParseError(f"{where} field 'candidates' must list strings")
        subsets.append((name, cands, quota))
    # only strings resolve to ids, so the name-by-name type check runs only
    # when resolution fails; it reports a badly typed ballot before any
    # unknown or duplicate name, as a check ahead of resolution would
    try:
        if all(map(isinstance, raw_ballots, repeat(list))):
            return ScvInstance.from_names(voters, subsets, raw_ballots)
    except InvalidInstance as exc:
        raise SemanticError(str(exc), problems=exc.problems) from exc
    except (SemanticError, TypeError):
        pass
    for idx, ballot in enumerate(raw_ballots):
        if not isinstance(ballot, list) or not all(
            isinstance(c, str) for c in ballot
        ):
            raise ParseError(f"ballot entry {idx} must be a list of candidate names")
    return ScvInstance.from_names(voters, subsets, raw_ballots)  # raises the SemanticError again


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


def parse_instance(text: str) -> ScvInstance:
    """Parse the JSON instance format, validating as :func:`validate_instance`."""
    return instance_from_document(_load_json(text))


def instance_to_document(inst: ScvInstance) -> dict:
    """Canonical JSON-ready document: declaration order, sorted ballots."""
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
            sorted(inst.candidate_names[c] for c in ballot)
            for ballot in inst.ballots
        ],
    }


def serialize_instance(inst: ScvInstance) -> str:
    return to_json_text(instance_to_document(inst))


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
        object.__setattr__(
            self, "collection", tuple(frozenset(s) for s in self.collection)
        )

    @classmethod
    def of(cls, ground_size: int, collection, budget: int) -> "SetCoverInstance":
        return validate_set_cover(cls(ground_size, tuple(collection), budget))


def validate_set_cover(sc: SetCoverInstance) -> SetCoverInstance:
    problems = []
    if sc.ground_size < 1:
        problems.append(f"ground set must be non-empty, got size {sc.ground_size}")
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
            f"budget {sc.budget} outside 1 .. {len(sc.collection)}"
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
        if not isinstance(s, list) or not all(
            isinstance(e, int) and not isinstance(e, bool) for e in s
        ):
            raise ParseError(f"set-cover subset {idx} must be a list of integers")
    return SetCoverInstance.of(ground, (frozenset(s) for s in subsets), budget)


def parse_set_cover(text: str) -> SetCoverInstance:
    return set_cover_from_document(_load_json(text))


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


def generate_set_cover(model: SetCoverModel, seed: int) -> SetCoverInstance:
    """Random covering collection; deterministic in ``(model, seed)``."""
    if model.ground_size < 1 or model.num_subsets < 1:
        raise BadSpec("ground size and subset count must be positive")
    if not 0.0 <= model.membership_prob <= 1.0:
        raise BadSpec(f"membership probability {model.membership_prob} outside [0, 1]")
    if not 1 <= model.budget <= model.num_subsets:
        raise BadSpec(
            f"budget {model.budget} outside 1 .. {model.num_subsets}"
        )
    rng = random.Random(seed)
    subsets = [
        {e for e in range(model.ground_size) if rng.random() < model.membership_prob}
        for _ in range(model.num_subsets)
    ]
    # patch coverage so the instance is valid: every element joins some subset
    for e in range(model.ground_size):
        if not any(e in s for s in subsets):
            subsets[rng.randrange(model.num_subsets)].add(e)
    return SetCoverInstance.of(model.ground_size, map(frozenset, subsets), model.budget)


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
    if model.num_voters < 1:
        raise BadSpec(f"need at least one voter, got {model.num_voters}")
    if len(model.sizes) != len(model.quotas) or not model.sizes:
        raise BadSpec("sizes and quotas must be non-empty lists of equal length")
    for size, quota in zip(model.sizes, model.quotas):
        if size < 1 or not 1 <= quota <= size:
            raise BadSpec(f"bad subset shape: size {size}, quota {quota}")
    if not 0.0 <= model.approval_prob <= 1.0:
        raise BadSpec(f"approval probability {model.approval_prob} outside [0, 1]")
    rng = random.Random(seed)
    subsets = []
    next_id = 0
    for j, (size, quota) in enumerate(zip(model.sizes, model.quotas)):
        names = [f"c{next_id + i}" for i in range(size)]
        subsets.append((f"C{j + 1}", names, quota))
        next_id += size
    m = next_id
    ballots = [
        [f"c{c}" for c in range(m) if rng.random() < model.approval_prob]
        for _ in range(model.num_voters)
    ]
    return ScvInstance.from_names(model.num_voters, subsets, ballots)


def _generate_party_list(model: PartyListModel) -> ScvInstance:
    if not model.blocks:
        raise BadSpec("party-list model needs at least one block")
    ballots: list[tuple[str, ...]] = []
    for count, approved in model.blocks:
        if count < 1:
            raise BadSpec(f"block size must be positive, got {count}")
        ballots.extend([approved] * count)
    try:
        return ScvInstance.from_names(len(ballots), model.subsets, ballots)
    except SemanticError as exc:
        raise BadSpec(str(exc)) from exc
