"""Shared helpers: seeded random instances, committees, and oracles."""

from __future__ import annotations

import os
import random
from itertools import combinations, islice

from hypothesis import settings

from scvoting import (
    Committee,
    ScvInstance,
    SetCoverInstance,
    UniformModel,
    generate_instance,
)

# CI runners keep no example database between runs, so a failing property
# prints the blob that replays it (@reproduce_failure); example counts stay
# as each test sets them
settings.register_profile("ci", print_blob=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


def random_instance(
    rng: random.Random,
    max_voters: int = 12,
    max_candidates: int = 12,
    max_subsets: int = 3,
    min_voters: int = 1,
) -> ScvInstance:
    """One draw from a randomized uniform-approval model."""
    num_subsets = rng.randint(1, max_subsets)
    total = rng.randint(num_subsets, max_candidates)
    cuts = sorted(rng.sample(range(1, total), num_subsets - 1)) if num_subsets > 1 else []
    bounds = [0] + cuts + [total]
    sizes = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    quotas = tuple(rng.randint(1, size) for size in sizes)
    model = UniformModel(
        num_voters=rng.randint(min_voters, max_voters),
        sizes=sizes,
        quotas=quotas,
        approval_prob=rng.random(),
    )
    return generate_instance(model, seed=rng.randrange(2**32))


def planted_deadlock(rng: random.Random) -> ScvInstance:
    """One draw that sw-jr often refutes, at t = ceil(n/k) >= 2.

    1 to 3 subsets of 2 to 5 candidates and n from k + 1 to 14 voters.  In
    one subset j, quota_j + 1 candidates get up to t voters each, disjoint,
    so every committee leaves one of these groups without its candidate.
    Noise approvals, with a probability drawn below a cap of 0.05, 0.15 or
    0.4, may still represent that group through another candidate.
    """
    sizes = [rng.randint(2, 5) for _ in range(rng.randint(1, 3))]
    quotas = [rng.randint(1, size - 1) for size in sizes]
    n = rng.randint(sum(quotas) + 1, 14)
    t = -(-n // sum(quotas))
    names = [f"c{c}" for c in range(sum(sizes))]
    firsts = [sum(sizes[:j]) for j in range(len(sizes))]
    j = rng.randrange(len(sizes))
    ballots = [set() for _ in range(n)]
    voters = iter(rng.sample(range(n), n))
    for c in rng.sample(range(firsts[j], firsts[j] + sizes[j]), quotas[j] + 1):
        for v in islice(voters, t):
            ballots[v].add(names[c])
    p = rng.uniform(0, rng.choice((0.05, 0.15, 0.4)))
    for ballot in ballots:
        ballot.update(name for name in names if rng.random() < p)
    subsets = [(f"C{j}", names[first:first + size], quota)
               for j, (first, size, quota) in enumerate(zip(firsts, sizes, quotas))]
    return ScvInstance.from_names(n, subsets, ballots)


def random_committee(rng: random.Random, inst: ScvInstance) -> Committee:
    members = []
    for sub in inst.subsets:
        members.extend(rng.sample(list(sub.members), sub.quota))
    return Committee.of(inst, members)


class Unreadable:
    """Stands in for an attribute of an instance and fails on any use."""

    def refuse(self, *args):
        raise AssertionError("an attribute set as unreadable was read")

    __getattr__ = __iter__ = __len__ = __getitem__ = __contains__ = __bool__ = refuse


def cover_exists(sc: SetCoverInstance) -> bool:
    """Independent oracle: try every selection of at most ``budget`` entries."""
    ground = frozenset(range(sc.ground_size))
    for size in range(1, sc.budget + 1):
        for chosen in combinations(range(len(sc.collection)), size):
            if frozenset().union(*(sc.collection[j] for j in chosen)) == ground:
                return True
    return False
