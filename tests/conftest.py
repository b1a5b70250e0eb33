"""Shared helpers: seeded random instances, committees, and oracles."""

from __future__ import annotations

import os
import random
from itertools import combinations

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
) -> ScvInstance:
    """One draw from a randomized uniform-approval model."""
    num_subsets = rng.randint(1, max_subsets)
    total = rng.randint(num_subsets, max_candidates)
    cuts = sorted(rng.sample(range(1, total), num_subsets - 1)) if num_subsets > 1 else []
    bounds = [0] + cuts + [total]
    sizes = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    quotas = tuple(rng.randint(1, size) for size in sizes)
    model = UniformModel(
        num_voters=rng.randint(1, max_voters),
        sizes=sizes,
        quotas=quotas,
        approval_prob=rng.random(),
    )
    return generate_instance(model, seed=rng.randrange(2**32))


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
