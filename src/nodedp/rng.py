"""Deterministic, splittable random number generation.

Every randomized operation in this package takes either an integer seed or a
``numpy.random.Generator``. Independent child streams are derived from
(seed, index path) pairs via ``SeedSequence`` spawn keys, so results never
depend on scheduling or iteration order.
"""

from __future__ import annotations

import numpy as np

SeedLike = int | np.random.Generator


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Return a PCG64 Generator for an int seed (pass-through for Generators)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def spawn(seed: int, *path: int) -> np.random.Generator:
    """Derive an independent generator from a root seed and an index path.

    The stream depends only on (seed, path), not on how many other streams
    were spawned before it.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))
