"""Deterministic RNG derivation.

Every stochastic step in the library draws from a generator derived from a
single 64-bit master seed plus a path of context keys, so whole runs replay
bit-exact regardless of evaluation order.
"""

from __future__ import annotations

import zlib

import numpy as np


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFFFFFFFFFF
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    raise TypeError(f"unsupported rng path key: {key!r}")


def _seed_sequence(seed: int, path) -> np.random.SeedSequence:
    """SeedSequence of the seed and path keys as 64-bit ints, given as the uint32 words that
    numpy splits a list of ints into (low word first, 0 as one word), which it takes as is."""
    words = []
    for v in [int(seed) & 0xFFFFFFFFFFFFFFFF, *map(_key_to_int, path)]:
        words += (v & 0xFFFFFFFF, v >> 32) if v >> 32 else (v,)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def derive_rng(seed: int, *path) -> np.random.Generator:
    """Generator for ``seed`` specialized by a path of ints/strings."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, path)))


def derive_seed(seed: int, *path) -> int:
    """A 64-bit child seed, usable as the master seed of a sub-computation."""
    return int(_seed_sequence(seed, path).generate_state(1, dtype=np.uint64)[0])
