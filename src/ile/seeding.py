"""Deterministic seed derivation.

Every random stream in a run is derived from the single base seed by
mixing in context (iteration number, purpose tag, sample id, ...) with a
splitmix64 finalizer. Derivation is schedule-independent: the stream for
(seed, sample, transform) does not depend on the order in which samples
are scored or on the block a sample is scored in.
"""

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _as_int(part) -> int:
    if isinstance(part, bool):
        raise TypeError("bool is not a valid seed part")
    if isinstance(part, int):
        return part & _MASK64
    if isinstance(part, str):
        # hashlib, unlike hash(), is stable across processes and runs
        return int.from_bytes(
            hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest(), "little"
        )
    raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")


def derive_seed(base: int, *parts) -> int:
    """Mix ``base`` with any number of int/str context parts into a 64-bit seed."""
    h = _splitmix64(_as_int(base))
    for part in parts:
        h = _splitmix64(h ^ _as_int(part))
    return h


def rng(base: int, *parts) -> np.random.Generator:
    """A numpy Generator seeded by ``derive_seed(base, *parts)``."""
    return np.random.default_rng(derive_seed(base, *parts))
