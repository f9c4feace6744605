"""Deterministic derivation of per-purpose RNG streams from one master seed.

Every sampler in the package takes a 64-bit master seed and derives an
independent stream per (purpose, trial) pair with the splitmix64 finalizer,
so trials can run in any order (or in parallel) and still reproduce
bit-for-bit.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """splitmix64 finalizer (Steele, Lea, Flood 2014)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, stream: str, trial: int = 0) -> int:
    """64-bit child seed for the named stream and trial index."""
    h = _mix64((master & _MASK64) + _GOLDEN)
    data = stream.encode("utf-8")
    for i in range(0, len(data), 8):
        h = _mix64(h ^ int.from_bytes(data[i : i + 8], "little"))
    return _mix64(h ^ (trial & _MASK64))


def stream_rng(master: int, stream: str, trial: int = 0) -> np.random.Generator:
    """Fresh numpy generator for the named stream and trial index."""
    return np.random.default_rng(derive_seed(master, stream, trial))


def unit_vector(n: int, tag: str) -> np.ndarray:
    """Fixed pseudorandom unit vector per (tag, n), a deterministic Lanczos start."""
    v = stream_rng(0xC0FFEE, tag, n).standard_normal(n)
    return v / np.linalg.norm(v)
