"""Deterministic, splittable random streams.

All stochastic routines in the package draw from counter-based Philox
generators addressed by a (master seed, stream path) pair instead of a
shared global generator.  Two consequences:

* results are reproducible bit-for-bit for a fixed master seed,
* independent work units (trajectories, Monte Carlo shards) can be
  evaluated in any order or in parallel without changing the numbers.
"""

from __future__ import annotations

from numpy.random import Generator, Philox

_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    """One splitmix64 step; a cheap, well-mixed 64-bit hash."""
    x = (x + _GOLDEN) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def stream_key(seed: int, *path: int) -> int:
    """128-bit Philox key for the stream addressed by (seed, *path)."""
    lo = _splitmix64(seed & 0xFFFFFFFFFFFFFFFF)
    hi = _splitmix64(lo ^ _splitmix64((seed >> 64) & 0xFFFFFFFFFFFFFFFF))
    for p in path:
        lo = _splitmix64(lo ^ _splitmix64(p & 0xFFFFFFFFFFFFFFFF))
        hi = _splitmix64(hi ^ lo)
    return lo | (hi << 64)


def stream(seed: int, *path: int) -> Generator:
    """Counter-based generator for the (seed, *path) address.

    Distinct paths give statistically independent streams; the same
    address always reproduces the same sequence.
    """
    return Generator(Philox(key=stream_key(seed, *path)))
