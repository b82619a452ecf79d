"""Deterministic 64-bit mixing and a small self-contained PRNG.

Everything random in this package flows through the avalanche mixer below
(SplitMix64 finalizer constants).  The mixer is pure integer arithmetic, so
outputs are bit-identical across platforms and Python versions; floats are
only ever derived from the mixed integers by multiplication/division.

Streams are separated by mixing a stream tag into the seed before the
payload words, so e.g. per-label vectors and base vectors never collide
even for equal labels.
"""

from __future__ import annotations

import math
from typing import Iterable

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def mix_words(*words: int) -> int:
    """Fold any number of integer words into one mixed 64-bit value.

    Each word is absorbed with a golden-ratio increment before mixing, the
    same construction SplitMix64 uses to walk its state.  Order matters.
    """
    h = 0
    for w in words:
        h = mix64((h + _GOLDEN + (w & _MASK64)) & _MASK64)
    return h


def unit_open_closed(h: int, bits: int = 53) -> float:
    """Map a mixed 64-bit value to a float in (0, 1].

    Uses the top ``bits`` bits (at most 53) shifted into (0, 1], so the
    result is a multiple of 2**-bits; zero is impossible so the result is
    always a valid strictly-positive coordinate.
    """
    return ((h >> (64 - bits)) + 1) * (2.0 ** -bits)


class Rng:
    """Sequential deterministic generator on top of the mixer.

    Used for synthetic graph/stream/query generation where a stream of
    draws is needed rather than pure hashing.  Not security-grade.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = mix64(seed & _MASK64)

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive (multiply-shift, no modulo)."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        width = hi - lo + 1
        return lo + ((self.next_u64() * width) >> 64)

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def sample(self, seq, k: int) -> list:
        """k distinct elements, order randomized."""
        if k > len(seq):
            raise ValueError(f"sample size {k} exceeds population {len(seq)}")
        pool = list(seq)
        self.shuffle(pool)
        return pool[:k]

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """One Box-Muller normal draw (the paired draw is discarded)."""
        u1 = max(self.random(), 2.0 ** -53)
        u2 = self.random()
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def derive_seed(master: int, *tags: Iterable[int]) -> int:
    """Child seed for a named sub-stream of a master seed."""
    return mix_words(master, *tags)
