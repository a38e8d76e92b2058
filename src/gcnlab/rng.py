"""Deterministic 64-bit PRNG (splitmix64) for reproducible generation.

The generator is specified completely here so identical seeds give
identical streams on every platform and Python version: the state advances
by the golden-gamma increment 0x9E3779B97F4A7C15 modulo 2**64 and each
output is the standard splitmix64 finalizer of the new state, all modulo
2**64::

    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z = z ^ (z >> 31)

Bounded integers come from rejection sampling, never plain modulo, so the
stream is bias-free and independent of the range's divisibility
properties: an integer in [lo, hi] with span s = hi - lo + 1 is
``lo + r % s`` for the first output r below the largest multiple of s
that is at most 2**64.  For a span past 2**64 that multiple is 0 and no
output could be accepted, so such a draw raises ValueError: a draw in
[-bound, bound] needs a bound below 2**63.  The composite draws are part
of the contract too.  A rational is a numerator drawn in [-bound, bound]
over a denominator then drawn in [1, bound], returned as that pair divided
by its gcd.  A line ``a*x + b*y + c = 0`` is a, b and c drawn in
[-bound, bound] in that order, all three drawn again while a = b = 0.  A
choice among n items is the item at an index drawn in [0, n - 1].
"""

from __future__ import annotations

from math import gcd

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

#: Budget of random draws before a degenerate-configuration loop gives up.
RETRY_LIMIT = 512


def mix64(z: int) -> int:
    """The splitmix64 output finalizer (xor-shift / multiply chain)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def substream_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th derived stream: ``mix64(seed + (index+1)*gamma)``.

    Used to key independent trials off one master seed; the formula is part
    of the reproducibility contract.
    """
    return mix64((seed + (index + 1) * _GAMMA) & _MASK)


class SplitMix64:
    """Sequential splitmix64 stream over 64-bit unsigned outputs."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return mix64(self._state)

    # randint inlines mix64, which saves a call per draw (about a tenth of a
    # randint); a sweep trial draws a dozen times or more.
    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], by rejection sampling."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        if not limit:  # a span past 2**64
            raise ValueError(f"range [{lo}, {hi}] holds more than 2**64 integers")
        while True:
            z = self._state = (self._state + _GAMMA) & _MASK
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            z ^= z >> 31
            if z < limit:
                return lo + (z % span)

    def rational(self, bound: int) -> tuple[int, int]:
        """Uniform numerator in [-bound, bound] over uniform denominator in [1, bound].

        Returns the pair reduced by its gcd, so the denominator is positive
        and zero comes back as ``(0, 1)``.
        """
        if bound < 1:
            raise ValueError("bound must be positive")
        num = self.randint(-bound, bound)
        den = self.randint(1, bound)
        g = gcd(num, den)
        return num // g, den // g

    def line(self, bound: int) -> tuple[int, int, int]:
        """``(a, b, c)`` of a line ``a*x + b*y + c = 0``, as drawn (not canonicalized).

        Draws a, b and c in [-bound, bound] in that order, all three again while a = b = 0.
        """
        if bound < 1:
            raise ValueError("bound must be positive")
        while True:
            a = self.randint(-bound, bound)
            b = self.randint(-bound, bound)
            c = self.randint(-bound, bound)
            if a or b:
                return a, b, c

    def choice(self, items):
        seq = list(items)
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randint(0, len(seq) - 1)]
