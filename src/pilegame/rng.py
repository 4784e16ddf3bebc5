"""Seedable pseudo-random generation for the game simulator.

xoshiro256** with splitmix64 seed expansion. The generator is spelled out
algorithmically instead of delegating to a library so that identical seeds
give identical draw sequences on any platform or interpreter version.
Bounded draws take the high bits of each 64-bit output and reject values
outside the range, so they are exactly uniform.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """First output of the splitmix64 stream whose state starts at ``x``."""
    x = (x + _GAMMA) & MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


def expand_seed(seed: int) -> tuple[int, int, int, int]:
    """Expand a 64-bit seed into four state words via splitmix64.

    This is the standard seeding recipe for the xoshiro family: run
    splitmix64 from the user seed and take four successive outputs.
    splitmix64 never produces four consecutive zeros, so the resulting
    xoshiro state is always valid.
    """
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    # The stream's state after i steps is seed + i*_GAMMA, and splitmix64
    # takes one more step before mixing.
    return tuple(splitmix64((seed + i * _GAMMA) & MASK64) for i in range(4))


class Xoshiro256StarStar:
    """xoshiro256** generator; fully determined by its 64-bit seed."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int) -> None:
        self._s0, self._s1, self._s2, self._s3 = expand_seed(seed)

    @property
    def state(self) -> tuple[int, int, int, int]:
        """Current 256-bit state as four 64-bit words."""
        return (self._s0, self._s1, self._s2, self._s3)

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s1 * 5) & MASK64
        result = (((x << 7) | (x >> 57)) & MASK64) * 9 & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def draw(self, m: int) -> int:
        """Uniform draw from {1, ..., m}.

        Keeps the top ceil(log2(m)) bits of each output and rejects values
        >= m, which is unbiased for every m (no modulo skew).
        """
        if m < 1:
            raise ValueError(f"draw bound must be >= 1, got {m}")
        shift = 64 - (m - 1).bit_length()
        while True:
            v = self.next_u64() >> shift
            if v < m:
                return v + 1
