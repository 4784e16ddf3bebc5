"""Seedable pseudo-random generation for the game simulator.

xoshiro256** with splitmix64 seed expansion. The generator is spelled out
algorithmically instead of delegating to a library so that identical seeds
give identical draw sequences on any platform or interpreter version.
Bounded draws take the high bits of each 64-bit output and reject values
outside the range, so they are exactly uniform.

``_step_lanes`` is the one implementation of the step. ``stream`` makes the
outputs with it in batches of lanes, each on its own consecutive run of
``LANE_STEPS`` outputs and all stepped at once with one big-int operation
per term of the step; a batch keeps 16 bytes per output. Run 0 is one lane,
made in short pieces. The state update is linear over GF(2), so the state
``LANE_STEPS`` steps ahead is a fixed 256x256 bit matrix times the state:
that jump starts the lanes of each later batch, up to ``MAX_LANES``.
``_top_bytes`` is the same stream reduced to each output's top byte: its
lanes sit in narrower slots, and a batch keeps one byte per output.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache, reduce
from itertools import chain
from operator import getitem, xor
from typing import Callable, Iterable, Iterator

MASK64 = (1 << 64) - 1

#: Largest bound ``draw`` accepts, and so the largest pile the simulator
#: plays: a draw keeps the top bits of one 64-bit output.
MAX_PILE = 1 << 64

#: Outputs each lane of ``stream`` produces per batch, and so the distance
#: of ``jump``.
LANE_STEPS = 512

#: Lanes of the largest batch. ``stream`` buffers 16 bytes per output (a
#: lane's slot), so 32 lanes hold 256 KiB; ``_top_bytes`` keeps one byte
#: per output, 16 KiB.
MAX_LANES = 32

#: Bytes of one lane's slot while it makes outputs: a 64-bit state word or
#: output below guard bits, which take the spill of ``* 5 << 7`` (up to bit
#: 73) and ``* 9`` (up to bit 77). ``stream`` uses 16-byte slots, so an
#: output and its guard read as two 64-bit array items; ``_top_bytes`` 10,
#: the fewest that hold the spill.
_SLOT_BYTES = 16
_TOP_SLOT_BYTES = 10

#: Maps each ASCII hex digit to its value.
_HEX_DIGITS = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))

_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """First output of the splitmix64 stream whose state starts at ``x`` mod 2**64."""
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
    """xoshiro256** generator reading ``stream(expand_seed(seed))`` in order.

    A generator is an iterator over its stream: a copy of one shares the
    stream, and a generator cannot be pickled."""

    __slots__ = ("_outputs",)

    def __init__(self, seed: int) -> None:
        self._outputs = stream(expand_seed(seed))

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        return next(self._outputs)

    def draw(self, m: int) -> int:
        """Uniform draw from {1, ..., m}.

        Keeps the top ceil(log2(m)) bits of each output and rejects values
        >= m, which is unbiased for every m (no modulo skew).
        """
        if m < 1:
            raise ValueError(f"draw bound must be >= 1, got {m}")
        if m > MAX_PILE:
            raise ValueError(f"draw bound must be at most 2**64 (one 64-bit output), got {m}")
        shift = 64 - (m - 1).bit_length()
        while True:
            v = self.next_u64() >> shift
            if v < m:
                return v + 1


def _pack(states: list[int], slot: int) -> list[int]:
    """Four ints whose ``slot``-byte slot i holds word w of the 256-bit ``states[i]``.

    A 256-bit state is ``s0 | s1 << 64 | s2 << 128 | s3 << 192``.
    """
    return [
        int.from_bytes(
            b"".join((x >> shift & MASK64).to_bytes(slot, "little") for x in states),
            "little",
        )
        for shift in (0, 64, 128, 192)
    ]


def _unpack(packed: list[int], lanes: int, slot: int) -> list[int]:
    """The 256-bit states of the first ``lanes`` ``slot``-byte slots of ``packed``."""
    return [
        sum((word >> 8 * slot * i & MASK64) << 64 * w for w, word in enumerate(packed))
        for i in range(lanes)
    ]


def _step_lanes(
    packed: list[int], lanes: int, steps: int, slot: int,
    emit: Callable[[bytes], object] | None = None,
) -> list[int]:
    """Advance every packed lane ``steps`` times; return the packed end states.

    The xoshiro256** step, on all ``slot``-byte slots at once. Every state
    word stays below bit 64 of its slot (each shift or rotation masks the
    bits it moves first, or the bits it brings in after), so no lane reaches
    its neighbour, even in 8-byte slots. If ``emit`` is given (``slot`` >= 10,
    for the outputs' spill), each step calls it with every lane's output as
    little-endian bytes, one slot per lane with the output in the low 8 bytes.
    """
    s0, s1, s2, s3 = packed
    ones = int.from_bytes((1).to_bytes(slot, "little") * lanes, "little")  # 1 in every slot
    m7, m19, m45, m47 = [(ones << k) - ones for k in (7, 19, 45, 47)]  # bits 0..k-1 of each
    width = slot * lanes
    for _ in range(steps):
        if emit is not None:
            # y's low word is rotl(s1 * 5 mod 2**64, 7) once the bits shifted
            # past 64 (bits 57..63 of s1 * 5, now 64..70) are ORed back in
            # at 0..6. What stays above bit 64 changes only the spill of * 9.
            y = s1 * 5 << 7
            emit(((y | y >> 64 & m7) * 9).to_bytes(width, "little"))
        t = (s1 & m47) << 17
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = (s3 & m19) << 45 | s3 >> 19 & m45
    return [s0, s1, s2, s3]


@cache
def _jump_tables() -> tuple[tuple[int, ...], ...]:
    """4-bit lookup tables of the ``LANE_STEPS``-step jump.

    The step is linear over GF(2), so the jump maps a state to the XOR of
    the columns of its set bits, where column b is where the unit state
    ``1 << b`` goes in ``LANE_STEPS`` steps. Table g, counted from the most
    significant nibble, maps that nibble's value to the XOR of its columns.
    Built on first use (a few milliseconds), never at import.
    """
    # With no outputs to make, nothing spills: 8-byte slots hold the lanes.
    units = _pack([1 << b for b in range(256)], 8)
    columns = _unpack(_step_lanes(units, 256, LANE_STEPS, 8), 256, 8)
    tables = []
    for g in reversed(range(64)):
        table = [0]
        for v in range(1, 16):
            low = v & -v
            table.append(table[v ^ low] ^ columns[4 * g + low.bit_length() - 1])
        tables.append(tuple(table))
    return tuple(tables)


def jump(x: int) -> int:
    """The 256-bit state ``LANE_STEPS`` steps after the 256-bit state ``x``."""
    nibbles = x.to_bytes(32, "big").hex().encode().translate(_HEX_DIGITS)
    return reduce(xor, map(getitem, _jump_tables(), nibbles))


def _runs(state: tuple[int, int, int, int], slot: int, batch: Callable) -> Iterator[Iterable[int]]:
    """Runs of the stream from ``state``, in stream order, as ``batch`` makes them.

    ``batch(lanes, steps, packed)`` steps ``lanes`` packed ``slot``-byte
    lanes ``steps`` times; it returns their end states and each lane's
    outputs. Run 0 is one lane from ``state``, made 8, 8, then 16 outputs at
    a time, each piece from the last one's end state, so a short block makes
    little past what it reads and never builds the jump tables. Run k starts
    k ``jump``s from ``state``; later batches double from 2 lanes to
    ``MAX_LANES``, one run per lane.
    """
    packed = list(state)  # one lane's packed words are its state's
    for steps in [8, 8] + [16] * (LANE_STEPS // 16 - 1):
        packed, piece = batch(1, steps, packed)
        yield from piece
    x, lanes = sum(w << 64 * i for i, w in enumerate(state)), 2
    while True:
        starts = []
        for _ in range(lanes):
            x = jump(x)
            starts.append(x)
        yield from batch(lanes, LANE_STEPS, _pack(starts, slot))[1]
        lanes = min(2 * lanes, MAX_LANES)


def _outputs(lanes: int, steps: int, packed: list[int]) -> tuple[list[int], list[Iterable[int]]]:
    """A ``_runs`` batch of whole outputs, in 16-byte slots."""
    out = array("Q")
    end = _step_lanes(packed, lanes, steps, _SLOT_BYTES, out.frombytes)
    if sys.byteorder == "big":
        out.byteswap()
    return end, [out[i :: 2 * lanes] for i in range(0, 2 * lanes, 2)]


def stream(state: tuple[int, int, int, int]) -> Iterator[int]:
    """Endless raw outputs of the xoshiro256** stream that starts in ``state``.

    The outputs of the step taken again and again from ``state``, in order,
    made in lanes (see ``_runs``).
    """
    return chain.from_iterable(_runs(state, _SLOT_BYTES, _outputs))


def _tops(lanes: int, steps: int, packed: list[int]) -> tuple[list[int], list[bytes]]:
    """A ``_runs`` batch of each output's top byte, in 10-byte slots."""
    rows = []
    # Byte 7 of a little-endian slot is the top byte of its output.
    end = _step_lanes(packed, lanes, steps, _TOP_SLOT_BYTES,
                      lambda row: rows.append(row[7::_TOP_SLOT_BYTES]))
    top = b"".join(rows)  # one row of ``lanes`` bytes per step
    return end, [top[i::lanes] for i in range(lanes)]


def _top_bytes(state: tuple[int, int, int, int]) -> Iterator[int]:
    """``out >> 56`` for every output of ``stream(state)``, in stream order."""
    return chain.from_iterable(_runs(state, _TOP_SLOT_BYTES, _tops))
