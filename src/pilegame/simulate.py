"""Plays the pile game literally and aggregates win/step statistics.

Determinism contract: every result is a pure function of
(n, trials, seed, workers, ci_level). Trials are split into
``min(workers, trials)`` contiguous blocks; block i draws from a private
generator stream seeded with splitmix64(seed XOR (i + 1)), and per-block
tallies are merged by integer addition. A block is named by its index:
its size and stream are derived where it is played, here or in a pool
worker. Neither OS scheduling nor the size of the process pool can
therefore affect the numbers -- a single-process run of the same
partition gives bit-identical output, and so does the inline fallback
used when the process pool cannot start.
"""

from __future__ import annotations

import math
import os
import sys
from collections import namedtuple
from functools import cache, reduce

from ._limits import MASK64, MAX_PILE, _at_least
from ._record import _Record
from .rng import _top_bytes, expand_seed, splitmix64, stream

#: z-values for the supported two-sided confidence levels. Levels outside
#: this table are rejected rather than approximated with an inverse-normal
#: evaluation.
Z_BY_LEVEL = {
    0.90: 1.6448536269514722,
    0.95: 1.959963984540054,
    0.99: 2.5758293035489004,
    0.999: 3.2905267314919255,
}

#: Below this much work the process-pool overhead dominates; blocks are
#: then run inline (the partition, and hence the result, is unchanged).
#: Work is trials times ``max(n.bit_length(), 4)``, which follows the draws
#: per game (2.23, 4.39, 27.6 at n = 10, 100, 2**40). ``_pool_parts`` against
#: the same two blocks inline at 0.5x/1x/1.5x the limit, fresh interpreters
#: alternating, median of 11, 2-vCPU host, Python 3.11, pool against inline
#: in ms: n=10 (50k/100k/150k trials) 63/87/107 against 42/85/124; n=100
#: (29k/57k/86k) 72/92/110 against 49/86/108; n=2**40 (4.9k/9.8k/14.6k)
#: 82/129/143 against 66/132/181. At 1x every pair's quartiles overlap; in
#: another run of 15, inline led at 1x on every pile and the pool's median
#: only from 2x. The break-even is near the limit, so it stays.
_INLINE_WORK_LIMIT = 400_000


class GameOutcome(namedtuple("GameOutcome", ("winner", "r_steps"))):
    """One playout's result: who emptied the pile ("R" or "D"), and how many moves R made."""

    __slots__ = ()


class TrialSums(_Record):
    """Tallies over a batch of games; ``_merged`` adds them elementwise."""

    d_wins: int
    steps_sum: int
    steps_sq_sum: int


class SimResult(_Record):
    """Aggregated statistics for one simulation run, in ``simulate``'s column order."""

    n: int
    trials: int
    d_wins: int
    p_hat: float
    ci_low: float
    ci_high: float
    ci_level: float
    mean_r_steps: float
    seed: int
    workers: int

    def __post_init__(self) -> None:
        if not 0 <= self.d_wins <= self.trials:
            raise ValueError(f"d_wins={self.d_wins} outside 0..{self.trials}")
        if not 0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0:
            raise ValueError(
                f"interval ({self.ci_low}, {self.ci_high}) does not "
                f"bracket p_hat={self.p_hat}"
            )


def play_game(n: int, rng) -> GameOutcome:
    """Play one game from a pile of ``n`` counters.

    The random player moves first, drawing its removal via ``rng.draw(pile)``
    (uniform on {1..pile}); the deterministic player removes exactly one.
    Whoever empties the pile wins. Deterministic given the rng state.

    Args:
        n: Initial pile size, at least 1.
        rng: Any object with a ``draw(m) -> int in 1..m`` method.

    Returns:
        The winner and the number of moves the random player made.
    """
    _at_least("n", n, 1)
    pile = n
    r_steps = 0
    while True:
        pile -= rng.draw(pile)
        r_steps += 1
        if pile == 0:
            return GameOutcome("R", r_steps)
        pile -= 1
        if pile == 0:
            return GameOutcome("D", r_steps)


@cache
def _pile_table(p: int) -> tuple[int, ...]:
    """The pile a draw from pile ``p`` <= 256 leaves, per top byte; -1 where it is rejected."""
    shift = 8 - (p - 1).bit_length()
    return tuple(p - (b >> shift) - 1 if b >> shift < p else -1 for b in range(256))


def _run_block(n: int, count: int, state: tuple[int, int, int, int]) -> tuple[int, int, int]:
    """Play ``count`` games from pile ``n`` on one generator stream.

    Hot path. The outputs come from ``rng.stream(state)``, which says how
    they are made: the xoshiro256** step taken again and again from
    ``state``. This loop consumes them exactly like ``play_game`` over a
    generator that takes that step once per output (test_simulate pins the
    two against each other). A draw for pile p keeps the top bits of one
    output that can hold p - 1 and rejects values >= p. Each accepted draw
    plays a whole round, R's draw and D's forced move. Piles up to 256 keep
    at most the top byte (``rng._top_bytes``), which indexes the pile's
    ``_pile_table``. Larger piles take the draw and D's counter in one
    subtraction; a pile of -1 or 0 then ends the game. Returns
    (deterministic wins, sum of R-move counts, sum of squared counts).
    """
    d_wins = steps_sum = steps_sq_sum = r_steps = 0
    if count < 1:
        return d_wins, steps_sum, steps_sq_sum
    if n <= 256:  # every draw keeps at most the top 8 bits of an output
        follow = [(), (), *map(_pile_table, range(1, n - 1))]  # [q]: the table of pile q - 1
        first = table = _pile_table(n)
        for b in _top_bytes(state):
            q = table[b]
            if q > 1:
                r_steps += 1
                table = follow[q]
                continue
            if q < 0:
                continue
            r_steps += 1
            d_wins += q
            steps_sum += r_steps
            steps_sq_sum += r_steps * r_steps
            count -= 1
            if not count:
                break
            table, r_steps = first, 0
        return d_wins, steps_sum, steps_sq_sum
    first_shift = 64 - (n - 1).bit_length()
    pile, shift = n, first_shift
    for out in stream(state):
        v = out >> shift
        if v < pile:
            r_steps += 1
            pile -= v + 2  # R's draw of v + 1, then D's one
            if pile > 0:
                shift = 64 - (pile - 1).bit_length()
                continue
            # Pile -1: R took the last counter. Pile 0: D took it.
            d_wins += pile + 1
            steps_sum += r_steps
            steps_sq_sum += r_steps * r_steps
            count -= 1
            if not count:
                break
            pile, shift, r_steps = n, first_shift, 0
    return d_wins, steps_sum, steps_sq_sum


def stream_seed(seed: int, worker: int) -> int:
    """Seed of worker ``worker``'s private stream (0-based index)."""
    return splitmix64(seed ^ (worker + 1))


def _merged(parts) -> tuple[int, int, int]:
    """The elementwise sum of (d_wins, steps_sum, steps_sq_sum) tallies, added as they come."""
    return reduce(lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]), parts, (0, 0, 0))


def _run_blocks(n: int, trials: int, blocks: int, seed: int,
                indices: range) -> tuple[int, int, int]:
    """Summed tallies of the blocks at ``indices``, each made as it is played.

    The one owner of the block layout: the first ``trials % blocks`` blocks
    play one game more than the others, and block i plays on ``stream_seed(seed, i)``.
    """
    base, extra = divmod(trials, blocks)
    return _merged(_run_block(n, base + (i < extra), expand_seed(stream_seed(seed, i)))
                   for i in indices)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity where the platform reports one."""
    if hasattr(os, "sched_getaffinity") and not hasattr(os, "process_cpu_count"):  # < 3.13
        return len(os.sched_getaffinity(0))
    return getattr(os, "process_cpu_count", os.cpu_count)() or 1


def _pool_parts(n: int, trials: int, blocks: int, seed: int, procs: int) -> list:
    """``_run_blocks`` in ``procs`` processes: one task each, on every procs-th block."""
    # Imported here: most runs never start a pool, and its import costs start-up time.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=procs) as pool:
        tasks = [range(i, blocks, procs) for i in range(procs)]
        futures = [pool.submit(_run_blocks, n, trials, blocks, seed, task) for task in tasks]
        return [future.result() for future in futures]


def run_trial_sums(n: int, trials: int, seed: int = 0, workers: int = 1) -> TrialSums:
    """Raw tallies over ``trials`` independent games; core of ``run_trials``.

    Exposed separately so callers that need the second moment of the step
    count (for an empirical variance) can get it from the same single pass.
    """
    _at_least("n", n, 1)
    if n > MAX_PILE:
        raise ValueError(f"n must be at most 2**64 (one 64-bit output per draw), got {n}")
    _at_least("trials", trials, 1)
    _at_least("workers", workers, 1)
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    blocks = min(workers, trials)  # workers past ``trials`` would get empty blocks
    procs = min(blocks, _usable_cpus())
    if procs > 1 and trials * max(n.bit_length(), 4) > _INLINE_WORK_LIMIT:
        try:
            return TrialSums(*_merged(_pool_parts(n, trials, blocks, seed, procs)))
        except (OSError, NotImplementedError) as exc:
            print(f"pilegame: process pool did not start ({exc!r}); "
                  f"running {blocks} blocks inline", file=sys.stderr)
    return TrialSums(*_run_blocks(n, trials, blocks, seed, range(blocks)))


def _z(ci_level: float) -> float:
    """The z-value of ``ci_level``, which must be a key of ``Z_BY_LEVEL``."""
    if ci_level not in Z_BY_LEVEL:
        raise ValueError(f"unsupported ci_level {ci_level}; choose from {sorted(Z_BY_LEVEL)}")
    return Z_BY_LEVEL[ci_level]


def run_trials(
    n: int,
    trials: int,
    seed: int = 0,
    workers: int = 1,
    ci_level: float = 0.99,
) -> SimResult:
    """Play ``trials`` games and report the deterministic player's win rate.

    Args:
        n: Initial pile size, 1..2**64 (``MAX_PILE``).
        trials: Number of independent games, at least 1.
        seed: Unsigned 64-bit master seed.
        workers: Requested number of contiguous trial blocks / generator
            streams; ``min(workers, trials)`` blocks are made.
        ci_level: Confidence level for the Wilson interval; must be one of
            the keys of ``Z_BY_LEVEL``.

    Returns:
        A SimResult; bit-identical for identical argument tuples.
    """
    _z(ci_level)  # fails before any game is played
    sums = run_trial_sums(n, trials, seed=seed, workers=workers)
    ci_low, ci_high = wilson_interval(sums.d_wins, trials, ci_level)
    return SimResult(
        n=n,
        trials=trials,
        d_wins=sums.d_wins,
        p_hat=sums.d_wins / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        ci_level=ci_level,
        mean_r_steps=sums.steps_sum / trials,
        seed=seed,
        workers=workers,
    )


def wilson_interval(wins: int, trials: int, ci_level: float = 0.99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well-behaved near 0 and 1: zero successes pin the lower bound at
    exactly 0.0 and all successes pin the upper bound at exactly 1.0.

    Args:
        wins: Number of successes, 0 <= wins <= trials.
        trials: Number of Bernoulli trials, at least 1.
        ci_level: One of the levels in ``Z_BY_LEVEL``.

    Returns:
        (low, high) with low <= wins/trials <= high.
    """
    _at_least("trials", trials, 1)
    if not 0 <= wins <= trials:
        raise ValueError(f"wins={wins} outside 0..{trials}")
    z = _z(ci_level)
    p_hat = wins / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials)) / denom
    # Clamping to p_hat undoes rounding that can put an end past it a few
    # ulps from 1 (wins = trials - 1 near 2**53); the exact interval holds it.
    low = max(0.0, min(p_hat, center - half))
    high = min(1.0, max(p_hat, center + half))
    return low, high
