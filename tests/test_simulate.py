"""Tests for the game simulator: playouts, aggregation, reproducibility."""

import concurrent.futures
import functools
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pilegame.exact import solve_recursive
from pilegame.rng import LANE_STEPS, MASK64, MAX_LANES, Xoshiro256StarStar, expand_seed
from pilegame.simulate import (
    MAX_PILE,
    Z_BY_LEVEL,
    GameOutcome,
    SimResult,
    TrialSums,
    _merged,
    _pool_parts,
    _run_block,
    _run_blocks,
    _usable_cpus,
    play_game,
    run_trial_sums,
    run_trials,
    stream_seed,
    wilson_interval,
)

from reference import ScalarXoshiro, block_by_play_game, block_sizes_by_dealing


class ScriptedRng:
    """Test double that replays a fixed list of draws and records each pile offered."""

    def __init__(self, draws):
        self._draws = list(draws)
        self.piles = []

    def draw(self, m):
        self.piles.append(m)
        k = self._draws.pop(0)
        assert 1 <= k <= m, f"scripted draw {k} illegal for pile {m}"
        return k


class RecordingXoshiro(Xoshiro256StarStar):
    """The package's generator, recording each (pile, draw) pair it serves."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def draw(self, m):
        k = super().draw(m)
        self.draws.append((m, k))
        return k


def test_pile_of_one_forces_random_win():
    rng = ScriptedRng([1])
    assert play_game(1, rng) == GameOutcome("R", 1)
    assert rng.piles == [1]


def test_pile_of_two_both_branches():
    grab_all = ScriptedRng([2])
    assert play_game(2, grab_all) == GameOutcome("R", 1)
    assert grab_all.piles == [2]

    grab_one = ScriptedRng([1])
    assert play_game(2, grab_one) == GameOutcome("D", 1)
    assert grab_one.piles == [2]


def test_pile_of_three_forced_continuation():
    rng = ScriptedRng([1, 1])
    assert play_game(3, rng) == GameOutcome("R", 2)
    assert rng.piles == [3, 1]


def test_play_game_rejects_empty_pile():
    with pytest.raises(ValueError):
        play_game(0, ScriptedRng([]))


def test_playouts_obey_the_rules():
    """R draws 1..pile, D removes one, whoever empties the pile wins and
    r_steps counts R's draws, across sizes and seeds."""
    for n in range(1, 26):
        for seed in range(40):
            rng = RecordingXoshiro(seed * 1000 + n)
            game = play_game(n, rng)
            assert rng.draws[0][0] == n
            for (pile, k), (next_pile, _) in zip(rng.draws, rng.draws[1:]):
                assert 1 <= k <= pile
                assert next_pile == pile - k - 1 >= 1
            pile, k = rng.draws[-1]
            assert 1 <= k <= pile
            assert pile - k in (0, 1)
            assert game.winner == ("R" if pile - k == 0 else "D")
            assert game.r_steps == len(rng.draws)


def test_fast_block_matches_play_game():
    """The block loop consumes the stream exactly like play_game, on both
    sides of the switch from top-byte tables to 64-bit draws above 256."""
    for n in (1, 2, 3, 7, 12, 255, 256, 257):
        state = expand_seed(4242 + n)
        assert _run_block(n, 2000, state) == block_by_play_game(n, 2000, state), f"n={n}"


#: Piles at the edges of the draw: forced draws, small ranges with and
#: without rejection, every power of two and its neighbours, and the largest.
edge_piles = st.one_of(
    st.sampled_from([1, 2, 3, 2**63, MAX_PILE]),
    st.integers(0, 64).map(lambda k: 2**k),
    st.integers(1, 64).map(lambda k: 2**k - 1),
    st.integers(1, 63).map(lambda k: 2**k + 1),
)


def _games_past_the_first_full_batch(n):
    """Games from pile ``n`` that read past the first batch of ``MAX_LANES`` lanes.

    Batches of 1 (run 0 alone), 2, 4, ..., ``MAX_LANES`` lanes make
    2 * MAX_LANES - 1 runs; the games read into the run after them. A game
    reads one output from piles 1 and 2, and about ln(n) draws from larger
    piles, which is more than n.bit_length() / 2 outputs on average.
    """
    return LANE_STEPS * 2 * MAX_LANES // max(1, n.bit_length() // 2)


@settings(max_examples=30, deadline=None)
@given(n=edge_piles, seed=st.integers(0, MASK64), data=st.data())
def test_block_matches_play_game_across_batches(n, seed, data):
    # From no games to past the first batch with the most lanes.
    count = data.draw(st.integers(0, _games_past_the_first_full_batch(n)), label="count")
    state = expand_seed(seed)
    assert _run_block(n, count, state) == block_by_play_game(n, count, state)


class CountingXoshiro(ScalarXoshiro):
    """The scalar reference generator, counting its raw outputs."""

    outputs = 0

    def next_u64(self):
        self.outputs += 1
        return super().next_u64()


@pytest.mark.parametrize("n", [10, 256, 257, MAX_PILE])
def test_both_paths_match_play_game_past_the_first_full_batch(n):
    """The byte path (piles <= 256) and the int path read every growing batch
    and the first full one, and keep matching the scalar playout."""
    count = _games_past_the_first_full_batch(n)
    state = expand_seed(n & MASK64)
    rng = CountingXoshiro._from_state(state)
    games = [play_game(n, rng) for _ in range(count)]
    assert rng.outputs > LANE_STEPS * (2 * MAX_LANES - 1)
    expected = (
        sum(game.winner == "D" for game in games),
        sum(game.r_steps for game in games),
        sum(game.r_steps ** 2 for game in games),
    )
    assert _run_block(n, count, state) == expected


def test_largest_pile_runs_and_matches_play_game():
    sums = run_trial_sums(MAX_PILE, 50, seed=3)
    expected = block_by_play_game(MAX_PILE, 50, expand_seed(stream_seed(3, 0)))
    assert (sums.d_wins, sums.steps_sum, sums.steps_sq_sum) == expected


def test_piles_above_two_to_the_64_are_rejected():
    with pytest.raises(ValueError, match="at most 2\\*\\*64"):
        run_trial_sums(MAX_PILE + 1, 10)
    with pytest.raises(ValueError, match="at most 2\\*\\*64"):
        run_trials(MAX_PILE + 1, 10)


class _PoolThatCannotStart:
    def __init__(self, *args, **kwargs):
        raise OSError("no processes here")


def test_pool_that_cannot_start_falls_back_inline(monkeypatch, capsys):
    n, trials, seed, workers = 5, 100_001, 21, 2
    monkeypatch.setattr("pilegame.simulate._usable_cpus", lambda: 2)  # a pool is tried on any host
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PoolThatCannotStart)
    sums = run_trial_sums(n, trials, seed=seed, workers=workers)
    manual = [0, 0, 0]
    for i, size in enumerate(block_sizes_by_dealing(trials, workers)):
        part = _run_block(n, size, expand_seed(stream_seed(seed, i)))
        manual = [a + b for a, b in zip(manual, part)]
    assert (sums.d_wins, sums.steps_sum, sums.steps_sq_sum) == tuple(manual)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert "process pool did not start" in lines[0] and "no processes here" in lines[0]


def test_pool_with_more_blocks_than_processes_gives_the_inline_tallies():
    procs = _usable_cpus()
    blocks = procs + 3
    parts = _pool_parts(10, 2_000, blocks, 11, procs)
    assert len(parts) == procs  # one task per process
    assert tuple(map(sum, zip(*parts))) == _run_blocks(10, 2_000, blocks, 11, range(blocks))


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_pool_gives_the_inline_tallies_under_every_start_method(method, monkeypatch):
    pool = functools.partial(concurrent.futures.ProcessPoolExecutor,
                             mp_context=multiprocessing.get_context(method))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    procs = min(3, _usable_cpus())
    for n in (10, 2**40):
        pooled = _merged(_pool_parts(n, 3_000, 3, 5, procs))
        assert pooled == _run_blocks(n, 3_000, 3, 5, range(3)), f"n={n}"


def test_pool_threshold_weighs_trials_by_pile_size(monkeypatch):
    pooled = []

    def pool_parts(n, trials, blocks, seed, procs):
        pooled.append(n)
        return [(1, 2, 3)] * procs

    monkeypatch.setattr("pilegame.simulate._usable_cpus", lambda: 2)  # a pool is tried on any host
    monkeypatch.setattr("pilegame.simulate._pool_parts", pool_parts)
    run_trial_sums(10, 20_000, workers=2)
    assert pooled == []
    # The pool's merged parts are the result; no block runs inline after it.
    assert run_trial_sums(2**40, 20_000, workers=2) == TrialSums(2, 4, 6)
    assert pooled == [2**40]


def test_import_leaves_the_process_pool_unloaded():
    code = "import sys, pilegame.cli, pilegame.simulate; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_no_pool_starts_on_one_usable_cpu(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started")

    monkeypatch.setattr("pilegame.simulate._usable_cpus", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    sums = run_trial_sums(2**40, 10_000, seed=4, workers=2)  # over the inline work limit
    inline = _run_blocks(2**40, 10_000, 2, 4, range(2))
    assert (sums.d_wins, sums.steps_sum, sums.steps_sq_sum) == inline
    assert capsys.readouterr().err == ""


def test_usable_cpus_counts_at_least_one():
    assert 1 <= _usable_cpus() <= (os.cpu_count() or 1)


def _block_sizes(trials, blocks, monkeypatch):
    """The size of each block ``_run_blocks`` plays, in order, with no game played."""
    sizes = []
    monkeypatch.setattr("pilegame.simulate._run_block",
                        lambda n, count, state: sizes.append(count) or (0, 0, 0))
    _run_blocks(10, trials, blocks, 0, range(blocks))
    return sizes


def test_block_sizes_partition_evenly(monkeypatch):
    assert _block_sizes(10, 3, monkeypatch) == [4, 3, 3]
    assert _block_sizes(6, 3, monkeypatch) == [2, 2, 2]
    assert _block_sizes(2, 4, monkeypatch) == [1, 1, 0, 0]
    assert sum(_block_sizes(999_999, 7, monkeypatch)) == 999_999


def test_inline_memory_does_not_grow_with_the_number_of_blocks():
    def peak(blocks):
        tracemalloc.start()
        try:
            run_trial_sums(10, 4_000, seed=1, workers=blocks)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for blocks in (1_000, 4_000):  # build the caches that each block size uses first
        run_trial_sums(10, 4_000, seed=1, workers=blocks)
    assert peak(4_000) - peak(1_000) < 100 * 1024


def test_stream_seeds_differ_per_worker():
    seeds = {stream_seed(42, i) for i in range(16)}
    assert len(seeds) == 16


@settings(max_examples=60, deadline=None)
@given(n=edge_piles, trials=st.integers(1, 60), seed=st.integers(0, MASK64),
       workers=st.integers(1, 80))
@example(n=6, trials=1000, seed=9, workers=3)
def test_run_trial_sums_merges_blocks(n, trials, seed, workers):
    """Aggregation over workers equals running each block by hand, empty
    blocks included, and workers past ``trials`` change nothing."""
    sums = run_trial_sums(n, trials, seed=seed, workers=workers)
    manual = [0, 0, 0]
    for i, size in enumerate(block_sizes_by_dealing(trials, workers)):
        part = _run_block(n, size, expand_seed(stream_seed(seed, i)))
        manual = [a + b for a, b in zip(manual, part)]
    assert (sums.d_wins, sums.steps_sum, sums.steps_sq_sum) == tuple(manual)
    assert run_trial_sums(n, trials, seed=seed, workers=10**15) == run_trial_sums(
        n, trials, seed=seed, workers=trials
    )


def test_run_trials_is_reproducible():
    first = run_trials(8, 20_000, seed=311, workers=3)
    second = run_trials(8, 20_000, seed=311, workers=3)
    assert first == second


def test_pile_of_one_never_lets_d_win():
    result = run_trials(1, 1000, seed=5)
    assert result.d_wins == 0
    assert result.p_hat == 0.0
    assert result.ci_low == 0.0
    assert result.mean_r_steps == 1.0


def test_pile_of_two_always_one_random_move():
    result = run_trials(2, 5000, seed=17)
    assert result.mean_r_steps == 1.0


def test_estimates_track_exact_values():
    """5-sigma agreement with the exact probabilities on a modest run."""
    table = solve_recursive(10)
    trials = 50_000
    for n in (2, 5, 10):
        result = run_trials(n, trials, seed=7, workers=2)
        d_exact = float(table.d(n))
        sigma = math.sqrt(d_exact * (1 - d_exact) / trials)
        assert abs(result.p_hat - d_exact) < 5 * sigma, f"n={n}"
        assert result.ci_low <= result.p_hat <= result.ci_high


def test_run_trials_validates_arguments(monkeypatch):
    with pytest.raises(ValueError):
        run_trials(0, 10)
    with pytest.raises(ValueError):
        run_trials(3, 0)
    with pytest.raises(ValueError):
        run_trials(3, 10, workers=0)
    with pytest.raises(ValueError):
        run_trials(3, 10, seed=-1)
    # A bad level fails before any game is played.
    def no_games(*args, **kwargs):
        pytest.fail("run_trial_sums ran before the ci_level check")

    monkeypatch.setattr("pilegame.simulate.run_trial_sums", no_games)
    with pytest.raises(
        ValueError,
        match=r"^unsupported ci_level 0\.98; choose from \[0\.9, 0\.95, 0\.99, 0\.999\]$",
    ):
        run_trials(3, 10, ci_level=0.98)


def test_sim_result_validation():
    with pytest.raises(ValueError):
        SimResult(n=1, trials=10, d_wins=11, p_hat=1.1, ci_low=0.0,
                  ci_high=1.0, ci_level=0.99, mean_r_steps=1.0, seed=0,
                  workers=1)
    with pytest.raises(ValueError, match=r"^interval \(0\.5, 0\.9\) does not bracket p_hat=0\.4$"):
        SimResult(n=1, trials=10, d_wins=4, p_hat=0.4, ci_low=0.5,
                  ci_high=0.9, ci_level=0.99, mean_r_steps=1.0, seed=0,
                  workers=1)


def test_wilson_interval_known_value():
    low, high = wilson_interval(50, 100, 0.95)
    assert abs(low - 0.403832) < 1e-5
    assert abs(high - 0.596168) < 1e-5


def test_wilson_interval_pinned_bounds():
    assert wilson_interval(0, 100, 0.99)[0] == 0.0
    assert wilson_interval(100, 100, 0.95)[1] == 1.0


def test_wilson_interval_brackets_the_estimate():
    for wins in (0, 1, 13, 50, 99, 100):
        for level in (0.90, 0.95, 0.99, 0.999):
            low, high = wilson_interval(wins, 100, level)
            assert 0.0 <= low <= wins / 100 <= high <= 1.0


@settings(max_examples=500, deadline=None)
@given(level=st.sampled_from(sorted(Z_BY_LEVEL)), trials=st.integers(1, 2**53), data=st.data())
def test_wilson_interval_brackets_any_estimate(level, trials, data):
    wins = data.draw(st.integers(0, trials), label="wins")
    low, high = wilson_interval(wins, trials, level)
    assert 0.0 <= low <= wins / trials <= high <= 1.0


def test_wilson_interval_brackets_an_estimate_a_few_ulps_from_one():
    # Near 2**53 trials, p_hat is a few ulps below 1 and the upper end as
    # computed in floats can round below it.
    trials = 8_025_177_780_746_585
    for level in Z_BY_LEVEL:
        low, high = wilson_interval(trials - 1, trials, level)
        assert low <= (trials - 1) / trials <= high


def test_wilson_interval_rejects_bad_arguments():
    with pytest.raises(ValueError):
        wilson_interval(5, 0, 0.99)
    with pytest.raises(ValueError):
        wilson_interval(11, 10, 0.99)
    with pytest.raises(ValueError):
        wilson_interval(5, 10, 0.98)


def test_exact_probability_fits_wilson_band_often():
    """The exact D_n should usually fall inside the 99% interval."""
    d_exact = Fraction(11, 30)  # n = 5
    inside = 0
    runs = 20
    for seed in range(runs):
        result = run_trials(5, 4000, seed=seed, ci_level=0.99)
        if Fraction(result.ci_low) <= d_exact <= Fraction(result.ci_high):
            inside += 1
    assert inside >= runs - 2  # ~0.99^20 with generous room
