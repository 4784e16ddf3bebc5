"""simulate-mc: ``run_trials`` with ``workers=1`` cycling through piles
{10, 100, 2**40}, one call at a time in one process.

The pure-Python ``_run_block`` and its inlined xoshiro256** draw loop do all
the work; exact and verify do nothing. The three piles differ in accepted
draws per game and in rejection rate. One operation of ``op_s_p50`` is one
pass through the three calls, each sized to take about a quarter of a second,
so a run holds a few dozen passes.

The process pool (``workers=2``) is timed only in the traced run, once per
pile: on a machine with two shared CPUs a pool call measures the other
tenants as much as the program, and made the untraced figure too unsteady
to gate.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

import pilegame.simulate as simulate
from pilegame.exact import E_INVERSE, FLOAT_SLACK, closed_form
from pilegame.rng import Xoshiro256StarStar
from pilegame.simulate import play_game, run_trial_sums
from pilegame.steps import expected_steps

from common import Report, median, probed, run_until
from spans import Tracer, per_op_medians

PILES = (10, 100, 2**40)
PILE_TAGS = {10: "10", 100: "100", 2**40: "2p40"}

#: Games per inline call, chosen so that each pile takes a similar time.
INLINE_TRIALS = {10: 60_000, 100: 30_000, 2**40: 6_000}

#: Games per pool call: just above the simulator's inline limit of 100 000,
#: so that ``workers=2`` really starts its pool.
POOL_TRIALS = 100_001
POOL_WORKERS = 2

#: Largest pile with an exact D_n and E(Z_n) reference; above it D_n is
#: 1/e within 1/(n+1)!, which is far below the float slack.
EXACT_MAX = 100

SIGMAS = 5

#: Raw generator outputs timed per rate sample, and games replayed per pile
#: for the accept ratio.
RNG_CALLS = 100_000
REPLAY_GAMES = 2_000


#: Nominal time of one speed probe: a typical median on the measuring machine
#: of RESULTS.md.
PROBE_S = 0.0007


def probe() -> None:
    """A xorshift loop on 64-bit Python ints: the kind of work of the draw
    loop, but no program code."""
    x = 0x9E3779B97F4A7C15
    for _ in range(2_000):
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF


class CountingXoshiro(Xoshiro256StarStar):
    """Xoshiro256StarStar that counts its raw 64-bit outputs."""

    __slots__ = ("raw",)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.raw = 0

    def next_u64(self) -> int:
        self.raw += 1
        return super().next_u64()


class SimulateMc:
    def __init__(self, seed: int) -> None:
        rnd = random.Random(seed)
        self.sim_seeds = {n: rnd.getrandbits(64) for n in PILES}
        self.d_exact = {n: float(1 - closed_form(n)) for n in PILES if n <= EXACT_MAX}
        steps = expected_steps(EXACT_MAX)
        self.ez = {n: float(steps.ez_at(n)) for n in PILES if n <= EXACT_MAX}
        self.first: dict[tuple[int, int], object] = {}  # (n, workers) -> first SimResult
        self.sums: dict[tuple[int, int], object] = {}  # (n, workers) -> repeat TrialSums

    def gate(self, n: int, trials: int, workers: int, result) -> list[str]:
        """p-hat and mean R moves within 5 sigma; repeated calls identical."""
        problems = []
        key = (n, workers)
        if key not in self.sums:
            # The first call of each kind is repeated, untimed, to check that
            # the same arguments give the same tallies and to get the second
            # moment of the move count.
            sums = run_trial_sums(n, trials, seed=self.sim_seeds[n], workers=workers)
            self.sums[key] = sums
            self.first[key] = result
            if (sums.d_wins, sums.steps_sum / trials) != (result.d_wins, result.mean_r_steps):
                problems.append(f"repeated call differs: {sums} vs {result}")
        elif result != self.first[key]:
            problems.append(f"repeated call differs: {result} vs {self.first[key]}")
        d = self.d_exact.get(n, E_INVERSE)
        slack = 0.0 if n in self.d_exact else float(FLOAT_SLACK)
        sigma = math.sqrt(d * (1 - d) / trials)
        if abs(result.p_hat - d) > SIGMAS * sigma + slack:
            problems.append(f"p_hat {result.p_hat} vs D_{n} {d}: beyond {SIGMAS} sigma")
        if n in self.ez:
            sums = self.sums[key]
            mean = sums.steps_sum / trials
            var = sums.steps_sq_sum / trials - mean * mean
            if abs(result.mean_r_steps - self.ez[n]) > SIGMAS * math.sqrt(var / trials):
                problems.append(
                    f"mean R moves {result.mean_r_steps} vs E(Z_{n}) {self.ez[n]}: "
                    f"beyond {SIGMAS} sigma"
                )
        return problems

    def call(self, report: Report, n: int, trials: int, workers: int,
             probing: bool = False) -> tuple[float, float] | None:
        """One gated ``run_trials`` call.

        Returns its wall seconds and those seconds rescaled by the speed
        probe (the same figure when ``probing`` is false), or None if it raised.
        """
        what = f"run_trials(n={n}, trials={trials}, workers={workers})"

        def call():
            return simulate.run_trials(n, trials, seed=self.sim_seeds[n], workers=workers)

        def timed():
            if probing:
                return probed(call, probe, PROBE_S)
            start = perf_counter()
            result = call()
            seconds = perf_counter() - start
            return result, seconds, seconds

        out = report.attempt(what, timed)
        if out is None:
            return None
        result, seconds, rescaled = out
        report.gate(what, self.gate(n, trials, workers, result))
        return seconds, rescaled

    def one_pass(self, report: Report, pass_times: list[float],
                 rescaled: list[float] | None = None, call_times: dict | None = None) -> None:
        """One pass over the piles; probed and rescaled if ``rescaled`` is given."""
        total = total_rescaled = 0.0
        for n in PILES:
            out = self.call(report, n, INLINE_TRIALS[n], 1, probing=rescaled is not None)
            if out is None:
                return  # an incomplete pass is not timed
            total += out[0]
            total_rescaled += out[1]
            if call_times is not None:
                call_times.setdefault(n, []).append(out[0])
        pass_times.append(total)
        if rescaled is not None:
            rescaled.append(total_rescaled)

    def traced(self, report: Report, deadline: float) -> tuple[Tracer, list[float], int]:
        """Traced inline passes until ``deadline``, then one traced pool call per pile.

        Returns the tracer, the traced pass times and the pool calls' op id.
        """
        pass_times: list[float] = []
        with Tracer() as tracer:
            tracer.wrap(simulate, "run_trials", "simulate.run_trials")
            tracer.wrap(
                simulate, "run_trial_sums",
                lambda args, kwargs: _sums_span(args[0], kwargs["workers"]),
            )

            def op():
                tracer.new_op()
                self.one_pass(report, pass_times)

            run_until(deadline, 1, op)
            pool_op = tracer.new_op()
            for n in PILES:
                self.call(report, n, POOL_TRIALS, POOL_WORKERS)
        return tracer, pass_times, pool_op


def _sums_span(n: int, workers: int) -> str:
    return f"simulate.run_trial_sums.{PILE_TAGS[n]}.w{workers}"


def _rate(fn, arg=None) -> float:
    """Calls per second of ``fn`` (median of three timed loops)."""
    rates = []
    for _ in range(3):
        start = perf_counter()
        if arg is None:
            for _ in range(RNG_CALLS):
                fn()
        else:
            for _ in range(RNG_CALLS):
                fn(arg)
        rates.append(RNG_CALLS / (perf_counter() - start))
    return median(rates)


def rng_layer(seed: int, report: Report) -> None:
    """Generator rates, and accepted draws over raw outputs per pile.

    The rates move ``games_per_s`` only if ``_run_block`` stops inlining
    the generator.
    """
    gen = Xoshiro256StarStar(seed)
    report.metrics["rng.next_u64_per_s"] = _rate(gen.next_u64)
    report.metrics["rng.draw_per_s.10"] = _rate(gen.draw, 10)
    report.metrics["rng.draw_per_s.2p40"] = _rate(gen.draw, 2**40)
    for n in PILES:
        counting = CountingXoshiro(seed)
        accepted = sum(play_game(n, counting).r_steps for _ in range(REPLAY_GAMES))
        report.metrics[f"rng.accept_ratio.{PILE_TAGS[n]}"] = accepted / counting.raw


def games_per_s(pass_times: list[float]) -> float:
    if not pass_times:
        return 0.0
    return len(pass_times) * sum(INLINE_TRIALS.values()) / sum(pass_times)


def run(seed: int, seconds: float, trace: bool, report: Report) -> Tracer | None:
    bench = SimulateMc(seed)
    if trace:
        seconds /= 2
        tracer, traced_passes, pool_op = bench.traced(report, perf_counter() + seconds)
    pass_times: list[float] = []
    rescaled: list[float] = []
    call_times: dict = {}
    run_until(
        perf_counter() + seconds, 3,
        lambda: bench.one_pass(report, pass_times, rescaled, call_times),
        after=report.after_op,
    )
    report.metrics["op_s_p50"] = median(rescaled)
    report.details["op_s"] = pass_times
    report.details["op_s_rescaled"] = rescaled
    report.details["call_s_p50"] = {str(n): median(t) for n, t in call_times.items()}
    if not trace:
        return None

    report.tail(pass_times)
    rate = games_per_s(pass_times)
    report.metrics["games_per_s"] = rate
    report.metrics["trace.overhead.games_per_s"] = games_per_s(traced_passes) - rate

    per_op = tracer.per_op()
    pool = per_op.pop(pool_op)
    by_name = per_op_medians(per_op)
    for n in PILES:
        tag = PILE_TAGS[n]
        inline = INLINE_TRIALS[n] / by_name[_sums_span(n, 1)]
        pooled = POOL_TRIALS / pool[_sums_span(n, POOL_WORKERS)]
        report.metrics[f"simulate.inline_games_per_s.{tag}"] = inline
        report.metrics[f"simulate.pool_games_per_s.{tag}"] = pooled
        report.metrics[f"simulate.pool_efficiency.{tag}"] = pooled / (POOL_WORKERS * inline)
        report.metrics[f"simulate.draws_per_game.{tag}"] = (
            bench.sums[(n, 1)].steps_sum / INLINE_TRIALS[n]
        )
    self_by_layer = tracer.per_op(by_layer=True, self_time=True)
    del self_by_layer[pool_op]
    report.metrics["simulate.self_s"] = per_op_medians(self_by_layer)["simulate"]
    rng_layer(seed, report)
    return tracer
