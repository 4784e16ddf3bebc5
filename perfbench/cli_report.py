"""cli-report: one pass through a fixed command mix, repeated by a single
caller. Each command runs in a fresh interpreter that runs ``pilegame`` as
``python -m pilegame`` does, with the speed probe inside.

Interpreter start, import and report formatting dominate here, and the exact
layer runs at small n in a cold process, so work moved into import or start-up
shows on this workload. One operation of ``op_s_p50`` is one pass.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import math
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

from click.testing import CliRunner

import pilegame
import pilegame.cli as cli
from pilegame.exact import solve_recursive
from pilegame.steps import expected_steps

from common import CHILD_ENV, PROBE_EVERY_S, Report, median, run_until
from simulate_mc import probe
from spans import Tracer, per_op_medians

#: Names the commands look up in ``pilegame.cli``, with their span names.
WRAPPED = {
    "solve": "exact.solve",
    "solve_recursive": "exact.solve_recursive",
    "closed_form": "exact.closed_form",
    "derangements": "exact.derangements",
    "gap_to_limit": "exact.gap_to_limit",
    "expected_steps": "steps.expected_steps",
    "run_trials": "simulate.run_trials",
    "run_checks": "verify.run_checks",
}

#: Inputs known to end in a traceback today; counted, never timed.
BOUNDARY_PROBES = (
    ["solve", "--n-max", "2000"],
    ["simulate", "--n", str(2**64 + 1), "--trials", "10"],
)
PROBE_TIMEOUT_S = 30

SIGMAS = 5


def commands(seed: int) -> dict[str, list[str]]:
    return {
        "version": ["--version"],
        "solve200": ["solve", "--n-max", "200"],
        "solve1000": ["solve", "--n-max", "1000"],
        "solve200_gf_json": ["solve", "--n-max", "200", "--method", "gf", "--format", "json"],
        "steps200": ["steps", "--n-max", "200"],
        "convergence20": ["convergence", "--n-max", "20"],
        "verify200": ["verify", "--n-max", "200", "--oracle-max", "12"],
        "simulate10": ["simulate", "--n", "10", "--trials", "100000", "--seed", str(seed % 2**64)],
    }


def _child(args: list[str], timeout: float | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pilegame", *args],
        env=CHILD_ENV, capture_output=True, timeout=timeout,
    )


#: Nominal time of one speed probe in a child: a typical median during the
#: command mix on the measuring machine of RESULTS.md. It is higher than in
#: the warm simulate-mc process.
PROBE_S = 0.00085

#: Marks the line on which a probed child writes its probe times to stderr.
PROBE_MARK = b"\nperfbench-probe-s "

#: ``python -m pilegame`` with the speed probe of simulate-mc running inside
#: the child, as ``common.probed`` runs it in-process. The probe times go to
#: stderr at exit; stdout is the command's own.
_PROBED_MAIN = inspect.getsource(probe) + f"""
import atexit, json, runpy, signal, sys, time
samples = []
def tick(signum, frame):
    start = time.perf_counter()
    probe()
    samples.append(time.perf_counter() - start)
signal.signal(signal.SIGVTALRM, tick)
signal.setitimer(signal.ITIMER_VIRTUAL, {PROBE_EVERY_S}, {PROBE_EVERY_S})
def report():
    signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    sys.stderr.write({PROBE_MARK.decode()!r} + json.dumps(samples) + "\\n")
atexit.register(report)
runpy.run_module("pilegame", run_name="__main__", alter_sys=True)
"""


def _probed_child(args: list[str]) -> tuple[subprocess.CompletedProcess, float, list[float]]:
    """Run one command with the probe inside; (process, wall seconds, probe times).

    The process's stderr comes back without the probe line.
    """
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _PROBED_MAIN, *args], env=CHILD_ENV, capture_output=True,
    )
    elapsed = perf_counter() - start
    stderr, mark, line = proc.stderr.rpartition(PROBE_MARK)
    if not mark:
        return proc, elapsed, []
    proc.stderr = stderr
    return proc, elapsed, json.loads(line)


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _rationals_match(rows: list[dict], expected: list[Fraction], num: str, den: str) -> bool:
    return len(rows) == len(expected) and all(
        Fraction(int(row[num]), int(row[den])) == value for row, value in zip(rows, expected)
    )


def _simulate_row_ok(row: dict, d: Fraction) -> bool:
    """``within_ci`` states the truth, and p-hat lies within 5 sigma of D_n.

    A 99% interval misses the exact value for about one seed in a hundred,
    so ``within_ci`` itself may read false on a correct run; the gate checks
    that the column agrees with the printed interval instead.
    """
    low, high = Fraction(float(row["ci_low"])), Fraction(float(row["ci_high"]))
    within = row["within_ci"] == ("true" if low <= d <= high else "false")
    trials = int(row["trials"])
    sigma = math.sqrt(float(d) * (1 - float(d)) / trials)
    exact = Fraction(int(row["d_exact_num"]), int(row["d_exact_den"])) == d
    return within and exact and abs(float(row["p_hat"]) - float(d)) <= SIGMAS * sigma


class CliReport:
    def __init__(self, seed: int) -> None:
        self.commands = commands(seed)
        table = solve_recursive(1000)
        self.d = [table.d(n) for n in range(1001)]
        self.ez = list(expected_steps(200).ez)
        self.first_stdout: dict[str, bytes] = {}

    def content_problems(self, name: str, out: str) -> list[str]:
        """Check one command's report against in-process exact values."""
        if name == "version":
            ok = pilegame.__version__ in out
        elif name in ("solve200", "solve1000"):
            top = int(name[len("solve"):])
            ok = _rationals_match(_csv_rows(out), self.d[: top + 1], "d_prob_num", "d_prob_den")
        elif name == "solve200_gf_json":
            rows = json.loads(out)["rows"]
            ok = _rationals_match(rows, self.d[:201], "d_prob_num", "d_prob_den") and all(
                row["method"] == "gf" for row in rows
            )
        elif name == "steps200":
            ok = _rationals_match(_csv_rows(out), self.ez, "ez_num", "ez_den")
        elif name == "convergence20":
            rows = _csv_rows(out)
            ok = len(rows) == 21 and all(
                float(row["d_prob_float"]) == float(self.d[n]) for n, row in enumerate(rows)
            )
        elif name == "verify200":
            ok = out.rstrip("\n").endswith("16/16 checks passed")
        else:  # simulate10
            rows = _csv_rows(out)
            ok = len(rows) == 1 and _simulate_row_ok(rows[0], self.d[10])
        return [] if ok else [f"{name}: report disagrees with the in-process exact values"]

    def gate(self, name: str, proc: subprocess.CompletedProcess) -> list[str]:
        if proc.returncode != 0:
            return [f"{name}: exit code {proc.returncode}: {proc.stderr.decode()[-500:]}"]
        first = self.first_stdout.setdefault(name, proc.stdout)
        if first is proc.stdout:
            return self.content_problems(name, proc.stdout.decode())
        if proc.stdout != first:
            return [f"{name}: stdout differs from the first run with the same arguments"]
        return []

    def one_pass(self, report: Report, pass_times: list[float], rescaled: list[float],
                 per_cmd: dict, out_bytes: dict) -> None:
        """One pass, each command probed; its time is rescaled like ``common.probed``."""
        total = 0.0
        samples: list[float] = []
        for name, args in self.commands.items():
            out = report.attempt(name, lambda: _probed_child(args))
            if out is None:
                return  # an incomplete pass is not timed
            proc, elapsed, probes = out
            elapsed -= sum(probes)
            total += elapsed
            samples += probes
            per_cmd.setdefault(name, []).append(elapsed)
            out_bytes[name] = len(proc.stdout)
            report.gate(name, self.gate(name, proc))
        pass_times.append(total)
        rescaled.append(total * PROBE_S / median(samples) if samples else total)

    def traced(self, report: Report, deadline: float) -> Tracer:
        """In-process passes with ``CliRunner``; each command is a root span."""
        runner = CliRunner()
        with Tracer() as tracer:
            for attr, span in WRAPPED.items():
                tracer.wrap(cli, attr, span)

            def op():
                tracer.new_op()
                for name, args in self.commands.items():
                    result = tracer.call(f"cli.{name}", runner.invoke, cli.main, args)
                    problems = []
                    if result.exit_code != 0:
                        problems.append(f"{name} in-process: exit code {result.exit_code}")
                    report.gate(f"{name} (in-process)", problems)

            run_until(deadline, 1, op)
        return tracer


def boundary_failures() -> int:
    """Probes that end in a traceback; recorded so a later fix has a target.

    A probe that runs past its timeout is killed and not counted: it did
    not crash.
    """
    count = 0
    for args in BOUNDARY_PROBES:
        try:
            proc = _child(args, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            continue
        if proc.returncode != 0 and b"Traceback" in proc.stderr:
            count += 1
    return count


def run(seed: int, seconds: float, trace: bool, report: Report) -> Tracer | None:
    bench = CliReport(seed)
    if trace:
        seconds /= 2
        tracer = bench.traced(report, perf_counter() + seconds)
    pass_times: list[float] = []
    rescaled: list[float] = []
    per_cmd: dict[str, list[float]] = {}
    out_bytes: dict[str, int] = {}
    run_until(
        perf_counter() + seconds, 3,
        lambda: bench.one_pass(report, pass_times, rescaled, per_cmd, out_bytes),
        after=report.after_op,
    )
    report.metrics["op_s_p50"] = median(rescaled)
    report.details["op_s"] = pass_times
    report.details["op_s_rescaled"] = rescaled
    if not trace:
        return None

    report.tail(pass_times)
    own = per_op_medians(tracer.per_op(self_time=True))
    by_name = per_op_medians(tracer.per_op())
    for name in bench.commands:
        report.metrics[f"cli.{name}_s"] = median(per_cmd.get(name, []))
        report.metrics[f"cli.{name}.self_s"] = own[f"cli.{name}"]
        report.metrics[f"cli.{name}.stdout_bytes"] = out_bytes.get(name, 0)
    for span in ("exact.solve", "exact.gap_to_limit"):
        report.metrics[f"{span}_s"] = by_name[span]
    for layer, value in per_op_medians(tracer.per_op(by_layer=True, self_time=True)).items():
        report.metrics[f"{layer}.self_s"] = value
    return tracer
