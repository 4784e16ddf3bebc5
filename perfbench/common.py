"""Pieces every workload shares: the program's location, timing statistics,
set-up time, the speed probe, peak memory and the machine record.

The benchmark always measures the package under ``src/`` of the checkout it
is started from, never an installed copy, and hands the same ``src/`` to
every interpreter it starts.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Environment for every child interpreter: the checkout's sources only.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}

#: Fresh interpreters timed for ``setup_s`` at the start, and after each
#: timed operation; the median of all of them is reported.
SETUP_AT_START = 5
SETUP_PER_OP = 1

#: Nominal wall time of ``SetupTimer.REF_CMD``: a typical median on the
#: measuring machine of RESULTS.md. Rescaled times read as if the reference
#: took this.
REF_S = 0.12

#: Every ``PROBE_EVERY_S`` of user CPU time in a probed operation, a signal
#: handler times one run of the workload's speed probe. A timer on CPU time
#: never fires while the process waits in a system call: a signal that cuts
#: into a blocked write to a pipe can lose the rest of the output.
PROBE_EVERY_S = 0.05

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    When that percentile would not lie above the median (fewer than twenty
    samples), there is no tail to speak of: the maximum is returned with
    percentile 100, and the sample count printed beside it says so.
    """
    count = len(values)
    ordered = sorted(values)
    k = count - TAIL_BEYOND  # the k-th smallest sample has TAIL_BEYOND beyond it
    if 2 * k < count:
        return (ordered[-1] if ordered else 0.0), 100.0
    return ordered[k - 1], 100.0 * k / count


class SetupTimer:
    """Wall time for a fresh interpreter to import the package and its CLI,
    and the machine's speed at starting interpreters.

    Samples are taken at the start and again after every timed operation,
    so they share the machine's state with the operations. Each import
    sample is paired with a start of the reference command ``REF_CMD``,
    which imports the same third-party and standard modules but no program
    code. The machine's speed at starting interpreters drifts by a fifth
    and more over minutes, and the reference drifts with it. One untimed
    start of each command first writes the byte-code caches, so every timed
    sample sees the same files.
    """

    CMD = [sys.executable, "-c", "import pilegame, pilegame.cli"]
    REF_CMD = [sys.executable, "-c", "import csv, fractions, json, click"]

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.ref_samples: list[float] = []
        _time_child(self.CMD)
        _time_child(self.REF_CMD)
        self.sample(SETUP_AT_START)

    def sample(self, count: int = SETUP_PER_OP) -> None:
        for _ in range(count):
            self.samples.append(_time_child(self.CMD))
            self.ref_samples.append(_time_child(self.REF_CMD))

    def median(self) -> float:
        """Median import time, rescaled to a machine where the reference takes ``REF_S``."""
        return median(self.samples) * REF_S / median(self.ref_samples)


def _time_child(cmd: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=CHILD_ENV, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def probed(fn, probe, probe_s: float):
    """Run ``fn()`` while sampling the machine's speed with ``probe()``.

    Returns ``(result, seconds, rescaled seconds)``. ``seconds`` is the wall
    time minus the probes' own time. The vCPUs of a shared host change speed
    by a third and more, for seconds to minutes at a time, and an operation
    slows with a probe that does the same kind of work between its steps.
    The rescaled time is ``seconds * probe_s / (median probe time during the
    call)``: the operation's time on a machine where the probe takes
    ``probe_s``. A call too short to be probed is not rescaled.
    """
    samples: list[float] = []

    def tick(signum, frame) -> None:
        start = time.perf_counter()
        probe()
        samples.append(time.perf_counter() - start)

    previous = signal.signal(signal.SIGVTALRM, tick)
    signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_S, PROBE_EVERY_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        elapsed = time.perf_counter() - start
        signal.signal(signal.SIGVTALRM, previous)
    seconds = elapsed - sum(samples)
    scale = probe_s / median(samples) if samples else 1.0
    return result, seconds, seconds * scale


def peak_rss_mb() -> float:
    """Larger of this process's and its waited-for children's peak RSS."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "click": metadata.version("click"),
        "loadavg_start": list(os.getloadavg()),
    }


def run_until(deadline: float, min_ops: int, op, after=None) -> None:
    """Call ``op()``, then ``after()`` if given, until ``deadline`` has passed.

    At least ``min_ops`` calls happen whatever the deadline, so a short
    ``--seconds`` still yields a median.
    """
    done = 0
    while done < min_ops or time.perf_counter() < deadline:
        op()
        done += 1
        if after is not None:
            after()


class Report:
    """Operation tallies and metrics of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.details: dict = {}
        self.setup: SetupTimer | None = None  # set on untraced runs

    def after_op(self) -> None:
        """Between timed operations: take more set-up samples, if timing set-up."""
        if self.setup is not None:
            self.setup.sample()

    def gate(self, what: str, problems: list[str]) -> None:
        """Count one operation; it failed if its correctness gate found problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)

    def attempt(self, what: str, fn):
        """Run ``fn``; an exception counts as one failed operation and gives None."""
        try:
            return fn()
        except Exception:  # noqa: BLE001 -- a failing operation must not end the run
            self.attempted += 1
            self.failed += 1
            print(f"FAILED {what}:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def tail(self, values: list[float]) -> None:
        """Record the op tail with its percentile and sample count."""
        value, pct = tail(values)
        self.metrics["op_s_tail"] = value
        self.metrics["op_s_tail_pct"] = pct
        self.metrics["op_samples"] = len(values)
