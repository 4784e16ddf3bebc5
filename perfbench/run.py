"""Benchmark for pilegame: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it measures the package in ``src/`` of
that checkout. With ``--trace 0`` it prints the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it runs the workload once with spans
around the calls into each module and prints the per-layer metrics. The last
line of stdout is ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it record the machine and the raw samples. Metric meanings and
which end-to-end metric each per-layer metric should move are in
``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import ROOT, SRC, Report, SetupTimer, machine_record, peak_rss_mb

WORKLOADS = ("verify-exact", "simulate-mc", "cli-report")


def _parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _import_program():
    """Import the package from this checkout's ``src/``; exit non-zero if it is absent."""
    if not (SRC / "pilegame" / "__init__.py").is_file():
        sys.exit(f"error: no pilegame sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import pilegame

    if Path(pilegame.__file__).resolve().parent != SRC / "pilegame":
        sys.exit(f"error: imported pilegame from {pilegame.__file__}, not from {SRC}")
    import pilegame.cli  # noqa: F401 -- every module, before the snapshot below


def main() -> None:
    args = _parse()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _import_program()

    # Imported only now: these modules import the package under test.
    import cli_report
    import simulate_mc
    import verify_exact
    from spans import assert_pristine, snapshot

    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("pilegame")]
    pristine = snapshot(modules)
    workload = {"verify-exact": verify_exact, "simulate-mc": simulate_mc,
                "cli-report": cli_report}[args.workload]
    print(json.dumps({"machine": machine_record(args.workload, args.seed, args.trace)}), flush=True)

    report = Report()
    if not args.trace:
        report.setup = SetupTimer()
    tracer = workload.run(args.seed, args.seconds, bool(args.trace), report)
    assert_pristine(modules, pristine)
    if args.trace:
        report.metrics["cli.boundary_failures"] = cli_report.boundary_failures()
        report.metrics["fail_ratio"] = report.failed / max(report.attempted, 1)
        out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(out)
        report.details["spans_file"] = str(out.relative_to(ROOT))
    else:
        report.metrics["setup_s"] = report.setup.median()
        report.details["setup_s_raw"] = report.setup.samples
        report.details["ref_s_raw"] = report.setup.ref_samples
        report.metrics["peak_rss_mb"] = peak_rss_mb()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in declared:
        name = metric["name"]
        metrics[name] = {"value": report.metrics.get(name, 0), "unit": metric["unit"]}
    report.details["not_measured_here"] = sorted(
        m["name"] for m in declared if m["name"] not in report.metrics
    )
    print(json.dumps({"details": report.details}))
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
