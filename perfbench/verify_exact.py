"""verify-exact: a full ``run_checks(n_max=400, oracle_max=12)``, repeated in
one warm process by a single caller.

This is where the O(n^2) ``Fraction`` routes do almost all the work; rng,
simulate and cli do nothing here. The seed only chooses the tamper index of
the correctness gate.
"""

from __future__ import annotations

import dataclasses
import math
import random
import re
from fractions import Fraction
from time import perf_counter

import pilegame.verify as verify
from pilegame.exact import WinTable, derangements, solve_recursive
from pilegame.verify import (
    check_alternating_bound,
    check_derangement_identity,
    check_tables_equal,
)

from common import Report, median, probed, run_until
from spans import Tracer, per_op_medians

N_MAX = 400
ORACLE_MAX = 12
CHECKS = 16

#: Size of the single-entry tamper; far above the table's resolution, far
#: below the first bound it could break by size alone.
TAMPER = Fraction(1, 10**6)

#: Names ``run_checks`` looks up in ``pilegame.verify``, with their span names.
WRAPPED = {
    "solve_recursive": "exact.solve_recursive",
    "solve_telescoping": "exact.solve_telescoping",
    "closed_form_table": "exact.closed_form_table",
    "gf_table": "exact.gf_table",
    "derangements": "exact.derangements",
    "gap_to_limit": "exact.gap_to_limit",
    "expected_steps": "steps.expected_steps",
    "q_sequence": "steps.q_sequence",
    "oracle_win_prob": lambda args, kwargs: (
        "oracle.win_prob_memo" if kwargs.get("memoize", True) else "oracle.win_prob_nomemo"
    ),
    "oracle_expected_steps": "oracle.expected_steps",
    "check_base_cases": "verify.check_base_cases",
    "check_tables_equal": "verify.check_tables_equal",
    "check_derangement_identity": "verify.check_derangement_identity",
    "check_telescoping_differences": "verify.check_telescoping_differences",
    "check_oracle_win_prob": "verify.check_oracle_win_prob",
    "check_oracle_steps": "verify.check_oracle_steps",
    "check_q_recursion": "verify.check_q_recursion",
    "check_steps_vs_q": "verify.check_steps_vs_q",
    "check_alternating_bound": "verify.check_alternating_bound",
    "check_limit_gap": "verify.check_limit_gap",
    "run_checks": "verify.run_checks",
}

#: The speed probe: stdlib ``Fraction`` sums of rationals with 600-digit
#: parts, the kind of work ``run_checks`` does, but no program code.
_PROBE_A = sum(Fraction((-1) ** k, math.factorial(k)) for k in range(301))
_PROBE_B = Fraction(1, math.factorial(301))

#: Nominal time of one probe: a typical median on the measuring machine of
#: RESULTS.md.
PROBE_S = 0.0006


def probe() -> None:
    for _ in range(12):
        _PROBE_A + _PROBE_B
        _PROBE_A - _PROBE_B


#: The three routes ROADMAP item 2 rewrites.
TOP3 = ("exact.closed_form_table", "exact.gf_table", "verify.check_alternating_bound")


def tampered_copy(table: WinTable, n: int) -> WinTable:
    """``table`` with R_n moved so D_n lies further from 1/e.

    D_n sits above 1/e for even n and below it for odd n, with D_{n-1} on
    the other side at distance exactly 1/n! (the alternating bound of row
    n-1 holds with equality). Moving D_n outward therefore breaks that
    bound, whichever n the seed picks.
    """
    r = list(table.r)
    r[n] += TAMPER if n % 2 else -TAMPER
    return dataclasses.replace(table, r=tuple(r))


def _names(detail: str, n: int) -> bool:
    return re.search(rf"\bn={n}\b", detail) is not None


class VerifyExact:
    def __init__(self, seed: int) -> None:
        self.tamper_n = random.Random(seed).randrange(3, N_MAX + 1)
        self.honest = solve_recursive(N_MAX)
        self.tampered = tampered_copy(self.honest, self.tamper_n)
        self.dtable = derangements(N_MAX)
        self.checks_passed = 0

    def gate(self, results) -> list[str]:
        problems = []
        passed = sum(r.passed for r in results)
        self.checks_passed = passed
        if len(results) != CHECKS or passed != CHECKS:
            problems.append(f"{passed}/{len(results)} checks passed, expected {CHECKS}/{CHECKS}")
        n = self.tamper_n
        pair = check_tables_equal("recursive-vs-tampered", self.honest, self.tampered)
        if pair.passed or not _names(pair.detail, n):
            problems.append(f"table tamper at n={n} not caught and named: {pair}")
        ident = check_derangement_identity(self.tampered, self.dtable)
        if ident.passed or not _names(ident.detail, n):
            problems.append(f"derangement tamper at n={n} not caught and named: {ident}")
        if check_alternating_bound(self.tampered).passed:
            problems.append(f"alternating-bound missed the tamper at n={n}")
        return problems

    def one(self, report: Report, times: list[float] | None = None,
            rescaled: list[float] | None = None) -> None:
        """One gated ``run_checks`` call; timed with the speed probe if ``times`` is given."""
        def call():
            if times is None:
                return verify.run_checks(N_MAX, ORACLE_MAX)
            results, seconds, scaled = probed(
                lambda: verify.run_checks(N_MAX, ORACLE_MAX), probe, PROBE_S
            )
            times.append(seconds)
            rescaled.append(scaled)
            return results

        results = report.attempt("run_checks", call)
        if results is not None:
            report.gate("run_checks", self.gate(results))

    def timed(self, report: Report, deadline: float) -> tuple[list[float], list[float]]:
        times: list[float] = []
        rescaled: list[float] = []
        run_until(deadline, 3, lambda: self.one(report, times, rescaled), after=report.after_op)
        return times, rescaled

    def traced(self, report: Report, deadline: float) -> Tracer:
        with Tracer() as tracer:
            for attr, name in WRAPPED.items():
                tracer.wrap(verify, attr, name)

            def op():
                tracer.new_op()
                self.one(report)

            run_until(deadline, 1, op)
        return tracer


def table_bits(table: WinTable) -> int:
    return sum(r.numerator.bit_length() + r.denominator.bit_length() for r in table.r)


def run(seed: int, seconds: float, trace: bool, report: Report) -> Tracer | None:
    bench = VerifyExact(seed)
    verify.run_checks(60, 8)  # warm-up, untimed
    if trace:
        seconds /= 2
        tracer = bench.traced(report, perf_counter() + seconds)
    times, rescaled = bench.timed(report, perf_counter() + seconds)
    p50 = median(times)
    report.metrics["op_s_p50"] = median(rescaled)
    report.details["op_s"] = times
    report.details["op_s_rescaled"] = rescaled
    report.details["tamper_n"] = bench.tamper_n
    if not trace:
        return None

    report.tail(times)
    by_name = per_op_medians(tracer.per_op())
    self_by_layer = per_op_medians(tracer.per_op(by_layer=True, self_time=True))
    self_by_name = per_op_medians(tracer.per_op(self_time=True))
    for attr, name in WRAPPED.items():
        if isinstance(name, str) and attr != "run_checks":
            report.metrics[f"{name}_s"] = by_name.get(name, 0.0)
    for name in ("oracle.win_prob_memo", "oracle.win_prob_nomemo"):
        report.metrics[f"{name}_s"] = by_name.get(name, 0.0)
    for layer, value in self_by_layer.items():
        report.metrics[f"{layer}.self_s"] = value
    report.metrics["verify.run_checks_self_s"] = self_by_name["verify.run_checks"]
    report.metrics["verify.checks_passed"] = bench.checks_passed
    report.metrics["verify.top3_share"] = sum(by_name[k] for k in TOP3) / by_name["verify.run_checks"]
    report.metrics["trace.overhead.verify_s_p50"] = by_name["verify.run_checks"] - p50
    report.metrics["exact.table_bits"] = table_bits(bench.honest)
    return tracer
