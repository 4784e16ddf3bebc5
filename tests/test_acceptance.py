"""Acceptance suite: one test per acceptance criterion.

Each test prints a single "[acceptance] PASS/FAIL <criterion>" line (visible
with ``pytest -s`` or in captured output on failure) and then asserts. All
tolerances are pinned here: analytic checks are exact rational equalities,
the float convergence check allows 2**-48 of slack, and the Monte Carlo
checks use 5-sigma bands (per-criterion false-failure probability below
1e-6).
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import pilegame.verify
from pilegame.exact import (
    FLOAT_SLACK,
    closed_form_table,
    derangements,
    gap_to_limit,
    gf_table,
    solve_recursive,
    solve_telescoping,
)
from pilegame.oracle import oracle_expected_steps, oracle_win_prob
from pilegame.simulate import run_trial_sums
from pilegame.steps import expected_steps, q_sequence

from cli_runner import run_cli

N_MAX = 200
ORACLE_MAX = 12
TRIALS = 1_000_000
SEED = 42


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {status} {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_cross_method_exactness():
    started = time.perf_counter()
    tables = [
        solve_recursive(N_MAX),
        solve_telescoping(N_MAX),
        closed_form_table(N_MAX),
        gf_table(N_MAX),
    ]
    mismatch = next(
        (
            (n, a.method, b.method)
            for a in tables
            for b in tables
            for n in range(N_MAX + 1)
            if a.r[n] != b.r[n]
        ),
        None,
    )
    elapsed = time.perf_counter() - started
    _report(
        "criterion-1 cross-method exactness (n <= 200, zero tolerance)",
        mismatch is None,
        f"elapsed {elapsed:.2f}s" if mismatch is None else f"mismatch {mismatch}",
    )


def test_criterion_2_derangement_identity():
    started = time.perf_counter()
    table = solve_recursive(N_MAX)
    counts = derangements(N_MAX)
    bad = next(
        (
            n
            for n in range(N_MAX + 1)
            if table.d(n) != Fraction(counts[n], math.factorial(n))
        ),
        None,
    )
    elapsed = time.perf_counter() - started
    _report(
        "criterion-2 derangement identity 1 - R_n = d_n/n! (n <= 200)",
        bad is None,
        f"elapsed {elapsed:.2f}s" if bad is None else f"first failure n={bad}",
    )


def test_criterion_3_base_cases():
    table = solve_recursive(2)
    ok = (
        table.r[0] == 0
        and table.r[1] == 1
        and table.r[2] == Fraction(1, 2)
    )
    _report("criterion-3 base cases R_0=0, R_1=1, R_2=1/2", ok)


def test_criterion_4_oracle_win_probabilities():
    table = solve_recursive(ORACLE_MAX)
    bad = next(
        (
            n
            for n in range(ORACLE_MAX + 1)
            if oracle_win_prob(n) != table.d(n)
        ),
        None,
    )
    bad_nomemo = next(
        (
            n
            for n in range(11)
            if oracle_win_prob(n, memoize=False) != table.d(n)
        ),
        None,
    )
    _report(
        "criterion-4 oracle equivalence for win probabilities "
        "(memoized n <= 12, pure walk n <= 10)",
        bad is None and bad_nomemo is None,
        "" if bad is None and bad_nomemo is None
        else f"memoized n={bad}, pure n={bad_nomemo}",
    )


def test_criterion_5_oracle_steps_and_q_recursion():
    steps = expected_steps(N_MAX)
    bad_oracle = next(
        (
            n
            for n in range(1, ORACLE_MAX + 1)
            if oracle_expected_steps(n) != steps.ez_at(n)
        ),
        None,
    )
    seq = q_sequence(N_MAX)
    bad_q = None
    if seq[0] != 0:
        bad_q = 2
    else:
        for i in range(1, len(seq)):
            if (i + 2) * seq[i] != 1 - seq[i - 1]:
                bad_q = i + 2
                break
    bad_diff = next(
        (
            i + 2
            for i, value in enumerate(seq)
            if steps.eq_at(i + 2) != value
        ),
        None,
    )
    ok = bad_oracle is None and bad_q is None and bad_diff is None
    _report(
        "criterion-5 oracle equivalence for steps (n <= 12) and "
        "q-recursion (n <= 200)",
        ok,
        "" if ok else f"oracle n={bad_oracle}, recursion n={bad_q}, "
                      f"difference n={bad_diff}",
    )


def test_criterion_6_convergence_to_inverse_e():
    table = solve_recursive(N_MAX)
    d = [table.d(n) for n in range(N_MAX + 1)]
    bounds = []
    fact = 1
    for j in range(1, N_MAX + 2):
        fact *= j
        bounds.append(Fraction(1, fact))
    bad_pair = next(
        (
            (n, m)
            for n in range(N_MAX + 1)
            for m in range(n + 1, N_MAX + 1)
            if abs(d[n] - d[m]) > bounds[n]
        ),
        None,
    )
    bad_gap = None
    for n in range(21):
        report = gap_to_limit(n, table)
        if Fraction(report.gap) > report.bound + FLOAT_SLACK:
            bad_gap = n
            break
    gap_at_ten = gap_to_limit(10, table).gap
    spot_ok = 2.31e-8 < gap_at_ten < 2.32e-8
    ok = bad_pair is None and bad_gap is None and spot_ok
    _report(
        "criterion-6 convergence: |D_n - D_m| <= 1/(n+1)! (n < m <= 200) and "
        "float gap within bound + 2^-48 (n <= 20)",
        ok,
        f"gap(10) = {gap_at_ten:.4g}" if ok
        else f"pair={bad_pair}, gap n={bad_gap}, gap(10)={gap_at_ten:.4g}",
    )


def test_criterion_7_monte_carlo_agreement():
    started = time.perf_counter()
    table = solve_recursive(12)
    steps = expected_steps(12)
    failures = []
    for n in range(2, 13):
        sums = run_trial_sums(n, TRIALS, seed=SEED, workers=2)
        p_hat = sums.d_wins / TRIALS
        d_exact = float(table.d(n))
        p_band = 5 * math.sqrt(d_exact * (1 - d_exact) / TRIALS)
        if not abs(p_hat - d_exact) < p_band:
            failures.append(f"p_hat n={n}")
        mean = sums.steps_sum / TRIALS
        variance = max(sums.steps_sq_sum / TRIALS - mean * mean, 0.0)
        s_band = 5 * math.sqrt(variance) / 1000  # = 5*sigma/sqrt(trials)
        diff = abs(mean - float(steps.ez_at(n)))
        # n = 2 is degenerate: the step count is always exactly 1, so the
        # sample sigma and the deviation are both exactly zero.
        if not (diff < s_band or diff == 0.0):
            failures.append(f"mean_r_steps n={n}")
    elapsed = time.perf_counter() - started
    _report(
        "criterion-7 Monte Carlo agreement (trials=1e6, seed=42, 5-sigma)",
        not failures,
        f"elapsed {elapsed:.1f}s" if not failures else ", ".join(failures),
    )


def test_criterion_8_cli_reproducibility():
    command = [
        sys.executable, "-m", "pilegame", "simulate",
        "--n", "10", "--trials", "1000000", "--seed", "42", "--workers", "4",
    ]
    first = subprocess.run(command, capture_output=True, check=True)
    second = subprocess.run(command, capture_output=True, check=True)
    ok = first.stdout == second.stdout and len(first.stdout) > 0
    _report(
        "criterion-8 byte-identical stdout for repeated simulate runs",
        ok,
        f"{len(first.stdout)} bytes" if ok else "outputs differ",
    )


def test_criterion_9_verify_command():
    command = [
        sys.executable, "-m", "pilegame", "verify",
        "--n-max", "200", "--oracle-max", "12",
    ]
    clean = subprocess.run(command, capture_output=True, text=True)
    clean_ok = clean.returncode == 0 and "FAIL" not in clean.stdout
    _report(
        "criterion-9a verify --n-max 200 --oracle-max 12 exits 0 with all "
        "checks passing",
        clean_ok,
        clean.stdout.strip().splitlines()[-1] if clean.stdout else "no output",
    )


def test_criterion_9_verify_detects_tampering(monkeypatch):
    import dataclasses

    real = solve_telescoping

    def tampered(n_max):
        table = real(n_max)
        r = list(table.r)
        r[10] = Fraction(1, 3)
        return dataclasses.replace(table, r=tuple(r))

    monkeypatch.setattr(pilegame.verify, "solve_telescoping", tampered)
    result = run_cli(["verify", "--n-max", "30", "--oracle-max", "6"])
    ok = result.exit_code == 1 and "n=10" in result.output
    _report(
        "criterion-9b corrupted table entry makes verify exit 1 naming the n",
        ok,
        f"exit={result.exit_code}",
    )
