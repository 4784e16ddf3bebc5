"""Named cross-checks tying every computation path to the others.

Each check carries a stable identifier and, on failure, names the first
offending index, so the CLI ``verify`` command (and the acceptance suite
behind it) can pinpoint a disagreement:

* ``base-cases``             -- R_0 = 0, R_1 = 1, R_2 = 1/2 (the rule's one
                               owner: ``WinTable`` does not enforce it)
* ``<a>-vs-<b>``             -- the four solver paths, pairwise, exact equality
* ``derangement-identity``   -- 1 - R_n = d_n / n! for every n (the one owner
                               of the rules on the counts d_n), decided per
                               row as n! - n!*R_n = d_n over integers
* ``telescoping-differences``-- R_n - R_{n-1} = (-1)^(n+1)/n!, decided per
                               row over n!-scaled values
* ``oracle-win-prob``        -- game-tree D_n equals the solvers' D_n
* ``oracle-win-prob-no-memo``-- same, with the pure cache-free tree walk
* ``oracle-steps``           -- game-tree E(Z_n) equals the recursion's
* ``q-recursion``            -- n*E(Q_n) = 1 - E(Q_{n-1}) with E(Q_2) = 0,
                               decided per row over n!-scaled values
* ``steps-vs-q-recursion``   -- summed-recursion differences match
                               q_sequence, decided per row over n!-scaled
                               values
* ``alternating-bound``      -- |D_n - D_m| <= 1/(n+1)! for all n < m, decided
                               by a backward pass over the steps
                               k!*(R_k - R_{k-1}); it reports the same first
                               (n, m) as a scan over all pairs
* ``limit-gap``              -- float distance to 1/e within bound + slack

All equality checks run on exact rationals; only ``limit-gap`` touches
floats, and it compares them exactly after lifting back to rationals.

Every table value is read times its row's factorial: the tables' ``scaled``
rows, n!*R_n and n!*E(Z_n), which a route hands over as built and a table of
``Fraction``s makes with one ``divmod`` per value, and ``_times`` for the
E(Q_n) and the game tree's values. A scaled value is an int where the
value's denominator divides n!, as on every table ``run_checks`` builds, and
otherwise the exact ``Fraction`` n!*value. A table also gives its n!
(``_factorials``) and its steps a_n - n*a_{n-1} (``_difference``); only the
E(Q_n), a route's tuple and not a table, keep a running n! of their own.
So each check is one expression, the row identity itself, e.g.
n!*E(Z_n) - n*((n-1)!*E(Z_{n-1})) = n!*E(Q_n), exact on ints and
``Fraction``s alike: on honest inputs every check runs on integers, and no
value is reduced to a ``Fraction`` unless a check fails and its detail
prints it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from operator import mul

from .exact import (
    FLOAT_SLACK,
    WinTable,
    _times,
    _whole_ints,
    closed_form_table,
    derangements,
    gap_to_limit,
    gf_table,
    solve_recursive,
    solve_telescoping,
)
from .oracle import MEMOIZED_MAX_N, UNMEMOIZED_MAX_N, oracle_expected_steps, oracle_win_prob
from .steps import StepsTable, expected_steps, q_sequence

#: limit-gap is checked for n up to this value (beyond it the exact bound
#: drops far below double resolution and the slack term dominates anyway).
LIMIT_GAP_MAX_N = 20


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check; ``detail`` is empty when it passed."""

    check_id: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        if self.passed:
            return f"PASS {self.check_id}"
        return f"FAIL {self.check_id}: {self.detail}"


def _ok(check_id: str) -> CheckResult:
    return CheckResult(check_id=check_id, passed=True)


def _fail(check_id: str, detail: str) -> CheckResult:
    return CheckResult(check_id=check_id, passed=False, detail=detail)


def check_base_cases(table: WinTable) -> CheckResult:
    expected = {0: Fraction(0), 1: Fraction(1), 2: Fraction(1, 2)}
    for n, value in expected.items():
        if n <= table.n_max and table.r[n] != value:
            return _fail("base-cases", f"R_{n} = {table.r[n]}, expected {value} (n={n})")
    return _ok("base-cases")


def check_tables_equal(check_id: str, a: WinTable, b: WinTable) -> CheckResult:
    """Exact elementwise equality of two solver tables, compared as n!*R_n."""
    if a.n_max != b.n_max:
        return _fail(check_id, f"table sizes differ: {a.n_max} vs {b.n_max}")
    for n, (x, y) in enumerate(zip(a.scaled, b.scaled)):
        if x != y:
            return _fail(
                check_id,
                f"{a.method} gives {a.r[n]} but {b.method} gives {b.r[n]} at n={n}",
            )
    return _ok(check_id)


def check_derangement_identity(table: WinTable, counts: tuple[int, ...]) -> CheckResult:
    """1 - R_n must equal d_n/n! exactly for every n in the table.

    ``counts`` is (d_0, ..., d_{n_max}) from ``derangements``; a wrong or
    negative count fails here, naming n. Each row is decided as
    n! - n!*R_n = d_n.
    """
    if table.n_max != len(counts) - 1:
        return _fail(
            "derangement-identity",
            f"table sizes differ: {table.n_max} vs {len(counts) - 1}",
        )
    rows = zip(table.scaled, counts, table._factorials(len(counts)))
    for n, (scaled, d_n, fact) in enumerate(rows):
        if fact - scaled != d_n:
            return _fail(
                "derangement-identity",
                f"1 - R_{n} = {table.d(n)} but d_{n}/{n}! = {Fraction(d_n, fact)} (n={n})",
            )
    return _ok("derangement-identity")


def check_telescoping_differences(table: WinTable) -> CheckResult:
    """R_n - R_{n-1} = (-1)^(n+1)/n! exactly, for n >= 1.

    Each row is decided on the table's scaled row as
    n!*R_n - n*((n-1)!*R_{n-1}) = (-1)^(n+1), over integers on an honest
    table. Where R_0 is not an integer the row holds ``Fraction``s, and the
    same expression decides it.
    """
    for n in range(1, table.n_max + 1):
        step = 1 if n % 2 else -1
        if table._difference(n) != step:
            return _fail(
                "telescoping-differences",
                f"R_{n} - R_{n - 1} = {table.r[n] - table.r[n - 1]}, "
                f"expected {Fraction(step, math.factorial(n))} (n={n})",
            )
    return _ok("telescoping-differences")


def check_oracle_win_prob(table: WinTable, oracle_max: int, memoize: bool) -> CheckResult:
    check_id = "oracle-win-prob" if memoize else "oracle-win-prob-no-memo"
    for n in range(min(oracle_max, table.n_max) + 1):
        tree_value = oracle_win_prob(n, memoize=memoize)
        if tree_value != table.d(n):
            return _fail(
                check_id,
                f"game tree gives D_{n} = {tree_value}, solver gives {table.d(n)} (n={n})",
            )
    return _ok(check_id)


def check_oracle_steps(steps: StepsTable, oracle_max: int) -> CheckResult:
    """The game tree's E(Z_n) equals the table's, compared as n!*E(Z_n)."""
    piles = range(1, min(oracle_max, steps.n_max) + 1)
    for n, fact in zip(piles, steps._factorials(steps.n_max)):
        tree_value = oracle_expected_steps(n)
        if _times(fact, tree_value) != steps.scaled[n - 1]:
            return _fail(
                "oracle-steps",
                f"game tree gives E(Z_{n}) = {tree_value}, "
                f"recursion gives {steps.ez_at(n)} (n={n})",
            )
    return _ok("oracle-steps")


def check_q_recursion(qseq: tuple[Fraction, ...]) -> CheckResult:
    """The first-order identity on the sequence produced by q_sequence.

    Each row is decided as n*(n!*E(Q_n)) = n! - n*((n-1)!*E(Q_{n-1})), over
    integers while the rows before it hold.
    """
    if not qseq:
        return _fail("q-recursion", "no E(Q_2), expected 0 (n=2)")
    if qseq[0] != 0:
        return _fail("q-recursion", f"E(Q_2) = {qseq[0]}, expected 0 (n=2)")
    fact = 2  # n!
    before = 0  # (n-1)!*E(Q_{n-1}), from E(Q_2) = 0
    for i in range(1, len(qseq)):
        n = i + 2
        fact *= n
        scaled = _times(fact, qseq[i])
        if n * scaled != fact - n * before:
            return _fail(
                "q-recursion",
                f"{n}*E(Q_{n}) = {n * qseq[i]} but 1 - E(Q_{n - 1}) = "
                f"{1 - qseq[i - 1]} (n={n})",
            )
        before = scaled
    return _ok("q-recursion")


def check_steps_vs_q(steps: StepsTable, qseq: tuple[Fraction, ...]) -> CheckResult:
    """Differences of the summed recursion must match the q_sequence values.

    Each row is decided as n!*E(Z_n) - n*((n-1)!*E(Z_{n-1})) = n!*E(Q_n),
    over integers on honest inputs. E(Q_n) is an input that may carry any
    denominator while every row holds; its scaled value, and the table's,
    are then ``Fraction``s, and the same expression decides the row.
    """
    if steps.n_max != len(qseq) + 1:
        return _fail(
            "steps-vs-q-recursion",
            f"table sizes differ: {steps.n_max} vs {len(qseq) + 1}",
        )
    fact = 1  # n!, for E(Q_n): q_sequence is a route's tuple, not a table
    for n, value in enumerate(qseq, start=2):
        fact *= n
        if steps._difference(n) != _times(fact, value):
            return _fail(
                "steps-vs-q-recursion",
                f"difference table gives E(Q_{n}) = {steps.eq_at(n)}, "
                f"first-order recursion gives {value} (n={n})",
            )
    return _ok("steps-vs-q-recursion")


def check_alternating_bound(table: WinTable) -> CheckResult:
    """|D_n - D_m| <= 1/(n+1)! for every pair n < m, in exact arithmetic.

    Decided on the table's scaled row a_k = k!*R_k through its steps
    e_k = a_k - k*a_{k-1} = k!*(R_k - R_{k-1}), read from
    ``WinTable._difference``, which are +-1 on an honest table.
    P_n = (n+1)!*max_{m>n} (R_m - R_n), and N_n the same with min,
    follow backward from X = Y = 0: P_n = e_{n+1} + X/(n+2) and
    N_n = e_{n+1} + Y/(n+2), then X = max(0, P_n) and Y = min(0, N_n). Row n
    fails exactly when P_n > 1 or N_n < -1. X and Y are kept as unreduced
    pairs, with no gcd: on an honest table X is 0 or 1 and Y is 0 or -1. On
    a passing table X's denominator grows only down a run of equal values
    before a step of +1/k!, as a product of the run's n + 2. The recurrence
    holds for any rationals, so a table whose R_k do not all scale to k!
    takes the same pass over ``Fraction`` steps; on a passing one X and Y
    reset to 0 every other row, and no denominator piles up. The pass runs
    down to n = 0, so it finds the smallest failing n, and m comes from an
    ascending scan of that row alone: the same first (n, m) as a scan over
    all pairs, in O(n_max) big-number steps.
    """
    a = table.scaled
    first = None
    x_num = y_num = 0  # X = x_num/x_den >= 0 and Y = y_num/y_den <= 0
    x_den = y_den = 1
    for n in range(table.n_max - 1, -1, -1):
        e = table._difference(n + 1)
        p_den, q_den = x_den * (n + 2), y_den * (n + 2)
        p_num, q_num = e * p_den + x_num, e * q_den + y_num  # P_n and N_n
        if p_num > p_den or q_num < -q_den:
            first = n
        x_num, x_den = (p_num, p_den) if p_num > 0 else (0, 1)
        y_num, y_den = (q_num, q_den) if q_num < 0 else (0, 1)
    if first is None:
        return _ok("alternating-bound")
    n, ms = first, range(first + 1, table.n_max + 1)
    # With ratio = m!/n!, |R_m - R_n|*(n+1)! > 1 reads |a_m - a_n*ratio|*(n+1) > ratio.
    m = next(
        m for m, ratio in zip(ms, accumulate(ms, mul)) if abs(a[m] - a[n] * ratio) * (n + 1) > ratio
    )
    return _fail(
        "alternating-bound",
        f"|D_{n} - D_{m}| = {abs(table.d(n) - table.d(m))} exceeds "
        f"1/{n + 1}! = {Fraction(1, math.factorial(n + 1))} (n={n}, m={m})",
    )


def check_limit_gap(table: WinTable) -> CheckResult:
    """Float gap to 1/e stays within the exact bound plus the float slack."""
    for n in range(min(LIMIT_GAP_MAX_N, table.n_max) + 1):
        report = gap_to_limit(n, table)
        if Fraction(report.gap) > report.bound + FLOAT_SLACK:
            return _fail(
                "limit-gap",
                f"gap {report.gap} exceeds 1/{n + 1}! + 2^-48 (n={n})",
            )
    return _ok("limit-gap")


def run_checks(n_max: int = 200, oracle_max: int = 12) -> list[CheckResult]:
    """Run every named check and return the results in a fixed order.

    Args:
        n_max: Upper pile size for the analytic tables (at least 2).
        oracle_max: Upper pile size for game-tree comparisons; capped at
            ``MEMOIZED_MAX_N`` (and at ``UNMEMOIZED_MAX_N`` for the
            cache-free pass). Must not exceed n_max.

    Returns:
        One CheckResult per named check, all-pass meaning the analytic
        solvers, the combinatorial identity, the game tree, and the
        convergence bounds agree exactly.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if oracle_max < 0 or oracle_max > MEMOIZED_MAX_N:
        raise ValueError(f"oracle_max must be in 0..{MEMOIZED_MAX_N}, got {oracle_max}")
    if oracle_max > n_max:
        raise ValueError(f"oracle_max ({oracle_max}) must not exceed n_max ({n_max})")

    with _whole_ints():  # a detail prints its integers whole
        # Each route is called by name, never through ``exact.solve``, so the
        # four tables stay independent computations.
        recursive = solve_recursive(n_max)
        tables = (recursive, solve_telescoping(n_max), closed_form_table(n_max), gf_table(n_max))
        counts = derangements(n_max)
        steps = expected_steps(n_max)
        qseq = q_sequence(n_max)

        results = [check_base_cases(recursive)]
        results.extend(
            check_tables_equal(f"{a.method}-vs-{b.method}".replace("_", "-"), a, b)
            for a, b in combinations(tables, 2)
        )
        results.append(check_derangement_identity(recursive, counts))
        results.append(check_telescoping_differences(recursive))
        results.append(check_oracle_win_prob(recursive, oracle_max, memoize=True))
        results.append(
            check_oracle_win_prob(recursive, min(oracle_max, UNMEMOIZED_MAX_N), memoize=False)
        )
        results.append(check_oracle_steps(steps, oracle_max))
        results.append(check_q_recursion(qseq))
        results.append(check_steps_vs_q(steps, qseq))
        results.append(check_alternating_bound(recursive))
        results.append(check_limit_gap(recursive))
        return results
