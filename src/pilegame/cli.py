"""Command-line surface: solvers, simulator, steps, verification, convergence.

Report contract: stdout carries only the report (CSV with a header row, or
one JSON object with ``rows`` and ``meta``), stderr carries diagnostics.
Rationals are emitted as numerator/denominator integer column pairs so
downstream tools can reproduce the exact checks; float columns are printed
with 17 significant digits and are convenience only. Exit codes: 0 success,
1 verification failure, 2 usage error.
"""

from __future__ import annotations

import sys
from dataclasses import asdict
from fractions import Fraction
from importlib import import_module

import click

from . import _EXPORTS, __version__
from .exact import (
    METHODS, _whole_ints, closed_form, derangements, gap_to_limit, solve, solve_recursive,
)
from .oracle import MEMOIZED_MAX_N
from .rng import MASK64, MAX_PILE


def _lazy(name: str):
    """``pilegame.<name>``, imported from its module on each call, whose
    ``ValueError`` is raised as ``click.UsageError`` (exit 2).

    A command that calls none of them never loads the simulator, the steps
    recursion or the checks. The commands look these names up in the
    module's globals, as they do the exact functions imported above, so
    replacing ``pilegame.cli.<name>`` observes or replaces every call.
    The CLI checks option types and the ranges ``--help`` shows; the library
    owns every other rule, checked before a command writes to stdout.
    Trade-off: a table constructor's ``ValueError`` in ``run_checks``, which
    only a solver fault raises (``verify``'s tests guard that), also exits 2.
    """

    def forward(*args, **kwargs):
        impl = getattr(import_module(f"{__package__}.{_EXPORTS[name]}"), name)
        try:
            return impl(*args, **kwargs)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc

    return forward


expected_steps = _lazy("expected_steps")
run_trials = _lazy("run_trials")
run_checks = _lazy("run_checks")


#: A CSV cell holding any of these must be quoted to read back as one cell.
_NEEDS_QUOTES = frozenset(',"\r\n')


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):  # bool before int: bool is an int subclass
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, str) and not _NEEDS_QUOTES.isdisjoint(value):
        raise ValueError(f"CSV cell {value!r} would need quoting")
    return str(value)


def _emit(rows: list[dict], fmt: str, method: str, seed: int | None = None) -> None:
    """Write non-empty ``rows`` to stdout.

    CSV: a header of the first row's keys, then one line per row, each
    written as soon as it is formatted. Every row has the first row's keys
    in the same order, and no cell needs quoting (``_csv_cell`` raises for
    one that would), so a line is its cells joined by commas. That is what
    ``csv.writer(lineterminator="\\n")`` writes for rows of two or more
    cells, as every report's are; it writes a lone empty cell as ``""``.
    """
    write = sys.stdout.write
    if fmt == "csv":
        write(",".join(map(_csv_cell, rows[0])) + "\n")
        for row in rows:
            write(",".join(map(_csv_cell, row.values())) + "\n")
    else:
        import json

        meta = {"seed": seed, "method": method, "version": __version__}
        write(json.dumps({"rows": rows, "meta": meta}, indent=2) + "\n")


def _format_option(f):
    return click.option(
        "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
        help="Report format written to stdout.",
    )(f)


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Exact solvers, a seedable simulator, and cross-verification for the
    random-vs-deterministic pile game."""
    # Lifted through the subcommand's option parsing and report; restored after.
    click.get_current_context().with_resource(_whole_ints())


@main.command("solve")
@click.option("--n-max", type=click.IntRange(min=0), required=True,
              help="Largest pile size to report.")
@click.option("--method", type=click.Choice(sorted(m.replace("_", "-") for m in METHODS)),
              default="recursive",
              help="Which solver path produces the probabilities.")
@_format_option
def solve_cmd(n_max: int, method: str, fmt: str) -> None:
    """Deterministic player's win probability for every n up to --n-max."""
    table = solve(n_max, method.replace("-", "_"))
    counts = derangements(n_max)
    rows = []
    for n in range(n_max + 1):
        report = gap_to_limit(n, table)
        rows.append({
            "n": n,
            "d_prob_num": report.d_exact.numerator,
            "d_prob_den": report.d_exact.denominator,
            "d_prob_float": report.d_n_float,
            "gap_to_e_inv": report.gap,
            "d_n": counts[n],
            "method": table.method,
        })
    _emit(rows, fmt, table.method)


@main.command()
@click.option("--n", type=click.IntRange(min=1, max=MAX_PILE), required=True,
              help="Initial pile size (1 to 2**64).")
@click.option("--trials", type=click.IntRange(min=1), default=100_000,
              help="Number of independent games.")
@click.option("--seed", type=click.IntRange(min=0, max=MASK64), default=0,
              help="Unsigned 64-bit master seed.")
@click.option("--workers", type=click.IntRange(min=1), default=1,
              help="Number of contiguous trial blocks / generator streams.")
@click.option("--ci-level", type=float, default=0.99,
              help="Wilson interval level (0.90, 0.95, 0.99 or 0.999).")
@_format_option
def simulate(n: int, trials: int, seed: int, workers: int, ci_level: float, fmt: str) -> None:
    """Monte Carlo estimate of the deterministic player's win probability."""
    result = run_trials(n, trials, seed=seed, workers=workers, ci_level=ci_level)
    d_exact = 1 - closed_form(n)
    within_ci = Fraction(result.ci_low) <= d_exact <= Fraction(result.ci_high)
    rows = [{
        **asdict(result),
        "d_exact_num": d_exact.numerator,
        "d_exact_den": d_exact.denominator,
        "within_ci": within_ci,
    }]
    _emit(rows, fmt, "simulate", seed)


@main.command()
@click.option("--n-max", type=click.IntRange(min=1), required=True,
              help="Largest pile size to report.")
@_format_option
def steps(n_max: int, fmt: str) -> None:
    """Expected number of random-player moves E(Z_n) and differences E(Q_n)."""
    table = expected_steps(n_max)
    rows = []
    for n in range(1, n_max + 1):
        ez = table.ez_at(n)
        eq = table.eq_at(n) if n >= 2 else None
        rows.append({
            "n": n,
            "ez_num": ez.numerator,
            "ez_den": ez.denominator,
            "eq_num": eq.numerator if eq is not None else None,
            "eq_den": eq.denominator if eq is not None else None,
            "ez_float": float(ez),
        })
    _emit(rows, fmt, "steps")


@main.command()
@click.option("--n-max", type=click.IntRange(min=2), default=200,
              help="Upper pile size for the analytic cross-checks.")
@click.option("--oracle-max", type=click.IntRange(min=0, max=MEMOIZED_MAX_N), default=12,
              help=f"Upper pile size for game-tree comparisons (<= {MEMOIZED_MAX_N}).")
def verify(n_max: int, oracle_max: int) -> None:
    """Run every named cross-check; exit 0 only if all of them pass."""
    results = run_checks(n_max=n_max, oracle_max=oracle_max)
    for result in results:
        sys.stdout.write(f"{result}\n")
    failures = sum(1 for result in results if not result.passed)
    sys.stdout.write(f"{len(results) - failures}/{len(results)} checks passed\n")
    if failures:
        sys.exit(1)


@main.command()
@click.option("--n-max", type=click.IntRange(min=0), required=True,
              help="Largest pile size to report.")
@_format_option
def convergence(n_max: int, fmt: str) -> None:
    """Distance between D_n and 1/e with the factorial decay bound.

    gap_to_e_inv is a double-precision distance, so it may exceed bound by
    up to 2^-48, the float slack of verify's limit-gap check.
    """
    table = solve_recursive(n_max)
    rows = []
    for n in range(n_max + 1):
        report = gap_to_limit(n, table)
        rows.append({
            "n": n,
            "d_prob_float": report.d_n_float,
            "gap_to_e_inv": report.gap,
            "bound": float(report.bound),
        })
    _emit(rows, fmt, "convergence")
