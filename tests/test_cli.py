"""Tests for the command-line surface: formats, exit codes, determinism."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import re
import subprocess
import sys
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pilegame.cli as cli
import pilegame.verify
from pilegame.oracle import MEMOIZED_MAX_N
from pilegame.exact import (
    E_INVERSE, FLOAT_SLACK, METHODS, _factorials_to, _whole_ints, closed_form, derangements, solve,
    solve_recursive, solve_telescoping,
)
from pilegame.rng import MASK64, MAX_PILE
from pilegame.simulate import _INLINE_WORK_LIMIT, Z_BY_LEVEL, SimResult
from pilegame.steps import StepsTable, expected_steps

from cli_runner import run_cli
from reference import csv_report


def _run(*args):
    return run_cli(args)


def _csv_rows(output):
    return list(csv.DictReader(io.StringIO(output)))


def _assert_usage_error(*args, says=""):
    """Exit 2 with nothing on stdout and an ``Error:`` line (holding
    ``says``) on stderr, not a traceback."""
    result = _run(*args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and says in errors[0], result.stderr
    assert "Traceback" not in result.stderr


def test_solve_closed_form_small_table():
    result = _run("solve", "--n-max", "2", "--method", "closed-form")
    assert result.exit_code == 0
    rows = _csv_rows(result.output)
    probs = [(int(r["d_prob_num"]), int(r["d_prob_den"])) for r in rows]
    assert probs == [(1, 1), (0, 1), (1, 2)]
    assert all(r["method"] == "closed_form" for r in rows)


def test_solve_gf_single_row():
    result = _run("solve", "--n-max", "0", "--method", "gf")
    assert result.exit_code == 0
    rows = _csv_rows(result.output)
    assert len(rows) == 1
    assert (int(rows[0]["d_prob_num"]), int(rows[0]["d_prob_den"])) == (1, 1)


def test_solve_row_ten_reduced_fraction_and_count():
    result = _run("solve", "--n-max", "10", "--method", "recursive", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    row = payload["rows"][10]
    # 1334961/3628800 in lowest terms (gcd 81); the raw count is its own column.
    assert (row["d_prob_num"], row["d_prob_den"]) == (16481, 44800)
    assert row["d_n"] == 1334961
    assert payload["meta"]["method"] == "recursive"
    assert payload["meta"]["version"]


def test_solve_rejects_unknown_method():
    _assert_usage_error("solve", "--n-max", "5", "--method", "tarot", says="'--method'")


def test_solve_rejects_negative_n_max():
    _assert_usage_error("solve", "--n-max", "-1", says="'--n-max'")


def test_solve_csv_floats_round_trip():
    result = _run("solve", "--n-max", "6", "--method", "telescoping")
    table = solve_telescoping(6)
    for row in _csv_rows(result.output):
        n = int(row["n"])
        assert float(row["d_prob_float"]) == float(table.d(n))


def _same_cell(text, value):
    """Whether CSV cell ``text`` holds JSON value ``value``."""
    if value is None:
        return text == ""
    if isinstance(value, bool):
        return text == ("true" if value else "false")
    if isinstance(value, int):
        return text == str(value)
    if isinstance(value, float):
        return float(text) == value
    return text == value


@pytest.mark.parametrize("args", [
    *(f"solve --n-max 4 --method {method}" for method in ("recursive", "telescoping",
                                                           "closed-form", "gf")),
    "steps --n-max 4",
    "convergence --n-max 4",
    "simulate --n 5 --trials 200 --seed 3",
    "simulate --n 10001 --trials 200 --seed 3",
])
def test_csv_and_json_agree(args):
    as_csv = _run(*args.split())
    as_json = _run(*args.split(), "--format", "json")
    assert as_csv.exit_code == as_json.exit_code == 0
    csv_rows = _csv_rows(as_csv.output)
    json_rows = json.loads(as_json.output)["rows"]
    assert len(csv_rows) == len(json_rows)
    for csv_row, json_row in zip(csv_rows, json_rows):
        assert list(csv_row) == list(json_row)
        for key, value in json_row.items():
            assert _same_cell(csv_row[key], value), (key, csv_row[key], value)


def test_simulate_rejects_zero_pile():
    _assert_usage_error("simulate", "--n", "0", "--trials", "10", says="'--n'")


def test_simulate_rejects_unsupported_ci_level():
    # The message is the library's: run_trials owns the rule.
    _assert_usage_error("simulate", "--n", "3", "--trials", "10", "--ci-level", "0.98",
                        says="unsupported ci_level 0.98; choose from [0.9, 0.95, 0.99, 0.999]")


def test_simulate_pile_of_one():
    result = _run("simulate", "--n", "1", "--trials", "1000", "--seed", "9",
                  "--format", "json")
    assert result.exit_code == 0
    row = json.loads(result.output)["rows"][0]
    assert row["p_hat"] == 0.0
    assert row["d_wins"] == 0
    assert (row["d_exact_num"], row["d_exact_den"]) == (0, 1)
    assert row["within_ci"] is True


def test_simulate_reports_exact_probability_columns():
    result = _run("simulate", "--n", "5", "--trials", "2000", "--seed", "3")
    row = _csv_rows(result.output)[0]
    assert (int(row["d_exact_num"]), int(row["d_exact_den"])) == (11, 30)
    assert row["within_ci"] in {"true", "false"}


@pytest.mark.parametrize("n", [10_001, 2**64])
def test_simulate_above_the_cap_leaves_the_exact_cells_empty(n):
    args = ("simulate", "--n", str(n), "--trials", "1000", "--seed", "1")
    result = _run(*args)
    assert result.exit_code == 0, result.output
    row = _csv_rows(result.output)[0]
    assert (row["d_exact_num"], row["d_exact_den"]) == ("", "")
    assert row["within_ci"] in {"true", "false"}
    row = json.loads(_run(*args, "--format", "json").output)["rows"][0]
    assert (row["d_exact_num"], row["d_exact_den"]) == (None, None)


def test_settled_pile_margin_clears_the_doubles_next_to_one_over_e():
    """Every D_n with n >= ``_SETTLED_PILE`` lies within 1/(_SETTLED_PILE + 1)!
    of 1/e, and so does D_60 within 1/61!; the three doubles nearest 1/e
    lie farther than both margins from D_60, so no double separates D_n from
    D_21."""
    d_60, tail = 1 - closed_form(60), Fraction(1, math.factorial(61))
    margin = Fraction(1, math.factorial(cli._SETTLED_PILE + 1))
    below, above = math.nextafter(E_INVERSE, 0.0), math.nextafter(E_INVERSE, 1.0)
    assert Fraction(below) < d_60 - tail and d_60 + tail < Fraction(above)  # 1/e is between
    for x in (below, E_INVERSE, above):
        assert abs(Fraction(x) - d_60) > margin + tail, x


@pytest.mark.parametrize("n", [22, 10_001])
def test_within_ci_above_the_settled_pile_is_the_exact_verdict(n, monkeypatch):
    """CI ends on either side of 1/e: ``within_ci`` reads as D_n itself decides."""
    d_n = 1 - closed_form(n)
    below, above = math.nextafter(E_INVERSE, 0.0), math.nextafter(E_INVERSE, 1.0)
    verdicts = []
    for low, high in ((below, E_INVERSE), (E_INVERSE, above)):
        result = SimResult(n=n, trials=10, d_wins=4, p_hat=low, ci_low=low, ci_high=high,
                           ci_level=0.99, mean_r_steps=1.0, seed=0, workers=1)
        monkeypatch.setattr(cli, "run_trials", lambda *args, result=result, **kwargs: result)
        row = _csv_rows(_run("simulate", "--n", str(n), "--trials", "10").output)[0]
        verdicts.append(row["within_ci"])
        assert row["within_ci"] == ("true" if Fraction(low) <= d_n <= Fraction(high) else "false")
    assert sorted(verdicts) == ["false", "true"]


def test_simulate_output_is_deterministic():
    args = ("simulate", "--n", "7", "--trials", "30000", "--seed", "42",
            "--workers", "2", "--format", "json")
    assert _run(*args).output == _run(*args).output


def test_steps_small_table():
    result = _run("steps", "--n-max", "3")
    assert result.exit_code == 0
    rows = _csv_rows(result.output)
    assert [(int(r["ez_num"]), int(r["ez_den"])) for r in rows] == [(1, 1), (1, 1), (4, 3)]
    assert rows[0]["eq_num"] == ""  # E(Q_1) does not exist
    assert (rows[1]["eq_num"], rows[1]["eq_den"]) == ("0", "1")


def test_steps_final_row_value():
    rows = _csv_rows(_run("steps", "--n-max", "5").output)
    assert (int(rows[-1]["ez_num"]), int(rows[-1]["ez_den"])) == (5, 3)


def test_steps_rejects_zero():
    _assert_usage_error("steps", "--n-max", "0", says="'--n-max'")


def test_steps_json_uses_null_for_missing_difference():
    payload = json.loads(_run("steps", "--n-max", "2", "--format", "json").output)
    assert payload["rows"][0]["eq_num"] is None
    assert payload["rows"][1]["eq_num"] == 0


def test_convergence_gap_below_bound_in_every_row():
    result = _run("convergence", "--n-max", "12", "--format", "json")
    assert result.exit_code == 0
    rows = json.loads(result.output)["rows"]
    assert len(rows) == 13
    assert abs(rows[0]["gap_to_e_inv"] - 0.632) < 1e-3
    for row in rows:
        assert row["gap_to_e_inv"] <= row["bound"], f"n={row['n']}"


def test_convergence_gap_within_bound_plus_float_slack_to_forty():
    """The gap is a double-precision distance: it may pass ``bound`` by up
    to 2^-48, and at n = 17 it does."""
    result = _run("convergence", "--n-max", "40", "--format", "json")
    assert result.exit_code == 0
    rows = json.loads(result.output)["rows"]
    assert len(rows) == 41
    for row in rows:
        gap, bound = Fraction(row["gap_to_e_inv"]), Fraction(row["bound"])
        assert gap <= bound + FLOAT_SLACK, f"n={row['n']}"
    assert [row["n"] for row in rows if row["gap_to_e_inv"] > row["bound"]] == [17]


def test_verify_passes_and_exits_zero():
    result = _run("verify", "--n-max", "50", "--oracle-max", "6")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "16/16 checks passed"


def test_verify_rejects_oracle_bound_overrun():
    _assert_usage_error("verify", "--oracle-max", "15", says="'--oracle-max'")


def test_verify_rejects_oracle_above_n_max():
    # The message is the library's: run_checks owns the rule.
    _assert_usage_error("verify", "--n-max", "5", "--oracle-max", "10",
                        says="oracle_max (10) must not exceed n_max (5)")


def test_verify_detects_tampered_table(monkeypatch):
    """Corrupting one solver entry must flip the exit code and name the n."""

    def tampered(n_max):
        table = solve_telescoping(n_max)
        r = list(table.r)
        r[10] = Fraction(1, 3)
        return dataclasses.replace(table, r=tuple(r))

    monkeypatch.setattr(pilegame.verify, "solve_telescoping", tampered)
    result = _run("verify", "--n-max", "30", "--oracle-max", "6")
    assert result.exit_code == 1
    assert "FAIL recursive-vs-telescoping" in result.output
    assert "n=10" in result.output
    # The whole report, byte for byte: every line, the count and its newline.
    assert result.stdout == (
        "PASS base-cases\n"
        "FAIL recursive-vs-telescoping: recursive gives 28319/44800 but telescoping gives 1/3"
        " at n=10\n"
        "PASS recursive-vs-closed-form\n"
        "PASS recursive-vs-gf\n"
        "FAIL telescoping-vs-closed-form: telescoping gives 1/3 but closed_form gives"
        " 28319/44800 at n=10\n"
        "FAIL telescoping-vs-gf: telescoping gives 1/3 but gf gives 28319/44800 at n=10\n"
        "PASS closed-form-vs-gf\n"
        "PASS derangement-identity\n"
        "PASS telescoping-differences\n"
        "PASS oracle-win-prob\n"
        "PASS oracle-win-prob-no-memo\n"
        "PASS oracle-steps\n"
        "PASS q-recursion\n"
        "PASS steps-vs-q-recursion\n"
        "PASS alternating-bound\n"
        "PASS limit-gap\n"
        "13/16 checks passed\n"
    )
    assert result.stderr == ""


def test_help_lists_all_subcommands():
    result = _run("--help")
    for command in ("solve", "simulate", "steps", "verify", "convergence"):
        assert command in result.output


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_solve_large_n_max_prints_exact_columns(fmt):
    # From n_max = 1559 on, d_n has more digits than CPython's default
    # int-to-str limit allows.
    result = _run("solve", "--n-max", "1600", "--format", fmt)
    assert result.exit_code == 0, result.output[-500:]
    with _whole_ints():
        if fmt == "json":
            last = json.loads(result.output)["rows"][-1]
        else:
            last = _csv_rows(result.output)[-1]
        assert int(last["n"]) == 1600
        d_exact = solve_recursive(1600).d(1600)
        assert int(last["d_prob_num"]) == d_exact.numerator
        assert int(last["d_prob_den"]) == d_exact.denominator
        assert int(last["d_n"]) == derangements(1600)[1600]


#: The cells of each report that hold big integers.
_BIG_CELLS = {
    "solve": ("d_prob_num", "d_prob_den", "d_n"),
    "steps": ("ez_num", "ez_den", "eq_num", "eq_den"),
}


def _big_cells(command, fmt, *options):
    """The big integer cells of a report, as the text each prints as in CSV."""
    result = _run(command, *options, "--format", fmt)
    assert result.exit_code == 0, result.output
    if fmt == "csv":
        rows = _csv_rows(result.output)
    else:  # the JSON value of a cell, in the text CSV writes for it
        rows = [{key: "" if value is None else str(value) for key, value in row.items()}
                for row in json.loads(result.output)["rows"]]
    return [tuple(row[key] for key in _BIG_CELLS[command]) for row in rows]


def _route_cells(command, table, counts=None):
    """What ``_big_cells`` must give: ``str`` of the route's ints."""
    if command == "solve":
        return [(str(table.d(n).numerator), str(table.d(n).denominator), str(counts[n]))
                for n in range(table.n_max + 1)]
    return [(str(table.ez_at(n).numerator), str(table.ez_at(n).denominator),
             *((str(table.eq_at(n).numerator), str(table.eq_at(n).denominator)) if n >= 2
               else ("", "")))
            for n in range(1, table.n_max + 1)]


@settings(max_examples=25, deadline=None)
@example(400, "recursive", "csv")
@example(400, "gf", "json")
@example(400, "steps", "csv")
@given(st.integers(0, 400), st.sampled_from([*METHODS, "steps"]), st.sampled_from(["csv", "json"]))
def test_big_cells_print_the_routes_ints(n_max, command, fmt):
    """Every big cell of ``solve`` (each method) and ``steps`` is ``str`` of
    the route's int, whether it printed from a ``Decimal`` twin (CSV) or from
    the int (JSON)."""
    if command == "steps":
        n_max = max(n_max, 1)
        expected = _route_cells("steps", expected_steps(n_max))
        assert _big_cells("steps", fmt, "--n-max", str(n_max)) == expected
    else:
        expected = _route_cells("solve", solve(n_max, command), derangements(n_max))
        method = command.replace("_", "-")
        assert _big_cells("solve", fmt, "--n-max", str(n_max), "--method", method) == expected


@pytest.mark.parametrize("command", ["solve", "steps"])
def test_csv_big_cells_print_from_decimal_twins(command, monkeypatch):
    """On an honest route every big CSV cell reaches ``_emit`` as a twin."""
    emitted = []
    monkeypatch.setattr(cli, "_emit", lambda rows, *rest: emitted.append(rows))
    assert _run(command, "--n-max", "60").exit_code == 0
    cells = [row[key] for row in emitted[0] for key in _BIG_CELLS[command]
             if row[key] is not None]
    assert cells and all(isinstance(cell, Decimal) for cell in cells)


def _solve_with(r_10):
    """``cli.solve`` whose table holds ``r_10`` as R_10."""

    def tampered(n_max, method):
        table = solve(n_max, method)
        r = list(table.r)
        r[10] = r_10
        return dataclasses.replace(table, r=tuple(r))

    return tampered


#: R_10 moved so that D_10's denominator divides 10! (2/3 and one step of
#: 1/10! away from the honest value), and so that it does not (10/11).
_TAMPERED_R_10 = [Fraction(1, 3), 1 - Fraction(derangements(10)[10] + 1, math.factorial(10)),
                  Fraction(1, 11)]


@pytest.mark.parametrize("r_10", _TAMPERED_R_10)
def test_solve_prints_a_tampered_routes_value_through_the_fallback(r_10, monkeypatch):
    monkeypatch.setattr(cli, "solve", _solve_with(r_10))
    table = _solve_with(r_10)(40, "recursive")
    expected = _route_cells("solve", table, derangements(40))
    assert expected[10][:2] == (str((1 - r_10).numerator), str((1 - r_10).denominator))
    for fmt in ("csv", "json"):
        assert _big_cells("solve", fmt, "--n-max", "40") == expected


def test_solve_prints_a_tampered_count_through_the_fallback(monkeypatch):
    counts = list(derangements(40))
    counts[10] += 1
    monkeypatch.setattr(cli, "derangements", lambda n_max: tuple(counts))
    expected = _route_cells("solve", solve_recursive(40), counts)
    assert expected[10][2] == str(derangements(10)[10] + 1)
    for fmt in ("csv", "json"):
        assert _big_cells("solve", fmt, "--n-max", "40") == expected


@pytest.mark.parametrize("build", ["fractions", "scaled"])
def test_steps_prints_a_tampered_tables_values_through_the_fallback(build, monkeypatch):
    """E(Z_10) moved: the rows of E(Z_10), E(Q_10) and E(Q_11) print it."""

    def tampered(n_max):
        table = expected_steps(n_max)
        if build == "fractions":
            ez = list(table.ez)
            ez[9] += Fraction(1, 7)
            return dataclasses.replace(table, ez=tuple(ez))
        scaled = list(table.scaled)
        scaled[9] += 1
        return StepsTable._over_factorials(tuple(scaled))

    monkeypatch.setattr(cli, "expected_steps", tampered)
    table = tampered(40)
    assert table.ez_at(10) != expected_steps(10).ez_at(10)
    expected = _route_cells("steps", table)
    for fmt in ("csv", "json"):
        assert _big_cells("steps", fmt, "--n-max", "40") == expected


def test_twin_context_is_exact_and_traps_every_rounding():
    """A twin's step that rounds raises, so a dropped trap or a lowered
    precision cannot pass silently. (``Decimal(1) / 3`` raises MemoryError at
    this precision before any trap: it would need MAX_PREC digits.)"""
    context = cli._EXACT
    assert (context.prec, context.Emax, context.Emin) == (MAX_PREC, MAX_EMAX, -MAX_EMAX)
    with localcontext(cli._EXACT) as context:
        with pytest.raises(Inexact):
            Decimal("2.5").to_integral_exact()
        # 20! = 2432902008176640000 keeps its value at 18 digits, but only as
        # 2.43290200817664000E+18, which is how it would print.
        context.prec = 18
        with pytest.raises(Rounded):
            list(_factorials_to(20, Decimal(1)))


@given(st.one_of(st.fractions(), st.integers()), st.integers(1, 10**30), st.integers(-2, 2), st.integers(-2, 2))
@example(Fraction(3, 4), 6, 0, 0)  # holds
@example(Fraction(3, 4), 6, 4, 0)  # fact is another multiple of 4, scaled is not 3/4 of it
@example(Fraction(3, 4), 6, 0, 1)  # scaled is one off
def test_cells_take_the_twins_exactly_when_their_ints_hold_the_value(value, g, fact_off,
                                                                     scaled_off):
    """``_cells`` returns the twins over g when fact is a multiple of the
    value's denominator and scaled/fact is the value; else the value's ints."""
    fact = max(value.denominator * g + fact_off, 1)
    scaled = value.numerator * g + scaled_off
    with localcontext(cli._EXACT):
        cells = cli._cells(value, (scaled, Decimal(scaled)), (fact, Decimal(fact)))
    holds = fact % value.denominator == 0 and Fraction(scaled, fact) == value
    assert cells == (value.numerator, value.denominator)
    assert all(type(cell) is (Decimal if holds else int) for cell in cells)
    assert cli._cells(value) == cells
    assert all(type(cell) is int for cell in cli._cells(value))
    assert cli._cells(None, (scaled, Decimal(scaled)), (fact, Decimal(fact))) == (None, None)
    assert cli._cells(None) == (None, None)


@pytest.mark.parametrize("args", [
    *(f"solve --n-max 60 --method {method.replace('_', '-')}" for method in METHODS),
    "steps --n-max 60",
])
def test_json_reports_build_no_twin(args, monkeypatch):
    expected = _run(*args.split(), "--format", "json")

    def no_twin(*args):
        raise AssertionError("a Decimal twin was built")

    monkeypatch.setattr(cli, "Decimal", no_twin)
    result = _run(*args.split(), "--format", "json")
    assert (result.exit_code, result.stdout) == (0, expected.stdout)
    with pytest.raises(AssertionError, match="twin was built"):  # CSV builds them
        _run(*args.split())


def _r5_moved(n_max):
    """``solve_telescoping`` with R_5 moved by 10^-6."""
    table = solve_telescoping(n_max)
    r = list(table.r)
    r[5] += Fraction(1, 10**6)
    return dataclasses.replace(table, r=tuple(r))


#: One command per exit code; only the verify that exits 1 reaches R_5.
EXIT_PATHS = [
    ("solve --n-max 3", 0),
    ("verify --n-max 20 --oracle-max 4", 1),
    ("verify --n-max 5 --oracle-max 10", 2),
]


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit to lift"
)
@pytest.mark.parametrize("args, code", EXIT_PATHS)
def test_command_leaves_the_digit_limit_as_it_found_it(args, code, monkeypatch):
    monkeypatch.setattr(pilegame.verify, "solve_telescoping", _r5_moved)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        result = _run(*args.split())
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)
    assert result.exit_code == code, result.output


def test_simulate_rejects_piles_above_two_to_the_64():
    _assert_usage_error("simulate", "--n", str(2**64 + 1), "--trials", "10",
                        says="Invalid value for '--n'")


#: Usage errors besides the ones above: the bound of every option past its
#: end, a bad choice, a missing required option, an unknown command, and a
#: level no table holds. Each row: arguments, then what the error line says.
USAGE_ERRORS = [
    ("solve --n-max 3 --format xml", "'--format'"),
    ("solve", "'--n-max'"),
    ("steps", "'--n-max'"),
    ("convergence", "'--n-max'"),
    ("convergence --n-max -1", "'--n-max'"),
    ("frobnicate", "No such command 'frobnicate'"),
    ("simulate --n 3 --trials 0", "'--trials'"),
    ("simulate --n 3 --seed -1", "'--seed'"),
    (f"simulate --n 3 --seed {2**64}", "'--seed'"),
    ("simulate --n 3 --workers 0", "'--workers'"),
    ("simulate --n 3 --trials 10 --ci-level nan", "unsupported ci_level nan"),
    ("verify --n-max 1", "'--n-max'"),
    ("verify --oracle-max -1", "'--oracle-max'"),
]


@pytest.mark.parametrize("args, says", USAGE_ERRORS)
def test_usage_error(args, says):
    _assert_usage_error(*args.split(), says=says)


def _head(command=""):
    """What a usage error prints above its ``Error:`` line."""
    if not command:
        return "Usage: main [OPTIONS] COMMAND [ARGS]...\nTry 'main --help' for help.\n\n"
    return f"Usage: main {command} [OPTIONS]\nTry 'main {command} --help' for help.\n\n"


#: The parser's other ways to end: arguments, exit code, and the whole of
#: stderr, frozen from the program (these match click 8's messages).
PARSER_ENDINGS = [
    ("solve --n-max abc", 2,
     _head("solve") + "Error: Invalid value for '--n-max': 'abc' is not a valid integer range.\n"),
    ("simulate --n 3 --ci-level abc", 2,
     _head("simulate") + "Error: Invalid value for '--ci-level': 'abc' is not a valid float.\n"),
    # After "--" every argument is an operand, at the top level and in a command.
    ("-- solve --n-max x", 2,
     _head("solve") + "Error: Invalid value for '--n-max': 'x' is not a valid integer range.\n"),
    ("solve --n-max 3 -- --format", 2,
     _head("solve") + "Error: Got unexpected extra argument (--format)\n"),
    # A command's operands may come between its options.
    ("solve extra --n-max 3", 2, _head("solve") + "Error: Got unexpected extra argument (extra)\n"),
    ("solve --n-max 3 a b", 2, _head("solve") + "Error: Got unexpected extra arguments (a b)\n"),
    ("solve -x", 2, _head("solve") + "Error: No such option '-x'.\n"),
    ("solve -nfoo", 2, _head("solve") + "Error: No such option '-n'.\n"),
    ("solve --n-mx 3", 2,
     _head("solve") + "Error: No such option '--n-mx'. Did you mean '--n-max'?\n"),
    ("verify --n-maxx 3", 2, _head("verify")
     + "Error: No such option '--n-maxx'. (Did you mean one of: '--n-max', '--oracle-max'?)\n"),
    ("solve --zzz", 2, _head("solve") + "Error: No such option '--zzz'.\n"),
    ("--versio", 2, _head() + "Error: No such option '--versio'. Did you mean '--version'?\n"),
    ("solve --help=1", 2, _head("solve") + "Error: Option '--help' does not take a value.\n"),
    ("--version=1", 2, _head() + "Error: Option '--version' does not take a value.\n"),
    ("solve --n-max", 2, _head("solve") + "Error: Option '--n-max' requires an argument.\n"),
    # Ctrl-C while a command runs (see the test).
    ("verify", 1, "\nAborted!\n"),
]


@pytest.mark.parametrize("args, code, stderr", PARSER_ENDINGS)
def test_parser_ending(args, code, stderr, monkeypatch):
    """Every row prints nothing on stdout. ``run_checks`` raises
    ``KeyboardInterrupt``, as Ctrl-C during ``verify`` does; every other row
    ends before a command runs."""

    def interrupted(**kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_checks", interrupted)
    result = _run(*args.split())
    assert (result.exit_code, result.stdout, result.stderr) == (code, "", stderr)


def test_help_restates_the_values_it_names():
    """Help text that repeats a value defined elsewhere: ``--ci-level`` lists
    the keys of ``Z_BY_LEVEL``, and ``--n`` names ``MAX_PILE`` and its own range."""
    options = cli._COMMANDS["simulate"][1]
    levels = re.findall(r"\d+\.\d+", options["--ci-level"][2])
    assert list(map(float, levels)) == sorted(Z_BY_LEVEL)
    low, base, power = map(int, re.fullmatch(r"Initial pile size \((\d+) to (\d+)\*\*(\d+)\)\.",
                                             options["--n"][2]).groups())
    assert base ** power == MAX_PILE
    assert options["--n"][0][1] == f"{low}<=x<={MAX_PILE}"


#: First 16 hex digits of the SHA-256 of stdout. They pin header order, JSON
#: ``meta`` key order and every byte of each report, the help text and the
#: version line: stdout is byte-identical for identical arguments, so a
#: changed digest is a changed output contract. ``run_cli`` lays help out
#: 80 columns wide whatever the terminal.
GOLDEN_STDOUT = {
    "--help": "49712bcc17763ade",
    "--version": "51c8d9f94eea4b43",
    "solve --help": "3e0226b549b6dbb9",
    "simulate --help": "68bae3a1a4fe626d",
    "steps --help": "9f3779d8b6f819f0",
    "verify --help": "78b0e23ac3749108",
    "convergence --help": "11a30128852972a9",
    "solve --n-max 12": "79c7a98be0bf3185",
    "solve --n-max 12 --method telescoping --format json": "265042bab92c0f40",
    "solve --n-max 12 --method closed-form": "15f2b2ccf3510738",
    "solve --n-max 12 --method gf --format json": "2f21e365622d744b",
    "steps --n-max 12 --format json": "88d46eb338caf724",
    "convergence --n-max 20": "a1df61fa795a6c53",
    "verify --n-max 40 --oracle-max 6": "f9b39522ccd00f75",
    "simulate --n 10 --trials 5000 --seed 42 --workers 2 --format json": "c00326c1172053ba",
    # Inline through many full lane batches: the top-byte path, then the
    # 64-bit one (piles above 256).
    "simulate --n 10 --trials 200000 --seed 7": "9c5a05e218232904",
    "simulate --n 10000 --trials 20000 --seed 7 --format json": "9dbf9ea7eea15308",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_STDOUT))
def test_stdout_is_byte_identical_to_golden(args):
    result = _run(*args.split())
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest()[:16] == GOLDEN_STDOUT[args]


def _emitted(rows):
    """What ``_emit`` writes for ``rows`` as CSV."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(rows, "csv", "test")
    return out.getvalue()


_huge = st.integers(10**4300, 10**4400)

#: Every kind of cell a report holds.
cells = st.one_of(
    st.integers(),
    _huge,
    _huge.map(lambda x: -x),
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e300, 5e-324, 1e16, 1.5e-7]),
    st.booleans(),
    st.none(),
    st.sampled_from(METHODS + ("simulate", "steps", "convergence")),
)


@st.composite
def reports(draw):
    # Two or more columns, as every report has: csv.writer writes a row of
    # one empty cell as "" so that it does not read as a blank line.
    names = draw(st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True),
                          min_size=2, max_size=7, unique=True))
    rows = draw(st.lists(st.tuples(*[cells] * len(names)), min_size=1, max_size=5))
    return [dict(zip(names, row)) for row in rows]


@given(reports())
def test_csv_report_is_what_the_csv_module_writes(rows):
    with _whole_ints():
        assert _emitted(rows) == csv_report(rows)


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
def test_csv_cell_that_would_need_quotes_raises(char):
    rows = [{"n": 1, "method": "recursive"}, {"n": 2, "method": f"re{char}cursive"}]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(ValueError, match="would need quoting"):
        cli._emit(rows, "csv", "test")
    assert out.getvalue() == "n,method\n1,recursive\n"


#: The CSV reports of the cli-report benchmark's command mix.
BENCHMARK_CSV_COMMANDS = [
    "solve --n-max 200",
    "solve --n-max 1000",
    "steps --n-max 200",
    "convergence --n-max 20",
    "simulate --n 10 --trials 100000 --seed 1",
]


@pytest.mark.parametrize("args", BENCHMARK_CSV_COMMANDS)
def test_command_csv_is_what_the_csv_module_writes(args, monkeypatch):
    emitted = []
    real = cli._emit

    def spy(rows, *rest):
        emitted.append(rows)
        real(rows, *rest)

    monkeypatch.setattr(cli, "_emit", spy)
    result = _run(*args.split())
    assert result.exit_code == 0
    assert len(emitted) == 1
    assert result.output == csv_report(emitted[0])


#: The names in ``pilegame.cli`` that the cli-report benchmark wraps to time
#: the commands, each with a command that calls it.
WRAPPED_NAMES = {
    "solve": "solve --n-max 5",
    "solve_recursive": "convergence --n-max 5",
    "closed_form": "simulate --n 5 --trials 100",
    "derangements": "solve --n-max 5",
    "gap_to_limit": "convergence --n-max 5",
    "expected_steps": "steps --n-max 5",
    "run_trials": "simulate --n 5 --trials 100",
    "run_checks": "verify --n-max 10 --oracle-max 4",
}


@pytest.mark.parametrize("name", sorted(WRAPPED_NAMES))
def test_commands_call_the_wrapped_names_through_the_cli_module(name, monkeypatch):
    real = getattr(cli, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    result = _run(*WRAPPED_NAMES[name].split())
    assert result.exit_code == 0, result.output
    assert calls


@pytest.mark.parametrize("args", ["verify --n-max 20 --oracle-max 6", "solve --n-max 5"])
def test_click_runner_sees_what_run_cli_sees(args):
    """The benchmark's traced pass calls ``main`` through ``click.testing``."""
    click_testing = pytest.importorskip("click.testing")
    theirs = click_testing.CliRunner().invoke(cli.main, args.split())
    ours = _run(*args.split())
    assert (theirs.exit_code, theirs.stdout) == (ours.exit_code, ours.stdout)
    assert ours.exit_code == 0 and ours.stdout


def test_closed_stdout_exits_141_without_a_traceback():
    """A reader that stops early, as ``| head -1`` does: not exit 1, the code
    of a failed ``verify``, and nothing on stderr."""
    proc = subprocess.Popen([sys.executable, "-m", "pilegame", "solve", "--n-max", "1000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"n,d_prob_num,")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), stderr) == (141, b"")


def _texts(*values):
    return st.sampled_from([str(value) for value in values])


def _range(low, high):
    return st.integers(low, high).map(str)


#: Slow inputs the argv property bounds (see its docstring).
_ARGV_N_MAX, _ARGV_ORACLE_MAX, _ARGV_TRIALS = 60, 6, 500
#: Command -> {flag: (value texts the parser accepts, value texts it rejects)}.
#: Each range is drawn up to its bounds, and a rejected text is a bound - 1
#: or + 1 where the range has one.
_ARGV_FORMAT = {"--format": (_texts("csv", "json"), _texts("xml"))}
_ARGV_OPTIONS = {
    "solve": {
        "--n-max": (_range(0, _ARGV_N_MAX), _texts(-1, "x")),
        "--method": (_texts(*(m.replace("_", "-") for m in METHODS)), _texts("closed_form")),
        **_ARGV_FORMAT,
    },
    "steps": {"--n-max": (_range(1, _ARGV_N_MAX), _texts(0, "x")), **_ARGV_FORMAT},
    "convergence": {"--n-max": (_range(0, _ARGV_N_MAX), _texts(-1, "x")), **_ARGV_FORMAT},
    "verify": {
        "--n-max": (_range(2, _ARGV_N_MAX), _texts(1, "x")),
        "--oracle-max": (_range(0, _ARGV_ORACLE_MAX), _texts(-1, MEMOIZED_MAX_N + 1)),
    },
    "simulate": {
        "--n": (_texts(1, 2, 256, 257, MAX_PILE - 1, MAX_PILE), _texts(0, MAX_PILE + 1, "x")),
        "--trials": (_range(1, _ARGV_TRIALS), _texts(0, "x")),
        "--seed": (_texts(0, 1, MASK64), _texts(-1, MASK64 + 1)),
        "--workers": (_texts(1, 2, 10**20), _texts(0)),
        "--ci-level": (_texts(*Z_BY_LEVEL), _texts(0.5, "nan", "inf", "x")),
        **_ARGV_FORMAT,
    },
}
#: Options whose default is slower than the bounds allow: always given.
_ARGV_SLOW_DEFAULTS = {"verify": {"--n-max", "--oracle-max"}, "simulate": {"--trials"}}


@st.composite
def _argv(draw):
    """A command and its options in any order, with at most one fault: a
    rejected value, a missing required option, an unknown option, or an
    extra argument."""
    command = draw(st.sampled_from(sorted(_ARGV_OPTIONS)))
    table = cli._COMMANDS[command][1]
    required = [flag for flag in _ARGV_OPTIONS[command] if table[flag][1] is None]
    fault = draw(st.sampled_from([None, None, None, "value", "missing", "unknown", "extra"]))
    flags = [flag for flag in _ARGV_OPTIONS[command]
             if flag in required or flag in _ARGV_SLOW_DEFAULTS.get(command, ())
             or draw(st.booleans())]
    if fault == "missing" and required:
        flags.remove(draw(st.sampled_from(required)))
    bad = draw(st.sampled_from(flags)) if fault == "value" else None
    pairs = draw(st.permutations(
        [(flag, draw(_ARGV_OPTIONS[command][flag][flag == bad])) for flag in flags]))
    argv = [command, *(part for pair in pairs for part in pair)]
    if fault in ("unknown", "extra"):
        extra = ["--bogus", "-x", "--n-mx"] if fault == "unknown" else ["extra", "--"]
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(extra)))
    return argv


def test_argv_bounds_start_no_pool():
    """The argv property's ``--trials`` bound keeps every drawn ``simulate`` inline."""
    assert _ARGV_TRIALS * (MAX_PILE + 1).bit_length() <= _INLINE_WORK_LIMIT


@settings(max_examples=400, deadline=2000)
@given(_argv())
def test_every_argv_ends_in_a_report_or_a_usage_error(args):
    """Every drawn argument list ends in exit 0 with an empty stderr and a
    report that parses (CSV rows under their header, JSON with ``rows`` and
    ``meta``, or every check of ``verify`` passed), or in exit 2 with an
    empty stdout and an ``Error:`` line last on stderr. Never a traceback.

    Slow inputs are bounded in the strategy, not skipped:

    * ``--n-max`` is at most 60, as a table's cost grows with it;
    * ``verify``'s ``--oracle-max`` is at most 6, as the game tree's does,
      apart from MEMOIZED_MAX_N + 1, which the parser rejects;
    * ``--trials`` is at most 500, so trials times ``max(n.bit_length(), 4)``
      stays under ``_INLINE_WORK_LIMIT`` even at n = 2**64 + 1, and no pool
      starts.

    ``verify``'s ``--n-max`` and ``--oracle-max`` and ``simulate``'s
    ``--trials`` are always given, because their defaults are larger.
    """
    result = _run(*args)
    assert "Traceback" not in result.output
    if result.exit_code == 2:
        assert result.stdout == "", result.output
        assert result.stderr.splitlines()[-1].startswith("Error:"), result.stderr
        return
    assert (result.exit_code, result.stderr) == (0, ""), result.output
    lines = result.stdout.splitlines()
    if args[0] == "verify":
        passed, total = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1]).groups()
        assert passed == total == str(len(lines) - 1)
        assert all(line.startswith("PASS ") for line in lines[:-1])
    elif "json" in args:
        report = json.loads(result.stdout)
        assert set(report) == {"rows", "meta"} and report["rows"]
    else:
        header, *rows = csv.reader(lines)
        assert rows and all(len(row) == len(header) for row in rows)
