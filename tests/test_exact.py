"""Tests for the exact solver paths, derangements, and the 1/e gap."""

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilegame._limits import _whole_ints
from pilegame.exact import (
    _EXACT,
    E_INVERSE,
    WinTable,
    _derangement_counts,
    _factorials_to,
    _times,
    closed_form,
    closed_form_table,
    derangements,
    gap_to_limit,
    gf_table,
    solve,
    solve_recursive,
    solve_telescoping,
)
from pilegame.oracle import oracle_expected_steps, oracle_win_prob
from pilegame.rng import Xoshiro256StarStar
from pilegame.simulate import play_game, run_trial_sums, wilson_interval
from pilegame.steps import _scaled_steps, expected_steps, q_sequence
from pilegame.verify import run_checks
from reference import (
    BRUTE_DERANGEMENTS,
    BRUTE_R,
    D10_COUNT,
    D10_PROB_REDUCED,
    closed_form_by_terms,
    closed_form_from_scratch,
    closed_form_table_reduced_once,
    gf_coefficients_by_convolution,
    gf_coefficients_by_terms,
    gf_running_sum_over_n_max_factorial,
    gf_table_reduced_once,
)


def test_recursive_base_cases():
    table = solve_recursive(2)
    assert table.r == (Fraction(0), Fraction(1), Fraction(1, 2))
    assert table.method == "recursive"


def test_recursive_small_tables():
    assert solve_recursive(0).r == (Fraction(0),)
    assert solve_recursive(1).r == (Fraction(0), Fraction(1))


def test_recursive_matches_brute_force():
    table = solve_recursive(8)
    for n, expected in BRUTE_R.items():
        assert table.r[n] == expected, f"R_{n}"


def test_recursive_known_values():
    table = solve_recursive(5)
    assert table.r[3] == Fraction(2, 3)
    assert table.r[4] == Fraction(5, 8)
    assert table.r[5] == Fraction(19, 30)


def test_telescoping_base_cases():
    assert solve_telescoping(1).r == (Fraction(0), Fraction(1))


def test_telescoping_matches_brute_force():
    table = solve_telescoping(8)
    for n, expected in BRUTE_R.items():
        assert table.r[n] == expected, f"R_{n}"


def test_telescoping_difference_law():
    """R_n - R_{n-1} = (-1)^(n+1)/n! exactly, well beyond the frozen range."""
    table = solve_telescoping(100)
    fact = 1
    for n in range(1, 101):
        fact *= n
        assert table.r[n] - table.r[n - 1] == Fraction((-1) ** (n + 1), fact)


def test_closed_form_values():
    assert closed_form(0) == 0
    assert closed_form(2) == Fraction(1, 2)
    assert closed_form(4) == Fraction(5, 8)
    for n, expected in BRUTE_R.items():
        assert closed_form(n) == expected


def test_closed_form_complement_is_derangement_prob():
    # D_4 = 3/8 = 9/24 = d_4/4!
    assert 1 - closed_form(4) == Fraction(9, 24)
    assert 1 - closed_form(4) == Fraction(derangements(4)[4], math.factorial(4))


def test_gf_coefficients_values():
    coeffs = gf_table(5).r
    assert coeffs[0] == 0
    assert coeffs[2] == Fraction(1, 2)
    assert coeffs[5] == Fraction(19, 30)


def test_gf_matches_brute_force():
    coeffs = gf_table(8).r
    for n, expected in BRUTE_R.items():
        assert coeffs[n] == expected, f"coefficient {n}"


def test_all_methods_agree_exactly():
    n_max = 60
    tables = [
        solve_recursive(n_max),
        solve_telescoping(n_max),
        closed_form_table(n_max),
        gf_table(n_max),
    ]
    for n in range(n_max + 1):
        values = {t.r[n] for t in tables}
        assert len(values) == 1, f"methods disagree at n={n}: {values}"


def test_integer_routes_match_per_term_fraction_sums():
    """The integer-scaled closed form and gf equal per-term Fraction sums."""
    for n in range(81):
        assert closed_form(n) == closed_form_by_terms(n), f"closed_form({n})"
        assert gf_table(n).r == gf_coefficients_by_terms(n), f"gf_table({n})"


@pytest.mark.parametrize("n_max", [0, 1, 2, 81, 400, 1000])
def test_closed_form_table_equals_sums_from_scratch(n_max):
    expected = tuple(closed_form_from_scratch(n) for n in range(n_max + 1))
    assert closed_form_table(n_max).r == expected


def test_closed_form_equals_sum_from_scratch():
    for n in [*range(81), 2000]:
        assert closed_form(n) == closed_form_from_scratch(n), f"closed_form({n})"


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 600), j=st.integers(0, 50))
def test_closed_form_is_its_table_entry_and_the_derangement_complement(n, j):
    r_n = closed_form(n)
    assert r_n == closed_form_table(n + j).r[n]
    assert 1 - r_n == Fraction(derangements(n)[n], math.factorial(n))


@pytest.mark.parametrize("n_max", [0, 1, 2, 81, 200, 400])
def test_gf_running_sum_equals_the_integer_convolution(n_max):
    assert gf_table(n_max).r == gf_coefficients_by_convolution(n_max)


@pytest.mark.parametrize("n_max", [0, 1, 2, 81, 400, 1000])
def test_gf_table_equals_the_running_sum_over_n_max_factorial(n_max):
    assert gf_table(n_max).r == gf_running_sum_over_n_max_factorial(n_max)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 300))
def test_integer_routes_hand_over_the_scaled_row_and_reduce_on_read(n_max):
    """closed form and gf hold k!*R_k, equal to the recursion's scaled by one
    division, and reduce only when ``r`` is read, to the reduce-once values."""
    recursive_row = tuple(
        map(_times, accumulate(range(1, n_max + 1), mul, initial=1), solve_recursive(n_max).r)
    )
    for route, reduced_once in (
        (closed_form_table, closed_form_table_reduced_once),
        (gf_table, gf_table_reduced_once),
    ):
        table = route(n_max)
        assert table.scaled == recursive_row, route.__name__
        assert "r" not in vars(table), route.__name__
        assert table.r == reduced_once(n_max), route.__name__


def test_all_routes_equal_recursive_at_n_max_1000():
    reference = solve_recursive(1000)
    for route in (solve_telescoping, closed_form_table, gf_table):
        assert route(1000).r == reference.r, route.__name__


def test_solve_dispatch():
    assert solve(5, "recursive").method == "recursive"
    assert solve(5, "telescoping").method == "telescoping"
    assert solve(5, "closed_form").method == "closed_form"
    assert solve(5, "gf").method == "gf"
    with pytest.raises(ValueError):
        solve(5, "magic")


def test_probabilities_stay_in_range():
    table = solve_recursive(120)
    for n in range(121):
        assert 0 <= table.r[n] <= 1
        assert table.r[n] + table.d(n) == 1


def test_derangements_match_enumeration():
    assert list(derangements(7)) == BRUTE_DERANGEMENTS


def test_derangements_small_tables():
    assert derangements(0) == (1,)
    assert derangements(1) == (1, 0)


@pytest.mark.parametrize("count", range(5))
@pytest.mark.parametrize("table", [solve_recursive(5), expected_steps(5)],
                         ids=["WinTable", "StepsTable"])
def test_factorials_give_one_per_value_from_the_first_k(table, count):
    """k! for k = _FIRST, ..., _FIRST + count - 1: nothing for count 0."""
    first = table._FIRST
    assert list(table._factorials(count)) == [math.factorial(k) for k in range(first, first + count)]


@pytest.mark.parametrize("recurrence, n_max", [
    (_derangement_counts, 0), (_derangement_counts, 1), (_derangement_counts, 300),
    (_factorials_to, 0), (_factorials_to, 300), (_scaled_steps, 1), (_scaled_steps, 2),
    (_scaled_steps, 300),
])
def test_decimal_twins_print_as_their_ints(recurrence, n_max):
    """A recurrence run from Decimal(1) in the CLI's exact context gives the
    values it gives from 1, and each prints as the int does."""
    with localcontext(_EXACT):
        twins = list(recurrence(n_max, Decimal(1)))
    ints = list(recurrence(n_max))
    assert all(isinstance(twin, Decimal) for twin in twins)
    assert list(map(str, twins)) == list(map(str, ints))
    assert len(ints) == n_max + (recurrence is not _scaled_steps)


def test_derangement_value_at_ten():
    assert derangements(10)[10] == D10_COUNT


def test_derangement_series_identity():
    """d_n/n! equals the alternating partial sum, for every n up to 30."""
    counts = derangements(30)
    partial = Fraction(0)
    fact = 1
    for n in range(31):
        if n > 0:
            fact *= n
        partial += Fraction((-1) ** n, fact)
        assert Fraction(counts[n], fact) == partial, f"n={n}"


def test_derangement_prob_values():
    # d_n/n!, as README's library example writes it.
    table = derangements(10)
    assert Fraction(table[0], math.factorial(0)) == 1
    assert Fraction(table[2], math.factorial(2)) == Fraction(1, 2)
    assert Fraction(table[3], math.factorial(3)) == Fraction(1, 3)
    assert Fraction(table[10], math.factorial(10)) == D10_PROB_REDUCED


def test_derangement_identity_against_solver():
    solver = solve_recursive(60)
    counts = derangements(60)
    for n in range(61):
        assert solver.d(n) == Fraction(counts[n], math.factorial(n)), f"n={n}"


def test_gap_to_limit_boundary_cases():
    table = solve_recursive(2)
    report = gap_to_limit(0, table)
    assert report.d_n_float == 1.0
    assert report.bound == 1
    assert abs(report.gap - (1.0 - E_INVERSE)) == 0.0
    report = gap_to_limit(1, table)
    assert report.d_n_float == 0.0
    assert report.gap == E_INVERSE
    assert report.bound == Fraction(1, 2)


def test_gap_to_limit_at_ten():
    table = solve_recursive(10)
    report = gap_to_limit(10, table)
    assert report.d_n_float == float(D10_PROB_REDUCED)
    assert 2.31e-8 < report.gap < 2.32e-8
    assert report.bound == Fraction(1, math.factorial(11))
    assert report.gap <= float(report.bound)


def test_gap_to_limit_out_of_range():
    table = solve_recursive(5)
    with pytest.raises(IndexError):
        gap_to_limit(6, table)


def test_win_table_rejects_bad_contents():
    good = (Fraction(0), Fraction(1), Fraction(1, 2))
    with pytest.raises(ValueError):
        WinTable(r=good, method="horoscope")
    with pytest.raises(ValueError):
        WinTable(r=(Fraction(0), Fraction(2), Fraction(1, 2)),
                 method="recursive")  # outside [0, 1]


def test_route_built_tables_check_their_range_on_the_integers():
    with pytest.raises(ValueError, match=r"^R_3 = 7/6 is outside \[0, 1\]$"):
        WinTable._over_factorials((0, 1, 1, 7, 15), method="gf")
    with pytest.raises(ValueError, match=r"^unknown method 'horoscope'$"):
        WinTable._over_factorials((0, 1, 1), method="horoscope")


def test_tables_reject_empty_tuples():
    with pytest.raises(ValueError, match=r"^r is empty; a table holds at least R_0$"):
        WinTable(r=(), method="recursive")


def test_win_table_d_accessor_bounds():
    table = solve_recursive(3)
    assert table.d(3) == Fraction(1, 3)
    with pytest.raises(IndexError, match=r"^n=4 outside table range 0\.\.3$"):
        table.d(4)
    with pytest.raises(IndexError, match=r"^n=-1 outside table range 0\.\.3$"):
        table.d(-1)


#: Every size argument's lower bound, with the whole message a value one
#: below it raises: the entry point, its arguments, and that message.
BELOW_LOWER_BOUND = {
    "solve_recursive": (solve_recursive, (-1,), "n_max must be >= 0, got -1"),
    "solve_telescoping": (solve_telescoping, (-1,), "n_max must be >= 0, got -1"),
    "closed_form": (closed_form, (-1,), "n must be >= 0, got -1"),
    "closed_form_table": (closed_form_table, (-1,), "n_max must be >= 0, got -1"),
    "derangements": (derangements, (-1,), "n_max must be >= 0, got -1"),
    "gf_table": (gf_table, (-1,), "n_max must be >= 0, got -1"),
    "expected_steps": (expected_steps, (0,), "n_max must be >= 1, got 0"),
    "q_sequence": (q_sequence, (1,), "n_max must be >= 2, got 1"),
    "oracle_win_prob": (oracle_win_prob, (-1,), "n must be >= 0, got -1"),
    "oracle_expected_steps": (oracle_expected_steps, (0,), "n must be >= 1, got 0"),
    "play_game": (play_game, (0, None), "n must be >= 1, got 0"),
    "run_trial_sums-n": (run_trial_sums, (0, 10), "n must be >= 1, got 0"),
    "run_trial_sums-trials": (run_trial_sums, (3, 0), "trials must be >= 1, got 0"),
    "run_trial_sums-workers": (run_trial_sums, (3, 10, 0, 0), "workers must be >= 1, got 0"),
    "wilson_interval": (wilson_interval, (0, 0), "trials must be >= 1, got 0"),
    "run_checks": (run_checks, (1, 1), "n_max must be >= 2, got 1"),
    "draw": (Xoshiro256StarStar(0).draw, (0,), "draw bound must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", BELOW_LOWER_BOUND)
def test_arguments_below_their_bound_rejected(case):
    fn, args, message = BELOW_LOWER_BOUND[case]
    with pytest.raises(ValueError) as raised:
        fn(*args)
    assert str(raised.value) == message


def test_whole_ints_sets_nothing_where_there_is_no_limit(monkeypatch):
    """Python 3.10.0-3.10.6 have neither the limit nor its setter."""
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    ran = []
    with _whole_ints():
        ran.append(True)
    assert ran == [True]


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit to lift"
)
def test_whole_ints_restores_the_limit_when_the_block_raises():
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ZeroDivisionError), _whole_ints():
            assert sys.get_int_max_str_digits() == 0
            1 // 0
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)
