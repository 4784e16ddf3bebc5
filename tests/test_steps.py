"""Tests for the expected random-player move counts."""

from fractions import Fraction
from itertools import accumulate
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilegame.exact import _times
from pilegame.steps import StepsTable, expected_steps, q_sequence
from reference import (
    BRUTE_EQ,
    BRUTE_EZ,
    expected_steps_by_fractions,
    expected_steps_reduced_once,
)


def test_base_cases():
    table = expected_steps(2)
    assert table.ez == (Fraction(1), Fraction(1))
    assert table.eq_at(2) == Fraction(0)


def test_single_entry_table():
    table = expected_steps(1)
    assert table.ez == (Fraction(1),)
    with pytest.raises(IndexError):
        table.eq_at(2)


def test_matches_brute_force():
    table = expected_steps(8)
    for n, expected in BRUTE_EZ.items():
        assert table.ez_at(n) == expected, f"E(Z_{n})"
    for n, expected in BRUTE_EQ.items():
        assert table.eq_at(n) == expected, f"E(Q_{n})"


@pytest.mark.parametrize("n_max", [1, 2, 3, 81, 400, 1000])
def test_matches_fraction_prefix_sums(n_max):
    assert expected_steps(n_max).ez == expected_steps_by_fractions(n_max)


@settings(deadline=None)
@given(st.integers(1, 600))
def test_matches_fraction_prefix_sums_for_any_n_max(n_max):
    assert expected_steps(n_max).ez == expected_steps_by_fractions(n_max)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 300))
def test_table_holds_the_scaled_values_and_reduces_on_read(n_max):
    """The table holds n!*E(Z_n), equal to the Fraction prefix sums' scaled
    by one division, and reduces only when ``ez`` is read."""
    table = expected_steps(n_max)
    factorials = accumulate(range(1, n_max + 1), mul)
    assert table.scaled == tuple(map(_times, factorials, expected_steps_by_fractions(n_max)))
    assert "ez" not in vars(table)
    assert table.ez == expected_steps_reduced_once(n_max)


def test_route_built_table_checks_its_values_on_the_integers():
    with pytest.raises(ValueError, match=r"^E\(Z_2\) must be 1, got 3/2$"):
        StepsTable._over_factorials((1, 3))
    with pytest.raises(ValueError, match=r"^every E\(Z_n\) is at least 1"):
        StepsTable._over_factorials((1, 2, 5))


def test_known_values():
    table = expected_steps(5)
    assert table.ez_at(3) == Fraction(4, 3)
    assert table.ez_at(4) == Fraction(3, 2)
    assert table.ez_at(5) == Fraction(5, 3)


def test_rejects_bad_n_max():
    with pytest.raises(ValueError, match=r"^n_max must be >= 1, got 0$"):
        expected_steps(0)
    with pytest.raises(ValueError, match=r"^n_max must be >= 2, got 1$"):
        q_sequence(1)


def test_q_sequence_values():
    seq = q_sequence(5)
    assert seq == (Fraction(0), Fraction(1, 3), Fraction(1, 6), Fraction(1, 6))


def test_q_sequence_first_order_identity():
    seq = q_sequence(200)
    assert seq[0] == 0
    for i in range(1, len(seq)):
        n = i + 2
        assert n * seq[i] == 1 - seq[i - 1], f"n={n}"


def test_q_sequence_matches_difference_table():
    """The two derivations of E(Q_n) agree exactly up to n = 200."""
    table = expected_steps(200)
    seq = q_sequence(200)
    for i, value in enumerate(seq):
        assert table.eq_at(i + 2) == value, f"n={i + 2}"


def test_steps_strictly_increase_from_three():
    table = expected_steps(200)
    for n in range(3, 201):
        assert 0 < table.eq_at(n) < 1, f"n={n}"
    assert table.eq_at(2) == 0


def test_accessor_bounds():
    table = expected_steps(4)
    with pytest.raises(IndexError, match=r"^n=0 outside table range 1\.\.4$"):
        table.ez_at(0)
    with pytest.raises(IndexError, match=r"^n=5 outside table range 1\.\.4$"):
        table.ez_at(5)
    with pytest.raises(IndexError, match=r"^n=1 outside table range 2\.\.4$"):
        table.eq_at(1)
    with pytest.raises(IndexError, match=r"^n=5 outside table range 2\.\.4$"):
        table.eq_at(5)


def test_table_validation():
    with pytest.raises(ValueError):
        StepsTable(ez=(Fraction(2), Fraction(1)))
    with pytest.raises(ValueError, match=r"^E\(Z_2\) must be 1, got 2$"):
        StepsTable(ez=(Fraction(1), Fraction(2)))
    with pytest.raises(ValueError, match=r"^every E\(Z_n\) is at least 1: one move always happens$"):
        StepsTable(ez=(Fraction(1), Fraction(1), Fraction(1, 2)))


def test_table_rejects_empty_ez():
    with pytest.raises(ValueError, match=r"^ez is empty; a table holds at least E\(Z_1\)$"):
        StepsTable(ez=())
