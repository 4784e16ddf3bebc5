"""Tests for the exhaustive game-tree oracle."""

from fractions import Fraction

import pytest

from pilegame.exact import solve_recursive
from pilegame.oracle import (
    MEMOIZED_MAX_N,
    UNMEMOIZED_MAX_N,
    _cached_walk,
    oracle_expected_steps,
    oracle_win_prob,
)
from pilegame.steps import expected_steps
from pilegame.verify import run_checks
from reference import (
    BRUTE_DERANGEMENTS,
    BRUTE_EZ,
    BRUTE_R,
    brute_force_game,
    count_derangements_by_enumeration,
    oracle_walk_per_branch,
)


def test_reference_self_check():
    """Re-derive the frozen reference tables from the brute-force routines."""
    for n in range(1, 9):
        d_prob, ez = brute_force_game(n)
        assert d_prob == 1 - BRUTE_R[n], f"n={n}"
        assert ez == BRUTE_EZ[n], f"n={n}"
    for n in range(8):
        assert count_derangements_by_enumeration(n) == BRUTE_DERANGEMENTS[n]


def test_win_prob_matches_brute_force():
    for n in range(1, 9):
        assert oracle_win_prob(n) == 1 - BRUTE_R[n], f"n={n}"


def test_win_prob_known_values():
    assert oracle_win_prob(0) == 1  # boundary convention
    assert oracle_win_prob(2) == Fraction(1, 2)
    assert oracle_win_prob(5) == Fraction(11, 30)


def test_expected_steps_known_values():
    assert oracle_expected_steps(1) == 1
    assert oracle_expected_steps(2) == 1
    assert oracle_expected_steps(4) == Fraction(3, 2)


def test_expected_steps_matches_brute_force():
    for n in range(1, 9):
        assert oracle_expected_steps(n) == BRUTE_EZ[n], f"n={n}"


def test_memoized_and_unmemoized_agree():
    for n in range(11):
        assert oracle_win_prob(n) == oracle_win_prob(n, memoize=False), f"n={n}"
    for n in range(1, 11):
        assert oracle_expected_steps(n) == oracle_expected_steps(n, memoize=False), f"n={n}"


@pytest.mark.parametrize("memoize, limit", [(True, MEMOIZED_MAX_N), (False, UNMEMOIZED_MAX_N)])
def test_matches_per_branch_walk_up_to_limit(memoize, limit):
    for n in range(1, limit + 1):
        pair = (oracle_win_prob(n, memoize=memoize), oracle_expected_steps(n, memoize=memoize))
        assert pair == oracle_walk_per_branch(n, memoize=memoize), f"n={n}"


def test_matches_analytic_solver_up_to_limit():
    table = solve_recursive(14)
    steps = expected_steps(14)
    for n in range(15):
        assert oracle_win_prob(n) == table.d(n), f"n={n}"
    for n in range(1, 15):
        assert oracle_expected_steps(n) == steps.ez_at(n), f"n={n}"


def test_depth_guards():
    for quantity in (oracle_win_prob, oracle_expected_steps):
        with pytest.raises(ValueError, match="n=15 exceeds the memoized enumeration limit of 14"):
            quantity(15)
        with pytest.raises(ValueError, match="n=11 exceeds the unmemoized enumeration limit of 10"):
            quantity(11, memoize=False)
        quantity(14)  # at the limit: allowed
        quantity(10, memoize=False)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        oracle_win_prob(-1)
    with pytest.raises(ValueError):
        oracle_expected_steps(0)


def test_zero_pile_result():
    assert oracle_win_prob(0) == 1
    assert oracle_win_prob(0, memoize=False) == 1
    with pytest.raises(ValueError):  # no game, so no step count
        oracle_expected_steps(0, memoize=False)


def test_memoized_walk_visits_each_pile_once_per_process():
    _cached_walk.cache_clear()
    oracle_win_prob(12)  # fills piles 12 and 1..10 on the way
    assert _cached_walk.cache_info().currsize == 11
    run_checks(60, 12)
    assert _cached_walk.cache_info().misses == 12  # piles 1..12
    run_checks(60, 12)
    assert _cached_walk.cache_info().misses == 12


def test_pure_walk_leaves_the_cache_alone():
    before = _cached_walk.cache_info()
    for n in range(UNMEMOIZED_MAX_N + 1):
        oracle_win_prob(n, memoize=False)
    assert _cached_walk.cache_info() == before
