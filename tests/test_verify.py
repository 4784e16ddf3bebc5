"""Tests for the named cross-check machinery, including tamper detection."""

import dataclasses
import math
import sys
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pilegame.verify
from pilegame.exact import (
    WinTable,
    closed_form_table,
    derangements,
    gf_table,
    solve_recursive,
    solve_telescoping,
)
from pilegame.steps import StepsTable, expected_steps, q_sequence
from pilegame.verify import (
    CheckResult,
    check_alternating_bound,
    check_base_cases,
    check_derangement_identity,
    check_limit_gap,
    check_oracle_steps,
    check_oracle_win_prob,
    check_q_recursion,
    check_steps_vs_q,
    check_tables_equal,
    check_telescoping_differences,
    run_checks,
)
from reference import (
    alternating_bound_by_pairs,
    alternating_bound_over_lcm,
    derangement_identity_cross_multiplied,
    q_recursion_by_fractions,
    steps_vs_q_by_fractions,
    telescoping_differences_by_fractions,
)

EXPECTED_IDS = [
    "base-cases",
    "recursive-vs-telescoping",
    "recursive-vs-closed-form",
    "recursive-vs-gf",
    "telescoping-vs-closed-form",
    "telescoping-vs-gf",
    "closed-form-vs-gf",
    "derangement-identity",
    "telescoping-differences",
    "oracle-win-prob",
    "oracle-win-prob-no-memo",
    "oracle-steps",
    "q-recursion",
    "steps-vs-q-recursion",
    "alternating-bound",
    "limit-gap",
]


def _corrupt_table(table, n, value):
    r = list(table.r)
    r[n] = value
    return dataclasses.replace(table, r=tuple(r))


def _nudged(value, offset):
    """value + offset, clamped to [0, 1] so the table stays a valid WinTable."""
    return min(max(value + offset, Fraction(0)), Fraction(1))


_SIGNED_POWERS_OF_TEN = st.builds(
    lambda sign, k: sign * Fraction(1, 10**k),
    st.sampled_from((1, -1)),
    st.integers(0, 40),
)


@st.composite
def _tampered_tables(draw):
    """solve_recursive(n_max) with 1-3 entries changed, each kept in [0, 1].

    An entry is set to the value of another entry (a tie), moved by
    +-1/10^k, set exactly 1/(min(n, m)+1)! away from some entry m (a tie
    with the bound), or set to an arbitrary fraction in [0, 1], whose
    denominator can bring primes above n_max into the table's common
    denominator. Tampers start at n = 3, so R_0, R_1 and R_2 keep the
    values ``base-cases`` requires and an n_max = 2 table stays honest.
    """
    honest = solve_recursive(draw(st.integers(2, 60)))
    n_max = honest.n_max
    r = list(honest.r)
    if n_max >= 3:
        for n in draw(st.lists(st.integers(3, n_max), min_size=1, max_size=3)):
            kind = draw(st.sampled_from(("tie", "shift", "edge", "arbitrary")))
            if kind == "tie":
                r[n] = r[draw(st.integers(0, n_max))]
            elif kind == "shift":
                r[n] = _nudged(r[n], draw(_SIGNED_POWERS_OF_TEN))
            elif kind == "arbitrary":
                r[n] = draw(st.fractions(0, 1))
            else:
                m = draw(st.integers(0, n_max).filter(lambda m: m != n))
                edge = Fraction(1, math.factorial(min(n, m) + 1))
                r[n] = _nudged(r[m], draw(st.sampled_from((edge, -edge))))
    return dataclasses.replace(honest, r=tuple(r))


@st.composite
def _scaled_tampers(draw):
    """solve_recursive(n_max) with 1-3 of its k!-scaled values a_k = k!*R_k
    changed, every R_k still a multiple of 1/k! in [0, 1].

    An a_k is redrawn anywhere in 0..k!, moved by a few units, or set to
    k*a_{k-1} so that R_k = R_{k-1}. The table is built from the integers,
    as a route builds one, or from the same values as Fractions.
    """
    row = list(solve_recursive(draw(st.integers(2, 60))).scaled)
    for k in draw(st.lists(st.integers(1, len(row) - 1), min_size=1, max_size=3)):
        fact = math.factorial(k)
        kind = draw(st.sampled_from(("redraw", "nudge", "plateau")))
        if kind == "redraw":
            row[k] = draw(st.integers(0, fact))
        elif kind == "nudge":
            row[k] = min(max(row[k] + draw(st.integers(-3, 3)), 0), fact)
        else:
            row[k] = k * row[k - 1]
    if draw(st.booleans()):
        return WinTable._over_factorials(tuple(row), method="recursive")
    r = (Fraction(a, math.factorial(k)) for k, a in enumerate(row))
    return WinTable(r=tuple(r), method="recursive")


@st.composite
def _alternating_bound_inputs(draw):
    """(family, table) for the alternating-bound property.

    ``honest``: a route's table. ``scaled``: a tamper of the k!-scaled
    values, whose scaled row holds only ints. ``offset``: an honest or
    scaled tamper with a nonzero constant added to every R_n (built without
    the range checks), whose scaled row holds ``Fraction``s unless the
    constant is an integer. ``foreign``: a ``_tampered_tables`` table with
    one R_n moved by 1/p, p a prime above n_max + 1, so n!*R_n is a
    ``Fraction``.
    """
    family = draw(st.sampled_from(("honest", "scaled", "offset", "foreign")))
    if family == "honest":
        routes = (solve_recursive, solve_telescoping, closed_form_table, gf_table)
        return family, draw(st.sampled_from(routes))(draw(st.integers(2, 60)))
    if family == "scaled":
        return family, draw(_scaled_tampers())
    if family == "offset":
        base = draw(_scaled_tampers() | st.integers(2, 60).map(solve_recursive))
        offset = draw(st.integers(-2, 2).filter(bool) | st.fractions().filter(bool))
        return family, _unvalidated(
            WinTable, r=tuple(value + offset for value in base.r), method="recursive"
        )
    table = draw(_tampered_tables())
    n = draw(st.integers(0, table.n_max))
    shift = Fraction(1, draw(st.sampled_from(_PRIMES_ABOVE_N_MAX)))
    r = list(table.r)
    r[n] += shift if r[n] + shift <= 1 else -shift
    table = dataclasses.replace(table, r=tuple(r))
    assume(not _all_ints(table.scaled))  # a drawn R_n may already carry p
    return family, table


def _all_ints(row):
    return all(type(value) is int for value in row)


def _assert_exact_row(table):
    """``scaled[i]`` is k!*value exactly, and an int exactly when the value's
    denominator divides k!."""
    values = _values(table)
    for fact, value, scaled in zip(table._factorials(len(values)), values, table.scaled):
        assert scaled == fact * value
        assert (type(scaled) is int) == (fact % value.denominator == 0)


def _is_probable_prime(n):
    """Miller-Rabin over the first twelve prime bases."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if n < 2 or any(n % a == 0 for a in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_denominator_table(n_max):
    """A passing table whose R_n from n = 3 up have distinct prime denominators.

    R_n becomes a/p, with p the first probable prime above 4*(n+3)! and a/p the
    nearest such fraction to the midpoint of R_n and R_{n+2}. That keeps
    R_n on its side of the limit and closer to it, so no pair moves apart
    by more than the honest table allows, and the table's common
    denominator is the product of the primes.
    """
    honest = solve_recursive(n_max + 2)
    r = list(honest.r[:3])
    for n in range(3, n_max + 1):
        p = 4 * math.factorial(n + 3) + 1
        while not _is_probable_prime(p):
            p += 2
        r.append(Fraction(round((honest.r[n] + honest.r[n + 2]) / 2 * p), p))
    return WinTable(r=tuple(r), method=honest.method)


def _unvalidated(cls, **fields):
    """A ``cls`` instance holding ``fields`` as given, skipping its range checks."""
    instance = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(instance, name, value)
    return instance


#: Primes above every n_max that ``_row_check_inputs`` draws.
_PRIMES_ABOVE_N_MAX = (83, 2**31 - 1, 2**61 - 1)


@st.composite
def _row_check_inputs(draw):
    """(kind, table, counts, steps, qseq) for one n_max: honest, tampered,
    shifted, offset or with a foreign E(Q_n).

    A tamper replaces one entry: an R_n, E(Z_n) or E(Q_n) by an arbitrary
    fraction (kept valid for its table), or a count d_n by an arbitrary
    integer. The shift adds 1/p, for a prime p > n_max, to every R_n and
    every E(Z_n): no denominator then divides n!, so every steps-vs-q row
    is decided over ``Fraction``s, yet the differences, and with them
    ``telescoping-differences`` and ``steps-vs-q-recursion``, are unchanged.
    R_1 + 1/p lies above 1 and E(Z_1) + 1/p is not 1, so those tables are
    built without their range checks. The offset adds an arbitrary nonzero
    fraction c to every R_n, again without the range checks: telescoping
    still passes, and derangement-identity fails at 1 - R_0 = 1 - c. A
    foreign E(Q_n), n >= 3, gets + 1/p, the later E(Q) follow the
    recursion from it, and E(Z) is summed from them into a validated
    table: q-recursion fails at that n, and steps-vs-q passes over
    ``Fraction``s from it on.
    """
    n_max = draw(st.integers(2, 80))
    r = list(solve_recursive(n_max).r)
    counts = list(derangements(n_max))
    ez = list(expected_steps(n_max).ez)
    qseq = list(q_sequence(n_max))
    kind = draw(st.sampled_from(("honest", "tamper", "shifted", "offset", "foreign_q")))
    if kind == "shifted":
        shift = Fraction(1, draw(st.sampled_from(_PRIMES_ABOVE_N_MAX)))
        table = _unvalidated(WinTable, r=tuple(v + shift for v in r), method="recursive")
        steps = _unvalidated(StepsTable, ez=tuple(v + shift for v in ez))
        return kind, table, tuple(counts), steps, tuple(qseq)
    if kind == "offset":
        offset = draw(st.fractions().filter(bool))
        table = _unvalidated(WinTable, r=tuple(v + offset for v in r), method="recursive")
        return kind, table, tuple(counts), StepsTable(ez=tuple(ez)), tuple(qseq)
    if kind == "foreign_q":
        assume(n_max >= 3)
        i = draw(st.integers(1, n_max - 2))  # E(Q_n) for n = i + 2
        qseq[i] += Fraction(1, draw(st.sampled_from(_PRIMES_ABOVE_N_MAX)))
        for j in range(i + 1, len(qseq)):
            qseq[j] = (1 - qseq[j - 1]) / (j + 2)
        ez = list(accumulate(qseq, initial=Fraction(1)))
    if kind == "tamper":
        target = draw(st.sampled_from(("r", "counts", "ez", "qseq")))
        if target == "r":
            r[draw(st.integers(0, n_max))] = draw(st.fractions(0, 1))
        elif target == "counts":
            counts[draw(st.integers(0, n_max))] = draw(st.integers(-(10**30), 10**30))
        elif target == "ez" and n_max >= 3:  # E(Z_1) = E(Z_2) = 1 are fixed
            ez[draw(st.integers(2, n_max - 1))] = draw(st.fractions(min_value=1))
        elif target == "qseq":
            qseq[draw(st.integers(0, n_max - 2))] = draw(st.fractions())
    table = WinTable(r=tuple(r), method="recursive")
    return kind, table, tuple(counts), StepsTable(ez=tuple(ez)), tuple(qseq)


class _NoArithmetic(Fraction):
    """A Fraction whose sums, differences and products raise.

    A value that scales to its factorial is read only through its numerator
    and denominator, so a check given these values raises exactly when some
    value does not scale and is multiplied through as a Fraction.
    """

    def _refuse(self, other):
        raise AssertionError(f"Fraction arithmetic on {self}: a row reached the fallback")

    __add__ = __radd__ = __sub__ = __rsub__ = _refuse
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _refuse


HONEST_200 = solve_recursive(200)
DERANGEMENTS_200 = derangements(200)


def test_all_checks_pass_on_honest_inputs():
    results = run_checks(n_max=60, oracle_max=8)
    assert [r.check_id for r in results] == EXPECTED_IDS
    assert all(r.passed for r in results), [str(r) for r in results if not r.passed]


def test_all_checks_pass_at_n_max_1000():
    results = run_checks(n_max=1000, oracle_max=12)
    assert [r.check_id for r in results] == EXPECTED_IDS
    assert all(r.passed for r in results), [str(r) for r in results if not r.passed]


def test_run_checks_validates_arguments():
    with pytest.raises(ValueError):
        run_checks(n_max=1, oracle_max=1)
    with pytest.raises(ValueError):
        run_checks(n_max=200, oracle_max=15)
    with pytest.raises(ValueError):
        run_checks(n_max=10, oracle_max=12)


#: The names in ``pilegame.verify`` that the verify-exact benchmark wraps to
#: time ``run_checks``; its traced run fails on a span that never appears.
WRAPPED_NAMES = [
    "solve_recursive", "solve_telescoping", "closed_form_table", "gf_table", "derangements",
    "gap_to_limit", "expected_steps", "q_sequence", "oracle_win_prob", "oracle_expected_steps",
    "check_base_cases", "check_tables_equal", "check_derangement_identity",
    "check_telescoping_differences", "check_oracle_win_prob", "check_oracle_steps",
    "check_q_recursion", "check_steps_vs_q", "check_alternating_bound", "check_limit_gap",
]


def test_run_checks_calls_the_wrapped_names_through_the_verify_module(monkeypatch):
    called = set()

    def spy(name, real):
        def wrapper(*args, **kwargs):
            called.add(name)
            return real(*args, **kwargs)
        return wrapper

    for name in WRAPPED_NAMES:
        monkeypatch.setattr(pilegame.verify, name, spy(name, getattr(pilegame.verify, name)))
    results = run_checks(20, 4)
    assert called == set(WRAPPED_NAMES)
    assert sum(r.passed for r in results) == 16


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit to lift"
)
def test_run_checks_fails_a_detail_past_the_int_to_str_digit_limit(monkeypatch):
    """A detail holding a 4400-digit integer is a FAIL line, not a ValueError
    from CPython's default 4300-digit limit, and the limit is left as it was."""
    def offset_telescoping(n_max):
        table = solve_telescoping(n_max)
        return _corrupt_table(table, 5, table.r[5] + Fraction(1, 10**4400 + 1))

    monkeypatch.setattr("pilegame.verify.solve_telescoping", offset_telescoping)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # CPython's default, whatever ran before
    try:
        results = run_checks(20, 0)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)
    failed = [str(r) for r in results if not r.passed]
    assert [line.split(":")[0] for line in failed] == [
        "FAIL recursive-vs-telescoping", "FAIL telescoping-vs-closed-form", "FAIL telescoping-vs-gf",
    ]
    assert all(line.endswith("at n=5") and len(line) > 4400 for line in failed)


def test_check_result_renders_both_ways():
    assert str(CheckResult("x", True)) == "PASS x"
    assert str(CheckResult("x", False, "broke at n=3")) == "FAIL x: broke at n=3"


def test_tampered_table_fails_pairwise_check():
    honest = solve_recursive(20)
    tampered = _corrupt_table(solve_recursive(20), 10, Fraction(1, 3))
    result = check_tables_equal("recursive-vs-recursive", honest, tampered)
    assert not result.passed
    assert "n=10" in result.detail


def test_tampered_table_fails_base_cases():
    tampered = _corrupt_table(solve_recursive(5), 3, Fraction(1))
    # base cases themselves are still intact, so that check passes ...
    assert check_base_cases(tampered).passed
    # ... but the telescoping difference law localizes the damage.
    result = check_telescoping_differences(tampered)
    assert not result.passed
    assert "n=3" in result.detail


def test_broken_base_case_fails_base_cases():
    tampered = _corrupt_table(solve_recursive(5), 1, Fraction(0))
    assert str(check_base_cases(tampered)) == (
        "FAIL base-cases: R_1 = 0, expected 1 (n=1)"
    )


@pytest.mark.parametrize("n", [0, 1, 5])
def test_tampered_derangements_fail_identity(n):
    table = solve_recursive(12)
    counts = list(derangements(12))
    counts[n] = math.factorial(n) - counts[n]  # keep d_n/n! inside [0, 1] but wrong
    assert str(check_derangement_identity(table, tuple(counts))) == {
        0: "FAIL derangement-identity: 1 - R_0 = 1 but d_0/0! = 0 (n=0)",
        1: "FAIL derangement-identity: 1 - R_1 = 0 but d_1/1! = 1 (n=1)",
        5: "FAIL derangement-identity: 1 - R_5 = 11/30 but d_5/5! = 19/30 (n=5)",
    }[n]


@pytest.mark.parametrize("counts, line", [
    ((1, -1, 1), "FAIL derangement-identity: 1 - R_1 = 0 but d_1/1! = -1 (n=1)"),
    ((), "FAIL derangement-identity: table sizes differ: 2 vs -1"),
])
def test_derangement_identity_owns_the_rules_on_counts(counts, line):
    assert str(check_derangement_identity(solve_recursive(2), counts)) == line


def test_tampered_table_fails_oracle_comparison():
    tampered = _corrupt_table(solve_recursive(8), 6, Fraction(1, 2))
    result = check_oracle_win_prob(tampered, 8, memoize=True)
    assert not result.passed
    assert "n=6" in result.detail


def test_tampered_steps_fail_oracle_comparison():
    steps = expected_steps(8)
    ez = list(steps.ez)
    ez[5] += Fraction(1, 7)  # n = 6
    tampered = dataclasses.replace(steps, ez=tuple(ez))
    result = check_oracle_steps(tampered, 8)
    assert not result.passed
    assert "n=6" in result.detail


def test_tampered_q_sequence_fails_recursion():
    seq = list(q_sequence(30))
    seq[10] += Fraction(1, 1000)  # n = 12
    result = check_q_recursion(tuple(seq))
    assert not result.passed
    assert "n=12" in result.detail


def test_tampered_q_sequence_fails_consistency():
    steps = expected_steps(30)
    seq = list(q_sequence(30))
    seq[3] += Fraction(1, 1000)  # n = 5
    result = check_steps_vs_q(steps, tuple(seq))
    assert not result.passed
    assert "n=5" in result.detail


def test_tampered_table_fails_alternating_bound():
    tampered = _corrupt_table(solve_recursive(20), 10, Fraction(1, 3))
    result = check_alternating_bound(tampered)
    # m = 2 would meet the bound with equality, so the first m past it is 10.
    assert str(result) == (
        "FAIL alternating-bound: |D_1 - D_10| = 2/3 exceeds 1/2! = 1/2 (n=1, m=10)"
    )


def test_tampered_table_fails_limit_gap():
    tampered = _corrupt_table(solve_recursive(20), 15, Fraction(1, 4))
    result = check_limit_gap(tampered)
    assert not result.passed
    assert "n=15" in result.detail


def test_derangement_identity_fails_on_size_mismatch():
    small_dtable = check_derangement_identity(solve_recursive(40), derangements(2))
    assert str(small_dtable) == "FAIL derangement-identity: table sizes differ: 40 vs 2"
    small_table = check_derangement_identity(solve_recursive(2), derangements(40))
    assert str(small_table) == "FAIL derangement-identity: table sizes differ: 2 vs 40"


def test_tables_equal_fails_on_size_mismatch():
    result = check_tables_equal("recursive-vs-gf", solve_recursive(5), solve_recursive(6))
    assert str(result) == "FAIL recursive-vs-gf: table sizes differ: 5 vs 6"


@pytest.mark.parametrize("qseq, detail", [
    ((Fraction(1, 3), Fraction(2, 9)), "E(Q_2) = 1/3, expected 0 (n=2)"),
    ((), "no E(Q_2), expected 0 (n=2)"),
])
def test_q_recursion_fails_without_a_zero_start(qseq, detail):
    assert str(check_q_recursion(qseq)) == f"FAIL q-recursion: {detail}"


@pytest.mark.parametrize("steps_n_max, q_n_max", [(400, 5), (5, 400)])
def test_steps_vs_q_fails_on_size_mismatch(steps_n_max, q_n_max):
    result = check_steps_vs_q(expected_steps(steps_n_max), q_sequence(q_n_max))
    assert str(result) == (
        f"FAIL steps-vs-q-recursion: table sizes differ: {steps_n_max} vs {q_n_max}"
    )


#: A passing table whose R_5 has a prime denominator, and one with 1/3 added
#: to every R_n: the foreign and offset families, run on every test run.
_HONEST_10 = solve_recursive(10)
_FOREIGN_10 = _corrupt_table(_HONEST_10, 5, _HONEST_10.r[5] + Fraction(1, 2**61 - 1))
_OFFSET_10 = _unvalidated(
    WinTable, r=tuple(value + Fraction(1, 3) for value in _HONEST_10.r), method="recursive"
)


@settings(max_examples=200, deadline=None)
@given(_alternating_bound_inputs())
@example(("foreign", _FOREIGN_10))
@example(("offset", _OFFSET_10))
def test_alternating_bound_matches_pair_scan(inputs):
    """The check gives the line of the scan over all pairs, verdict and first
    (n, m), whether its scaled row holds only ints or also Fractions."""
    family, table = inputs
    _assert_exact_row(table)
    if family in ("honest", "scaled"):
        assert _all_ints(table.scaled)
    if family == "foreign":
        assert not _all_ints(table.scaled)
    line = alternating_bound_by_pairs(table)
    assert str(check_alternating_bound(table)) == line == alternating_bound_over_lcm(table)
    if family == "honest":
        assert line == "PASS alternating-bound"


@pytest.mark.parametrize("n_max", [3, 60, 400])
@pytest.mark.parametrize("last_step", [1, 2])
def test_alternating_bound_on_a_plateau_before_the_last_step(n_max, last_step):
    """R_n = 1/2 from n = 2 to n_max - 1, then one step of last_step/n_max!.

    On the difference pass X runs through 1/n_max, 1/(n_max*(n_max-1)), ...
    down the plateau: the one kind of passing table on which its
    denominator grows. A step of 2/n_max! breaks row n_max - 1 alone.
    """
    fact = math.factorial(n_max)
    half = Fraction(1, 2)
    table = WinTable(
        r=(Fraction(0), Fraction(1), *[half] * (n_max - 2), half + Fraction(last_step, fact)),
        method="recursive",
    )
    n, m = n_max - 1, n_max
    line = "PASS alternating-bound" if last_step == 1 else (
        f"FAIL alternating-bound: |D_{n} - D_{m}| = {Fraction(2, fact)} exceeds "
        f"1/{m}! = {Fraction(1, fact)} (n={n}, m={m})"
    )
    assert str(check_alternating_bound(table)) == alternating_bound_over_lcm(table) == line
    if n_max <= 60:
        assert alternating_bound_by_pairs(table) == line


def _win_table_lines(table):
    """Every check that reads a WinTable, run on ``table``."""
    n_max = table.n_max
    recursive = solve_recursive(n_max)
    return [str(result) for result in (
        check_base_cases(table),
        check_tables_equal("recursive-vs-table", recursive, table),
        check_tables_equal("table-vs-recursive", table, recursive),
        check_derangement_identity(table, derangements(n_max)),
        check_telescoping_differences(table),
        check_oracle_win_prob(table, min(n_max, 8), memoize=True),
        check_oracle_win_prob(table, min(n_max, 8), memoize=False),
        check_alternating_bound(table),
        check_limit_gap(table),
    )]


def _steps_lines(steps):
    qseq = q_sequence(steps.n_max)
    return [str(check_oracle_steps(steps, min(steps.n_max, 8))), str(check_steps_vs_q(steps, qseq))]


def _values(table):
    """A WinTable's ``r`` or a StepsTable's ``ez``."""
    return table.r if isinstance(table, WinTable) else table.ez


def _replaced(table, i, value):
    """``table`` with value i swapped for ``value`` by ``dataclasses.replace``."""
    values = list(_values(table))
    values[i] = value
    return dataclasses.replace(table, **{table._VALUES: tuple(values)})


@settings(deadline=None)
@given(
    route=st.sampled_from((closed_form_table, gf_table, expected_steps)),
    n_max=st.integers(3, 40),
    data=st.data(),
)
def test_route_built_and_fraction_built_tables_take_one_path(route, n_max, data):
    """A route's table and the same values rebuilt as Fractions give the same
    line from every check: as built, with one k!-scaled value changed, and
    after a one-value tamper by ``dataclasses.replace``."""
    if route is expected_steps:
        lines, rebuild, first = _steps_lines, (lambda t: StepsTable(ez=t.ez)), 1
    else:
        lines, rebuild, first = _win_table_lines, (lambda t: WinTable(r=t.r, method=t.method)), 0
    built = route(n_max)
    assert lines(built) == lines(rebuild(route(n_max)))

    i = data.draw(st.integers(2 if first else 1, len(built.scaled) - 1), label="i")
    fact = math.factorial(i + first)
    row = list(built.scaled)
    if first:  # n!*E(Z_n) >= n!
        row[i] = data.draw(st.integers(fact, row[i] + fact), label="t_n")
        moved = type(built)._over_factorials(tuple(row))
    else:  # 0 <= k!*R_k <= k!
        row[i] = data.draw(st.integers(0, fact), label="a_k")
        moved = type(built)._over_factorials(tuple(row), method=built.method)
    assert lines(moved) == lines(rebuild(moved))

    value = data.draw(st.fractions(1, 3) if first else st.fractions(0, 1), label="value")
    assert lines(_replaced(route(n_max), i, value)) == lines(_replaced(rebuild(built), i, value))


@pytest.mark.parametrize("route, value, k", [
    (closed_form_table, Fraction(4, 9), 7),  # R_7
    (gf_table, Fraction(4, 9), 7),
    (expected_steps, Fraction(13, 9), 8),  # E(Z_8)
])
def test_replace_on_a_route_built_table_keeps_no_stale_values(route, value, k):
    table = route(30)
    row, values = table.scaled, _values(table)
    copy = _replaced(table, 7, value)
    assert _values(copy)[7] == value and copy.scaled[7] == math.factorial(k) * value
    assert _values(copy)[:7] + _values(copy)[8:] == values[:7] + values[8:]
    assert copy.scaled[:7] + copy.scaled[8:] == row[:7] + row[8:]
    assert table.scaled == row and _values(table) == _values(route(30))


def test_run_checks_never_reduces_a_route_built_table(monkeypatch):
    """On honest inputs no check reads the Fractions of the closed-form, gf or steps table."""
    built = []

    def keep(route):
        def wrapper(n_max):
            built.append(route(n_max))
            return built[-1]
        return wrapper

    for name in ("closed_form_table", "gf_table", "expected_steps"):
        monkeypatch.setattr(pilegame.verify, name, keep(getattr(pilegame.verify, name)))
    assert all(result.passed for result in run_checks(200, 12))
    assert [sorted(vars(table)) for table in built] == [
        ["method", "scaled"], ["method", "scaled"], ["scaled"],
    ]


@pytest.mark.parametrize("swap", [None, 40])
def test_alternating_bound_over_distinct_prime_denominators(swap):
    """Passes as built; swapping R_40 and R_41 puts R_40 too far from R_42."""
    table = _prime_denominator_table(60)
    if swap is not None:
        r = list(table.r)
        r[swap], r[swap + 1] = r[swap + 1], r[swap]
        table = dataclasses.replace(table, r=tuple(r))
    denominators = {value.denominator for value in table.r[3:]}
    assert len(denominators) == 58 and all(_is_probable_prime(p) for p in denominators)
    assert str(check_alternating_bound(table)) == alternating_bound_by_pairs(table)


@settings(deadline=None)
@given(n=st.integers(3, 200), data=st.data())
def test_single_entry_tamper_is_caught_and_named(n, data):
    honest = HONEST_200.r[n]
    value = data.draw(
        st.fractions(0, 1) | _SIGNED_POWERS_OF_TEN.map(lambda offset: _nudged(honest, offset))
    )
    assume(value != honest)
    tampered = _corrupt_table(HONEST_200, n, value)
    pair = check_tables_equal("recursive-vs-tampered", HONEST_200, tampered)
    identity = check_derangement_identity(tampered, DERANGEMENTS_200)
    assert not pair.passed and pair.detail.endswith(f" at n={n}")
    assert not identity.passed and identity.detail.endswith(f" (n={n})")


@settings(deadline=None)
@given(_row_check_inputs())
def test_integer_row_proofs_equal_the_fraction_loops(inputs):
    kind, table, counts, steps, qseq = inputs
    _assert_exact_row(table)
    _assert_exact_row(steps)
    pairs = [
        (check_derangement_identity(table, counts),
         derangement_identity_cross_multiplied(table, counts)),
        (check_telescoping_differences(table), telescoping_differences_by_fractions(table)),
        (check_q_recursion(qseq), q_recursion_by_fractions(qseq)),
        (check_steps_vs_q(steps, qseq), steps_vs_q_by_fractions(steps, qseq)),
    ]
    for result, line in pairs:
        assert str(result) == line
    if kind != "tamper":
        moved = kind in ("shifted", "offset")  # fails only at 1 - R_0 = 1 - c
        foreign = kind == "foreign_q"
        assert [result.passed for result, _ in pairs] == [not moved, True, not foreign, True]
    if kind in ("shifted", "offset"):
        assert pairs[0][0].detail.endswith("(n=0)")
    if kind == "foreign_q":
        n = next(n for n, (a, b) in enumerate(zip(qseq, q_sequence(steps.n_max)), 2) if a != b)
        assert pairs[2][0].detail.endswith(f"(n={n})")


@pytest.mark.parametrize("n_max", [2, 3, 60, 400])
def test_honest_rows_never_reach_the_fraction_fallback(n_max):
    def sealed(values):
        return tuple(map(_NoArithmetic, values))

    table = WinTable(r=sealed(solve_recursive(n_max).r), method="recursive")
    steps = StepsTable(ez=sealed(expected_steps(n_max).ez))
    qseq = sealed(q_sequence(n_max))
    results = [
        check_derangement_identity(table, derangements(n_max)),
        check_telescoping_differences(table),
        check_q_recursion(qseq),
        check_steps_vs_q(steps, qseq),
    ]
    assert all(result.passed for result in results), [str(r) for r in results]
    offset = Fraction(1, 2**61 - 1)
    shifted = _unvalidated(
        WinTable, r=tuple(v + offset for v in solve_recursive(n_max).r), method="recursive"
    )
    assert check_telescoping_differences(shifted).passed
    with pytest.raises(AssertionError, match="reached the fallback"):
        _corrupt_table(table, 2, _NoArithmetic(1, 3)).scaled
    with pytest.raises(AssertionError, match="reached the fallback"):
        check_telescoping_differences(_corrupt_table(table, 2, _NoArithmetic(1, 3)))
