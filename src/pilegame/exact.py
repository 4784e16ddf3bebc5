"""Exact win probabilities for the random-vs-deterministic pile game.

A pile starts with n counters. The random player moves first and removes a
uniformly random number of counters from {1, ..., m} when m remain; the
deterministic player always removes exactly one; whoever empties the pile
wins. R_n is the probability that the random player wins from n counters
and D_n = 1 - R_n the probability that the deterministic player wins.

R_n is computed four independent ways, all in exact rational arithmetic:

* ``solve_recursive``   -- two-term recurrence n*R_n = R_{n-2} + (n-1)*R_{n-1}
* ``solve_telescoping`` -- first-order recursion on differences R_n - R_{n-1}
* ``closed_form``       -- alternating partial sum R_n = 1 - sum_{k<=n} (-1)^k/k!
* ``gf_table``          -- coefficient extraction from a power-series product

``solve_telescoping``, ``closed_form`` and ``gf_table`` evaluate one
alternating sum, R_n = sum_{k=1}^{n} (-1)^(k+1)/k!, three ways. The first
keeps running prefix sums of reduced Fractions; the second evaluates
1 minus the sum from k = 0 by Horner's rule over integers,
s_k = k*s_{k-1} + (-1)^k, so s_k = k! * sum_{j<=k} (-1)^j/j!; the third
expands the generating function (1 - e^{-x})/(1 - x), where the product
with sum_i x^i is a running sum c_k of the n_max!-scaled coefficients of
1 - e^{-x}, each divided exactly by n_max!/k! to give k! times R_k. They
stay separate routes on purpose, each derived from its own formula and
sharing no value with another, so that a slip in one accumulation is caught
by the others.

The closed form's s_k is the derangement count d_k, reached by the
one-term recurrence d_k = k*d_{k-1} + (-1)^k. ``derangements`` counts with
the two-term recurrence d_k = (k-1)(d_{k-1} + d_{k-2}) and shares no value
with it, so the derangement identity still checks one against the other.

``closed_form_table`` and ``gf_table`` work over integers and hand over
their tables k!-scaled: R_k = a_k/k!, held unreduced. Each builds its whole
table with O(n_max) big-integer steps and takes no gcd; a value becomes a
reduced ``Fraction`` only when ``WinTable.r`` is first read, one gcd each.
``verify`` reads the integers a_k (``WinTable.scaled``) and never ``r``
unless a check fails and prints a value.

D_n equals d_n/n! where d_n counts fixed-point-free permutations of n items,
so the module also counts derangements, and D_n converges to 1/e with
alternating-series rate 1/(n+1)!; ``gap_to_limit`` measures that gap.

Floating point appears only in ``gap_to_limit`` output; every other value
read is a reduced ``fractions.Fraction`` or an integer, which keeps all
cross-method equality checks tolerance-free.

The CSV reports of ``solve`` and ``steps`` print their big integer cells
from ``Decimal`` twins, made here by ``_twins``: ``_factorials_to``,
``_derangement_counts`` and ``steps._scaled_steps`` run again from
``Decimal(1)`` in the exact context ``_EXACT``. ``fractions`` imports
``decimal`` already, so the twins cost this module no import.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from decimal import (
    MAX_EMAX, MAX_PREC, Context, Decimal, DivisionByZero, Inexact, InvalidOperation, Overflow,
    Rounded,
)
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice, repeat
from operator import mul

from ._limits import METHODS, _at_least
from ._record import _Record

#: Nearest double to 1/e; reference point for the convergence diagnostic.
E_INVERSE = math.exp(-1.0)

#: Slack added to float-space comparisons against 1/e. Absorbs the rounding
#: of both the probability and the reference constant to doubles.
FLOAT_SLACK = Fraction(1, 2**48)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _times(fact: int, value: Fraction) -> int | Fraction:
    """fact*value exactly: an int when value's denominator divides fact, else a Fraction.

    The int takes one division and one small-by-big product, where a
    ``Fraction`` product takes a gcd on numbers the size of fact.
    """
    quotient, remainder = divmod(fact, value.denominator)
    return value * fact if remainder else value.numerator * quotient


class _FactorialRow:
    """The row of integers k!*value behind an exact table's ``Fraction`` values.

    A table is built either from reduced Fractions, through the constructor
    of its frozen record (``_record._Record``), or by a route from the
    k!-scaled integers, through ``_over_factorials``, which keeps them
    unreduced. Each form is made from the other on first read and cached on
    the instance: ``scaled`` with one ``divmod`` per value, the Fractions
    with one gcd per value. Value i of the table belongs to k = i +
    ``_FIRST``. ``dataclasses.replace`` and ``copy.replace`` go through the
    constructor, so a copy never carries the old row. It owns ``n_max``, the
    constructor's check, k!, the steps (``_difference``) and the range check
    of an index by pile size (``_at``).
    """

    _VALUES: str  # name of the record field that holds the Fractions
    _FIRST: int  # k of the table's first value, 0 or 1
    _EMPTY: str  # the constructor's message for a table with no values

    def __post_init__(self) -> None:
        values = getattr(self, self._VALUES)
        if not values:
            raise ValueError(self._EMPTY)
        self._check(value.as_integer_ratio() for value in values)

    @classmethod
    def _over_factorials(cls, scaled: tuple[int, ...], **fields):
        """The table whose value i is scaled[i]/k!, checked by the subclass's
        ``_check`` on the (numerator, denominator) pairs, as its constructor
        checks the Fractions."""
        table = object.__new__(cls)
        for name, value in {**fields, "scaled": scaled}.items():
            object.__setattr__(table, name, value)
        table._check(zip(scaled, table._factorials(len(scaled))))
        return table

    def _factorials(self, count: int) -> Iterator[int]:
        """k! for the table's first ``count`` values."""
        return islice(_factorials_to(self._FIRST + count - 1), self._FIRST, self._FIRST + count)

    @property
    def n_max(self) -> int:
        """Largest pile size in the table, from whichever form it was built from."""
        return len(vars(self).get(self._VALUES) or self.scaled) + self._FIRST - 1

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: the Fractions of
        # a table built by ``_over_factorials``, which are reduced here.
        if name != self._VALUES or "scaled" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values = tuple(map(Fraction, self.scaled, self._factorials(len(self.scaled))))
        object.__setattr__(self, name, values)
        return values

    @cached_property
    def scaled(self) -> tuple[int | Fraction, ...]:
        """k! times each value, exactly: an int where its denominator divides
        k!, as on every table a route or solver builds, else a Fraction."""
        values = getattr(self, self._VALUES)
        return tuple(map(_times, self._factorials(len(values)), values))

    def _at(self, n: int, low: int) -> int:
        """Index of pile ``n``'s value; ``IndexError`` unless n is in low..n_max."""
        if not low <= n <= self.n_max:
            raise IndexError(f"n={n} outside table range {low}..{self.n_max}")
        return n - self._FIRST

    def _difference(self, k: int) -> int | Fraction:
        """k!*(v_k - v_{k-1}) = a_k - k*a_{k-1}, for k in ``_FIRST`` + 1..n_max."""
        row, i = self.scaled, k - self._FIRST
        return row[i] - k * row[i - 1]


class WinTable(_FactorialRow, _Record):
    """Random-player win probabilities R_0..R_{n_max} from one solver path.

    Attributes:
        r: R_n indexed directly by n, each a reduced Fraction in [0, 1].
        method: Which solver produced the table (one of ``METHODS``).
        scaled: n!*R_n indexed by n (a Fraction where R_n does not scale to
            n!): the row ``verify`` decides on. A route builds the table from it.
    """

    r: tuple[Fraction, ...]
    method: str

    _VALUES = "r"
    _FIRST = 0
    _EMPTY = "r is empty; a table holds at least R_0"

    def _check(self, pairs: Iterator[tuple[int, int]]) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        for n, (num, den) in enumerate(pairs):
            if not 0 <= num <= den:
                raise ValueError(f"R_{n} = {Fraction(num, den)} is outside [0, 1]")

    def d(self, n: int) -> Fraction:
        """Deterministic player's win probability D_n = 1 - R_n."""
        return 1 - self.r[self._at(n, 0)]


class LimitGap(_Record):
    """Distance between D_n and 1/e, with its alternating-series bound.

    ``d_exact`` is the exact D_n and ``d_n_float`` its nearest double;
    ``gap`` is measured in double precision between ``d_n_float`` and
    ``E_INVERSE``. ``bound`` is the exact 1/(n+1)!, computed each time it
    is read, so a caller that prints only the gap never builds it. The
    contract is gap <= bound + FLOAT_SLACK.
    """

    n: int
    d_exact: Fraction
    d_n_float: float
    gap: float

    @property
    def bound(self) -> Fraction:
        return Fraction(1, math.factorial(self.n + 1))


def solve_recursive(n_max: int) -> WinTable:
    """R_n via the two-term recurrence n*R_n = R_{n-2} + (n-1)*R_{n-1}.

    Seeds R_0 = 0, R_1 = 1 and applies the recurrence from n = 2 up (it
    already holds at n = 2, where it gives the expected 1/2).
    """
    _at_least("n_max", n_max, 0)
    r = [_ZERO]
    if n_max >= 1:
        r.append(_ONE)
    for n in range(2, n_max + 1):
        r.append((r[n - 2] + (n - 1) * r[n - 1]) / n)
    return WinTable(r=tuple(r), method="recursive")


def solve_telescoping(n_max: int) -> WinTable:
    """R_n as the partial sum of its consecutive differences.

    The difference a_n = R_n - R_{n-1} satisfies a_n = -a_{n-1}/n with
    a_1 = 1, so a_n = (-1)^(n+1)/n! and R_n = a_1 + ... + a_n from R_0 = 0.
    """
    _at_least("n_max", n_max, 0)
    r = [_ZERO]
    fact = 1
    for n in range(1, n_max + 1):
        fact *= n
        a_n = Fraction((-1) ** (n + 1), fact)
        r.append(r[n - 1] + a_n)
    return WinTable(r=tuple(r), method="telescoping")


def _horner_sums(n: int) -> Iterator[int]:
    """s_0, ..., s_n with s_0 = 1 and s_k = k*s_{k-1} + (-1)^k.

    By induction s_k = k! * sum_{j<=k} (-1)^j/j!, the closed form's sum
    scaled by k!, so R_k = (k! - s_k)/k!.
    """
    s = 1
    yield s
    for k in range(1, n + 1):
        s = k * s - 1 if k % 2 else k * s + 1
        yield s


def closed_form(n: int) -> Fraction:
    """Exact R_n = 1 - sum_{k=0}^{n} (-1)^k / k!.

    The sum is taken by Horner's rule over integers: s_n = n! * sum is the
    last value of ``s_k = k*s_{k-1} + (-1)^k`` from s_0 = 1, and R_n is
    ``Fraction(n! - s_n, n!)``, reduced once. s_n is also the derangement
    count d_n by its one-term recurrence; ``derangements`` uses the
    two-term one and shares no value with this route.
    """
    _at_least("n", n, 0)
    for s_n in _horner_sums(n):
        pass
    fact = math.factorial(n)
    return Fraction(fact - s_n, fact)


def closed_form_table(n_max: int) -> WinTable:
    """WinTable of ``closed_form`` values R_0..R_{n_max} from one Horner pass.

    The same s_k as ``closed_form``, zipped with a running k!, give the
    table k!-scaled, R_k = (k! - s_k)/k!: O(n_max) big-integer steps and no
    gcd. Each R_k is reduced when ``r`` is first read.
    """
    _at_least("n_max", n_max, 0)
    scaled = tuple(fact - s_k for fact, s_k in zip(_factorials_to(n_max), _horner_sums(n_max)))
    return WinTable._over_factorials(scaled, method="closed_form")


def derangements(n_max: int) -> tuple[int, ...]:
    """Derangement counts (d_0, ..., d_{n_max}), index n holding d_n.

    Big-integer throughout: d_0 = 1, d_1 = 0 and
    d_n = (n-1) * (d_{n-1} + d_{n-2}).
    """
    _at_least("n_max", n_max, 0)
    return tuple(_derangement_counts(n_max))


def _derangement_counts(n_max: int, one=1) -> Iterator:
    """d_0, ..., d_{n_max} by d_n = (n-1) * (d_{n-1} + d_{n-2}), in the type of ``one``.

    From ``one = 1`` these are ``derangements``' ints; from ``Decimal(1)``,
    run in an exact context, the same values as ``Decimal``s, which a report
    prints in linear time.
    """
    before, last = one, one - one  # d_0 and d_1
    yield from (before, last)[: n_max + 1]
    for n in range(2, n_max + 1):
        before, last = last, (n - 1) * (last + before)
        yield last


def _factorials_to(n_max: int, one=1) -> Iterator:
    """0!, 1!, ..., n_max! by k! = k * (k-1)!, in the type of ``one``."""
    return accumulate(range(1, n_max + 1), mul, initial=one)


#: Integer steps in this ``decimal`` context are exact, or raise: the
#: precision and exponents are the largest there are, and a step that would
#: round is trapped (``Rounded`` also for trailing zeros, which would print
#: in exponent notation), as are the default context's traps.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=-MAX_EMAX,
                 traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded])


def _twins(recurrence, n_max: int, format: str):
    """For CSV, ``recurrence(n_max, one)``'s values as (int, ``Decimal`` twin)
    pairs, from ``one = 1`` and ``Decimal(1)``; the ``_EXACT`` context must be
    current. A twin's ``str`` is its int's, in linear time. JSON prints ints,
    so for it no twin is made: ``None`` for each."""
    if format == "json":
        return repeat(None)
    return zip(recurrence(n_max), recurrence(n_max, Decimal(1)))


def gf_table(n_max: int) -> WinTable:
    """R_n as coefficients 0..n_max of (sum_i x^i) * (1 - sum_j (-x)^j / j!).

    Both factor series are truncated at degree n_max and multiplied as
    formal power series; coefficient k of the product equals R_k. The
    second factor is scaled by n_max!, so its coefficients are the integers
    e_j = (-1)^(j+1) n_max!/j!. Multiplying by sum_i x^i is, coefficient by
    coefficient, the running sum c_k = e_0 + ... + e_k, so one integer sum
    gives every coefficient. Every e_j with j <= k is a multiple of
    n_max!/k!, which is |e_k|, so c_k is divided by it exactly and the
    quotient c_k // (n_max!/k!) is k! times coefficient k: the table is
    handed over k!-scaled, with no gcd, and each R_k is reduced when ``r``
    is first read. This is the alternating sum that
    ``solve_telescoping`` and ``closed_form`` also compute, here in a third
    arithmetic: the route derives its own series and calls no other route.
    """
    _at_least("n_max", n_max, 0)
    # n_max! times the coefficients of 1 - sum (-x)^j / j!, and n_max!/j!.
    exp_part = [0] * (n_max + 1)
    ratios = [0] * (n_max + 1)
    term = 1  # n_max!/j!, starting at j = n_max
    for j in range(n_max, 0, -1):
        exp_part[j] = term if j % 2 else -term
        ratios[j] = term
        term *= j
    ratios[0] = term  # n_max!
    scaled = tuple(c_k // ratio for c_k, ratio in zip(accumulate(exp_part), ratios))
    return WinTable._over_factorials(scaled, method="gf")


#: Method tag -> solver, in the order of ``METHODS``.
_SOLVERS = dict(zip(METHODS, (solve_recursive, solve_telescoping, closed_form_table, gf_table)))


def solve(n_max: int, method: str) -> WinTable:
    """Dispatch to one of the four solver paths by method tag."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return _SOLVERS[method](n_max)


def gap_to_limit(n: int, table: WinTable) -> LimitGap:
    """Measure how far D_n sits from 1/e.

    Returns the exact D_n, its nearest-double value, the double-precision
    distance to ``E_INVERSE``, and (as ``bound``) the exact
    alternating-series bound 1/(n+1)!.
    """
    d_exact = table.d(n)
    d_float = float(d_exact)
    return LimitGap(n=n, d_exact=d_exact, d_n_float=d_float, gap=abs(d_float - E_INVERSE))
