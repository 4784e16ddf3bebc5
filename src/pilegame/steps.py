"""Expected number of moves the random player makes in one game.

Z_n counts only the random player's moves in a game started from n
counters (the deterministic player's forced removals are not counted).
E(Z_n) satisfies

    E(Z_n) = 1 + (1/n) * sum_{k=1}^{n-2} E(Z_k)      for n >= 3,

with E(Z_1) = E(Z_2) = 1 by direct enumeration of the rules: with one
counter the random player clears the pile immediately, and with two it
moves exactly once whichever value it draws. The difference sequence
Q_n = Z_n - Z_{n-1} obeys the first-order recursion n*E(Q_n) = 1 - E(Q_{n-1})
starting from E(Q_2) = 0, which ``q_sequence`` iterates independently so the
two derivations can be cross-checked against each other.

``expected_steps`` works over n!-scaled integers and hands its table over as
t_n = n!*E(Z_n), held unreduced with no gcd taken; each E(Z_n) becomes a
reduced ``Fraction`` only when ``StepsTable.ez`` is first read, as a report
does. ``verify`` reads the integers (``StepsTable.scaled``). ``q_sequence``
keeps its ``Fraction`` arithmetic, which is what keeps it a route of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .exact import _FactorialRow


@dataclass(frozen=True)
class StepsTable(_FactorialRow):
    """Exact E(Z_n) for n = 1..n_max; E(Q_n) is derived from it on read.

    ``ez[i]`` holds E(Z_{i+1}); use ``ez_at``/``eq_at`` to index by pile
    size directly. ``scaled[i]`` holds (i+1)!*E(Z_{i+1}), a Fraction where
    that is not an integer: the row ``verify`` decides on, and the one
    ``expected_steps`` builds the table from.
    """

    ez: tuple[Fraction, ...]

    _VALUES = "ez"
    _FIRST = 1
    _EMPTY = "ez is empty; a table holds at least E(Z_1)"

    def _check(self, pairs: Iterator[tuple[int, int]]) -> None:
        for n, (num, den) in enumerate(pairs, start=1):
            if n <= 2 and num != den:
                raise ValueError(f"E(Z_{n}) must be 1, got {Fraction(num, den)}")
            if num < den:
                raise ValueError("every E(Z_n) is at least 1: one move always happens")

    def ez_at(self, n: int) -> Fraction:
        """E(Z_n); n must be in 1..n_max."""
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n={n} outside table range 1..{self.n_max}")
        return self.ez[n - 1]

    def eq_at(self, n: int) -> Fraction:
        """E(Q_n) = E(Z_n) - E(Z_{n-1}); n must be in 2..n_max."""
        if not 2 <= n <= self.n_max:
            raise IndexError(f"n={n} outside table range 2..{self.n_max}")
        return self.ez[n - 1] - self.ez[n - 2]


def expected_steps(n_max: int) -> StepsTable:
    """Exact E(Z_n) for 1..n_max via the summed recursion.

    Runs over n!-scaled integers, w_k = k! * (E(Z_1) + ... + E(Z_k)) and
    t_n = n! * E(Z_n) = n! + (n-1) * w_{n-2}, with w_n = n * w_{n-1} + t_n
    from w_1 = 1, w_2 = 4: O(n_max) big-integer steps and no gcd. The table
    holds t_n over n!, and each E(Z_n) is reduced when ``ez`` is first
    read. ``StepsTable.eq_at`` takes the differences E(Q_n) on read.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return StepsTable._over_factorials(tuple(_scaled_steps(n_max)))


def _scaled_steps(n_max: int, one=1) -> Iterator:
    """t_1, ..., t_{n_max} of ``expected_steps``, in the type of ``one``.

    From ``one = 1`` these are the table's ints; from ``Decimal(1)``, run in
    an exact context, the same values as ``Decimal``s, which a report prints
    in linear time.
    """
    yield from (one, 2 * one)[:n_max]  # t_1 = 1! and t_2 = 2!: E(Z_1) = E(Z_2) = 1
    fact, w_before, w_last = 2 * one, one, 4 * one  # (n-1)!, w_{n-2} and w_{n-1} entering step n
    for n in range(3, n_max + 1):
        fact *= n
        t_n = fact + (n - 1) * w_before
        yield t_n
        w_before, w_last = w_last, n * w_last + t_n


def q_sequence(n_max: int) -> tuple[Fraction, ...]:
    """E(Q_n) for n = 2..n_max by the first-order recursion alone.

    Iterates E(Q_n) = (1 - E(Q_{n-1}))/n from E(Q_2) = 0, never touching
    ``expected_steps``; element i of the result corresponds to n = i + 2.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    values = [Fraction(0)]
    for n in range(3, n_max + 1):
        values.append((1 - values[-1]) / n)
    return tuple(values)
