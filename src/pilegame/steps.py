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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_ONE = Fraction(1)


@dataclass(frozen=True)
class StepsTable:
    """Exact E(Z_n) for n = 1..n_max; E(Q_n) is derived from it on read.

    ``ez[i]`` holds E(Z_{i+1}); use ``ez_at``/``eq_at`` to index by pile
    size directly.
    """

    ez: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.ez:
            raise ValueError("ez is empty; a table holds at least E(Z_1)")
        if self.ez[0] != 1:
            raise ValueError(f"E(Z_1) must be 1, got {self.ez[0]}")
        if self.n_max >= 2 and self.ez[1] != 1:
            raise ValueError(f"E(Z_2) must be 1, got {self.ez[1]}")
        if any(value.numerator < value.denominator for value in self.ez):
            raise ValueError("every E(Z_n) is at least 1: one move always happens")

    @property
    def n_max(self) -> int:
        """Largest pile size in the table."""
        return len(self.ez)

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
    from w_1 = 1, w_2 = 4: O(n_max) big-integer steps, each E(Z_n) reduced
    once. ``StepsTable.eq_at`` takes the differences E(Q_n) on read.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    ez = [_ONE]
    if n_max >= 2:
        ez.append(_ONE)
    fact, w_before, w_last = 2, 1, 4  # (n-1)!, w_{n-2} and w_{n-1} entering step n
    for n in range(3, n_max + 1):
        fact *= n
        t_n = fact + (n - 1) * w_before
        ez.append(Fraction(t_n, fact))
        w_before, w_last = w_last, n * w_last + t_n
    return StepsTable(ez=tuple(ez))


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
