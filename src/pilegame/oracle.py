"""Ground truth by exhaustive game-tree expectation.

Expands every branch of the game literally: with m counters and the random
player to move, each removal k in {1..m} carries weight 1/m, and is followed
in place by the deterministic player's single forced move (remove one). No
win-probability or step recurrence appears anywhere in this module, which is
what makes it an independent check on the analytic solvers.

Each pile adds up its branches' outcomes and divides by m once per sum.

Memoization keeps each pile's values for the process; it changes cost
only, not semantics, and can be switched off to keep the evaluation a
pure tree walk. The cached walk visits each pile once per process, O(n^2)
``Fraction`` work. The pure walk's call count grows like a Fibonacci
sequence in n, so its small-n guard keeps it short. The cached mode's
limit, ``MEMOIZED_MAX_N`` (defined in ``_limits``), is the bound ``verify
--oracle-max`` accepts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from ._limits import MEMOIZED_MAX_N, _at_least

#: Largest n accepted for the pure, cache-free tree walk.
UNMEMOIZED_MAX_N = 10

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _walk(pile: int, memoize: bool) -> tuple[Fraction, Fraction]:
    """(P(deterministic player wins), E(remaining R moves)) with R to move.
    With ``memoize`` each sub-pile's pair is read from ``_cached_walk``."""
    walk = _cached_walk if memoize else _walk
    d_wins = _ZERO  # sum over the branches of P(deterministic player wins)
    r_moves = _ZERO  # sum over the branches of E(R moves after this one)
    for k in range(1, pile + 1):
        left = pile - k
        if left == 1:  # deterministic player takes the last counter
            d_wins += 1
        elif left > 1:  # deterministic player's forced move: remove exactly one
            sub_d, sub_steps = walk(left - 1, memoize)
            d_wins += sub_d
            r_moves += sub_steps
        # left == 0: the random player emptied the pile and won
    return d_wins / pile, 1 + r_moves / pile


#: The memoized walk: each pile's pair is kept for the life of the process.
_cached_walk = cache(_walk)


def _root(n: int, memoize: bool) -> tuple[Fraction, Fraction]:
    """(D, E(Z)) from ``n`` >= 1 counters, within the mode's depth limit."""
    limit = MEMOIZED_MAX_N if memoize else UNMEMOIZED_MAX_N
    if n > limit:
        mode = "memoized" if memoize else "unmemoized"
        raise ValueError(f"n={n} exceeds the {mode} enumeration limit of {limit}")
    return (_cached_walk if memoize else _walk)(n, memoize)


def oracle_win_prob(n: int, memoize: bool = True) -> Fraction:
    """Exact probability that the deterministic player wins from ``n``.

    n = 0 is the boundary convention: the random player cannot win a game
    it never gets to play, so the deterministic player's probability is 1.
    """
    _at_least("n", n, 0)
    if n == 0:
        return _ONE
    return _root(n, memoize)[0]


def oracle_expected_steps(n: int, memoize: bool = True) -> Fraction:
    """Exact expected number of random-player moves from ``n`` (n >= 1)."""
    _at_least("n", n, 1)
    return _root(n, memoize)[1]
