"""The limits that the CLI's option tables share with the modules behind them.

Each name here has this one definition: ``exact``, ``steps``, ``oracle``,
``rng``, ``simulate``, ``verify`` and ``cli`` import it from this module, and
the package's ``__init__`` reads ``METHODS`` and ``MEMOIZED_MAX_N`` from it.
It uses only ``sys``, so the CLI can parse its options and lay out its help
without loading any of the others. ``_at_least`` owns the lower bound of
every size argument and its one message; only ``Xoshiro256StarStar.draw``,
which runs once per draw, checks its bound inline.
"""

import sys

#: Valid ``WinTable.method`` tags, one per solver path.
METHODS = ("recursive", "telescoping", "closed_form", "gf")

#: Largest n accepted with the per-pile cache enabled. The cached walk
#: reaches every pile up to 100 in about 30 ms, about 50 calls deep.
MEMOIZED_MAX_N = 100

MASK64 = (1 << 64) - 1

#: Largest bound ``draw`` accepts, and so the largest pile the simulator
#: plays: a draw keeps the top bits of one 64-bit output.
MAX_PILE = 1 << 64


def _at_least(name: str, value: int, low: int) -> None:
    """Raise ``ValueError`` unless the argument ``name`` is at least ``low``."""
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


class _whole_ints:
    """Lift CPython's int-to-str digit limit for the block, then restore it.
    d_n and n! pass its default 4300 digits from n = 1559 on. The CSV cells of
    ``solve`` and ``steps`` print from ``Decimal`` twins, which the limit does
    not cover, but JSON reports, ``simulate``'s d_exact cells, a value that
    falls back to its ints and ``verify``'s check details print ints whole.
    Python 3.10.0-3.10.6 have no limit. A class rather than a
    ``contextlib.contextmanager``, so that ``cli`` loads no ``contextlib``."""

    def __enter__(self) -> None:
        self._limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
        if self._limit:
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc) -> None:
        if self._limit:
            sys.set_int_max_str_digits(self._limit)
