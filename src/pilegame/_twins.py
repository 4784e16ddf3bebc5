"""``Decimal`` twins of the big integer cells of ``solve``'s and ``steps``' CSV reports.

A twin is a value of the same recurrence run from ``Decimal(1)`` in the
exact context ``_EXACT``. Its ``str`` is the int's, in linear time.
``solve`` and ``steps`` import this module when they run; parsing and help
do not load it.
"""

from decimal import (
    MAX_EMAX, MAX_PREC, Context, Decimal, DivisionByZero, Inexact, InvalidOperation, Overflow,
    Rounded,
)
from itertools import repeat

#: Integer steps in this ``decimal`` context are exact, or raise: the
#: precision and exponents are the largest there are, and a step that would
#: round is trapped (``Rounded`` also for trailing zeros, which would print
#: in exponent notation), as are the default context's traps.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=-MAX_EMAX,
                 traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded])


def pairs(recurrence, n_max: int, format: str):
    """For CSV, ``recurrence(n_max, one)``'s values as (int, ``Decimal`` twin)
    pairs, from ``one = 1`` and ``Decimal(1)``; the ``_EXACT`` context must be
    current. JSON prints ints, so for it no twin is made: ``None`` for each."""
    if format == "json":
        return repeat(None)
    return zip(recurrence(n_max), recurrence(n_max, Decimal(1)))
