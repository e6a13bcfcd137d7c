"""Exact rational scalar used throughout the package.

All recurrences and residual checks run in exact rational arithmetic; the
formulas involve delicate cancellations that floating point would destroy.
The scalar is ``gmpy2.mpq`` when gmpy2 is importable (GMP-backed, much
faster for the deep recurrences) and ``fractions.Fraction`` otherwise.
Both serialize as ``"p/q"`` with ``/q`` omitted when the denominator is 1.
"""

from __future__ import annotations

import os
from fractions import Fraction

if os.environ.get("DOTCUMULANTS_PURE_PYTHON"):
    _mpq = None
    BACKEND = "fractions"
else:
    try:
        from gmpy2 import mpq as _mpq

        BACKEND = "gmpy2"
    except ImportError:  # pragma: no cover - exercised via the fallback test
        _mpq = None
        BACKEND = "fractions"


#: The backend's scalar type.
_SCALAR = Fraction if _mpq is None else type(_mpq(0))


def rat(value=0, den=None):
    """Build an exact rational from ints, strings like ``"p/q"``, or rationals.

    A value that already is the backend scalar is returned as it is: both
    scalar types are immutable, so sharing it is safe.
    """
    if type(value) is _SCALAR and den is None:
        return value
    if den is not None:
        return _mpq(value, den) if _mpq is not None else Fraction(value, den)
    if isinstance(value, float):
        raise TypeError("refusing to build an exact rational from a float")
    if _mpq is not None:
        return _mpq(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    return Fraction(value)


#: Exact zero and one, handy as accumulator seeds.
ZERO = rat(0)
ONE = rat(1)


def parse_rational(text):
    """Parse ``"p/q"`` or ``"p"`` (ints allowed) into an exact rational."""
    if isinstance(text, (int,)):
        return rat(text)
    return rat(str(text).strip())


def rational_str(x):
    """Canonical string form: ``"p/q"``, or ``"p"`` when the denominator is 1."""
    return str(rat(x))


def is_integral(x):
    return rat(x).denominator == 1


def floor_rational(x):
    """Greatest integer <= x, exact."""
    x = rat(x)
    return int(x.numerator // x.denominator)


def as_fraction(x):
    """Convert to ``fractions.Fraction`` (for stdlib interop)."""
    x = rat(x)
    return Fraction(int(x.numerator), int(x.denominator))
