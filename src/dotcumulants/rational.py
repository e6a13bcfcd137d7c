"""Exact rational scalar used throughout the package.

All recurrences and residual checks run in exact rational arithmetic; the
formulas involve delicate cancellations that floating point would destroy.
The scalar is ``gmpy2.mpq`` when gmpy2 is importable (GMP-backed) and
``fractions.Fraction`` otherwise.
Both serialize as ``"p/q"`` with ``/q`` omitted when the denominator is 1.

Inside the engines a value is not a scalar but a reduced pair of ints
(numerator, denominator > 0), kept as an *int row*: two parallel lists
``(nums, dens)``.  ``dot`` is the one kernel behind every exact value the
recurrences produce (a whole recurrence step, a second difference across the
dimension lattice, a Bell-transform coefficient, a coefficient of a series
exponential, a step of a limit recurrence): it takes int terms, adds the
integer numerators of the products over a running denominator, which grows
only when a term's denominator does not divide it, folds in the step's
divisor, and reduces the sum once.  ``reduced`` brings any other quotient of
two ints to such a pair.  ``int_row`` and ``rationals`` convert between rows
and backend scalars where values enter and leave the engines.
The gain was measured with ``fractions`` only; with ``gmpy2.mpq`` it is
unmeasured and may be smaller.
"""

from __future__ import annotations

import math
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


def dot(terms, scale=1, divisor=1):
    """scale * sum(c * x * y) / divisor over int terms ``(c, xn, xd, yn, yd)``
    with x = xn/xd and y = yn/yd, as a reduced pair ``(num, den)``, den > 0.

    The denominators xd, yd must be positive; scale and divisor are nonzero
    ints of either sign.  The products are added as one integer numerator
    over a running denominator D: a term whose denominator d divides D is
    scaled by D // d, otherwise the numerator and D are first multiplied by
    d // gcd(D, d).  Terms with a zero product are skipped; scale and divisor
    are folded in and the sum is reduced once at the end.  The empty or
    cancelling sum is ``(0, 1)``.
    """
    num = 0
    den = 1
    for c, xn, xd, yn, yd in terms:
        n = c * xn * yn
        if n:
            d = xd * yd
            factor, rem = divmod(den, d)
            if rem:
                grow = d // math.gcd(den, d)
                num *= grow
                den *= grow
                factor = den // d
            num += n * factor
    if not num:
        return 0, 1
    return reduced(num * scale, den * divisor)


def reduced(num, den):
    """num / den in lowest terms as an int pair with a positive denominator;
    den must be nonzero."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def int_row(values):
    """The int row ``(nums, dens)`` of rationals (or ints), each in lowest terms."""
    values = [rat(v) for v in values]
    return [int(v.numerator) for v in values], [int(v.denominator) for v in values]


def rationals(nums, dens):
    """The backend rationals of an int row; where values leave the engines."""
    return [rat(n, d) for n, d in zip(nums, dens)]


def parse_rational(text):
    """Parse ``"p/q"`` or ``"p"`` (ints allowed, booleans refused) into an
    exact rational."""
    if type(text) is int:
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
