"""Exact rational scalar used throughout the package.

All recurrences and residual checks run in exact rational arithmetic; the
formulas involve delicate cancellations that floating point would destroy.
The scalar is ``gmpy2.mpq`` when gmpy2 is importable (GMP-backed) and
``fractions.Fraction`` otherwise.
Both serialize as ``"p/q"`` with ``/q`` omitted when the denominator is 1.

``dot`` is the one kernel behind every exact value the recurrences produce
(a whole recurrence step, a second difference across the dimension lattice,
a Bell-transform coefficient, a coefficient of a series exponential): the
integer numerators of the products are added over a running denominator,
which grows only when a term's denominator does not divide it, and the sum
is reduced once, instead of one normalised rational per term.  Its gain was measured with
``fractions`` only; with ``gmpy2.mpq`` it is unmeasured and may be smaller.
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


def dot(terms):
    """sum(c * x * y) over ``(c, x, y)`` triples, c an int and x, y rationals.

    The products are added as one integer numerator over a running
    denominator D: a term whose denominator d divides D is scaled by D // d,
    otherwise the numerator and D are first multiplied by d // gcd(D, d).
    The sum is reduced once at the end; terms with a zero numerator are
    skipped, and the empty sum is ``ZERO``.
    """
    num = 0
    den = 1
    for c, x, y in terms:
        n = c * x.numerator * y.numerator
        if n:
            d = x.denominator * y.denominator
            scale, rem = divmod(den, d)
            if rem:
                grow = d // math.gcd(den, d)
                num *= grow
                den *= grow
                scale = den // d
            num += n * scale
    if not num:
        return ZERO
    return rat(num, den)


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
