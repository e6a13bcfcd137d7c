"""Truncated formal power series with exact rational coefficients.

A ``TruncatedSeries`` stores coefficients 0..order inclusive.  Binary
operations truncate to the smaller order (residual checks naturally shrink
order under differentiation, so truncating down is the useful semantics).
Values are immutable after construction and safe to share between threads.

The coefficients are kept as integer numerators over one positive common
denominator, with no factor common to all of them: that pair is canonical,
so equality and hashing compare it directly.  Sums, negation, scalar
products, shifts, derivatives and truncation are integer vector operations;
a product of two series is one integer convolution over the product of the
denominators, reduced by one gcd.  ``coefficients`` builds the backend
rationals once, on first use.  ``exponential`` runs on those rationals, one
``rational.dot`` per coefficient.

The bivariate algebra of the oracles, in the same layout, lives in
``doubleseries``, so the engines that import this module do not compile it.
"""

from __future__ import annotations

import math
from operator import mul

from .rational import ZERO, ONE, dot, rat, rational_str


class TruncatedSeries:
    __slots__ = ("_nums", "_den", "_coeffs")

    def __init__(self, coefficients):
        coeffs = tuple(rat(c) for c in coefficients)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        den = 1
        for c in coeffs:
            d = c.denominator
            if den % d:
                den *= d // math.gcd(den, d)
        # den is the lcm of the denominators, so the pair is already reduced
        nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_coeffs", coeffs)

    @classmethod
    def _over(cls, nums, den):
        """The series nums[k] / den, den > 0, reduced to lowest terms."""
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
        series = object.__new__(cls)
        object.__setattr__(series, "_nums", tuple(nums))
        object.__setattr__(series, "_den", den)
        object.__setattr__(series, "_coeffs", None)
        return series

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, order):
        return cls._over([0] * (order + 1), 1)

    @classmethod
    def constant(cls, value, order):
        value = rat(value)
        return cls._over([value.numerator] + [0] * order, value.denominator)

    @classmethod
    def from_terms(cls, terms, order):
        """Build from a {power: coefficient} mapping, truncated at ``order``."""
        coeffs = [ZERO] * (order + 1)
        for power, c in terms.items():
            if 0 <= power <= order:
                coeffs[power] = rat(c)
        return cls(coeffs)

    @classmethod
    def exponential_generating(cls, values, scale=1):
        """sum_{l=1..L} values[l-1] (scale z)^l / l!, truncated at L = len(values).

        With scale = a/b, coefficient l is the integer
        v_l a^l b^(L-l) L!/l!, v_l over the lcm of the values' denominators,
        divided by that lcm times b^L L!; the pair is reduced once.
        """
        values = [rat(v) for v in values]
        scale = rat(scale)
        a, b = scale.numerator, scale.denominator
        den = 1
        for v in values:
            d = v.denominator
            if den % d:
                den *= d // math.gcd(den, d)
        nums = [0] * (len(values) + 1)
        c = 1  # b^(L-l) L!/l!
        for l in range(len(values), 0, -1):
            v = values[l - 1]
            nums[l] = v.numerator * (den // v.denominator) * a**l * c
            c *= b * l
        return cls._over(nums, den * c)

    # -- inspection ------------------------------------------------------------

    @property
    def order(self):
        return len(self._nums) - 1

    @property
    def coefficients(self):
        """The coefficients as backend rationals, built once on first use
        (two threads may both build them; they build the same tuple)."""
        if self._coeffs is None:
            den = self._den
            object.__setattr__(self, "_coeffs", tuple(rat(x, den) for x in self._nums))
        return self._coeffs

    def coefficient(self, k):
        return self.coefficients[k]

    def is_zero(self):
        return not any(self._nums)

    def first_nonzero_index(self):
        for k, x in enumerate(self._nums):
            if x:
                return k
        return None

    def to_strings(self):
        return [rational_str(c) for c in self.coefficients]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._nums, self._den))

    def __repr__(self):
        return f"TruncatedSeries({self.to_strings()})"

    # -- algebra ----------------------------------------------------------------

    def truncate(self, order):
        if order >= self.order:
            return self
        return TruncatedSeries._over(self._nums[: order + 1], self._den)

    def __add__(self, other):
        a, da = self._nums, self._den
        if isinstance(other, TruncatedSeries):
            b, db = other._nums, other._den
        else:
            other = rat(other)
            b, db = (other.numerator,) + (0,) * self.order, other.denominator
        if da == db:
            return TruncatedSeries._over([x + y for x, y in zip(a, b)], da)
        g = math.gcd(da, db)
        sa, sb = db // g, da // g
        return TruncatedSeries._over([x * sa + y * sb for x, y in zip(a, b)], da * sa)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._over([-x for x in self._nums], self._den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -rat(other))

    def __rsub__(self, other):
        return (-self) + rat(other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            s = rat(other)
            p = s.numerator
            return TruncatedSeries._over([x * p for x in self._nums], self._den * s.denominator)
        a, b = self._nums, other._nums
        return TruncatedSeries._over(
            [sum(map(mul, a, b[k::-1])) for k in range(min(len(a), len(b)))],
            self._den * other._den,
        )

    __rmul__ = __mul__

    def shift(self, k=1):
        """Multiply by x**k.  All shifted coefficients stay exact, so the
        result's order grows by k."""
        return TruncatedSeries._over((0,) * k + self._nums, self._den)

    def differentiate(self):
        """Termwise derivative; order drops by one.  Rejects order-0 input."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncatedSeries._over(
            [k * x for k, x in enumerate(self._nums) if k], self._den
        )

    def exponential(self):
        """exp of a series with zero constant term, via exp(a)' = a'*exp(a).

        The constant term must vanish: exp of a nonzero rational is
        irrational and has no place in this algebra.
        """
        if self._nums[0]:
            raise ValueError("exponential requires a zero constant term")
        n = self.order
        a = self.coefficients
        out = [ONE] + [ZERO] * n
        for m in range(1, n + 1):
            out[m] = dot((j, a[j], out[m - j]) for j in range(1, m + 1)) / m
        return TruncatedSeries(out)

