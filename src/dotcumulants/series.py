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

``DoubleSeries``, in the same layout, is the bivariate algebra of the
oracles on an (L, K) rectangle of exponential-generating coefficients, down
to the exact integer quotient and square root of Bareiss elimination.  It
shares no code with the engines.

``moments_to_cumulants`` turns raw joint moments into joint cumulants; it is
plain exact algebra, shared by the exact-moment and quadrature oracles.
"""

from __future__ import annotations

import math
from functools import cache
from operator import add, mul, sub

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


@cache
def _product_terms(L, K):
    """Per index l*(K+1)+k of the (L, K) rectangle (none if L or K is -1), the
    (w, i, j) with (f*g)[l,k] = sum w f[i] g[j]; memoised, one immutable tuple per shape."""
    width = K + 1
    return tuple(
        tuple((math.comb(l, a) * math.comb(k, b), a * width + b, (l - a) * width + k - b)
              for a in range(l + 1) for b in range(k + 1))
        for l in range(L + 1) for k in range(width)
    )


def _double(nums, den, shape):
    """The series nums / den (den > 0) in lowest terms; it keeps the list."""
    if den != 1:  # an integer series needs no gcd
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums], den // g
    series = object.__new__(DoubleSeries)
    series._nums, series._den, series._shape = nums, den, shape
    return series


def _solve(target, left, lead, shape, y, start):
    """Fill y[start:] in order with the integers solving target[t] = sum of
    w * left[i] * y[j] over the product terms of t, where the unknown y[t],
    still 0, enters as lead * y[t]; an inexact step raises ValueError."""
    terms = _product_terms(*shape)
    for t in range(start, len(y)):
        y[t], rem = divmod(target[t] - sum([w * left[i] * y[j] for w, i, j in terms[t]]), lead)
        if rem:
            raise ValueError("the result does not have integer coefficients")
    return _double(y, 1, shape)


class DoubleSeries:
    """sum c[l,k] z^l w^k / (l! k!) over the rectangle l <= L, k <= K.

    The coefficients are exponential-generating, so a derivative is an index
    shift and a product a binomial-weighted convolution.  They are stored row
    by row (index l*(K+1)+k) as integer numerators over one denominator, in
    lowest terms as in ``TruncatedSeries``, so ``==`` compares them directly.
    Binary operations clip to the common rectangle; none modifies a series.
    """

    __slots__ = ("_nums", "_den", "_shape")

    def __init__(self, coefficients, shape):
        """From the c[l,k], ints or rationals, row by row over ``shape`` = (L, K)."""
        nums, den = list(coefficients), 1
        if len(nums) != (shape[0] + 1) * (shape[1] + 1):
            raise ValueError(f"{len(nums)} coefficients do not fill a {shape} rectangle")
        if not all(type(c) is int for c in nums):
            nums = [rat(c) for c in nums]
            den = math.lcm(*(c.denominator for c in nums))
            nums = [c.numerator * (den // c.denominator) for c in nums]
        self._nums, self._den, self._shape = nums, den, tuple(shape)

    def coefficient(self, l, k):
        L, K = self._shape
        if not (0 <= l <= L and 0 <= k <= K):
            raise IndexError(f"({l}, {k}) lies outside the {self._shape} rectangle")
        return rat(self._nums[l * (K + 1) + k], self._den)

    def is_zero(self):
        return not any(self._nums)

    def __eq__(self, other):
        if not isinstance(other, DoubleSeries):
            return NotImplemented
        return (self._shape, self._den, self._nums) == (other._shape, other._den, other._nums)

    def __repr__(self):
        return f"DoubleSeries({[str(rat(x, self._den)) for x in self._nums]}, {self._shape})"

    def _block(self, l0, k0, L, K):
        """The numerators of rows l0..l0+L, columns k0..k0+K."""
        width = self._shape[1] + 1
        rows, cols = range(l0, l0 + L + 1), range(k0, k0 + K + 1)
        return [self._nums[l * width + k] for l in rows for k in cols]

    def _common(self, other):
        """Both numerator lists on the common rectangle, and its shape."""
        if self._shape == other._shape:
            return self._nums, other._nums, self._shape
        shape = tuple(map(min, self._shape, other._shape))
        return self._block(0, 0, *shape), other._block(0, 0, *shape), shape

    def _combine(self, other, op):
        a, b, shape = self._common(other)
        da, db = self._den, other._den
        if da != db:
            g = math.gcd(da, db)
            a, b = [x * (db // g) for x in a], [y * (da // g) for y in b]
            da *= db // g
        return _double(list(map(op, a, b)), da, shape)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __mul__(self, other):
        if isinstance(other, DoubleSeries):
            a, b, shape = self._common(other)
            nums = [sum([w * a[i] * b[j] for w, i, j in row]) for row in _product_terms(*shape)]
            return _double(nums, self._den * other._den, shape)
        if type(other) is int:
            return _double([x * other for x in self._nums], self._den, self._shape)
        s = rat(other)
        nums = [x * s.numerator for x in self._nums]
        return _double(nums, self._den * s.denominator, self._shape)

    __rmul__ = __mul__

    def derivative(self, dl=0, dk=0):
        """d^dl/dz^dl d^dk/dw^dk; the shape shrinks to (L - dl, K - dk)."""
        L, K = self._shape
        if not (0 <= dl <= L and 0 <= dk <= K):
            raise ValueError(f"cannot take ({dl}, {dk}) derivatives of a {self._shape} series")
        return _double(self._block(dl, dk, L - dl, K - dk), self._den, (L - dl, K - dk))

    def times(self, dl=0, dk=0):
        """Multiply by z^dl w^dk: c[l,k] (l + dl)!/l! (k + dk)!/k! moves to
        (l + dl, k + dk), and the shape grows to (L + dl, K + dk)."""
        L, K = self._shape
        nums = [0] * ((K + dk + 1) * dl)
        for l in range(L + 1):
            nums += [0] * dk + [math.perm(l + dl, dl) * math.perm(k + dk, dk) * x
                                for k, x in enumerate(self._block(l, 0, 0, K))]
        return _double(nums, self._den, (L + dl, K + dk))

    def exponential(self):
        """exp(a) for a zero constant term: along l = 0 from e_w = a_w e, then
        row by row from e_z = a_z e, one ``rational.dot`` per coefficient over
        the product terms of the (0, K - 1) and (L - 1, K) rectangles."""
        if self._nums[0]:
            raise ValueError("exponential requires a zero constant term")
        L, K = self._shape
        a = [rat(x, self._den) for x in self._nums]
        e = [ONE] + [ZERO] * (len(a) - 1)
        for k, row in enumerate(_product_terms(0, K - 1)):
            e[k + 1] = dot((w, a[i + 1], e[j]) for w, i, j in row)
        for t, row in enumerate(_product_terms(L - 1, K), start=K + 1):
            e[t] = dot((w, a[i + K + 1], e[j]) for w, i, j in row)
        return DoubleSeries(e, self._shape)

    def exact_quotient(self, divisor):
        """The integer series q with q * divisor == self (common rectangle),
        for integer series and a divisor with nonzero constant term."""
        if self._den != 1 or divisor._den != 1:
            raise ValueError("exact_quotient needs series with integer coefficients")
        a, b, shape = self._common(divisor)
        return _solve(a, b, b[0], shape, [0] * len(a), 0)

    def sqrt(self):
        """The integer series y with y * y == self and y[0,0] > 0."""
        d = self._nums
        root = math.isqrt(d[0]) if self._den == 1 and d[0] > 0 else 0
        if not root or root * root != d[0]:
            raise ValueError("sqrt needs an integer series with a positive square constant term")
        y = [root] + [0] * (len(d) - 1)
        return _solve(d, y, 2 * root, self._shape, y, 1)


def moments_to_cumulants(moments, max_l, max_k=0):
    """Joint cumulants from raw moments over the full (max_l, max_k) rectangle.

    The inverse of ``DoubleSeries.exponential``, on the same product terms:
    with m = exp(kappa), the l=0 column follows from m_w = kappa_w m,
      m_{0,k} = sum_{b<k} C(k-1,b) kappa_{0,b+1} m_{0,k-1-b},
    and then each row from m_z = kappa_z m,
      m_{l,k} = sum_{a<l, b<=k} C(l-1,a) C(k,b) kappa_{a+1,b} m_{l-1-a,k-b},
    each solved for its kappa_{l,k} m_{0,0} term.  Works for float or exact
    rational moment values alike; ``moments`` must cover the rectangle.
    """
    width = max_k + 1
    m = [moments[(l, k)] for l in range(max_l + 1) for k in range(width)]
    kappa = m[:]
    column, rows = _product_terms(0, max_k - 1), _product_terms(max_l - 1, max_k)
    for shift, terms in ((1, column), (width, rows)):
        for t, row in enumerate(terms, shift):
            for w, i, j in row:
                if j:  # j = 0 is the kappa_{l,k} m_{0,0} term
                    kappa[t] = kappa[t] - w * kappa[i + shift] * m[j]
    return {
        (l, total - l): kappa[l * width + total - l]
        for total in range(1, max_l + max_k + 1)
        for l in range(max(0, total - max_k), min(total, max_l) + 1)
    }
