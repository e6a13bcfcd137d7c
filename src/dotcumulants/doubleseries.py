"""The one series algebra of the package: exponential generating functions
in z and w, with exact rational coefficients.  The oracles' residuals, the
exact moments and the limit series run on it; the engines never import it.
``DoubleSeries.from_row`` builds a series from an int row, the engines'
(numerators, denominators) form, so the residual checks read the engines'
values with no backend scalar in between; ``univariate`` builds through it.
``DoubleSeries.combination`` sums terms c z^a w^b d^(i,j) f, each a scaled
slice of f, over one denominator with one reduction: the residual checks
assemble their equations through it.

``moments_to_cumulants``, the inverse of ``DoubleSeries.exponential``, is the
one map from raw joint moments to joint cumulants: the quadrature oracle runs
it on floats, the exact-moment oracle on rationals.
"""

from __future__ import annotations

import math
from functools import cache
from operator import add, sub

from .rational import ZERO, dot, int_row, rat


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


@cache
def _shift_weights(L, K, dl, dk):
    """Per index l*(K+1)+k of the (L, K) rectangle, (l + dl)!/l! (k + dk)!/k!;
    memoised per shape and shift."""
    return tuple(math.perm(l + dl, dl) * math.perm(k + dk, dk)
                 for l in range(L + 1) for k in range(K + 1))


@cache
def _factorials(L, K):
    """Per index l*(K+1)+k of the (L, K) rectangle, l! k!; memoised per shape."""
    return tuple(math.factorial(l) * math.factorial(k) for l in range(L + 1) for k in range(K + 1))


def _double(nums, den, shape):
    """The series nums / den (den > 0) in lowest terms; it keeps the list."""
    if den != 1:  # an integer series needs no gcd
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums], den // g
    series = object.__new__(DoubleSeries)
    series._nums, series._den, series._shape = nums, den, shape
    return series


def _shifted(nums, L, K, dl, dk, scale=1):
    """The numerators of scale z^dl w^dk times the (L, K) series ``nums``,
    on the (L + dl, K + dk) rectangle."""
    nums = [scale * w * x for w, x in zip(_shift_weights(L, K, dl, dk), nums)]
    if dk:  # dk zero columns open every row
        rows, width, pad = nums, K + 1, [0] * dk
        nums = []
        for start in range(0, len(rows), width):
            nums += pad
            nums += rows[start:start + width]
    return [0] * ((K + dk + 1) * dl) + nums


class DoubleSeries:
    """sum c[l,k] z^l w^k / (l! k!) over the rectangle l <= L, k <= K.

    The coefficients are exponential-generating, so a derivative is an index
    shift and a product a binomial-weighted convolution.  They are stored row
    by row (index l*(K+1)+k) as integer numerators over one positive
    denominator, with no factor common to all of them, so ``==`` compares
    them directly.  A series in z alone has the shape (L, 0).  Binary
    operations clip to the common rectangle; none modifies a series.
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

    @classmethod
    def from_row(cls, nums, dens, shape, scale=1):
        """sum c[l,k] (scale z)^l w^k / (l! k!) over the ``shape`` = (L, K)
        rectangle, from the int row c = nums/dens (dens > 0) laid out row by
        row (index l*(K+1)+k), zero past the last value; ``univariate`` and
        the residual checks build through it.

        With scale = a/b (an int or a rational), D the lcm of the dens and m
        the row of the last value, c[l,k] is the integer nums D/dens a^l
        b^(m-l) over D b^m, reduced once."""
        L, K = shape
        width, size = K + 1, (L + 1) * (K + 1)
        if len(nums) > size:
            raise ValueError(f"{len(nums)} values do not fit a {tuple(shape)} rectangle")
        den = math.lcm(*dens)
        if den != 1:
            nums = [x * (den // d) for x, d in zip(nums, dens)]
        a, b = scale.numerator, scale.denominator
        if a != 1 or b != 1:
            top = max(len(nums) - 1, 0) // width
            powers = [a**l * b ** (top - l) for l in range(top + 1)]
            nums = [x * powers[i // width] for i, x in enumerate(nums)]
            den *= b**top
        return _double([*nums, *[0] * (size - len(nums))], den, (L, K))

    @classmethod
    def univariate(cls, values, L, scale=1):
        """sum_l values[l] (scale z)^l / l! on the (L, 0) rectangle, zero past
        the last value; a Taylor coefficient t_l enters as the value t_l l!.
        The values are ints or backend rationals; see ``from_row``."""
        return cls.from_row([v.numerator for v in values], [v.denominator for v in values],
                            (L, 0), scale)

    @property
    def shape(self):
        """(L, K): the series holds the coefficients l <= L, k <= K."""
        return self._shape

    def taylor(self):
        """The ordinary coefficients c[l,k] / (l! k!), row by row, as backend
        rationals; for a series in z alone, entry l is that of z^l."""
        den = self._den
        return [rat(x, den * f) if x else ZERO
                for x, f in zip(self._nums, _factorials(*self._shape))]

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
        """The numerators of rows l0..l0+L, columns k0..k0+K, a row slice at a time."""
        nums, width = self._nums, self._shape[1] + 1
        if K + 1 == width:  # whole rows
            return nums[l0 * width:(l0 + L + 1) * width]
        block = []
        for start in range(l0 * width + k0, (l0 + L + 1) * width, width):
            block += nums[start:start + K + 1]
        return block

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

    def truncated(self, L, K=0):
        """The coefficients l <= L, k <= K, on the (L, K) rectangle."""
        if not (0 <= L <= self._shape[0] and 0 <= K <= self._shape[1]):
            raise ValueError(f"cannot truncate a {self._shape} series to ({L}, {K})")
        return _double(self._block(0, 0, L, K), self._den, (L, K))

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
        return _double(_shifted(self._nums, L, K, dl, dk), self._den, (L + dl, K + dk))

    @staticmethod
    def combination(terms, shape):
        """sum c z^a w^b d^(i+j)f/dz^i dw^j over the terms (c, (a, b), f, (i, j)),
        c an int or a rational, on the ``shape`` rectangle, which every term
        must cover or lie outside of.  Each term is a slice of f, shifted and
        scaled onto one denominator, and the sum is reduced once: a linear
        differential expression in one pass, with no series in between."""
        L, K = shape
        terms = list(terms)
        den = math.lcm(*(c.denominator * f._den for c, _, f, _ in terms))
        rows = []
        for c, (a, b), f, (i, j) in terms:
            fL, fK = L - a, K - b  # the part of the derivative that lands in the rectangle
            if fL < 0 or fK < 0:  # z^a w^b moves all of it out
                continue
            if fL > f._shape[0] - i or fK > f._shape[1] - j:
                raise ValueError(f"z^{a} w^{b} d^({i}, {j}) of a {f._shape} series "
                                 f"does not cover {tuple(shape)}")
            scale = c.numerator * (den // (c.denominator * f._den))
            rows.append(_shifted(f._block(i, j, fL, fK), fL, fK, a, b, scale))
        return _double(list(map(sum, zip(*rows))) or [0] * ((L + 1) * (K + 1)), den, (L, K))

    def exponential(self):
        """exp(a) for a zero constant term: along l = 0 from e_w = a_w e, then
        row by row from e_z = a_z e, one ``rational.dot`` per coefficient over
        the product terms of the (0, K - 1) and (L - 1, K) rectangles; e is
        kept as an int row and put over one denominator at the end."""
        a, den = self._nums, self._den
        if a[0]:
            raise ValueError("exponential requires a zero constant term")
        L, K = self._shape
        en, ed = [1] + [0] * (len(a) - 1), [1] * len(a)
        for shift, terms in ((1, _product_terms(0, K - 1)), (K + 1, _product_terms(L - 1, K))):
            for t, row in enumerate(terms, start=shift):
                en[t], ed[t] = dot((w, a[i + shift], den, en[j], ed[j]) for w, i, j in row)
        common = math.lcm(*ed)
        return _double([x * (common // d) for x, d in zip(en, ed)], common, self._shape)

    def exact_quotient(self, divisor):
        """The integer series q with q * divisor == self (common rectangle),
        for integer series and a divisor with nonzero constant term; each
        q[t] is solved in order from the product terms of t, where it enters
        as divisor[0] * q[t], and an inexact step raises ``ValueError``."""
        if self._den != 1 or divisor._den != 1:
            raise ValueError("exact_quotient needs series with integer coefficients")
        a, b, shape = self._common(divisor)
        lead, q = b[0], [0] * len(a)
        for t, row in enumerate(_product_terms(*shape)):
            q[t], rem = divmod(a[t] - sum([w * b[i] * q[j] for w, i, j in row]), lead)
            if rem:
                raise ValueError("the quotient does not have integer coefficients")
        return _double(q, 1, shape)


def moments_to_cumulants(moments, max_l, max_k=0):
    """Joint cumulants from raw moments over the full (max_l, max_k) rectangle.

    The inverse of ``DoubleSeries.exponential``, on the same product terms:
    with m = exp(kappa), the l=0 column follows from m_w = kappa_w m,
      m_{0,k} = sum_{b<k} C(k-1,b) kappa_{0,b+1} m_{0,k-1-b},
    and then each row from m_z = kappa_z m,
      m_{l,k} = sum_{a<l, b<=k} C(l-1,a) C(k,b) kappa_{a+1,b} m_{l-1-a,k-b},
    each solved for its kappa_{l,k} m_{0,0} term, with m_{0,0} = 1.  Exact
    rational values take one ``rational.dot`` per cumulant, on int rows;
    floats subtract term by term from m_{l,k}.  ``moments`` must cover the
    rectangle.
    """
    width = max_k + 1
    m = [moments[(l, k)] for l in range(max_l + 1) for k in range(width)]
    column, rows = _product_terms(0, max_k - 1), _product_terms(max_l - 1, max_k)
    # j = 0 is the kappa_{l,k} m_{0,0} term
    if hasattr(m[0], "denominator"):
        mn, md = int_row(m)
        kn, kd = mn[:], md[:]
        for shift, terms in ((1, column), (width, rows)):
            for t, row in enumerate(terms, shift):
                kn[t], kd[t] = dot([(1, mn[t], md[t], 1, 1), *(
                    (-w, kn[i + shift], kd[i + shift], mn[j], md[j]) for w, i, j in row if j)])
        kappa = [rat(x, d) for x, d in zip(kn, kd)]
    else:
        kappa = m[:]
        for shift, terms in ((1, column), (width, rows)):
            for t, row in enumerate(terms, shift):
                kappa[t] = sum((-w * kappa[i + shift] * m[j] for w, i, j in row if j), m[t])
    return {
        (l, total - l): kappa[l * width + total - l]
        for total in range(1, max_l + max_k + 1)
        for l in range(max(0, total - max_k), min(total, max_l) + 1)
    }
