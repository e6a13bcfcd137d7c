"""Truncated formal power series with exact rational coefficients.

A ``TruncatedSeries`` stores coefficients 0..order inclusive.  Binary
operations truncate to the smaller order (residual checks naturally shrink
order under differentiation, so truncating down is the useful semantics).
Values are immutable after construction and safe to share between threads.

``moments_to_cumulants`` turns raw joint moments into joint cumulants; it is
plain exact algebra, shared by the exact-moment and quadrature oracles.
"""

from __future__ import annotations

import math

from .rational import ZERO, ONE, rat, rational_str


class TruncatedSeries:
    __slots__ = ("_coeffs",)

    def __init__(self, coefficients):
        coeffs = tuple(rat(c) for c in coefficients)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, order):
        return cls([ZERO] * (order + 1))

    @classmethod
    def constant(cls, value, order):
        return cls([rat(value)] + [ZERO] * order)

    @classmethod
    def from_terms(cls, terms, order):
        """Build from a {power: coefficient} mapping, truncated at ``order``."""
        coeffs = [ZERO] * (order + 1)
        for power, c in terms.items():
            if 0 <= power <= order:
                coeffs[power] = rat(c)
        return cls(coeffs)

    # -- inspection ------------------------------------------------------------

    @property
    def order(self):
        return len(self._coeffs) - 1

    @property
    def coefficients(self):
        return self._coeffs

    def coefficient(self, k):
        return self._coeffs[k]

    def is_zero(self):
        return all(c == 0 for c in self._coeffs)

    def first_nonzero_index(self):
        for k, c in enumerate(self._coeffs):
            if c != 0:
                return k
        return None

    def to_strings(self):
        return [rational_str(c) for c in self._coeffs]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"TruncatedSeries({self.to_strings()})"

    # -- algebra ----------------------------------------------------------------

    def truncate(self, order):
        if order >= self.order:
            return self
        return TruncatedSeries(self._coeffs[: order + 1])

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            m = min(self.order, other.order)
            return TruncatedSeries(
                [self._coeffs[k] + other._coeffs[k] for k in range(m + 1)]
            )
        c = list(self._coeffs)
        c[0] = c[0] + rat(other)
        return TruncatedSeries(c)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self._coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -rat(other))

    def __rsub__(self, other):
        return (-self) + rat(other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            s = rat(other)
            return TruncatedSeries([c * s for c in self._coeffs])
        m = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        out = []
        for k in range(m + 1):
            acc = ZERO
            for i in range(k + 1):
                ai = a[i]
                if ai != 0:
                    acc += ai * b[k - i]
            out.append(acc)
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def shift(self, k=1):
        """Multiply by x**k.  All shifted coefficients stay exact, so the
        result's order grows by k."""
        return TruncatedSeries((ZERO,) * k + self._coeffs)

    def differentiate(self):
        """Termwise derivative; order drops by one.  Rejects order-0 input."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncatedSeries(
            [k * self._coeffs[k] for k in range(1, self.order + 1)]
        )

    def exponential(self):
        """exp of a series with zero constant term, via exp(a)' = a'*exp(a).

        The constant term must vanish: exp of a nonzero rational is
        irrational and has no place in this algebra.
        """
        if self._coeffs[0] != 0:
            raise ValueError("series_exponential requires zero constant term")
        n = self.order
        a = self._coeffs
        out = [ONE] + [ZERO] * n
        for m in range(1, n + 1):
            acc = ZERO
            for j in range(1, m + 1):
                aj = a[j]
                if aj != 0:
                    acc += j * aj * out[m - j]
            out[m] = acc / m
        return TruncatedSeries(out)


def moments_to_cumulants(moments, max_l, max_k=0):
    """Joint cumulants from raw moments over the full (max_l, max_k) rectangle.

    Uses the bivariate triangle obtained from d/dz M = (d/dz Kgen) M:
      m_{l,k} = sum_{a<l, b<=k} C(l-1,a) C(k,b) kappa_{a+1,b} m_{l-1-a,k-b}
    and its w-direction analogue for the l=0 column.  Works for float or
    exact rational moment values alike; ``moments`` must cover the rectangle.
    """
    kappa = {}
    for total in range(1, max_l + max_k + 1):
        for l in range(min(total, max_l) + 1):
            k = total - l
            if k > max_k:
                continue
            acc = moments[(l, k)]
            if l >= 1:
                for a in range(l):
                    for b in range(k + 1):
                        if (a, b) == (l - 1, k):
                            continue  # that pair is kappa_{l,k} * m_{0,0}
                        acc = acc - (
                            math.comb(l - 1, a)
                            * math.comb(k, b)
                            * kappa[(a + 1, b)]
                            * moments[(l - 1 - a, k - b)]
                        )
            else:
                for b in range(k - 1):
                    acc = acc - (
                        math.comb(k - 1, b)
                        * kappa[(0, b + 1)]
                        * moments[(0, k - 1 - b)]
                    )
            kappa[(l, k)] = acc
    return kappa
