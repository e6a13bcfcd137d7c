"""Ensemble constants: the rational lattice-coupling constants and the
floating log-normalizations used by the quadrature oracle.

The coupling constants b_n (transport) and d_n (delay) are ratios of
normalization integrals at dimensions n-i, n, n+i.  For beta in {1,2,4} the
Gamma functions collapse and the ratio is an explicit rational function of
the parameters; we always evaluate that closed form, never Gamma ratios,
so half-integer exponents stay exact.
"""

from __future__ import annotations

import math

from .errors import InvalidGammaArgumentError, PoleError
from .params import DelayParams, TransportParams
from .rational import rat

# -- exact coupling constants ---------------------------------------------------


def _ratio(num_factors, den_factors, what):
    num = rat(1)
    for f in num_factors:
        num *= f
    den = rat(1)
    for f in den_factors:
        if f == 0:
            raise PoleError(f"{what}: denominator factor vanishes")
        den *= f
    return num / den


def transport_coupling_beta1(alpha, delta, n):
    """Closed form of b_n for beta=1; n may be any rational (used by the
    beta=4 duality, which evaluates it at negative arguments)."""
    a, d, n = rat(alpha), rat(delta), rat(n)
    num = [n, n - 1, 2 * a + n, 2 * a + n + 1, d + n, d + n + 1,
           d + 2 * a + n + 1, d + 2 * a + n + 2]
    den = [rat(16),
           d / 2 + a + n, d / 2 + a + n + 1, d / 2 + a + n + 1, d / 2 + a + n + 2,
           d + 2 * a + 2 * n - 1, d + 2 * a + 2 * n + 1, d + 2 * a + 2 * n + 1,
           d + 2 * a + 2 * n + 3]
    return _ratio(num, den, "b_n(beta=1)")


def transport_coupling_beta4(alpha, delta, n):
    a, d, n = rat(alpha), rat(delta), rat(n)
    num = [rat(2), n, 2 * n + 1, a + 2 * n, a + 2 * n - 1, d / 2 + 2 * n,
           d / 2 + 2 * n - 1, d / 2 + a + 2 * n - 1, d / 2 + a + 2 * n - 2]
    s = d / 2 + a
    den = [s + 4 * n, s + 4 * n - 2, s + 4 * n - 2, s + 4 * n - 4,
           s + 4 * n + 1, s + 4 * n - 1, s + 4 * n - 1, s + 4 * n - 3]
    return _ratio(num, den, "b_n(beta=4)")


def _raw_coupling(beta, alpha, delta, n):
    """b_n as a rational function of n, evaluated at any integer dimension
    (lattice points can sit below the physical range n >= 1)."""
    if beta == 2 or n == 0:
        return rat(0)
    if beta == 1:
        return transport_coupling_beta1(alpha, delta, n)
    return transport_coupling_beta4(alpha, delta, n)


def b_constant(p: TransportParams):
    """Exact b_n for the transport recurrences (0 for beta=2)."""
    return _raw_coupling(p.beta, p.alpha, p.delta, p.n)


def delay_coupling_beta1(b, n):
    b, n = rat(b), rat(n)
    num = [n, n - 1, 2 * b - 2 - n, 2 * b - 1 - n]
    den = [b - n, 2 * b - 2 * n + 1, b - n - 2, 2 * b - 2 * n - 3,
           b - 1 - n, b - 1 - n, 2 * b - 2 * n - 1, 2 * b - 2 * n - 1]
    return _ratio(num, den, "d_n(beta=1)")


def delay_coupling_beta4(b, n):
    b, n = rat(b), rat(n)
    num = [rat(2), n, 2 * n + 1, b + 2 - 2 * n, b + 1 - 2 * n]
    den = [b + 3 - 4 * n, b + 1 - 4 * n, b + 1 - 4 * n, b + 2 - 4 * n,
           b + 2 - 4 * n, b - 1 - 4 * n, b - 4 * n, b - 4 * n + 4]
    return _ratio(num, den, "d_n(beta=4)")


def _raw_delay_coupling(beta, b, n):
    """d_n at weight exponent b, evaluated at any integer dimension (0 for
    beta=2 and at the lattice point n=0)."""
    if beta == 2 or n == 0:
        return rat(0)
    if beta == 1:
        return delay_coupling_beta1(b, n)
    return delay_coupling_beta4(b, n)


def d_constant(p: DelayParams):
    """Exact d_n for the delay-time recurrences (0 for beta=2).  b is taken
    from the record as stored, not re-derived from n."""
    return _raw_delay_coupling(p.beta, p.b, p.n)


# -- floating log-normalizations --------------------------------------------------


def _lgamma(x, what):
    x = float(x)
    if x <= 0:
        raise InvalidGammaArgumentError(f"{what}: Gamma argument {x} <= 0")
    return math.lgamma(x)


def log_selberg(p: TransportParams):
    """log of the Selberg normalization of the transmission-eigenvalue weight.

    Double precision, accumulated in log space; used only to normalize the
    quadrature oracle and the Monte Carlo density checks.
    """
    a, d, beta, n = float(p.alpha), float(p.delta), p.beta, p.n
    total = 0.0
    for j in range(n):
        total += _lgamma(a + 1 + j * beta / 2.0, "selberg")
        total += _lgamma(d / 2.0 + 1 + j * beta / 2.0, "selberg")
        total += _lgamma(1 + (j + 1) * beta / 2.0, "selberg")
        total -= _lgamma(a + d / 2.0 + 2 + (n + j - 1) * beta / 2.0, "selberg")
        total -= _lgamma(1 + beta / 2.0, "selberg")
    return total


def log_delay_norm(p: DelayParams):
    """log of the normalization of the inverse-spectrum weight (the
    Selberg-integral limit behind the delay-time generating function)."""
    b, beta, n = float(p.b), p.beta, p.n
    total = 0.0
    for j in range(n):
        total += _lgamma(1 + (j + 1) * beta / 2.0, "delay-norm")
        total += _lgamma(b - 1 + (j - 2 * n + 2) * beta / 2.0, "delay-norm")
        total -= _lgamma(1 + beta / 2.0, "delay-norm")
    return total
