"""Ensemble constants: the rational lattice-coupling constants and the
floating log-normalizations used by the quadrature oracle.

The coupling constants b_n (transport) and d_n (delay) are ratios of
normalization integrals at dimensions n-i, n, n+i.  For beta in {1,2,4} the
Gamma functions collapse and the ratio is an explicit rational function of
the parameters; we always evaluate that closed form, never Gamma ratios,
so half-integer exponents stay exact.  Every factor of the closed forms is
linear in the parameters, so each is evaluated as an integer: the arguments
are scaled by the common denominator q of their values, the factors are
multiplied as ints, and one rational is built from the two products at the
end.  The powers of q cancel between numerator and denominator, except in
d_n, whose numerator carries four factors fewer and is multiplied by q^4.
The engines evaluate each constant once per dimension.
"""

from __future__ import annotations

import math

from .errors import InvalidGammaArgumentError, PoleError
from .params import DelayParams, TransportParams
from .rational import rat

# -- exact coupling constants ---------------------------------------------------


def _scaled(*values):
    """The common denominator q of the rationals ``values`` and the integers
    q * x for each x."""
    xs = [rat(v) for v in values]
    q = math.lcm(*(x.denominator for x in xs))
    return q, [x.numerator * (q // x.denominator) for x in xs]


def _quotient(num_factors, den_factors, what):
    """prod(num_factors) / prod(den_factors) over integer factors, raising
    ``PoleError`` when a denominator factor vanishes."""
    num = 1
    for f in num_factors:
        num *= f
    den = 1
    for f in den_factors:
        if f == 0:
            raise PoleError(f"{what}: denominator factor vanishes")
        den *= f
    return rat(num, den)


def transport_coupling_beta1(alpha, delta, n):
    """Closed form of b_n for beta=1; n may be any rational (used by the
    beta=4 duality, which evaluates it at negative arguments)."""
    q, (a, h, n) = _scaled(alpha, rat(delta) / 2, n)  # h = delta/2
    s = a + h
    num = [n, n - q, 2 * a + n, 2 * a + n + q, 2 * h + n, 2 * h + n + q,
           2 * s + n + q, 2 * s + n + 2 * q]
    den = [16,
           s + n, s + n + q, s + n + q, s + n + 2 * q,
           2 * s + 2 * n - q, 2 * s + 2 * n + q, 2 * s + 2 * n + q,
           2 * s + 2 * n + 3 * q]
    return _quotient(num, den, "b_n(beta=1)")


def transport_coupling_beta4(alpha, delta, n):
    q, (a, h, n) = _scaled(alpha, rat(delta) / 2, n)  # h = delta/2
    s = a + h
    num = [2, n, 2 * n + q, a + 2 * n, a + 2 * n - q, h + 2 * n,
           h + 2 * n - q, s + 2 * n - q, s + 2 * n - 2 * q]
    t = s + 4 * n
    den = [t, t - 2 * q, t - 2 * q, t - 4 * q,
           t + q, t - q, t - q, t - 3 * q]
    return _quotient(num, den, "b_n(beta=4)")


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
    q, (b, n) = _scaled(b, n)
    num = [q**4, n, n - q, 2 * b - 2 * q - n, 2 * b - q - n]
    den = [b - n, 2 * b - 2 * n + q, b - n - 2 * q, 2 * b - 2 * n - 3 * q,
           b - q - n, b - q - n, 2 * b - 2 * n - q, 2 * b - 2 * n - q]
    return _quotient(num, den, "d_n(beta=1)")


def delay_coupling_beta4(b, n):
    q, (b, n) = _scaled(b, n)
    num = [2 * q**4, n, 2 * n + q, b + 2 * q - 2 * n, b + q - 2 * n]
    t = b - 4 * n
    den = [t + 3 * q, t + q, t + q, t + 2 * q,
           t + 2 * q, t - q, t, t + 4 * q]
    return _quotient(num, den, "d_n(beta=4)")


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
