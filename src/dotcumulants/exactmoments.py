"""Exact rational moments of the transmission-eigenvalue ensembles for even
beta, from determinant identities.

With m_k(s,u) = E_Beta(alpha+1, delta/2+1)[T^k e^{sT + uT(1-T)}], the
partition function Z(s,u) = E-integral of prod |T_k - T_j|^beta e^{sG + uP}
is, up to constants,

  beta=2 (Andreief):   det[m_{i+j}]_{0<=i,j<n},
  beta=4 (de Bruijn):  Pf[(k-j) m_{j+k-1}]_{0<=j,k<2n}, the square root of
                       the determinant of that antisymmetric matrix,

so the exponential-generating coefficients of Z(s,u)/Z(0,0) are the raw
moments E[G^a P^b].  Entries are ``series.DoubleSeries`` on the requested
(max_l, max_k) rectangle, with integer coefficients (the Beta moments are
scaled by one common integer), and the determinant is taken by fraction-free
elimination; every division is exact.  The cost is polynomial in n.

This is an oracle independent of the recurrences, and it supplies the
conductance boundary row where the recurrence's leading coefficient vanishes
(for beta=2 that coefficient factors as (l+1)(l - t)(l + t) with
t = alpha + delta/2 + beta*n, so the recurrence degenerates at order t
whenever t is an integer).
"""

from __future__ import annotations

import math

from .errors import UnsupportedBetaError
from .params import TransportParams
from .rational import rat
from .series import DoubleSeries, moments_to_cumulants


def _det(matrix):
    """Determinant of a square matrix of integer series by Bareiss elimination.

    The constant terms form a nonsingular matrix (the moment matrix at
    s = u = 0), so some row always offers a pivot with a nonzero constant
    term; it is swapped in, and dividing by it is exact.
    """
    a = [row[:] for row in matrix]
    size, sign, prev = len(a), 1, None
    for k in range(size):
        r = next(i for i in range(k, size) if a[i][k].coefficient(0, 0))
        if r != k:
            a[k], a[r] = a[r], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, size):
            lead = a[i][k]
            for j in range(k + 1, size):
                num = pivot * a[i][j]
                if not lead.is_zero():  # zero below a swapped-in pivot at beta=4
                    num = num - lead * a[k][j]
                a[i][j] = num if prev is None else num.exact_quotient(prev)
        prev = pivot
    return sign * a[-1][-1]


def exact_moments(p: TransportParams, max_l, max_k=0):
    """Exact raw moments E[G^l P^k] over the full (max_l, max_k) rectangle."""
    if p.beta not in (2, 4):
        raise UnsupportedBetaError("exact moment determinant needs even beta")
    n = p.n
    count = 2 * n - 1 if p.beta == 2 else 4 * n - 2  # the matrix holds m_0..m_{count-1}

    # Beta moments M_k = E[T^k], scaled by one integer so all are integers
    moments = [rat(1)]
    for j in range(count - 1 + max_l + 2 * max_k):
        moments.append(moments[-1] * (p.alpha + 1 + j) / (p.alpha + p.delta / 2 + 2 + j))
    scale = math.lcm(*(int(x.denominator) for x in moments))
    scaled = [int(x.numerator) * (scale // int(x.denominator)) for x in moments]

    def m(k):
        """m_k(s,u), coefficients sum_c C(b,c) (-1)^c M_{k+a+b+c}."""
        return DoubleSeries([
            sum((-1) ** c * math.comb(b, c) * scaled[k + a + b + c] for c in range(b + 1))
            for a in range(max_l + 1) for b in range(max_k + 1)
        ], (max_l, max_k))

    series = [m(k) for k in range(count)]
    if p.beta == 2:
        z = _det([[series[i + j] for j in range(n)] for i in range(n)])
    else:
        zero = 0 * series[0]
        z = _det([
            [(k - j) * series[j + k - 1] if j != k else zero for k in range(2 * n)]
            for j in range(2 * n)
        ]).sqrt()
    z0 = z.coefficient(0, 0)
    return {(a, b): z.coefficient(a, b) / z0 for a in range(max_l + 1) for b in range(max_k + 1)}


def exact_transport_cumulants(p: TransportParams, max_l, max_k=0):
    """Exact joint cumulants from the determinant moments (even beta)."""
    return moments_to_cumulants(exact_moments(p, max_l, max_k), max_l, max_k)


def exact_conductance_cumulant_row(p: TransportParams, max_l):
    """Exact kappa_1..kappa_max_l of the conductance from the determinant
    moments; the boundary fallback where the recurrence's leading
    coefficient vanishes (even beta)."""
    kappa = moments_to_cumulants(exact_moments(p, max_l), max_l)
    return [kappa[(l, 0)] for l in range(1, max_l + 1)]
