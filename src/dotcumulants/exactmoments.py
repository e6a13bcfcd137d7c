"""Exact rational moments of the transmission-eigenvalue ensembles for even
beta, from determinant identities.

With m_k(s,u) = E_Beta(alpha+1, delta/2+1)[T^k e^{sT + uT(1-T)}], the
partition function Z(s,u) = E-integral of prod |T_k - T_j|^beta e^{sG + uP}
is, up to constants,

  beta=2 (Andreief):   det[m_{i+j}]_{0<=i,j<n},
  beta=4 (de Bruijn):  Pf[(k-j) m_{j+k-1}]_{0<=j,k<2n},

so the exponential-generating coefficients of Z(s,u)/Z(0,0) are the raw
moments E[G^a P^b]; ``doubleseries.moments_to_cumulants``, the one
moments-to-cumulants map, which the quadrature oracle runs too, turns them
into the joint cumulants.  Entries are ``DoubleSeries`` with integer
coefficients (the Beta moments times one common integer).  The determinant
is taken by Bareiss elimination, the Pfaffian by the same fraction-free
elimination two rows at a time; every division is exact.  The constant
term of each pivot is a leading principal minor or Pfaffian, the partition
function of fewer channels, which is positive for alpha > -1 and
delta > -2, so no pivot search is needed.

This is an oracle independent of the recurrences, and it supplies the
conductance engine's row, stored as that engine's own lattice values, where
the recurrence's leading coefficient vanishes (for beta=2 that coefficient
factors as (l+1)(l - t)(l + t) with t = alpha + delta/2 + beta*n, so the
recurrence degenerates at order t whenever t is an integer).
"""

from __future__ import annotations

import math

from .doubleseries import DoubleSeries, moments_to_cumulants
from .ensembles import _scaled
from .errors import UnsupportedBetaError
from .params import TransportParams


def _pivot(x):
    """x, checked to have the nonzero constant term every pivot has."""
    if not x.coefficient(0, 0):
        raise RuntimeError("elimination met a pivot with zero constant term")
    return x


def _det(matrix):
    """Determinant of a symmetric matrix of integer series by Bareiss
    elimination, reading and updating the upper triangle only (every
    trailing matrix stays symmetric)."""
    a = [row[:] for row in matrix]
    size, prev = len(a), None
    for t in range(size - 1):
        p = _pivot(a[t][t])
        for i in range(t + 1, size):
            for k in range(i, size):
                num = p * a[i][k] - a[t][i] * a[t][k]
                a[i][k] = num if prev is None else num.exact_quotient(prev)
        prev = p
    return _pivot(a[-1][-1])


def _pfaffian(matrix):
    """Pfaffian of an antisymmetric matrix of integer series of even size,
    read above the diagonal only, by fraction-free elimination two rows at a
    time: after pivot pair (t, t+1), a[i][k] for t+1 < i < k is the Pfaffian
    of rows and columns 0..t+1, i, k, and the last pivot is Pf."""
    a = [row[:] for row in matrix]
    size, prev = len(a), None
    for t in range(0, size - 2, 2):
        p, top, next_ = _pivot(a[t][t + 1]), a[t], a[t + 1]
        for i in range(t + 2, size):
            row = a[i]
            for k in range(i + 1, size):
                num = p * row[k] - top[i] * next_[k] + top[k] * next_[i]
                row[k] = num if prev is None else num.exact_quotient(prev)
        prev = p
    return _pivot(a[-2][-1])


def _beta_moments(p, count):
    """M_k = prod_{j<k} (alpha+1+j)/(alpha+delta/2+2+j), k < count, times the
    smallest common integer: the product of the first k numerator factors
    and the last count-1-k denominator ones (all scaled to integers), over
    the gcd of all of them."""
    q, (a, h) = _scaled(p.alpha, p.delta / 2)
    up, down = [1], [1]
    for j in range(count - 1):
        up.append(up[-1] * (a + q + q * j))
        down.append(down[-1] * (a + h + 2 * q + q * (count - 2 - j)))
    scaled = [x * y for x, y in zip(up, reversed(down))]
    g = math.gcd(*scaled)
    return [x // g for x in scaled]


def _matrix(p: TransportParams, max_l, max_k):
    """The Andreief (beta=2) or de Bruijn (beta=4) matrix of the integer
    series m_k(s,u) on the (max_l, max_k) rectangle; below the diagonal of
    the de Bruijn matrix, which nothing reads, it holds None."""
    n = p.n
    count = 2 * n - 1 if p.beta == 2 else 4 * n - 2  # the matrix holds m_0..m_{count-1}
    # m_k(s,u) has coefficients sum_c C(b,c) (-1)^c M_{k+a+b+c} = diff[b][k+a+b],
    # where diff[b][j] = diff[b-1][j] - diff[b-1][j+1] and diff[0] holds the M_j
    diff = [_beta_moments(p, count + max_l + 2 * max_k)]
    for _ in range(max_k):
        diff.append([x - y for x, y in zip(diff[-1], diff[-1][1:])])
    m = [
        DoubleSeries([diff[b][k + a + b] for a in range(max_l + 1) for b in range(max_k + 1)],
                     (max_l, max_k))
        for k in range(count)
    ]
    if p.beta == 2:
        return [[m[i + j] for j in range(n)] for i in range(n)]
    return [[(k - j) * m[j + k - 1] if j < k else None for k in range(2 * n)]
            for j in range(2 * n)]


def exact_moments(p: TransportParams, max_l, max_k=0):
    """Exact raw moments E[G^l P^k] over the full (max_l, max_k) rectangle:
    the coefficients of Z(s,u)/Z(0,0)."""
    if p.beta not in (2, 4):
        raise UnsupportedBetaError("exact moment determinant needs even beta")
    matrix = _matrix(p, max_l, max_k)
    z = _det(matrix) if p.beta == 2 else _pfaffian(matrix)
    z = z * (1 / z.coefficient(0, 0))
    return {(a, b): z.coefficient(a, b) for a in range(max_l + 1) for b in range(max_k + 1)}


def exact_transport_cumulants(p: TransportParams, max_l, max_k=0):
    """Exact joint cumulants from the determinant moments (even beta), in
    order of total degree."""
    return moments_to_cumulants(exact_moments(p, max_l, max_k), max_l, max_k)


def exact_conductance_cumulant_row(p: TransportParams, max_l):
    """Exact kappa_1..kappa_max_l of the conductance from the determinant
    moments, the k=0 column of ``exact_transport_cumulants``; the joint
    engine's row where the recurrence's leading coefficient vanishes (even
    beta)."""
    return list(exact_transport_cumulants(p, max_l).values())
