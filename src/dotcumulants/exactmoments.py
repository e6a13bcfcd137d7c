"""Exact rational moments of the transmission-eigenvalue ensembles for even
beta, from determinant identities.

With m_k(s,u) = E_Beta(alpha+1, delta/2+1)[T^k e^{sT + uT(1-T)}], the
partition function Z(s,u) = E-integral of prod |T_k - T_j|^beta e^{sG + uP}
is, up to constants,

  beta=2 (Andreief):   det[m_{i+j}]_{0<=i,j<n},
  beta=4 (de Bruijn):  Pf[(k-j) m_{j+k-1}]_{0<=j,k<2n}, the square root of
                       the determinant of that antisymmetric matrix,

so the exponential-generating coefficients of Z(s,u)/Z(0,0) are the raw
moments E[G^a P^b].  Entries are bivariate exponential-generating series
truncated to the requested (max_l, max_k) rectangle, with integer
coefficients (the Beta moments are scaled by one common integer), and the
determinant is taken by fraction-free elimination; every division is exact.
The cost is polynomial in n.

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
from .series import moments_to_cumulants


def _product_terms(max_l, max_k):
    """For each flat index a*(max_k+1)+b, the (weight, i, j) triples with
    (f*g)[a,b] = sum weight * f[i] * g[j] (binomial-weighted convolution)."""
    width = max_k + 1
    terms = []
    for a in range(max_l + 1):
        for b in range(width):
            terms.append([
                (math.comb(a, a1) * math.comb(b, b1), a1 * width + b1, (a - a1) * width + b - b1)
                for a1 in range(a + 1) for b1 in range(b + 1)
            ])
    return terms


def _mul(f, g, terms):
    """Product of two series over the rectangle."""
    return [sum(w * f[i] * g[j] for w, i, j in row) for row in terms]


def _div(num, den, terms):
    """num / den for a den with nonzero constant term; the quotient is known
    to have integer coefficients, so each step divides exactly."""
    q = []
    for t, row in enumerate(terms):
        acc = num[t] - sum(w * den[i] * q[j] for w, i, j in row if i)
        q.append(acc // den[0])
    return q


def _det(matrix, terms):
    """Determinant of a square matrix of series by Bareiss elimination.

    The constant terms form a nonsingular matrix (the moment matrix at
    s = u = 0), so some row always offers a pivot with a nonzero constant
    term; it is swapped in, and dividing by it is exact.
    """
    a = [row[:] for row in matrix]
    size, sign, prev = len(a), 1, None
    for k in range(size):
        r = next(i for i in range(k, size) if a[i][k][0])
        if r != k:
            a[k], a[r] = a[r], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, size):
            lead = a[i][k]
            for j in range(k + 1, size):
                num = _mul(pivot, a[i][j], terms)
                if any(lead):  # zero below a swapped-in pivot at beta=4
                    num = [x - y for x, y in zip(num, _mul(lead, a[k][j], terms))]
                a[i][j] = num if prev is None else _div(num, prev, terms)
        prev = pivot
    return [sign * x for x in a[-1][-1]]


def _sqrt(d, terms):
    """The series y with y*y = d and a positive constant term."""
    y = [math.isqrt(d[0])]
    for t in range(1, len(terms)):
        # the pairs with i = 0 or j = 0 are the two 2 * y[0] * y[t] terms
        acc = d[t] - sum(w * y[i] * y[j] for w, i, j in terms[t] if i and j)
        y.append(acc // (2 * y[0]))
    return y


def exact_moments(p: TransportParams, max_l, max_k=0):
    """Exact raw moments E[G^l P^k] over the full (max_l, max_k) rectangle."""
    if p.beta not in (2, 4):
        raise UnsupportedBetaError("exact moment determinant needs even beta")
    n, width = p.n, max_k + 1
    terms = _product_terms(max_l, max_k)
    count = 2 * n - 1 if p.beta == 2 else 4 * n - 2  # the matrix holds m_0..m_{count-1}

    # Beta moments M_k = E[T^k], scaled by one integer so all are integers
    moments = [rat(1)]
    for j in range(count - 1 + max_l + 2 * max_k):
        moments.append(moments[-1] * (p.alpha + 1 + j) / (p.alpha + p.delta / 2 + 2 + j))
    scale = math.lcm(*(int(x.denominator) for x in moments))
    scaled = [int(x.numerator) * (scale // int(x.denominator)) for x in moments]

    def m(k):
        """EGF coefficients of m_k(s,u): sum_c C(b,c) (-1)^c M_{k+a+b+c}."""
        return [
            sum((-1) ** c * math.comb(b, c) * scaled[k + a + b + c] for c in range(b + 1))
            for a in range(max_l + 1) for b in range(width)
        ]

    series = [m(k) for k in range(count)]
    if p.beta == 2:
        z = _det([[series[i + j] for j in range(n)] for i in range(n)], terms)
    else:
        zero = [0] * len(terms)
        z = _sqrt(_det([
            [[(k - j) * x for x in series[j + k - 1]] if j != k else zero for k in range(2 * n)]
            for j in range(2 * n)
        ], terms), terms)
    return {(a, b): rat(z[a * width + b], z[0]) for a in range(max_l + 1) for b in range(width)}


def exact_transport_cumulants(p: TransportParams, max_l, max_k=0):
    """Exact joint cumulants from the determinant moments (even beta)."""
    return moments_to_cumulants(exact_moments(p, max_l, max_k), max_l, max_k)


def exact_conductance_cumulant_row(p: TransportParams, max_l):
    """Exact kappa_1..kappa_max_l of the conductance from the determinant
    moments; the boundary fallback where the recurrence's leading
    coefficient vanishes (even beta)."""
    kappa = moments_to_cumulants(exact_moments(p, max_l), max_l)
    return [kappa[(l, 0)] for l in range(1, max_l + 1)]
