"""Exact rational moments of the transmission-eigenvalue ensembles for even
beta at small n.

For beta in {2,4} the interaction factor prod |T_k - T_j|^beta is a genuine
polynomial, so E[G^l P^k] is a finite sum of product-Beta integrals with
rational values.  This provides an exact small-n oracle, and supplies the
conductance boundary row at parameter points where the recurrence's leading
coefficient happens to vanish (for beta=2 that coefficient factors as
(l+1)(l - t)(l + t) with t = alpha + delta/2 + beta*n, so the recurrence
degenerates at order t whenever t is an integer).

Cost grows factorially with n; intended for n <= 5 (beta=2) / n <= 3 (beta=4).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

from .errors import UnsupportedBetaError
from .params import TransportParams
from .rational import rat
from .series import moments_to_cumulants


def _permutation_sign(perm):
    sign, seen = 1, [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


@lru_cache(maxsize=16)
def _interaction_poly(n, beta):
    """prod_{j<k} (T_k - T_j)^beta as {exponent tuple: int}, for even beta.

    Cached: the beta=4, n=5 expansion takes seconds.  Callers must not
    mutate the returned dict.
    """
    delta = {}
    for perm in permutations(range(n)):
        sign = _permutation_sign(perm)
        delta[tuple(perm)] = delta.get(tuple(perm), 0) + sign
    squared = _poly_mul(delta, delta)
    if beta == 2:
        return squared
    if beta == 4:
        return _poly_mul(squared, squared)
    raise UnsupportedBetaError("interaction polynomial needs even beta")


def _mul_linear_stat(poly, n, quadratic=False):
    """Multiply by G = sum T_i (or by P = sum T_i - T_i^2 when quadratic)."""
    out = {}
    for e, c in poly.items():
        for i in range(n):
            k1 = tuple(x + (1 if j == i else 0) for j, x in enumerate(e))
            out[k1] = out.get(k1, 0) + c
            if quadratic:
                k2 = tuple(x + (2 if j == i else 0) for j, x in enumerate(e))
                out[k2] = out.get(k2, 0) - c
    return {k: v for k, v in out.items() if v}


def exact_transport_moments(p: TransportParams, max_l, max_k=0):
    """Exact raw moments E[G^l P^k] over the full (max_l, max_k) rectangle."""
    if p.beta not in (2, 4):
        raise UnsupportedBetaError("exact moment expansion needs even beta")
    n = p.n
    base = _interaction_poly(n, p.beta)

    # one-variable moment factors m[e] = E_Beta[T^e], cached to the max degree
    max_deg = p.beta * (n - 1) + max_l + 2 * max_k
    factors = [rat(1)]
    for j in range(max_deg + 1):
        factors.append(factors[-1] * (p.alpha + 1 + j) / (p.alpha + p.delta / 2 + 2 + j))

    def expect(poly):
        acc = rat(0)
        for e, c in poly.items():
            term = rat(c)
            for ei in e:
                term *= factors[ei]
            acc += term
        return acc

    norm = expect(base)
    moments = {}
    row = base
    for l in range(max_l + 1):
        cell = row
        for k in range(max_k + 1):
            moments[(l, k)] = expect(cell) / norm
            if k < max_k:
                cell = _mul_linear_stat(cell, n, quadratic=True)
        if l < max_l:
            row = _mul_linear_stat(row, n, quadratic=False)
    return moments


def exact_transport_cumulants(p: TransportParams, max_l, max_k=0):
    """Exact joint cumulants from the symbolic moments (even beta, small n)."""
    moments = exact_transport_moments(p, max_l, max_k)
    return moments_to_cumulants(moments, max_l, max_k)


def exact_conductance_moments(p: TransportParams, max_l):
    """Exact raw moments E[G^l], l <= max_l, tuned for the univariate case.

    The measure is exchangeable, so the interaction polynomial is collapsed
    by sorted exponent multiset; each multiset contributes a product of
    one-variable exponential-moment series, from which E[exp(s G) * V] is
    read off once.  Orders of magnitude cheaper than expanding G^l when the
    interaction polynomial is large (beta=4, n up to 5).
    """
    if p.beta not in (2, 4):
        raise UnsupportedBetaError("exact moment expansion needs even beta")
    n = p.n
    collapsed = {}
    for e, c in _interaction_poly(n, p.beta).items():
        key = tuple(sorted(e))
        v = collapsed.get(key, 0) + c
        if v:
            collapsed[key] = v
        elif key in collapsed:
            del collapsed[key]

    max_deg = p.beta * (n - 1) + max_l
    factors = [rat(1)]
    for j in range(max_deg + 1):
        factors.append(factors[-1] * (p.alpha + 1 + j) / (p.alpha + p.delta / 2 + 2 + j))
    inv_fact = [rat(1, math.factorial(j)) for j in range(max_l + 1)]

    # per-exponent series S_e[j] = E[T^{e+j}] / j!  (coefficients of E[T^e e^{sT}])
    series_cache = {}

    def exp_series(e):
        s = series_cache.get(e)
        if s is None:
            s = [factors[e + j] * inv_fact[j] for j in range(max_l + 1)]
            series_cache[e] = s
        return s

    total = [rat(0)] * (max_l + 1)
    for key, c in collapsed.items():
        prod = exp_series(key[0])
        for e in key[1:]:
            nxt = exp_series(e)
            out = [rat(0)] * (max_l + 1)
            for i, pi in enumerate(prod):
                if pi != 0:
                    for j in range(max_l + 1 - i):
                        out[i + j] += pi * nxt[j]
            prod = out
        for j in range(max_l + 1):
            total[j] += c * prod[j]
    norm = total[0]
    return {
        (l, 0): math.factorial(l) * total[l] / norm for l in range(max_l + 1)
    }


def exact_conductance_cumulant_row(p: TransportParams, max_l):
    """Exact kappa_1..kappa_max_l of the conductance via symbolic moments;
    the boundary fallback where the recurrence's leading coefficient
    vanishes (even beta, n <= 5)."""
    moments = exact_conductance_moments(p, max_l)
    kappa = moments_to_cumulants(moments, max_l, 0)
    return [kappa[(l, 0)] for l in range(1, max_l + 1)]
