"""The broadcast-axis quadrature kernels against a transcription of the
meshgrid kernels they replaced.

The transcription below builds every tensor grid in full, ``(n, size**n)``,
and sums G and P with ``sum(axis=0)``; it calls scipy's rules directly, so
the rule memo is checked too.  The two must agree to the last bit: each
point goes through the same float operations in the same order.
"""

import math

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from dotcumulants import quadrature
from dotcumulants.params import TransportParams
from dotcumulants.rational import rat
from dotcumulants.verify import quadrature_moments


def meshgrid_grids(nodes, weights, n):
    mesh = np.meshgrid(*([nodes] * n), indexing="ij")
    T = np.stack([m.ravel() for m in mesh])
    wm = np.meshgrid(*([weights] * n), indexing="ij")
    wprod = np.ones_like(T[0])
    for m in wm:
        wprod = wprod * m.ravel()
    return T, wprod


def meshgrid_vandermonde_power(T, beta):
    n = T.shape[0]
    v = np.ones_like(T[0])
    for i in range(n):
        for j in range(i + 1, n):
            v = v * np.abs(T[j] - T[i]) ** beta
    return v


def meshgrid_box_pass(p, size, stats_fn):
    a, b = float(p.alpha), float(p.delta) / 2.0
    x, w = roots_jacobi(size, b, a)
    nodes, weights = (1.0 + x) / 2.0, w * 2.0 ** (-(a + b + 1.0))
    T, wprod = meshgrid_grids(nodes, weights, p.n)
    base = wprod * meshgrid_vandermonde_power(T, p.beta)
    return stats_fn(T, base)


def meshgrid_ordered_pass(p, size, stats_fn):
    n = p.n
    a2, d1 = 2.0 * float(p.alpha) + 1.0, float(p.delta) + 1.0
    x, w = roots_legendre(size)
    t, wprod = meshgrid_grids((x + 1.0) / 2.0, w / 2.0, n)
    theta = np.empty_like(t)
    theta[n - 1] = (math.pi / 2.0) * t[n - 1]
    for j in range(n - 2, -1, -1):
        theta[j] = t[j] * theta[j + 1]
    jac = (math.pi / 2.0) * np.ones_like(t[0])
    for j in range(1, n):
        jac = jac * theta[j]
    s, c = np.sin(theta), np.cos(theta)
    T = s * s
    dens = np.ones_like(t[0])
    for j in range(n):
        dens = dens * 2.0 * s[j] ** a2 * c[j] ** d1
    for i in range(n):
        for j in range(i + 1, n):
            dens = dens * (T[j] - T[i]) ** p.beta
    base = math.factorial(n) * wprod * dens * jac
    return stats_fn(T, base)


def meshgrid_pass(p, size, stats_fn):
    if p.beta in (2, 4):
        return meshgrid_box_pass(p, size, stats_fn)
    return meshgrid_ordered_pass(p, size, stats_fn)


def meshgrid_raw_moments(p, pairs, rel_tol=1e-10):
    pairs = [t for t in pairs if t != (0, 0)]

    def stats(T, base):
        G = T.sum(axis=0)
        P = (T * (1.0 - T)).sum(axis=0)
        return [base.sum()] + [(base * G**l * P**k).sum() for l, k in pairs]

    vals, err = quadrature._adaptive(lambda size: meshgrid_pass(p, size, stats), rel_tol, "meshgrid")
    moments = {(0, 0): 1.0}
    for (l, k), v in zip(pairs, vals[1:]):
        moments[(l, k)] = v / vals[0]
    return moments, err


def meshgrid_mgf_value(p, z, w, rel_tol=1e-8):
    def stats(T, base):
        G = T.sum(axis=0)
        P = (T * (1.0 - T)).sum(axis=0)
        return [base.sum(), (base * np.exp(-z * G - w * P)).sum()]

    vals, _ = quadrature._adaptive(lambda size: meshgrid_pass(p, size, stats), rel_tol, "meshgrid")
    return vals[1] / vals[0]


CASES = [(beta, n) for beta in (1, 2, 4) for n in (1, 2, 3)]


def _params(beta, n):
    return TransportParams(beta, rat(1, 2), rat(1), n)


@pytest.mark.parametrize("beta, n", CASES)
@pytest.mark.parametrize("statistic, order", [("G", 3), ("P", 2), ("mixed", 2)])
def test_moments_bit_identical_to_meshgrid_kernels(monkeypatch, beta, n, statistic, order):
    p = _params(beta, n)
    broadcast = quadrature_moments(p, statistic, order)
    monkeypatch.setattr(quadrature, "transport_raw_moments", meshgrid_raw_moments)
    assert broadcast == quadrature_moments(p, statistic, order)


@pytest.mark.parametrize("beta, n", CASES)
def test_mgf_bit_identical_to_meshgrid_kernels(beta, n):
    p = _params(beta, n)
    assert quadrature.transport_mgf_value(p, 0.3, -0.7) == meshgrid_mgf_value(p, 0.3, -0.7)


def test_memoised_rules_are_shared_and_read_only():
    x, w = quadrature._rule("jacobi", 12, 1.0, 0.5)
    assert quadrature._rule("jacobi", 12, 1.0, 0.5)[0] is x
    for array in (x, w):
        with pytest.raises(ValueError):
            array[0] = 0.0
    nodes, weights = quadrature.gauss_jacobi_01(12, 0.5, 1.0)
    nodes[0] = weights[0] = 0.0  # the mapped rule is the caller's own copy
    assert quadrature.gauss_jacobi_01(12, 0.5, 1.0)[0][0] != 0.0
