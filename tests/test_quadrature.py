"""The broadcast-axis quadrature kernels against a transcription of the
meshgrid kernels they replaced.

The transcription below builds every tensor grid in full, ``(n, size**n)``,
and sums G and P with ``sum(axis=0)``; it calls scipy's rules directly, so
the rule memo is checked too.  The two must agree to the last bit: each
point goes through the same float operations in the same order.  The n = 3
outputs are pinned by digest, and the beta=1 grid memo is checked to change
no bit and to stay under its ceiling.
"""

import hashlib
import math
import random

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from dotcumulants import quadrature
from dotcumulants.errors import CumulantError
from dotcumulants.params import TransportParams
from dotcumulants.rational import parse_rational, rat
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


def quadrature_record(beta, alpha, delta, n, statistic, order):
    """One ``quadrature_moments`` outcome as text: the keys in order, the
    values and the error estimate bit for bit, or a failure's token and
    message."""
    head = (beta, alpha, delta, n, statistic, order)
    p = TransportParams(beta, parse_rational(alpha), parse_rational(delta), n)
    try:
        kappa, err = quadrature_moments(p, statistic, order)
    except CumulantError as exc:
        return repr((head, exc.token, str(exc)))
    return repr((head, [(repr(key), v.hex()) for key, v in kappa.items()], err.hex()))


#: the (alpha, delta) grid of the benchmark sweep
SWEEP_ALPHAS = ("-1/2", "0", "1/2", "1", "3/2")
SWEEP_DELTAS = ("-1", "0", "1", "2")

#: every n = 3 point of the sweep grid for beta in {1, 2, 4} and every
#: statistic at order 3; at beta = 1 the adaptive rule reaches 48 nodes a side
N3_RECORDS = [
    (beta, alpha, delta, 3, statistic, 3)
    for beta in (1, 2, 4)
    for alpha in SWEEP_ALPHAS
    for delta in SWEEP_DELTAS
    for statistic in ("G", "P", "mixed")
]

#: SHA-256 of the newline-terminated ``quadrature_record`` of each of
#: ``N3_RECORDS``, in order
N3_QUADRATURE_SHA256 = "634a7645392c43dc3ac300c045ecaf2c33b6990786fd6ad1b47add1789fca2d8"


def test_n3_quadrature_moments_match_their_pinned_digest():
    digest = hashlib.sha256()
    for record in N3_RECORDS:
        digest.update((quadrature_record(*record) + "\n").encode())
    assert len(N3_RECORDS) == 180
    assert digest.hexdigest() == N3_QUADRATURE_SHA256


#: the beta=1 points of the benchmark sweep that run quadrature (n <= 3),
#: with the statistic it reads
SWEEP_BETA1 = [
    (1, alpha, delta, n, "G", 3)
    for alpha in SWEEP_ALPHAS for delta in SWEEP_DELTAS for n in (1, 2, 3)
]


def test_results_do_not_depend_on_the_grid_memo():
    records = SWEEP_BETA1 + [(1, "1", "2", 3, "mixed", 3), (1, "-1/2", "1", 3, "P", 3)]
    cold = {}
    for record in records:
        quadrature._GRIDS.clear()
        cold[record] = quadrature_record(*record)
    warm = {record: quadrature_record(*record) for record in records}
    shuffled = list(reversed(records))
    random.Random(5).shuffle(shuffled)
    again = {record: quadrature_record(*record) for record in shuffled}
    assert warm == cold
    assert again == cold


def test_grid_memo_stays_under_its_ceiling_and_serves_the_sweep(monkeypatch):
    quadrature._GRIDS.clear()
    for record in SWEEP_BETA1:
        quadrature_record(*record)
        assert quadrature._grid_memo_bytes() <= quadrature.GRID_MEMO_BYTES
    held = quadrature._grid_memo_bytes()
    monkeypatch.setattr(quadrature, "_SectorGrid",
                        lambda size, n: pytest.fail(f"rebuilt the grid {(size, n)}"))
    for record in SWEEP_BETA1:  # a second sweep pass finds every grid
        quadrature_record(*record)
    assert quadrature._grid_memo_bytes() == held
    monkeypatch.undo()
    # non-integer exponents: the rule grows to 96 nodes a side, whose grid
    # alone is above the ceiling
    failed = quadrature_record(1, "1/4", "0", 3, "G", 3)
    assert "quadrature-failure" in failed
    assert quadrature._grid_memo_bytes() <= quadrature.GRID_MEMO_BYTES
    assert (96, 3) not in quadrature._GRIDS
    # with G alone the 64-node grid fits: it is kept, and the oldest grids
    # make room for it
    quadrature_record(1, "1/4", "0", 3, "G", 1)
    assert quadrature._grid_memo_bytes() <= quadrature.GRID_MEMO_BYTES
    assert list(quadrature._GRIDS)[-1] == (64, 3)
    assert (8, 1) not in quadrature._GRIDS


def test_a_pass_owns_its_density_and_the_memo_is_read_only():
    quadrature._GRIDS.clear()
    base, sums = quadrature._ordered_pass(
        TransportParams(1, rat(1, 2), rat(1), 3), 12, lambda sums, base: (base, sums)
    )
    kept = base.copy()
    grid = quadrature._GRIDS[(12, 3)]
    memo = grid.s + grid.c + grid.vandermonde + [grid.weight, grid.jac, sums("G", 2)]
    for array in memo:
        assert not array.flags.writeable
        assert not np.shares_memory(array, base)
    quadrature._ordered_pass(
        TransportParams(1, rat(3, 2), rat(0), 3), 12, lambda sums, base: base.fill(0.0)
    )
    assert np.array_equal(base, kept)
    assert quadrature._GRIDS[(12, 3)] is grid
