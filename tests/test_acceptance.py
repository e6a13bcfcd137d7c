"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here and nowhere else:
  * quadrature-vs-recurrence agreement: 1e-8 relative with a 1e-12 absolute
    floor (the floor only matters for cumulants that vanish identically at
    symmetric weights, where the quadrature returns ~1e-16);
  * extrapolated limits: 0.5% relative;
  * Gaussian-factorization quadrature identity: 1e-6 relative;
  * everything labelled "exact" is compared with rational equality.
"""

import functools
import math
import time
from itertools import product

import numpy as np

from dotcumulants import asymptotics as asy
from dotcumulants.conductance import (
    conductance_cumulants,
    conductance_initial,
    fourth_cumulant_closed,
)
from dotcumulants.ensembles import (
    b_constant,
    d_constant,
    delay_coupling_beta1,
    transport_coupling_beta1,
)
from dotcumulants.jointcsn import (
    altland_identity_check,
    gaussian_factorization_check,
    joint_cumulants,
    shot_noise_variance_closed,
)
from dotcumulants.montecarlo import (
    edgeworth_density,
    estimate_cumulants,
    sample_delay_times,
)
from dotcumulants.params import DelayParams, TransportParams
from dotcumulants.rational import rat
from dotcumulants.report import TABLE2_TARGETS, limiting_delay_table
from dotcumulants.verify import (
    jacobi_identity_check,
    ode_residual_conductance,
    ode_residual_wigner,
    pde_residual_joint,
    quadrature_moments,
)
from dotcumulants.wigner import (
    chazy_residual,
    wigner_cumulants,
    wigner_fourth_closed,
    wigner_initial,
)

ALPHAS = (rat(-1, 2), rat(0), rat(1))
DELTAS = (-1, 0, 1, 2)
COE = dict(beta=1, alpha=rat(-1, 2), delta=0)   # equal leads, beta=1
CSE = dict(beta=4, alpha=rat(1), delta=0)       # equal leads, beta=4


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number:2d} {label}: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} {label}: PASS")

        return run

    return wrap


def close(numeric, exact, rel=1e-8, atol=1e-12):
    target = float(exact)
    return abs(numeric - target) <= rel * abs(target) + atol


@criterion(1, "closed-form initial cumulants vs quadrature oracle")
def test_criterion_1():
    start = time.time()
    for beta, alpha, delta, n in product((1, 2, 4), ALPHAS, DELTAS, (1, 2, 3)):
        p = TransportParams(beta, alpha, delta, n)
        exact = conductance_initial(p)
        assert conductance_cumulants(p, 3).values == exact
        oracle, _ = quadrature_moments(p, "G", 3)
        for l in (1, 2, 3):
            assert close(oracle[l], exact[l - 1]), (p, l, oracle[l], exact[l - 1])
    assert time.time() - start < 120


@criterion(2, "fourth cumulants and shot-noise variance closed forms")
def test_criterion_2():
    for beta in (1, 2):
        alpha = rat(-1, 2) if beta == 1 else rat(0)
        for delta in (0, 1):
            for n in range(5, 13):
                p = TransportParams(beta, alpha, delta, n)
                assert conductance_cumulants(p, 4)[4] == fourth_cumulant_closed(p)
    for beta in (1, 4):
        alpha = rat(-1, 2) if beta == 1 else rat(1)
        for n in range(5, 13):
            p = TransportParams(beta, alpha, 0, n)
            assert shot_noise_variance_closed(p) == joint_cumulants(p, 0, 2)[(0, 2)]


@criterion(3, "mixed-cumulant limits: convergence and 0.5% extrapolation")
def test_criterion_3():
    for family in (COE, CSE):
        p0 = TransportParams(family["beta"], family["alpha"], family["delta"], 128)
        tables = {
            n: joint_cumulants(p0.with_n(n), 6, 6) for n in (128, 256, 512)
        }
        for l in range(0, 7):
            for k in range(0, 7 - l):
                if (l, k) in asy.EXCLUDED_JOINT_INDICES:
                    continue
                nu = l + k - (1 if l % 2 == 0 else 0)
                limit = asy.limit_joint(p0, l, k)
                scaled = {
                    n: float(rat(n) ** nu * tables[n][(l, k)])
                    for n in (128, 256, 512)
                }
                if limit == 0:
                    assert abs(scaled[512]) < abs(scaled[256])
                    continue
                devs = [abs(scaled[n] / float(limit) - 1) for n in (256, 512)]
                assert devs[1] < devs[0], (family["beta"], l, k, devs)
                est, _ = asy.extrapolate_limit(
                    [(n, tables[n][(l, k)]) for n in (128, 256, 512)], nu
                )
                assert abs(est / float(limit) - 1) <= 5e-3, (
                    family["beta"], l, k, est, float(limit),
                )


@criterion(4, "staircase specializations and odd-k suppression")
def test_criterion_4():
    p = TransportParams(**COE, n=512)
    # odd conductance orders: (l-1)!/2^{l+2}; even: -(l-2)! C(l,l/2)/2^{2l+1}
    for l in (3, 5, 7):
        assert asy.limit_joint(p, l, 0) == rat(math.factorial(l - 1), 2 ** (l + 2))
    for l in (4, 6):
        assert asy.limit_joint(p, l, 0) == -rat(
            math.factorial(l - 2) * math.comb(l, l // 2), 2 ** (2 * l + 1)
        )
    # even shot-noise orders: -(k-2)! C(k,k/2)/2^{3k+1}
    for k in (4, 6):
        assert asy.limit_joint(p, 0, k) == -rat(
            math.factorial(k - 2) * math.comb(k, k // 2), 2 ** (3 * k + 1)
        )
    # odd-k leading order vanishes; at n=512 the scaled value sits far below
    # the even-k neighbour scale (k-1 = 2 is the excluded variance index, so
    # the k=3 comparison uses its k+1 neighbour only)
    table = joint_cumulants(p, 0, 6)
    for k in (3, 5):
        scaled = abs(float(rat(512) ** (k - 1) * table[(0, k)]))
        neighbours = [
            abs(float(asy.limit_joint(p, 0, kk)))
            for kk in (k - 1, k + 1)
            if (0, kk) not in asy.EXCLUDED_JOINT_INDICES
        ]
        neighbour = sum(neighbours) / len(neighbours)
        assert scaled < 0.1 * neighbour, (k, scaled, neighbour)


@criterion(5, "delay-time closed forms and variance asymptotics")
def test_criterion_5():
    for beta in (1, 2, 4):
        for n in range(2, 13):
            p = DelayParams(beta, n)
            got = wigner_initial(p)
            assert got[0] == 1
            if p.q >= 2:
                assert got[1] == rat(4, (n + 1) * (n * beta - 2))
            if p.q >= 3:
                assert got[2] == rat(
                    96, (n + 1) * (n + 2) * (n * beta - 2) * (n * beta - 4)
                )
            if p.q >= 4:
                assert wigner_cumulants(p, 4)[4] == wigner_fourth_closed(beta, n)
    for beta in (1, 2, 4):
        residuals = []
        for n in (32, 64, 128):
            K2 = wigner_initial(DelayParams(beta, n))[1]
            model = rat(4, beta) + rat(4, beta * n) * (rat(2, beta) - 1)
            residuals.append(float(abs(n * n * K2 - model)))
        # O(n^-2): the scaled residual n^2 * |...| stays bounded
        assert all(r * n * n < 64 for r, n in zip(residuals, (32, 64, 128)))
        assert residuals[0] > residuals[1] > residuals[2]


@criterion(6, "limiting delay-time table with the flagged l=3 entry")
def test_criterion_6():
    table = limiting_delay_table(max_order=8)
    beta2 = table["columns"]["2"]
    expected = ["1", "2", "24", "636", "27360", "1657440", "130515840",
                "12698673120"]
    assert [row["value"] for row in beta2] == expected
    erratum = beta2[2]["suspected_erratum"]
    assert erratum["printed_value"] == 4
    assert erratum["computed_value"] == "24"
    # the printed 4 is cross-checked wrong: the exact K_3 limit is 96/beta^2
    assert rat(96, 4) == 24
    for beta in (1, 4):
        for row in table["columns"][str(beta)]:
            assert row["within_half_percent"], row
    assert TABLE2_TARGETS[4][3] == rat(159, 2)
    assert TABLE2_TARGETS[4][7] == rat(396833535, 4)


@criterion(7, "integrality and generating-function identities to order 40")
def test_criterion_7():
    zetas = asy.zeta_coefficients(40)  # raises on any non-integer
    assert len(zetas) == 40 and zetas[0] == 4
    from dotcumulants.doubleseries import DoubleSeries

    # Omega = 1 + sum zeta_k z^k enters by its coefficients zeta_k k!
    omega = DoubleSeries.univariate([1] + [z * math.factorial(k) for k, z in enumerate(zetas, 1)], 40)
    assert asy.quartic_residual(omega).is_zero()
    F = asy.wigner_limit_generating_series(20).taylor()
    p_rec = asy.limit_wigner_recurrence(20)
    for l in range(1, 21):
        assert F[l] == p_rec[l - 1]


@criterion(8, "exact-zero residual suites with fault injection")
def test_criterion_8():
    conductance_cases = [
        (TransportParams(2, 0, 0, 5), TransportParams(2, 0, 0, 8)),
        (TransportParams(1, rat(-1, 2), 0, 8), TransportParams(1, rat(-1, 2), 0, 12)),
        (TransportParams(4, 0, 0, 7), TransportParams(4, 1, 0, 6)),
    ]
    for pair in conductance_cases:
        for p in pair:
            assert ode_residual_conductance(p, 6).passed, p
    assert not ode_residual_conductance(
        TransportParams(1, rat(-1, 2), 0, 8), 6, perturb=(5, rat(1, 1000))
    ).passed

    joint_cases = [
        TransportParams(2, 0, 0, 4),
        TransportParams(1, rat(-1, 2), 0, 8),
        TransportParams(4, 1, 0, 5),
    ]
    for p in joint_cases:
        assert pde_residual_joint(p, 4, 2).passed, p
    assert not pde_residual_joint(
        TransportParams(4, 1, 0, 5), 4, 2, perturb=((2, 1), rat(1, 1000))
    ).passed

    for p in (DelayParams(2, 10), DelayParams(1, 20), DelayParams(4, 6)):
        assert ode_residual_wigner(p, 4).passed, p
    assert not ode_residual_wigner(
        DelayParams(2, 10), 4, perturb=(2, rat(1, 1000))
    ).passed

    assert chazy_residual(10, 8).is_zero()
    assert not chazy_residual(10, 3, perturb=(2, rat(1, 1000))).is_zero()


@criterion(9, "identity suites: first column, distributional, Jacobi, dualities")
def test_criterion_9():
    # first-column identity on a parameter grid, exactly, l <= 6
    for beta, alpha in ((1, rat(-1, 2)), (2, rat(0)), (4, rat(1))):
        for delta in (0, 2):
            for n in (6, 9):
                p = TransportParams(beta, alpha, delta, n)
                t = joint_cumulants(p, 8, 1)
                c = p.alpha + p.delta / 2 + p.n * beta + 2 - beta
                for l in range(0, 7):
                    assert (l + 1) * t[(l, 1)] == c * t[(l + 2, 0)]
    # distributional identity, exactly, n <= 10, k <= 6
    for n in range(1, 11):
        rep = altland_identity_check(n, 6)
        assert rep["ok"], (n, rep["first_failure"])
    # Gaussian factorization to 1e-6, n <= 3
    for n, w in ((1, 1.0), (2, 0.5), (3, 0.35)):
        rep = gaussian_factorization_check(n, w)
        assert rep["ok"], rep
    # Jacobi identity grid
    assert jacobi_identity_check(8, 8)["ok"]
    # coupling-constant dualities, exactly, n <= 8
    for n in range(2, 9):
        for alpha, delta in ((rat(0), rat(0)), (rat(1, 2), rat(1))):
            assert b_constant(
                TransportParams(4, alpha, delta, n)
            ) == transport_coupling_beta1(-alpha / 2, -delta / 2, -2 * n)
        p = DelayParams(4, n)
        assert 16 * d_constant(p) == delay_coupling_beta1(-p.b / 2, -2 * n)


@criterion(10, "desk-scale Monte Carlo and Edgeworth comparison")
def test_criterion_10():
    start = time.time()
    p = DelayParams(1, 20)
    exact = wigner_cumulants(p, 5).values
    batch = sample_delay_times(p, 100000, seed=20240817)
    stats = estimate_cumulants(batch, 3)
    for (k, se), target in zip(stats, exact[:3]):
        assert abs(k - float(target)) < 4 * se, (k, se, float(target))
    K = [float(v) for v in exact]
    sd = math.sqrt(K[1])
    lo, hi = K[0] - 3 * sd, K[0] + 3 * sd
    hist, edges = np.histogram(batch.values, bins=40, range=(lo, hi), density=True)
    centers = (edges[:-1] + edges[1:]) / 2
    sup_edgeworth = float(np.max(np.abs(hist - edgeworth_density(K, centers))))
    gauss = np.exp(-(((centers - K[0]) / sd) ** 2) / 2) / (
        sd * math.sqrt(2 * math.pi)
    )
    sup_gauss = float(np.max(np.abs(hist - gauss)))
    assert sup_edgeworth < sup_gauss
    assert time.time() - start < 300
