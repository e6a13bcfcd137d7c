import math

import numpy as np
import pytest
from scipy import stats

from dotcumulants import montecarlo
from dotcumulants.conductance import conductance_cumulants
from dotcumulants.errors import InsufficientSamplesError, InvalidCountError, InvalidVarianceError
from dotcumulants.jointcsn import mean_shot_noise
from dotcumulants.montecarlo import (
    SampleBatch,
    edgeworth_density,
    estimate_cumulants,
    kstat_coefficients,
    sample_delay_times,
    sample_jacobi_spectrum,
)
from dotcumulants.params import DelayParams, TransportParams
from dotcumulants.rational import rat
from dotcumulants.wigner import wigner_cumulants

COE_HALF = rat(-1, 2)


def _z(estimate, se, target):
    return abs(estimate - float(target)) / se


# -- sampler validation gates (these run first: every other MC statement
#    assumes the tridiagonal constructions reproduce the exact cumulants) ----


def test_gate_delay_sampler_beta1_n20():
    p = DelayParams(1, 20)
    batch = sample_delay_times(p, 100000, seed=1815)
    exact = wigner_cumulants(p, 2).values
    ks = estimate_cumulants(batch, 2)
    assert _z(ks[0][0], ks[0][1], exact[0]) < 4
    assert _z(ks[1][0], ks[1][1], exact[1]) < 4
    assert exact[1] == rat(2, 189)  # 4/((21)(18))


def test_gate_delay_sampler_beta2_third_cumulant():
    p = DelayParams(2, 10)
    batch = sample_delay_times(p, 100000, seed=23)
    exact = wigner_cumulants(p, 3)[3]
    assert exact == rat(96, 11 * 12 * 18 * 16)
    k3, se = estimate_cumulants(batch, 3)[2]
    assert _z(k3, se, exact) < 4


def test_gate_delay_sampler_beta4():
    p = DelayParams(4, 8)
    batch = sample_delay_times(p, 100000, seed=99)
    exact = wigner_cumulants(p, 2).values
    ks = estimate_cumulants(batch, 2)
    assert _z(ks[0][0], ks[0][1], exact[0]) < 4
    assert _z(ks[1][0], ks[1][1], exact[1]) < 4


def test_gate_chain_sampler_all_betas():
    for beta, alpha in ((1, COE_HALF), (2, rat(0)), (4, rat(1))):
        p = TransportParams(beta, alpha, 0, 5)
        pair = sample_jacobi_spectrum(p, 100000, seed=314)
        seq = conductance_cumulants(p, 2)
        kg = estimate_cumulants(pair.g, 2)
        assert _z(kg[0][0], kg[0][1], seq[1]) < 4
        assert _z(kg[1][0], kg[1][1], seq[2]) < 4
        kp = estimate_cumulants(pair.p, 1)
        assert _z(kp[0][0], kp[0][1], mean_shot_noise(p)) < 4


def test_rejection_sampler_uniform_and_var():
    pair = sample_jacobi_spectrum(TransportParams(2, 0, 0, 1), 20000, seed=7)
    kg = estimate_cumulants(pair.g, 1)
    assert _z(kg[0][0], kg[0][1], rat(1, 2)) < 4
    p = TransportParams(1, COE_HALF, 0, 3)
    pair = sample_jacobi_spectrum(p, 20000, seed=8)
    seq = conductance_cumulants(p, 2)
    kg = estimate_cumulants(pair.g, 2)
    assert _z(kg[1][0], kg[1][1], seq[2]) < 4


def test_rejection_envelope_failure():
    # the beta=4, n=4 acceptance probability is the ratio of the interaction
    # normalization to the product envelope, ~2e-10; the sampler must give
    # up with the documented error instead of grinding forever
    from dotcumulants.errors import EnvelopeFailureError

    with pytest.raises(EnvelopeFailureError):
        sample_jacobi_spectrum(TransportParams(4, 0, 0, 4), 10, seed=1)


def test_shot_noise_mean_unitary_five_channels():
    p = TransportParams(2, 0, 0, 5)
    pair = sample_jacobi_spectrum(p, 100000, seed=11)
    kp = estimate_cumulants(pair.p, 1)
    assert mean_shot_noise(p) == rat(125, 198)
    assert _z(kp[0][0], kp[0][1], rat(125, 198)) < 4


def test_determinism_and_count_validation():
    p = TransportParams(2, 0, 0, 5)
    a = sample_jacobi_spectrum(p, 4000, seed=3)
    b = sample_jacobi_spectrum(p, 4000, seed=3)
    assert np.array_equal(a.g.values, b.g.values)
    assert np.array_equal(a.p.values, b.p.values)
    d1 = sample_delay_times(DelayParams(1, 20), 3000, seed=5)
    d2 = sample_delay_times(DelayParams(1, 20), 3000, seed=5)
    assert np.array_equal(d1.values, d2.values)
    with pytest.raises(InvalidCountError):
        sample_delay_times(DelayParams(1, 20), 0, seed=5)
    with pytest.raises(InvalidCountError):
        sample_jacobi_spectrum(p, -2, seed=5)


# -- k-statistics ------------------------------------------------------------------


@pytest.mark.parametrize("draw", [
    lambda: sample_delay_times(DelayParams(1, 6), 1000, 11).values.tobytes(),
    lambda: b"".join(
        batch.values.tobytes()
        for batch in sample_jacobi_spectrum(TransportParams(4, 0, 1, 5), 1000, 11)
    ),
])
def test_samples_do_not_depend_on_thread_count(monkeypatch, draw):
    # 1000 draws in sub-batches of 64: 16 jobs, so two threads share the work
    monkeypatch.setattr(montecarlo, "_SUBBATCH", 64)
    drawn = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("DOTCUMULANTS_THREADS", threads)
        drawn[threads] = draw()
    assert drawn["1"] == drawn["2"]


def test_kstats_constant_batch():
    batch = SampleBatch("G", None, 0, np.full(500, 3.25))
    ks = estimate_cumulants(batch, 5)
    assert ks[0][0] == pytest.approx(3.25, abs=1e-12)
    for k, _ in ks[1:]:
        assert abs(k) < 1e-9


def test_kstats_standard_normal():
    rng = np.random.default_rng(2024)
    batch = SampleBatch("G", None, 0, rng.normal(size=100000))
    ks = estimate_cumulants(batch, 5)
    targets = [0.0, 1.0, 0.0, 0.0, 0.0]
    for (k, se), target in zip(ks, targets):
        assert _z(k, se, target) < 4


def test_kstats_match_scipy_through_order_four():
    rng = np.random.default_rng(5)
    x = rng.exponential(size=400)
    batch = SampleBatch("G", None, 0, x)
    ks = estimate_cumulants(batch, 4)
    for r in range(1, 5):
        ref = stats.kstat(x, r)
        assert ks[r - 1][0] == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_kstats_unbiased_coefficients_exact():
    # E[k_2] = kappa_2: the N-dependent coefficients must reproduce the
    # textbook k_2 = (N S_2 - S_1^2) / (N (N-1))
    from fractions import Fraction

    coeffs = kstat_coefficients(10, 2)
    assert coeffs[(2,)] == Fraction(1, 9)
    assert coeffs[(1, 1)] == Fraction(-1, 90)


def test_kstats_delay_batch_matches_exact():
    p = DelayParams(1, 20)
    batch = sample_delay_times(p, 100000, seed=2718)
    exact = wigner_cumulants(p, 3).values
    ks = estimate_cumulants(batch, 3)
    for (k, se), target in zip(ks, exact):
        assert _z(k, se, target) < 4


def test_kstats_insufficient_samples():
    batch = SampleBatch("G", None, 0, np.arange(4.0))
    with pytest.raises(InsufficientSamplesError):
        estimate_cumulants(batch, 5)


# -- Edgeworth density ----------------------------------------------------------------


def test_edgeworth_gaussian_limit():
    x = np.linspace(-5, 5, 201)
    d = edgeworth_density([0, 1, 0, 0, 0], x)
    ref = np.exp(-x * x / 2) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(d - ref)) < 1e-15


def test_edgeworth_integrates_to_one():
    p = DelayParams(1, 20)
    K = [float(v) for v in wigner_cumulants(p, 5).values]
    sd = math.sqrt(K[1])
    xs = np.linspace(K[0] - 14 * sd, K[0] + 14 * sd, 40001)
    integral = np.trapezoid(edgeworth_density(K, xs), xs)
    assert abs(integral - 1) < 1e-6


def test_edgeworth_requires_positive_variance():
    with pytest.raises(InvalidVarianceError):
        edgeworth_density([1, 0, 0, 0, 0], np.array([0.0]))


def test_edgeworth_nonnegative_central_region():
    p = DelayParams(1, 20)
    K = [float(v) for v in wigner_cumulants(p, 5).values]
    sd = math.sqrt(K[1])
    xs = np.linspace(K[0] - 3 * sd, K[0] + 3 * sd, 500)
    assert (edgeworth_density(K, xs) >= 0).all()


def test_edgeworth_beats_gaussian_against_histogram():
    p = DelayParams(1, 20)
    K = [float(v) for v in wigner_cumulants(p, 5).values]
    batch = sample_delay_times(p, 100000, seed=20240817)
    sd = math.sqrt(K[1])
    lo, hi = K[0] - 3 * sd, K[0] + 3 * sd
    hist, edges = np.histogram(batch.values, bins=40, range=(lo, hi), density=True)
    centers = (edges[:-1] + edges[1:]) / 2
    sup_edgeworth = np.max(np.abs(hist - edgeworth_density(K, centers)))
    gauss = np.exp(-(((centers - K[0]) / sd) ** 2) / 2) / (sd * math.sqrt(2 * math.pi))
    sup_gauss = np.max(np.abs(hist - gauss))
    assert sup_edgeworth < sup_gauss
