import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from dotcumulants import montecarlo
from dotcumulants.conductance import conductance_cumulants
from dotcumulants.errors import (
    InsufficientSamplesError,
    InvalidCountError,
    InvalidVarianceError,
    NonexistentCumulantError,
    UnsupportedParameterError,
)
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


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


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


def test_delay_sampler_rejects_non_default_b():
    with pytest.raises(UnsupportedParameterError) as info:
        sample_delay_times(DelayParams(1, 20, 30), 10, seed=5)
    assert info.value.token == "unsupported-parameter"


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


def test_kstats_are_exactly_unbiased_on_a_finite_population():
    """E[k_r] = kappa_r for r = 1..5, over every sample of N = 6 draws from
    {0, 1, 3} with probabilities (1/2, 1/3, 1/6), in exact arithmetic; the
    cumulants come from the exact raw moments, not from the k-statistics."""
    from fractions import Fraction
    from itertools import product

    from dotcumulants.doubleseries import moments_to_cumulants

    N = 6
    law = {0: Fraction(1, 2), 1: Fraction(1, 3), 3: Fraction(1, 6)}
    moments = {(r, 0): sum(p * x**r for x, p in law.items()) for r in range(6)}
    kappa = moments_to_cumulants(moments, 5)
    expected = [Fraction(0)] * 5
    for sample in product(law, repeat=N):
        weight = math.prod(law[x] for x in sample)
        S = [None] + [sum(x**a for x in sample) for a in range(1, 6)]
        for r in range(1, 6):
            k = sum(c * math.prod(S[a] for a in lam)
                    for lam, c in kstat_coefficients(N, r).items())
            expected[r - 1] += weight * k
    assert expected == [kappa[(r, 0)] for r in range(1, 6)]


#: SHA-256 of ``str(kstat_coefficients(N, r))`` for r = 1..5, per N
KSTAT_COEFFICIENT_DIGESTS = {
    6: ["7622c945437279c5ea5dec51a36dde74ba307056d0473e3870ed34d20efa2170",
        "c05d00f3a3c540aeb803f9b1e0e0856d7bcb4d7382eba356b1ec8a758a9b72b6",
        "8f5c47d81e7a8d8f69a302c72687e338f57769095386aefc13de964c3a0df58a",
        "30ca4b8ac48e63f445f4f26697ea4e241edb276549e5a15c96933e31c0153ff7",
        "3e3c34451dd7684722a03af0003f0f39667146c8916d018fc9cbf99d064911cd"],
    10: ["59cf575a5feb56684707dfe19f9d7301d998d66431456341f13bb8103e252620",
         "4c32f791c49fbcd80af262e649fa446e2ae224606c6664a4e6698a592c7cdd59",
         "c6e0e213428d338b4bede50d97dea3fca764f1853e7157246cfd966ff5996210",
         "ed40ba5d2d26b163886276ccb715879fe57c1dc8dbcb5a0234a4b37a511a4806",
         "46c8b995d9019cfff30ac4a26ad623aca76346d20b6333df2bd855209f64823d"],
    250000: ["302aa45bd6a8c32f49ff7201a20b7091247954e56ad839ae1df88a3fed4f9a6f",
             "28a16cd1403eb6ae2e227f10a7a0a29c5a474ff2390263b25d00af2bb9b73966",
             "65594e2158911526078b58cd1c1cb0099f3650859e31d1e6b4bc9e43bf745f32",
             "ebbc4f4c8d7ebaa53bba8784ad4e370344990882652775dca5a0172b8027d847",
             "94a58f8243af5a8b14c3a5d64971b6f7ce7785e16668efd89d81be3edd14ae9e"],
}

#: SHA-256 of the ``repr`` of the k-statistics through order 5, with their
#: standard errors, of 100000 delay-time draws at beta=1, n=20, seed 2718
DELAY_KSTATS_DIGEST = "efb56f021afbc3ea94328cfd569c53b3b0c3bb360fd772795ca06b41e5cfcc62"


def test_kstat_coefficients_and_estimates_are_pinned():
    """The coefficients keep their values and their key order (the order in
    which the terms of each k_r are added), so the estimates keep every bit."""
    for N, digests in KSTAT_COEFFICIENT_DIGESTS.items():
        got = [_sha256(str(kstat_coefficients(N, r))) for r in range(1, 6)]
        assert got == digests, N
    batch = sample_delay_times(DelayParams(1, 20), 100000, seed=2718)
    assert _sha256(repr(estimate_cumulants(batch, 5))) == DELAY_KSTATS_DIGEST


def test_kstat_coefficients_stop_at_order_five():
    for r in (0, 6):
        with pytest.raises(InsufficientSamplesError, match="through order 5"):
            kstat_coefficients(10, r)


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


# -- bounded working memory ------------------------------------------------------------


def _traced_peak(fn):
    """fn() and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kstats_working_memory_is_bounded():
    x = np.random.default_rng(19).exponential(size=2**19)
    batch = SampleBatch("G", None, 0, x)
    _, peak = _traced_peak(lambda: estimate_cumulants(batch, 5))
    assert peak < 4e6  # the batch itself is 4.2 MB


def test_chain_sampler_working_memory_is_bounded(monkeypatch):
    monkeypatch.setenv("DOTCUMULANTS_THREADS", "1")
    p = TransportParams(1, COE_HALF, 0, 20)
    pair, peak = _traced_peak(lambda: sample_jacobi_spectrum(p, 2**18, 4242))
    outputs = pair.g.values.nbytes + pair.p.values.nbytes
    assert peak - outputs < 2e6


# -- equivalence with the all-at-once kernels ---------------------------------------------


def _matrix_chain(p, count, seed):
    """The chain sampler with (c, 2n-1) u/zeta and (c, n) diag/off2 matrices
    per sub-batch, on the same generators as ``montecarlo._sample_chain``."""
    n = p.n
    params = montecarlo._chain_beta_parameters(p.beta, p.alpha, p.delta, n)
    G = np.empty(count)
    T2 = np.empty(count)

    def worker(rng, c):
        u = np.empty((c, 2 * n - 1))
        for idx, (s, t) in enumerate(params):
            u[:, idx] = rng.beta(s, t, size=c)
        zeta = np.empty((c, 2 * n - 1))
        zeta[:, 0] = u[:, 0]
        for idx in range(1, 2 * n - 1):
            zeta[:, idx] = (1.0 - u[:, idx - 1]) * u[:, idx]
        diag = np.empty((c, n))
        diag[:, 0] = zeta[:, 0]
        for k in range(2, n + 1):
            diag[:, k - 1] = zeta[:, 2 * k - 3] + zeta[:, 2 * k - 2]
        off2 = np.empty((c, n - 1))
        for k in range(1, n):
            off2[:, k - 1] = zeta[:, 2 * k - 2] * zeta[:, 2 * k - 1]
        return diag.sum(axis=1), (diag**2).sum(axis=1) + 2.0 * off2.sum(axis=1)

    montecarlo._fill_subbatches(seed, count, (G, T2), worker)
    return G, G - T2


@pytest.mark.parametrize("beta,alpha", [(1, COE_HALF), (2, rat(0)), (4, rat(1))])
@pytest.mark.parametrize("n", [5, 8, 20])
def test_streaming_chain_matches_matrix_chain(beta, alpha, n):
    p = TransportParams(beta, alpha, 1, n)
    count = 2 * montecarlo._SUBBATCH + 77
    pair = sample_jacobi_spectrum(p, count, seed=606)
    for streamed, reference in zip((pair.g.values, pair.p.values), _matrix_chain(p, count, 606)):
        assert np.max(np.abs(streamed - reference) / np.abs(reference)) < 1e-13


#: SHA-256 of the G then P bytes of a 4096-draw chain batch, seed 2024
CHAIN_DIGESTS = {
    (1, "-1/2", "0", 8): "c90fef59c8212ee0c525b0ba2ec857d6f17b947b02d4dd663797ff0b9c543b47",
    (2, "3/2", "-1", 6): "3d597c70685c720878a90db4788e17b1641b494faed8b0ed9cfb02d886c9bda1",
    (4, "1", "1/2", 5): "c3015c7bde7c0f72d6acf1ec19219346226a2f3a2e7f8f31f2e4568f59fab002",
}


@pytest.mark.parametrize("case", sorted(CHAIN_DIGESTS))
def test_chain_batches_match_their_pinned_digests(monkeypatch, case):
    monkeypatch.setenv("DOTCUMULANTS_THREADS", "1")
    beta, alpha, delta, n = case
    pair = sample_jacobi_spectrum(TransportParams(beta, rat(alpha), rat(delta), n), 4096, 2024)
    digest = hashlib.sha256(pair.g.values.tobytes() + pair.p.values.tobytes()).hexdigest()
    assert digest == CHAIN_DIGESTS[case]


def _all_at_once_kstats(x, max_order):
    """k-statistics with every power and leave-one-out power sum held as an
    N-length array, and the jackknife variance about the leave-one-out mean."""
    N = len(x)

    def kstats(S, size):
        out = []
        for r in range(1, max_order + 1):
            val = np.zeros_like(np.asarray(S[1], dtype=float))
            for lam, c in kstat_coefficients(size, r).items():
                term = float(c) * np.ones_like(val)
                for a in lam:
                    term = term * S[a]
                val = val + term
            out.append(val)
        return out

    powers = [None] + [x**a for a in range(1, max_order + 1)]
    S = [None] + [float(powers[a].sum()) for a in range(1, max_order + 1)]
    full = kstats([None] + [np.array(s) for s in S[1:]], N)
    loo = kstats([None] + [S[a] - powers[a] for a in range(1, max_order + 1)], N - 1)
    return [
        (float(k), math.sqrt((N - 1) / N * float(((kl - kl.mean()) ** 2).sum())))
        for k, kl in zip(full, loo)
    ]


@pytest.mark.parametrize("draw", [
    lambda count: sample_delay_times(DelayParams(1, 20), count, 77).values,
    lambda count: np.random.default_rng(78).exponential(size=count),
])
def test_blockwise_jackknife_matches_all_at_once(draw):
    # three whole blocks and a partial one
    x = draw(3 * montecarlo._SUBBATCH + 123)
    blockwise = estimate_cumulants(SampleBatch("tauW", None, 0, x), 5)
    for (k, se), (k_ref, se_ref) in zip(blockwise, _all_at_once_kstats(x, 5)):
        assert k == pytest.approx(k_ref, rel=1e-9)
        assert se == pytest.approx(se_ref, rel=1e-6)


def test_kstats_are_shift_invariant():
    # raw power sums of x + 1000 cancel to k_4 = -9.8e-4 and k_5 = 4.0 here
    x = sample_delay_times(DelayParams(1, 20), 49275, 3).values
    plain = estimate_cumulants(SampleBatch("tauW", None, 0, x), 5)
    shifted = estimate_cumulants(SampleBatch("tauW", None, 0, x + 1000.0), 5)
    assert shifted[0][0] == pytest.approx(plain[0][0] + 1000.0, rel=1e-12)
    for (k, _), (k_shift, _) in zip(plain[1:], shifted[1:]):
        assert k_shift == pytest.approx(k, rel=1e-9)
    for (_, se), (_, se_shift) in zip(plain, shifted):
        assert se_shift == pytest.approx(se, rel=1e-6)


# -- Edgeworth below five cumulants ---------------------------------------------------------


def test_edgeworth_needs_five_cumulants():
    with pytest.raises(NonexistentCumulantError) as info:
        edgeworth_density([1.0, 0.5, 0.1, 0.01], np.array([1.0]))
    assert info.value.token == "nonexistent-cumulant"
