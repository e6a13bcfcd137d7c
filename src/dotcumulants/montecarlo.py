"""Monte Carlo sampling of transmission eigenvalues and proper delay times,
unbiased cumulant estimation (Fisher's k-statistics, from their closed forms
through order 5), and the five-cumulant Edgeworth density.

Randomness: numpy's PCG64 seeded through SeedSequence.  Batches are drawn in
fixed-size sub-batches whose seeds are spawned from the master seed, so the
same (seed, params, count) always produces byte-identical values and merging
is order-independent.

Working memory beyond the returned arrays is O(sub-batch) per thread: the
chain sampler walks the chain one position at a time with running sums, and
the k-statistics and their jackknife go through the batch one sub-batch-sized
block at a time.  Chain batches therefore differ in the last bits from those
of the earlier matrix-form sampler, whose sums ran in another order; the tauW
and rejection batches are unchanged.

The tridiagonal sampler constructions are validated against the exact
low-order cumulants in the test suite; a failed match there is a sampler bug
by definition, so the degree-of-freedom maps below carry no authority of
their own.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    EnvelopeFailureError,
    InsufficientSamplesError,
    InvalidCountError,
    InvalidVarianceError,
    NonexistentCumulantError,
    UnsupportedParameterError,
)
from .params import DelayParams, TransportParams

_SUBBATCH = 1 << 14


@dataclass(frozen=True)
class SampleBatch:
    statistic: str  # "G", "P" or "tauW"
    params: object
    seed: int
    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False

    @property
    def count(self):
        return len(self.values)


class JacobiSample(NamedTuple):
    g: SampleBatch
    p: SampleBatch


def _rng_stream(seed):
    """Unbounded deterministic stream of independent generators: child i is
    PCG64 seeded by SeedSequence(seed, spawn_key=(i,)), so a sampler may
    consume as many sub-batches as it needs while staying reproducible."""
    i = 0
    while True:
        yield np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        i += 1


def _subbatch_rngs(seed, count):
    out = []
    done = 0
    stream = _rng_stream(seed)
    while done < count:
        c = min(_SUBBATCH, count - done)
        out.append((next(stream), c))
        done += c
    return out


def _thread_count():
    try:
        return max(1, int(os.environ.get("DOTCUMULANTS_THREADS", "1")))
    except ValueError:
        return 1


def _fill_subbatches(seed, count, out_arrays, worker):
    """Run ``worker(rng, chunk)`` per sub-batch and scatter the results into
    preallocated arrays.  Each sub-batch owns an independent generator, so
    the output is identical whatever the thread count."""
    jobs = []
    pos = 0
    for rng, c in _subbatch_rngs(seed, count):
        jobs.append((rng, c, pos))
        pos += c

    def run(job):
        rng, c, offset = job
        results = worker(rng, c)
        for target, values in zip(out_arrays, results):
            target[offset : offset + c] = values

    threads = _thread_count()
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, jobs))
    else:
        for job in jobs:
            run(job)


# -- Wigner delay time -------------------------------------------------------------


def sample_delay_times(p: DelayParams, count, seed) -> SampleBatch:
    """Draws of the Wigner delay time via the inverse spectrum.

    With x = 1/tau the jpdf is Laguerre-type with weight exponent
    omega = beta*n/2 and rate beta*n/2; rescaling to rate 1/2 gives the
    bidiagonal chi-squared factorization with degrees of freedom
    2a - beta*(i-1) on the diagonal (2a = 2*omega + 2 + beta*(n-1)) and
    beta*(n-i) below it.  Then tauW = beta * trace((B B^T)^{-1}), computed
    from the closed form of the inverse's Frobenius norm.
    """
    if count < 1:
        raise InvalidCountError("count must be >= 1")
    if not p.has_default_b:
        raise UnsupportedParameterError("sampler is defined for the default weight exponent")
    beta, n = p.beta, p.n
    two_a = beta * n + 2 + beta * (n - 1)
    diag_df = np.array([two_a - beta * (i - 1) for i in range(1, n + 1)], dtype=float)
    sub_df = np.array([beta * (n - i) for i in range(1, n)], dtype=float)
    out = np.empty(count)

    def worker(rng, c):
        d2 = rng.chisquare(diag_df, size=(c, n))
        e2 = rng.chisquare(sub_df, size=(c, n - 1)) if n > 1 else np.zeros((c, 0))
        # trace((B B^T)^{-1}) = sum_j c_j / d_j^2 with the backward recursion
        # c_j = 1 + (e_j^2 / d_{j+1}^2) c_{j+1}
        acc = np.ones(c)
        trace = np.ones(c) / d2[:, n - 1]
        for j in range(n - 2, -1, -1):
            acc = 1.0 + (e2[:, j] / d2[:, j + 1]) * acc
            trace += acc / d2[:, j]
        return (beta * trace,)

    _fill_subbatches(seed, count, (out,), worker)
    return SampleBatch(statistic="tauW", params=p, seed=seed, values=out)


# -- transmission eigenvalues -------------------------------------------------------


def _sample_rejection(p: TransportParams, count, seed):
    """Exact rejection against the product-Beta envelope (small n): propose
    i.i.d. Beta(alpha+1, delta/2+1) and accept with probability
    prod |T_k - T_j|^beta <= 1."""
    a = float(p.alpha) + 1.0
    b = float(p.delta) / 2.0 + 1.0
    n = p.n
    got_g, got_p = [], []
    remaining = count
    attempts = 0
    for rng in _rng_stream(seed):
        T = rng.beta(a, b, size=(_SUBBATCH, n))
        accept_prob = np.ones(_SUBBATCH)
        for i in range(n):
            for j in range(i + 1, n):
                accept_prob *= np.abs(T[:, i] - T[:, j]) ** p.beta
        keep = rng.random(_SUBBATCH) < accept_prob
        attempts += _SUBBATCH
        Tk = T[keep][:remaining]
        got_g.append(Tk.sum(axis=1))
        got_p.append((Tk * (1.0 - Tk)).sum(axis=1))
        remaining -= len(Tk)
        if remaining <= 0:
            break
        if attempts >= (1 << 22) and (count - remaining) / attempts < 1e-6:
            raise EnvelopeFailureError(
                f"rejection acceptance rate below 1e-6 after {attempts} proposals"
            )
    return np.concatenate(got_g), np.concatenate(got_p)


def _chain_beta_parameters(beta, alpha, delta, n):
    """Beta-distribution parameters of the canonical-moment chain whose
    tridiagonal matrix has the transport ensemble as its spectrum.

    Odd positions (j = 1..n):    Beta((n-j) b/2 + a + 1, (n-j) b/2 + d + 1)
    Even positions (j = 1..n-1): Beta((n-j) b/2, (n-j-1) b/2 + a + d + 2)
    with a = alpha, d = delta/2.  Validated against exact kappa_1, kappa_2.
    """
    a = float(alpha)
    d = float(delta) / 2.0
    out = []
    for pos in range(1, 2 * n):
        if pos % 2 == 1:
            j = (pos + 1) // 2
            out.append(((n - j) * beta / 2.0 + a + 1.0, (n - j) * beta / 2.0 + d + 1.0))
        else:
            j = pos // 2
            out.append(((n - j) * beta / 2.0, (n - j - 1) * beta / 2.0 + a + d + 2.0))
    return out


def _sample_chain(p: TransportParams, count, seed):
    """Tridiagonal construction for larger n: independent Beta canonical
    moments feed the chain zeta_j = (1 - p_{j-1}) p_j, and the statistics
    come from traces of the Jacobi matrix (no eigendecomposition needed):
    G = tr J, sum T^2 = tr J^2.

    The worker walks the chain one position at a time, adding each diagonal
    entry and each squared off-diagonal entry to running sums, so a
    sub-batch holds a few vectors of its length and no matrix."""
    n = p.n
    params = _chain_beta_parameters(p.beta, p.alpha, p.delta, n)
    G = np.empty(count)
    P = np.empty(count)

    def worker(rng, c):
        # diagonal entries a_k = zeta_{2k-2} + zeta_{2k-1} complete at even
        # positions, squared off-diagonal entries b_k^2 = zeta_{2k-1} zeta_{2k}
        # at odd ones; u_0 := zeta_0 := 0 starts the chain
        g = np.zeros(c)
        tr2 = np.zeros(c)
        u_prev = zeta_prev = 0.0
        for idx, (s, t) in enumerate(params):
            u = rng.beta(s, t, size=c)
            zeta = (1.0 - u_prev) * u
            if idx % 2 == 0:
                a = zeta_prev + zeta
                g += a
                tr2 += a * a
            else:
                tr2 += 2.0 * zeta_prev * zeta
            u_prev, zeta_prev = u, zeta
        return g, g - tr2

    _fill_subbatches(seed, count, (G, P), worker)
    return G, P


def sample_jacobi_spectrum(p: TransportParams, count, seed) -> JacobiSample:
    """Batches of (G, P): exact rejection sampling for n <= 4, the validated
    tridiagonal chain construction for larger n."""
    if count < 1:
        raise InvalidCountError("count must be >= 1")
    if p.n <= 4:
        g, pp = _sample_rejection(p, count, seed)
    else:
        g, pp = _sample_chain(p, count, seed)
    return JacobiSample(
        g=SampleBatch(statistic="G", params=p, seed=seed, values=g),
        p=SampleBatch(statistic="P", params=p, seed=seed, values=pp),
    )


# -- k-statistics --------------------------------------------------------------------

_KSTAT_ORDERS = "k-statistics implemented through order 5"

#: Fisher's k-statistics: per order r, the numerator polynomial in N of the
#: coefficient of prod_i S_{lambda_i} for each power-sum partition lambda of
#: r, over the falling factorial N (N-1) ... (N-r+1) (Fisher 1930; Kendall &
#: Stuart, Advanced Theory of Statistics vol. 1, ch. 12).  Partitions run
#: from (r) down to (1, ..., 1), the order in which ``_kstat`` adds terms.
_FISHER = (
    {(1,): lambda N: 1},
    {(2,): lambda N: N, (1, 1): lambda N: -1},
    {(3,): lambda N: N**2, (2, 1): lambda N: -3 * N, (1, 1, 1): lambda N: 2},
    {
        (4,): lambda N: N**3 + N**2,
        (3, 1): lambda N: -4 * (N**2 + N),
        (2, 2): lambda N: -3 * (N**2 - N),
        (2, 1, 1): lambda N: 12 * N,
        (1, 1, 1, 1): lambda N: -6,
    },
    {
        (5,): lambda N: N**4 + 5 * N**3,
        (4, 1): lambda N: -5 * (N**3 + 5 * N**2),
        (3, 2): lambda N: -10 * (N**3 - N**2),
        (3, 1, 1): lambda N: 20 * (N**2 + 2 * N),
        (2, 2, 1): lambda N: 30 * (N**2 - N),
        (2, 1, 1, 1): lambda N: -60 * N,
        (1, 1, 1, 1, 1): lambda N: 24,
    },
)


def kstat_coefficients(N, r):
    """Coefficients c_lambda with k_r = sum_lambda c_lambda prod_i S_{lambda_i}
    (S_a = power sums), the unbiased estimator of kappa_r from an i.i.d.
    sample of size N, for r = 1..5."""
    if not 1 <= r <= len(_FISHER):
        raise InsufficientSamplesError(_KSTAT_ORDERS)
    falling = math.perm(N, r)
    return {lam: Fraction(num(N), falling) for lam, num in _FISHER[r - 1].items()}


def _kstat_terms(N, max_order):
    """Per order r = 1..max_order, the (float coefficient, partition) terms of
    k_r at sample size N."""
    return [
        [(float(c), lam) for lam, c in kstat_coefficients(N, r).items()]
        for r in range(1, max_order + 1)
    ]


def _kstat(terms, S):
    """k_r = sum_lambda c_lambda prod_i S_{lambda_i}, where S[a] is a power
    sum or a vector of them."""
    val = 0.0
    for c, lam in terms:
        term = c
        for a in lam:
            term = term * S[a]
        val = val + term
    return val


def _power_vectors(xb, max_order):
    """[None, xb, xb^2, ..., xb^max_order] for one block."""
    out = [None, xb]
    for _ in range(1, max_order):
        out.append(out[-1] * xb)
    return out


def estimate_cumulants(batch: SampleBatch, max_order=5):
    """Unbiased k-statistics k_1..k_max_order with delete-one jackknife
    standard errors.

    Both passes over the batch work one block of ``_SUBBATCH`` samples at a
    time: the first adds up the power sums S_a, the second evaluates the
    leave-one-out k_r of every sample in the block and accumulates its gap d
    to the full-sample k_r and d^2.  The gaps are small, so the variance
    sum d^2 - (sum d)^2 / N about their mean suffers no cancellation.

    Each block is taken about one fixed centre c, the mean of the first
    block, before its powers are formed: k_2.. and every gap are unchanged
    by a shift, and power sums about c do not cancel when the batch sits far
    from zero.  Only k_1 gets c added back."""
    if max_order > len(_FISHER):
        raise InsufficientSamplesError(_KSTAT_ORDERS)
    x = np.asarray(batch.values, dtype=float)
    N = len(x)
    if N <= max_order:
        raise InsufficientSamplesError("need more samples than the max order")
    blocks = [x[i : i + _SUBBATCH] for i in range(0, N, _SUBBATCH)]
    centre = float(blocks[0].mean())
    S = [None] + [0.0] * max_order
    for xb in blocks:
        powers = _power_vectors(xb - centre, max_order)
        for a in range(1, max_order + 1):
            S[a] += float(powers[a].sum())
    full = [_kstat(terms, S) for terms in _kstat_terms(N, max_order)]
    loo_terms = _kstat_terms(N - 1, max_order)
    gap = [0.0] * max_order
    gap2 = [0.0] * max_order
    for xb in blocks:
        powers = _power_vectors(xb - centre, max_order)
        S_loo = [None] + [S[a] - powers[a] for a in range(1, max_order + 1)]
        for r in range(max_order):
            d = _kstat(loo_terms[r], S_loo) - full[r]
            gap[r] += float(d.sum())
            d *= d
            gap2[r] += float(d.sum())
    full[0] += centre
    # rounding can leave a zero variance a hair below zero
    return [
        (k, math.sqrt(max(0.0, (N - 1) / N * (g2 - g * g / N))))
        for k, g, g2 in zip(full, gap, gap2)
    ]


# -- Edgeworth density ----------------------------------------------------------------


def _hermite_e(degree, u):
    coeffs = [0.0] * degree + [1.0]
    return np.polynomial.hermite_e.hermeval(u, coeffs)


def edgeworth_density(K, x_grid):
    """Five-cumulant Edgeworth density on the caller's grid, in original units.

    Standard term grouping through the third correction order: with
    g3 = K3/K2^{3/2}, g4 = K4/K2^2, g5 = K5/K2^{5/2}, the standardized
    density is phi(u) [1 + g3 He3/6 + (g4 He4/24 + g3^2 He6/72)
    + (g5 He5/120 + g3 g4 He7/144 + g3^3 He9/1296)].  It needs K_1..K_5;
    fewer raise ``NonexistentCumulantError`` rather than dropping corrections.
    """
    K = list(K)
    if len(K) < 5:
        raise NonexistentCumulantError(
            f"the Edgeworth density needs five cumulants, got {len(K)}"
        )
    mean, var = float(K[0]), float(K[1])
    if var <= 0:
        raise InvalidVarianceError("K_2 must be positive")
    sd = math.sqrt(var)
    g3 = float(K[2]) / sd**3
    g4 = float(K[3]) / sd**4
    g5 = float(K[4]) / sd**5
    u = (np.asarray(x_grid, dtype=float) - mean) / sd
    phi = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    series = (
        1.0
        + g3 * _hermite_e(3, u) / 6.0
        + g4 * _hermite_e(4, u) / 24.0
        + g3 * g3 * _hermite_e(6, u) / 72.0
        + g5 * _hermite_e(5, u) / 120.0
        + g3 * g4 * _hermite_e(7, u) / 144.0
        + g3**3 * _hermite_e(9, u) / 1296.0
    )
    return phi * series / sd
