"""Leading-order cumulant limits.

Every limit here has two independent computation paths: a closed form and an
iteration of the corresponding limiting recurrence.  Exact disagreement
between the two is a hard failure; the cross-check operationalizes the
underlying proofs as executable tests.

The conductance and shot-noise limits are the k=0 column and the l=0 row of
``limit_joint``, the one closed form for the mixed kappa_{l,k}.  Every limit
takes beta in {1,4} (else ``UnsupportedBetaError``) and l >= 0, k >= 0 with
(l, k) not in ``EXCLUDED_JOINT_INDICES`` (else ``ExcludedIndexError``, from
``check_index``); the cross-check paths take bounds >= 0 (else
``InvalidOrderError``).

Scaling conventions (the power nu with n^nu * cumulant -> limit):
  conductance: nu(l) = l - eps(l), eps(l) = 1 for even l, 0 for odd l;
  joint:       nu(l,k) = l + k - eps(l);
  delay time:  nu(l) = 2l - 2.

The beta=2 delay-time series (Omega, the generating function F and their
residuals) are ``DoubleSeries`` on (L, 0) rectangles, read through their
Taylor coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .doubleseries import DoubleSeries
from .errors import (
    ExcludedIndexError,
    IllConditionedError,
    IntegralityViolationError,
    InvalidOrderError,
    UnsupportedBetaError,
)
from .params import TransportParams
from .rational import dot, is_integral, rat, rationals

#: Indices where the uniform-scaling limit statement does not apply
#: (mean/variance-type entries with their own universal constants).
EXCLUDED_JOINT_INDICES = {(0, 0), (1, 0), (0, 1), (0, 2), (2, 0)}


def eps(l):
    return 1 if l % 2 == 0 else 0


def scaling_exponent(kind, l, k=0):
    """The power nu with n^nu * cumulant -> limit, for kind "conductance",
    "joint" or "wigner" (the delay time); see the module docstring."""
    if kind == "wigner":
        return 2 * l - 2
    return l + k - eps(l)


@dataclass(frozen=True)
class LimitCoefficients:
    kind: str
    values: dict
    scaling_exponent: dict


# -- conductance -------------------------------------------------------------------


def _check_beta14(p):
    if p.beta not in (1, 4):
        raise UnsupportedBetaError(
            "leading-order limits are stated for beta in {1,4}; the beta=2 "
            "cumulants are of subleading order"
        )


def check_index(l, k):
    """The index half of the limits' rule, which holds for every beta: l >= 0,
    k >= 0 and (l, k) not in ``EXCLUDED_JOINT_INDICES``."""
    if l < 0 or k < 0 or (l, k) in EXCLUDED_JOINT_INDICES:
        raise ExcludedIndexError(f"({l},{k}) has no uniform-scaling limit")


def _check_bounds(**bounds):
    """The bounds of a cross-check path, each of which must be >= 0."""
    for name, value in bounds.items():
        if value < 0:
            raise InvalidOrderError(f"{name} must be >= 0, got {value}")


def limit_conductance(p: TransportParams, l):
    """Closed-form limit of n^{l - eps(l)} kappa_l: the k=0 column of
    ``limit_joint``."""
    return limit_joint(p, l, 0)


def iterate_limit_conductance(p: TransportParams, max_l):
    """Iterate the limiting recurrence from its four seeds; independent
    cross-check path for the k=0 column of ``limit_joint``."""
    _check_beta14(p)
    _check_bounds(max_l=max_l)
    beta, a, d = rat(p.beta), p.alpha, p.delta
    odd_amp = (d / 2 - a) * (a + d / 2 + 2 - beta)
    out = {
        3: odd_amp / (4 * beta**4),
        5: 3 * odd_amp / (4 * beta**6),
        4: (beta / 2 - 1) * rat(3) / (64 * beta**4),
        6: (beta / 2 - 1) * rat(15) / (128 * beta**6),
    }
    for l in range(6, max_l):
        e = eps(l)
        rhs = (
            rat(3, 16)
            / beta**2
            * l
            * (l - 1)
            * (l - 2)
            * (l - 3 + e)
            * (l - 4 + e)
            * out[l - 3]
        )
        out[l + 1] = (
            rat(1, 4) * l * (l - 1) * (4 * l - 5) * out[l - 1] - rhs
        ) / (beta**2 * (l + 1))
    return {l: v for l, v in out.items() if 3 <= l <= max_l}


# -- joint conductance / shot noise --------------------------------------------------


def staircase_sum(l, k):
    """sum_j C(2j+l, j+l/2) C(k,j) (-2)^{-j} for even l >= 0 and k >= 0, exact."""
    _check_bounds(l=l, k=k)
    acc = rat(0)
    for j in range(k + 1):
        acc += (
            math.comb(2 * j + l, j + l // 2) * math.comb(k, j) * rat(-1, 2) ** j
        )
    return acc


def limit_joint(p: TransportParams, l, k):
    """Closed-form limit of n^{l + k - eps(l)} kappa_{l,k}."""
    _check_beta14(p)
    check_index(l, k)
    beta, a, d = p.beta, p.alpha, p.delta
    if l % 2 == 1:
        return (
            (d / 2 - a)
            * (a + d / 2 + 2 - beta)
            * math.factorial(k + l - 1)
            / (beta * rat(2 * beta) ** l * rat(4 * beta) ** k)
        )
    return (
        rat(-1) ** k
        * (rat(beta, 2) - 1)
        * math.factorial(l + k - 2)
        / (rat(4 * beta) ** k * rat(4 * beta) ** l)
        * staircase_sum(l, k)
    )


def iterate_limit_joint(max_l, max_k):
    """Iterate the rescaled limiting double recurrence from its k=0 row.

    Returns the rescaled table t[(l,k)]; the physical limit is
    C(alpha,beta,delta-parity) * t[(l,k)] / ((4 beta)^k (2 beta)^{l+eps(l)-1}).

    Seeding: the k=0 row uses the algebraic continuation of the row formulas
    at l in {1,2} (the recurrence consumes them even though those indices
    carry no uniform-scaling limit).  In the l=0 column the k=1,2 recurrence
    instances are NOT valid (they touch the variance-type entries whose
    scaling differs), so t[(0,2)] and t[(0,3)] are seeded from the closed
    form and iteration resumes at the valid k>=3 instances; everything at
    (0, k>=4) is then produced independently.
    """
    _check_bounds(max_l=max_l, max_k=max_k)
    t = {}
    for l in range(1, max_l + 2 * max_k + 3):
        if l % 2 == 1:
            t[(l, 0)] = rat(math.factorial(l - 1))
        else:
            t[(l, 0)] = rat(math.factorial(l - 2) * math.comb(l, l // 2), 4 ** (l // 2))
    for k in (2, 3):
        t[(0, k)] = rat(-1) ** k * math.factorial(k - 2) * staircase_sum(0, k)
    for k in range(0, max_k + 1):
        for l in range(0, max_l + 2 * (max_k - k) + 1):
            if l == 0 and k < 3:
                continue
            # instance (l, k) of the rescaled recurrence produces t[(l, k+1)]
            lead = 2 * l + 3 * k + 2
            acc = 2 * t[(l + 2, k)]
            if k >= 1:
                acc -= 2 * k * t[(l + 2, k - 1)]
                w = 3 * k * (l + k - 1 - eps(l)) * (l + k - eps(l))
                if w != 0:
                    acc += w * t[(l, k - 1)]
            t[(l, k + 1)] = acc / lead
    return t


def joint_limit_from_iteration(p: TransportParams, l, k, table=None):
    """Physical limit from the iterated rescaled table (cross-check path)."""
    _check_beta14(p)
    check_index(l, k)
    beta, a, d = p.beta, p.alpha, p.delta
    if table is None:
        table = iterate_limit_joint(l, k)
    if l % 2 == 1:
        amp = (d / 2 - a) * (a + d / 2 + 2 - beta) / (2 * rat(beta) ** 2)
    else:
        amp = rat(beta, 2) - 1
    return amp * table[(l, k)] / (rat(4 * beta) ** k * rat(2 * beta) ** (l + eps(l) - 1))


# -- Wigner delay time (beta=2) ---------------------------------------------------------


def limit_wigner_recurrence(max_l):
    """p_l = lim n^{2l-2} K_l / (l-1)! via the quadratic limiting recurrence."""
    nums, dens = [1], [1]
    while len(nums) < max_l:
        l = len(nums)
        # [2(2l-1) p_{l-1} + sum_i 2(3i+1)(l-i) p_i p_{l-1-i}] / (l+1)
        terms = [(2 * (3 * i + 1) * (l - i), nums[i], dens[i], nums[l - 1 - i], dens[l - 1 - i])
                 for i in range(l)]
        terms.append((2 * (2 * l - 1), nums[l - 1], dens[l - 1], 1, 1))
        num, den = dot(terms, 1, l + 1)
        nums.append(num)
        dens.append(den)
    return rationals(nums, dens)


def _omega(zetas):
    """Omega(z) = 1 + sum zeta_k z^k on the (len(zetas), 0) rectangle."""
    egf = [1] + [z * math.factorial(k) for k, z in enumerate(zetas, start=1)]
    return DoubleSeries.univariate(egf, len(zetas))


def zeta_coefficients(max_k):
    """Integer expansion coefficients of the quartic-equation branch
    Omega(z) = 1 + sum zeta_k z^k, via the Lagrange-inversion binomial sum.

    Asserts integrality of each zeta_k and that Omega satisfies
    4 z O^4 + 8 z O^3 + (4z - 3) O^2 + 2 O + 1 = 0 to order max_k.
    """
    zetas = []
    for k in range(1, max_k + 1):
        acc = rat(0)
        for i in range(k):
            inner = 0
            for pw in range(i + 1):
                inner += math.comb(2 * k, pw) * math.comb(2 * k, i - pw) * 2 ** (i + pw)
            acc += math.comb(2 * k - i - 2, k - 1) * inner * rat(-3) ** (k - 1 - i)
        val = rat(4, k) * acc
        if not is_integral(val):
            raise IntegralityViolationError(f"zeta_{k} = {val} is not an integer")
        zetas.append(int(val))
    if not quartic_residual(_omega(zetas)).is_zero():
        raise IntegralityViolationError("Omega series fails the quartic equation")
    return zetas


def quartic_residual(omega: DoubleSeries) -> DoubleSeries:
    """4 z O^4 + 8 z O^3 + (4z - 3) O^2 + 2 O + 1 on the rectangle of Omega."""
    o2 = omega * omega
    o3 = o2 * omega
    one = DoubleSeries.univariate([1], omega.shape[0])
    return (4 * (o3 * omega) + 8 * o3 + 4 * o2).times(1) - 3 * o2 + 2 * omega + one


def wigner_limit_generating_series(max_l) -> DoubleSeries:
    """F(z) = 3/2 - (3/2) Omega + 2 z Omega^3 + 3 z Omega^2 + 2 z Omega on the
    (max_l, 0) rectangle, whose Taylor coefficients are the p_l; independent
    closed-form path."""
    omega = _omega(zeta_coefficients(max_l))
    o2 = omega * omega
    return (
        DoubleSeries.univariate([rat(3, 2)], max_l)
        - rat(3, 2) * omega
        + (2 * (o2 * omega) + 3 * o2 + 2 * omega).times(1)
    )


def dalembert_residual(F: DoubleSeries) -> DoubleSeries:
    """2F + F' - 4zF' - 6z(F')^2 + 4FF' - 1; identically zero for the
    delay-time limit generating function."""
    Fp = F.derivative(1)
    one = DoubleSeries.univariate([1], Fp.shape[0])
    return 2 * F + Fp - (4 * Fp + 6 * (Fp * Fp)).times(1) + 4 * (F * Fp) - one


def limit_wigner(max_l) -> LimitCoefficients:
    """Limiting delay-time cumulants K_l(0) = p_l (l-1)! for beta=2, with the
    recurrence and generating-function paths cross-checked exactly."""
    if max_l < 0:
        raise InvalidOrderError(f"max_l must be >= 0, got {max_l}")
    p_rec = limit_wigner_recurrence(max_l)
    taylor = wigner_limit_generating_series(max_l).taylor()
    for l in range(1, max_l + 1):
        if taylor[l] != p_rec[l - 1]:
            raise AssertionError(
                f"generating-function and recurrence paths disagree at l={l}"
            )
    values = {
        l: p_rec[l - 1] * math.factorial(l - 1) for l in range(1, max_l + 1)
    }
    return LimitCoefficients(
        kind="wigner",
        values=values,
        scaling_exponent={l: scaling_exponent("wigner", l) for l in range(1, max_l + 1)},
    )


# -- numerical extrapolation ------------------------------------------------------------


def extrapolate_limit(samples, nu):
    """Richardson extrapolation of n^nu * value under a polynomial-in-1/n model.

    ``samples`` is a sequence of (n, exact_value) with strictly increasing n.
    Returns (estimate, error_bar); the error bar is the spread between the
    last two extrapolation levels.
    """
    if len(samples) < 3:
        raise IllConditionedError("need at least 3 samples")
    ns = [s[0] for s in samples]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise IllConditionedError("sample n-values must be strictly increasing")
    xs = [1.0 / n for n in ns]
    fs = [float(rat(n) ** nu * rat(v)) for n, v in samples]
    # Neville tableau evaluated at x = 0
    tab = [list(fs)]
    m = len(fs)
    for j in range(1, m):
        row = []
        for i in range(m - j):
            num = (0.0 - xs[i + j]) * tab[j - 1][i] + (xs[i] - 0.0) * tab[j - 1][i + 1]
            row.append(num / (xs[i] - xs[i + j]))
        tab.append(row)
    estimate = tab[-1][0]
    return estimate, abs(estimate - tab[-2][0])
