"""Exact finite-n cumulants of the Wigner delay time.

Only q = floor(b - 2 - beta*(n-1)) cumulants exist; requesting more is an
error, not an infinity.  For beta in {1,4} the recurrence couples dimensions
n +/- i(beta) with b held FIXED at the target's value: each shifted point's
own q is recomputed from that fixed b, and an order shortfall aborts with an
error naming the blocking lattice point.  For beta=2 the right-hand side
vanishes and the recurrence collapses to a single-dimension quadratic form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conductance import bell_transform
from .ensembles import _raw_delay_coupling
from .errors import (
    InsufficientOrderError,
    InvalidOrderError,
    LatticeOrderShortfallError,
    NonexistentCumulantError,
    PoleError,
)
from .params import DelayParams, eta_factor, lattice_step
from .rational import rat
from .series import TruncatedSeries


@dataclass(frozen=True)
class DelayCumulants:
    """K_1..K_L of the delay time, with the fixed-b lattice points consulted."""

    params: DelayParams
    values: tuple
    lattice_note: tuple

    def __getitem__(self, order):
        if not 1 <= order <= len(self.values):
            raise NonexistentCumulantError(f"cumulant order {order} not computed")
        return self.values[order - 1]

    @property
    def max_order(self):
        return len(self.values)


def _initial_three(beta, omega, n, upto):
    """K_1..K_upto (upto <= 3) from the closed low-order forms in terms of
    omega = b - 2 - beta*(n-1); valid at any lattice point at fixed b."""
    h = rat(beta, 2)
    out = []
    if upto >= 1:
        if omega == 0:
            raise PoleError("K_1 pole: omega = 0")
        out.append(h * n / omega)
    if upto >= 2:
        den = omega**2 * (2 * omega + beta) * (omega - 1)
        if den == 0:
            raise PoleError("K_2 pole: omega in {0, 1, -beta/2}")
        out.append(h**2 * n * (2 * omega + beta * n) / den)
    if upto >= 3:
        den = (
            omega**3
            * (2 * omega + beta)
            * (omega + beta)
            * (omega - 1)
            * (omega - 2)
        )
        if den == 0:
            raise PoleError("K_3 pole")
        out.append(
            h**3 * 4 * n * (2 * omega + n * beta) * (omega + n * beta) / den
        )
    return out


def wigner_initial(p: DelayParams):
    """The closed-form cumulants (K_1, K_2, K_3), truncated to the prefix that
    exists (q may be 1 or 2)."""
    upto = min(3, p.q)
    if upto < 1:
        raise NonexistentCumulantError(f"no cumulants exist: q = {p.q}")
    return tuple(_initial_three(p.beta, p.omega, p.n, upto))


def _coeff_A(beta, omega, l, eta):
    return (
        eta * l * (l - 1) * (l - 2)
        + beta * l * (2 * l - 1)
        - omega * (omega - 4 + 2 * beta) * l
        - omega * (omega + 2 - beta)
    )


def _coeff_B(beta, eta, i, l):
    return (l - i) * (6 * eta * (l - i - 1) * i + beta + 4 * beta * i)


class DelayEngine:
    """Memoized delay-time cumulants over the fixed-b dimension lattice."""

    def __init__(self, beta, b):
        self.beta = beta
        self.b = rat(b)
        self.step = lattice_step(beta)
        self._memo = {}  # dimension -> [K_1, ...]
        self._reduced = {}  # dimension -> ([rho_1, rho_2, ...], [phi_0, phi_1, ...])
        self._coupling = {}  # dimension -> d_n
        self.visited = []

    def coupling(self, n):
        """d_n at dimension n, evaluated once per engine (a pole is raised
        again on every request, never stored)."""
        dn = self._coupling.get(n)
        if dn is None:
            dn = self._coupling[n] = _raw_delay_coupling(self.beta, self.b, n)
        return dn

    def q_at(self, n):
        omega = self.b - 2 - self.beta * (n - 1)
        return int(omega.numerator // omega.denominator)

    def cumulants(self, n, order, requester=None):
        if n == 0:
            return [rat(0)] * order
        q = self.q_at(n)
        if order > q:
            if requester is not None:
                raise LatticeOrderShortfallError(
                    f"lattice point n={n} (fixed b={self.b}) supports only "
                    f"q={q} cumulants but order {order} is needed for n={requester}"
                )
            raise NonexistentCumulantError(
                f"only q={q} cumulants exist at n={n} with b={self.b}"
            )
        cached = self._memo.get(n)
        if cached is None:
            omega = self.b - 2 - self.beta * (n - 1)
            cached = _initial_three(self.beta, omega, n, min(3, order))
            self._memo[n] = cached
            self.visited.append((n, self.b))
        if len(cached) < min(3, order):
            omega = self.b - 2 - self.beta * (n - 1)
            cached[:] = _initial_three(self.beta, omega, n, min(3, order))
        while len(cached) < order:
            self._extend(n, cached)
        return cached[:order]

    def _extend(self, n, K):
        beta = self.beta
        eta = eta_factor(beta)
        l = len(K)  # recurrence index producing K_{l+1}
        omega = self.b - 2 - beta * (n - 1)
        A = _coeff_A(beta, omega, l, eta)
        if A == 0:
            raise PoleError(f"leading coefficient vanishes at order {l} (n={n})")
        dn = self.coupling(n)
        rhs = rat(0)
        if dn != 0:
            phi = self.reduced_moments(n, l - 3)
            rhs = (
                (12 * dn / beta)
                * l
                * (l - 1)
                * (l - 2)
                * rat(beta, 2) ** 4
                * phi[l - 3]
            )
        quad = rat(0)
        for i in range(l):
            x = K[l - i - 1]
            y = K[i]
            if x != 0 and y != 0:
                quad += math.comb(l, i) * _coeff_B(beta, eta, i, l) * x * y
        K.append((rhs - beta * l * (2 * l - 1) * K[l - 1] - quad) / A)

    def reduced_moments(self, n, order):
        """phi_0..phi_order from the fixed-b second differences of K.

        Memoised per dimension and only extended, as in
        ``ConductanceEngine.reduced_moments``; the returned list is the memo.
        """
        if order < 1:
            return [rat(1)]
        rho, phi = self._reduced.setdefault(n, ([], [rat(1)]))
        minus = self.cumulants(n - self.step, order, requester=n)
        plus = self.cumulants(n + self.step, order, requester=n)
        here = self.cumulants(n, order)
        rho.extend(minus[j] + plus[j] - 2 * here[j] for j in range(len(rho), order))
        return bell_transform(rho, order, phi)


def wigner_cumulants(p: DelayParams, max_order) -> DelayCumulants:
    """Exact K_1..K_max_order; max_order must not exceed q."""
    if max_order < 1:
        raise NonexistentCumulantError("max_order must be >= 1")
    if max_order > p.q:
        raise NonexistentCumulantError(
            f"only q={p.q} cumulants exist for beta={p.beta}, n={p.n}, b={p.b}"
        )
    if p.beta == 2:
        values = tuple(_beta2_cumulants(p, max_order))
        note = ((p.n, p.b),)
    else:
        engine = DelayEngine(p.beta, p.b)
        values = tuple(engine.cumulants(p.n, max_order))
        note = tuple(engine.visited)
    return DelayCumulants(params=p, values=values, lattice_note=note)


def _beta2_cumulants(p: DelayParams, max_order):
    """beta=2 specialization: with the default b the recurrence collapses to
    (l+1)(n^2 - l^2) K_{l+1} = 2l(2l-1) K_l
                              + 2 sum_i (3i+1) C(l,i) (l-i)^2 K_{i+1} K_{l-i}.
    For non-default b the generic zero-right-side recurrence is used.
    """
    if not p.has_default_b:
        engine = DelayEngine(p.beta, p.b)
        return engine.cumulants(p.n, max_order)
    n = p.n
    K = _initial_three(2, p.omega, n, min(3, max_order))
    while len(K) < max_order:
        l = len(K)
        lead = (l + 1) * (n * n - l * l)
        if lead == 0:
            raise PoleError(f"beta=2 leading coefficient vanishes at order {l}")
        acc = 2 * l * (2 * l - 1) * K[l - 1]
        for i in range(l):
            x, y = K[i], K[l - i - 1]
            if x != 0 and y != 0:
                acc += 2 * (3 * i + 1) * math.comb(l, i) * (l - i) ** 2 * x * y
        K.append(rat(acc) / lead)
    return K


def wigner_cumulants_generic(p: DelayParams, max_order) -> tuple:
    """The general recurrence path for any beta (test hook: for beta=2 this
    must coincide with the specialized form)."""
    engine = DelayEngine(p.beta, p.b)
    return tuple(engine.cumulants(p.n, max_order))


def wigner_fourth_closed(beta, n):
    """Closed-form K_4 per symmetry class (default b)."""
    p = DelayParams(beta, n)
    if p.q < 4:
        raise NonexistentCumulantError(f"K_4 does not exist: q = {p.q}")
    n = rat(n)
    if beta == 1:
        den = (
            (n - 4) * (n + 1) ** 2 * (n - 2) ** 2 * (n + 3) * (n + 2) * (n - 6)
        )
        if den == 0:
            raise PoleError("K_4 pole (beta=1)")
        return 96 * (53 * n**2 - 68 * n - 156) / den
    if beta == 4:
        den = (
            (n + 2)
            * (n + 1) ** 2
            * (n - 1)
            * (2 * n - 3)
            * (2 * n - 1) ** 2
            * (n + 3)
        )
        if den == 0:
            raise PoleError("K_4 pole (beta=4)")
        return 12 * (53 * n**2 + 34 * n - 39) / den
    den = (n**2 - 1) ** 2 * (n**2 - 4) * (n**2 - 9)
    if den == 0:
        raise PoleError("K_4 pole (beta=2)")
    return 12 * (53 * n**2 - 77) / den


def delay_generating_series(p: DelayParams, order) -> TruncatedSeries:
    """xi(z) = sum_{l=1..order} K_l (2z/beta)^l / l!, truncated at ``order``."""
    if order > p.q:
        raise NonexistentCumulantError(
            f"series order {order} exceeds q={p.q}"
        )
    K = wigner_cumulants(p, order).values
    scale = rat(2, p.beta)
    coeffs = [rat(0)]
    for l in range(1, order + 1):
        coeffs.append(K[l - 1] * scale**l / math.factorial(l))
    return TruncatedSeries(coeffs)


def chazy_residual(n, series_order, perturb=None) -> TruncatedSeries:
    """Residual of the first integral of the Chazy-class ODE satisfied by
    H(z) = -z * xi'(-z) when beta=2 (default b).  The contract is that every
    coefficient up to ``series_order`` is exactly zero.

    ``perturb`` is a test hook: a (order, delta) pair added to one cumulant
    to confirm the residual detects faults.
    """
    if series_order < 1:
        raise InvalidOrderError(f"series_order must be >= 1, got {series_order}")
    p = DelayParams(2, n)
    if series_order > p.q - 1:
        raise InsufficientOrderError(
            f"series_order must be <= q-1 = {p.q - 1}"
        )
    need = series_order + 1
    K = list(wigner_cumulants(p, need).values)
    if perturb is not None:
        idx, delta = perturb
        K[idx - 1] = K[idx - 1] + rat(delta)
    b = p.b
    # H(z) = -z xi'(-z) has coefficients H_l = (-1)^l K_l / (l-1)!.
    h = [rat(0)] + [
        (-1) ** l * K[l - 1] / math.factorial(l - 1) for l in range(1, need + 1)
    ]
    H = TruncatedSeries(h)
    Hp = H.differentiate()                      # order: need - 1 = series_order
    Hpp = Hp.differentiate()                    # order: series_order - 1
    zHpp = Hpp.shift(1)                         # order: series_order
    c = b - 2 * n
    lhs = zHpp * zHpp
    term1 = 4 * (H * (Hp * Hp - Hp))
    bracket = (
        4 * (Hp * Hp).shift(1)
        - TruncatedSeries.from_terms({0: c * c, 1: 4}, series_order) * Hp
        - TruncatedSeries.constant(2 * n * c, series_order)
    )
    residual = lhs - term1 + bracket * Hp - TruncatedSeries.constant(
        rat(n) ** 2, series_order
    )
    return residual.truncate(series_order)
