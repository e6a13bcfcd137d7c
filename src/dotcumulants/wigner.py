"""Exact finite-n cumulants of the Wigner delay time.

Only q = floor(b - 2 - beta*(n-1)) cumulants exist; requesting more is an
error, not an infinity.  For beta in {1,4} the recurrence couples dimensions
n +/- i(beta) with b held FIXED at the target's value: each shifted point's
own q is recomputed from that fixed b, and an order shortfall aborts with an
error naming the blocking lattice point.  For beta=2 the coupling d_n
vanishes, and the same engine then runs at a single dimension.

Each K_{l+1} is one ``rational.dot`` over four times the step's right-hand
side (so that every weight is an integer), divided once by four times the
leading coefficient; the quadratic sum is paired under i <-> l-1-i as in
``conductance``, and each second difference is one ``dot``.  The gain was
measured with the ``fractions`` backend only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conductance import _leading, _second_difference, _symmetric_terms, bell_transform
from .ensembles import _raw_delay_coupling
from .errors import (
    InsufficientOrderError,
    InvalidOrderError,
    LatticeOrderShortfallError,
    NonexistentCumulantError,
    PoleError,
)
from .params import DelayParams, eta_factor, lattice_step
from .rational import ONE, dot, rat
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
        self._constants = {}  # dimension -> (omega, (q2, P, Q))
        self.visited = []

    def coupling(self, n):
        """d_n at dimension n, evaluated once per engine (a pole is raised
        again on every request, never stored)."""
        dn = self._coupling.get(n)
        if dn is None:
            dn = self._coupling[n] = _raw_delay_coupling(self.beta, self.b, n)
        return dn

    def _dimension(self, n):
        """omega = b - 2 - beta(n-1) at dimension n, and (q2, P, Q) of
        ``conductance._leading`` with P / q2 = omega (omega - 4 + 2 beta) and
        Q / q2 = omega (omega + 2 - beta)."""
        c = self._constants.get(n)
        if c is None:
            beta = self.beta
            omega = self.b - 2 - beta * (n - 1)
            w, d = omega.numerator, omega.denominator
            lead = (d * d, w * (w + (2 * beta - 4) * d), w * (w + (2 - beta) * d))
            c = self._constants[n] = (omega, lead)
        return c

    def q_at(self, n):
        omega = self._dimension(n)[0]
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
        omega = self._dimension(n)[0]
        cached = self._memo.get(n)
        if cached is None:
            cached = self._memo[n] = _initial_three(self.beta, omega, n, min(3, order))
            self.visited.append((n, self.b))
        elif len(cached) < min(3, order):
            cached[:] = _initial_three(self.beta, omega, n, min(3, order))
        while len(cached) < order:
            self._extend(n, cached)
        return cached[:order]

    def _extend(self, n, K):
        beta = self.beta
        eta = eta_factor(beta)
        l = len(K)  # recurrence index producing K_{l+1}
        q2, P, Q = self._dimension(n)[1]
        A = _leading(beta, l, q2, P, Q)
        if A == 0:
            raise PoleError(f"leading coefficient vanishes at order {l} (n={n})")
        # four times the right-hand side, so that every weight is an integer
        terms = _symmetric_terms(
            [-4 * math.comb(l, i) * _coeff_B(beta, eta, i, l) for i in range(l)], K
        )
        terms.append((-4 * beta * l * (2 * l - 1), K[l - 1], ONE))
        dn = self.coupling(n)
        if dn != 0:
            phi = self.reduced_moments(n, l - 3)
            # (12 d_n / beta) l(l-1)(l-2) (beta/2)^4 phi_{l-3}, times four
            terms.append((3 * beta**3 * l * (l - 1) * (l - 2), dn, phi[l - 3]))
        K.append(dot(terms) / rat(4 * A, q2))

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
        rho.extend(
            _second_difference(minus[j], plus[j], here[j])
            for j in range(len(rho), order)
        )
        return bell_transform(rho, order, phi)


def wigner_cumulants(p: DelayParams, max_order) -> DelayCumulants:
    """Exact K_1..K_max_order; max_order must not exceed q."""
    if max_order < 1:
        raise NonexistentCumulantError("max_order must be >= 1")
    if max_order > p.q:
        raise NonexistentCumulantError(
            f"only q={p.q} cumulants exist for beta={p.beta}, n={p.n}, b={p.b}"
        )
    engine = DelayEngine(p.beta, p.b)
    values = tuple(engine.cumulants(p.n, max_order))
    return DelayCumulants(
        params=p, values=values, lattice_note=tuple(engine.visited)
    )


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
