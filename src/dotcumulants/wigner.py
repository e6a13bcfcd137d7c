"""Exact finite-n cumulants of the Wigner delay time.

Only q = floor(b - 2 - beta*(n-1)) cumulants exist; requesting more is an
error, not an infinity.  For beta in {1,4} the recurrence couples dimensions
n +/- i(beta) with b held FIXED at the target's value: each shifted point's
own q is recomputed from that fixed b, and an order shortfall aborts with an
error naming the blocking lattice point.  For beta=2 the coupling d_n
vanishes, and the same engine then runs at a single dimension.

``DelayEngine`` runs on ``conductance._Lattice``, the core the conductance
engine uses, and supplies only the delay time's closed K_1..K_3, omega and
the leading-coefficient constants per dimension, the step weights and d_n.
Like the conductance engine it scales its parameter to integers once, b =
b'/q in lowest terms, so that omega = w/q at every dimension and the number
of cumulants there is w // q; it takes every per-dimension constant as a
reduced int pair, memoises its step weights once per process and keeps its
values as int rows.  ``wigner_cumulants`` builds the backend rationals of
the one row it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

from .conductance import _binomials, _Lattice, _paired, _pairs_row
from .ensembles import _lattice_delay_coupling
from .errors import (
    InsufficientOrderError,
    InvalidOrderError,
    LatticeOrderShortfallError,
    NonexistentCumulantError,
    PoleError,
)
from .params import DelayParams, eta_factor
from .rational import rat, rationals, reduced


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


def _initial_three(beta, omega, n, upto):
    """K_1..K_upto (upto <= 3) as a list of rationals; see ``_initial_row``."""
    omega = rat(omega)
    return rationals(*_initial_row(beta, int(omega.denominator), int(omega.numerator), n, upto))


def _initial_row(beta, q, w, n, upto):
    """The int row K_1..K_upto (upto <= 3) from the closed low-order forms in
    terms of omega = b - 2 - beta*(n-1) = w/q; valid at any lattice point at
    fixed b.  Each cumulant is one quotient of integer products, reduced."""
    pairs = []
    if upto >= 1:
        if w == 0:
            raise PoleError("K_1 pole: omega = 0")
        # (beta/2) n / omega
        pairs.append(reduced(beta * n * q, 2 * w))
    if upto >= 2:
        den = w**2 * (2 * w + beta * q) * (w - q)
        if den == 0:
            raise PoleError("K_2 pole: omega in {0, 1, -beta/2}")
        # (beta/2)^2 n (2 omega + beta n) / (omega^2 (2 omega + beta)(omega - 1))
        pairs.append(reduced(beta**2 * n * (2 * w + beta * n * q) * q**3, 4 * den))
    if upto >= 3:
        den = w**3 * (2 * w + beta * q) * (w + beta * q) * (w - q) * (w - 2 * q)
        if den == 0:
            raise PoleError("K_3 pole")
        # 4 (beta/2)^3 n (2 omega + n beta)(omega + n beta)
        #   / (omega^3 (2 omega + beta)(omega + beta)(omega - 1)(omega - 2))
        pairs.append(reduced(beta**3 * n * (2 * w + n * beta * q) * (w + n * beta * q) * q**5, 2 * den))
    return _pairs_row(*pairs)


def wigner_initial(p: DelayParams):
    """The closed-form cumulants (K_1, K_2, K_3), truncated to the prefix that
    exists (q may be 1 or 2)."""
    upto = min(3, p.q)
    if upto < 1:
        raise NonexistentCumulantError(f"no cumulants exist: q = {p.q}")
    return tuple(_initial_three(p.beta, p.omega, p.n, upto))


def _coeff_B(beta, eta, i, l):
    return (l - i) * (6 * eta * (l - i - 1) * i + beta + 4 * beta * i)


@cache
def _delay_weights(beta, l):
    """The delay-time step's paired weights at order l; memoised, one
    immutable tuple per (beta, l)."""
    eta = eta_factor(beta)
    return _paired([-4 * c * _coeff_B(beta, eta, i, l) for i, c in enumerate(_binomials(l)[:l])])


class DelayEngine(_Lattice):
    """Memoized delay-time cumulants over the fixed-b dimension lattice."""

    def __init__(self, beta, b):
        self.b = rat(b)
        self._q, self._b = int(self.b.denominator), int(self.b.numerator)
        coupling = partial(_lattice_delay_coupling, beta, self._q, self._b)
        # each step is four times the right-hand side, so that every weight is
        # an integer: (12 d_n / beta) l(l-1)(l-2) (beta/2)^4 phi_{l-3}, times 4
        super().__init__(beta, coupling, 3 * beta**3, 4, _delay_weights)

    def _omega(self, n):
        """q omega at dimension n, omega = b - 2 - beta(n-1): omega differs from
        b by an integer, so w/q is in lowest terms."""
        return self._b - (2 + self.beta * (n - 1)) * self._q

    def _dimension_constants(self, n):
        """(q2, P, Q) of ``conductance._leading`` at dimension n, with
        P / q2 = omega (omega - 4 + 2 beta) and Q / q2 = omega (omega + 2 - beta),
        and q omega."""
        beta, q, w = self.beta, self._q, self._omega(n)
        return (q * q, w * (w + (2 * beta - 4) * q), w * (w + (2 - beta) * q)), w

    def _initial(self, n):
        # K_j has poles only at omega < j <= q <= omega: these are all finite
        return _initial_row(self.beta, self._q, self._omega(n), n, min(3, self.q_at(n)))

    def _linear_terms(self, l, nums, dens, w):
        return [(-4 * self.beta * l * (2 * l - 1), nums[l - 1], dens[l - 1], 1, 1)]

    def _fetch(self, n):
        # a shifted point that falls short of the order names n in its error
        return lambda m, order: self.cumulants(m, order, None if m == n else n)

    def q_at(self, n):
        return self._omega(n) // self._q

    def cumulants(self, n, order, requester=None):
        """K_1..K_order at dimension n, as an int row; ``requester`` names the
        dimension whose reduced moments need them."""
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
        return self._fill(n, order)


def wigner_cumulants(p: DelayParams, max_order) -> DelayCumulants:
    """Exact K_1..K_max_order; max_order must not exceed q."""
    if max_order < 1:
        raise InvalidOrderError("max_order must be >= 1")
    if max_order > p.q:
        raise NonexistentCumulantError(
            f"only q={p.q} cumulants exist for beta={p.beta}, n={p.n}, b={p.b}"
        )
    engine = DelayEngine(p.beta, p.b)
    values = tuple(rationals(*engine.cumulants(p.n, max_order)))
    return DelayCumulants(
        params=p, values=values, lattice_note=tuple((m, engine.b) for m in engine.visited)
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


def chazy_residual(n, series_order, perturb=None):
    """Residual of the first integral of the Chazy-class ODE satisfied by
    H(z) = -z * xi'(-z) when beta=2 (default b), as a ``DoubleSeries`` on the
    (series_order, 0) rectangle.  The contract is that every coefficient is
    exactly zero.

    ``perturb`` is a test hook: a (order, delta) pair added to one cumulant
    to confirm the residual detects faults.
    """
    from .doubleseries import DoubleSeries  # the oracles' algebra, loaded on first use

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
    c = p.b - 2 * n
    # H(z) = -z xi'(-z) has Taylor coefficients H_l = (-1)^l K_l / (l-1)!,
    # that is exponential-generating ones (-1)^l l K_l
    H = DoubleSeries.univariate([0] + [(-1) ** l * l * K[l - 1] for l in range(1, need + 1)], need)
    Hp = H.derivative(1)
    zHpp = H.derivative(2).times(1)
    Hp2 = Hp * Hp
    # (z H'')^2 - 4 H (H'^2 - H') + (4 z H'^2 - (c^2 + 4z) H' - 2nc) H' - n^2
    bracket = (
        4 * Hp2.times(1)
        - DoubleSeries.univariate([c * c, 4], series_order) * Hp
        - DoubleSeries.univariate([2 * n * c], series_order)
    )
    return (
        zHpp * zHpp
        - 4 * (H * (Hp2 - Hp))
        + bracket * Hp
        - DoubleSeries.univariate([n * n], series_order)
    )
