"""Exact finite-n cumulants of the Landauer conductance, and the lattice core
that the delay-time and joint recurrences share.

For beta=2 the recurrence closes at a single dimension; for beta in {1,4}
it couples dimension n to n +/- i(beta) through "reduced moments"
(exponential Bell transforms of second differences across the dimension
lattice), evaluated at concrete integer dimensions with memoization, not as
rational functions of n.

``_Lattice`` is the one engine core.  Its values never are backend
scalars: each is a reduced pair of ints, and a sequence of them is an *int
row* ``(nums, dens)`` of two parallel lists (``rational.int_row``).  An
engine scales its parameters to integers once (alpha = a/q, delta/2 = h/q)
and takes every per-dimension constant from them as a reduced int pair: the
closed first values, the coupling and the leading-coefficient constants.
Per dimension it memoises the value row, those constants and the reduced
moments, which grow by one term per order; the step weights depend on the
statistic, beta and the order only, and are memoised once per process.  Its
``visited`` list is the one record of the dimensions a computation touched,
and it holds the one rule for dimension 0, the empty ensemble: all zero.  A
step is one ``rational.dot`` of its quadratic, linear and coupling terms with
the division by its leading coefficient folded in; the quadratic sum is
symmetric under i <-> l-1-i, so each pair is multiplied once.
``ConductanceEngine`` and ``wigner.DelayEngine`` supply only their closed
first values, per-dimension constants, step weights and coupling.  Where an
even-beta row degenerates, ``ConductanceEngine.kappas`` stores the exact
determinant row (``exactmoments``) as its lattice values, the one fallback
every reader of the row shares.  ``jointcsn.JointEngine`` is a
``ConductanceEngine`` whose values are its k=0 row.  ``_reduced_walk`` is the one
second-difference + Bell walk; ``reduced_moments`` runs it too.  Backend
scalars are built from the rows only where values leave the engines
(``rational.rationals``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

from .ensembles import _lattice_coupling, _scaled, b_constant
from .errors import CumulantError, InvalidOrderError, PoleError, UnsupportedBetaError
from .params import TransportParams, eta_factor, lattice_step
from .rational import dot, int_row, rat, rationals, reduced


@dataclass(frozen=True)
class CumulantSequence:
    """kappa_1..kappa_L of the conductance, with lattice provenance."""

    params: TransportParams
    values: tuple
    lattice_radius: int

    def __getitem__(self, order):
        if not 1 <= order <= len(self.values):
            raise InvalidOrderError(f"cumulant order {order} not computed")
        return self.values[order - 1]


@dataclass(frozen=True)
class ReducedSequence:
    """Second differences r_l across the lattice and their Bell transform mu_l."""

    r_values: tuple
    mu_values: tuple  # mu_0..mu_L with mu_0 = 1


def conductance_initial(p: TransportParams):
    """The closed-form first three cumulants (kappa_1, kappa_2, kappa_3)."""
    return _initial_three(p.beta, p.alpha, p.delta, p.n)


def _initial_three(beta, alpha, delta, n):
    q, (a, h, n) = _scaled(alpha, rat(delta) / 2, n)
    return tuple(rationals(*_initial_row(beta, q, a, h, n)))


def _initial_row(beta, q, a, h, n):
    """The int row kappa_1..kappa_3 at alpha = a/q, delta/2 = h/q and
    dimension n/q.

    Integer form, as for the couplings in ``ensembles``: each factor below is
    q times the factor it stands for, and each cumulant is one quotient of
    two integer products, reduced."""
    s = a + h
    t = beta * (n - q)  # q * beta(n-1)

    den1 = s + 2 * q + t
    if den1 == 0:
        raise PoleError("kappa_1 denominator vanishes")
    k1 = reduced(n * (2 * a + 2 * q + t), 2 * q * den1)

    if n == q:
        # The trailing factors of kappa_2 coincide at n=1 and cancel, as do
        # the (s + 2 - beta) factor of kappa_3's numerator and the
        # (s + 2 + beta(n-2)) factor of its denominator; cancelling keeps the
        # formulas finite where the raw ratio would read 0/0.
        num2 = (a + q) * (h + q) * q
        den2 = (s + 2 * q) ** 2 * (s + 3 * q)
        if den2 == 0:
            raise PoleError("kappa_2 denominator vanishes")
        num3 = 2 * num2 * (h - a) * q
        den3 = den2 * (s + 2 * q) * (s + 4 * q)
        if den3 == 0:
            raise PoleError("kappa_3 denominator vanishes")
        return _pairs_row(k1, reduced(num2, den2), reduced(num3, den3))

    den2a = (s + 2 * q + t) ** 2 * (s + 3 * q + t)
    den2b = 2 * s + 4 * q + beta * (2 * n - 3 * q)
    if den2a == 0 or den2b == 0:
        raise PoleError("kappa_2 denominator vanishes")
    num2 = (
        n
        * (2 * a + 2 * q + t)
        * (2 * h + 2 * q + t)
        * (2 * s + 4 * q + beta * (n - 2 * q))
    )
    den2 = 4 * den2a * den2b

    # kappa_3 in fully factored form: the raw coefficient reads
    # delta/2 - alpha + 2 beta kappa_1 - beta n, which equals
    # (delta/2 - alpha)(s + 2 - beta) / (s + 2 + beta(n-1)).
    den3 = (s + 2 * q + t) * (s + 4 * q + t) * (s + 2 * q + beta * (n - 2 * q))
    if den3 == 0:
        raise PoleError("kappa_3 denominator vanishes")
    num3 = 2 * num2 * (h - a) * (s + (2 - beta) * q) * q
    return _pairs_row(k1, reduced(num2, den2), reduced(num3, den2 * den3))


def _pairs_row(*pairs):
    """The int row of reduced int pairs."""
    return [n for n, _ in pairs], [d for _, d in pairs]


def _leading(beta, l, q2, P, Q):
    """q2 times the leading coefficient eta l(l-1)(l-2) + beta l(2l-1)
    - (P l + Q) / q2 of the order-l step, the form shared by the conductance
    and delay-time recurrences; the integers q2, P, Q are fixed per dimension."""
    cubic = eta_factor(beta) * l * (l - 1) * (l - 2) + beta * l * (2 * l - 1)
    return q2 * cubic - P * l - Q


@cache
def _binomials(m):
    """C(m, 0..m); memoised, one immutable tuple per m."""
    return tuple(math.comb(m, j) for j in range(m + 1))


def _second_difference(minus, plus, here, j):
    """minus_j + plus_j - 2 here_j over three int rows, the reduced cumulant of
    a value across the dimension lattice, as one ``dot``."""
    return dot(((1, minus[0][j], minus[1][j], 1, 1), (1, plus[0][j], plus[1][j], 1, 1),
                (-2, here[0][j], here[1][j], 1, 1)))


def bell_transform(r, order, mu=None):
    """mu_0..mu_order from r_1..r_order via
    mu_l = sum_j C(l-1, j) r_{l-j} mu_j, the coefficient form of mu = exp(r)
    as exponential generating functions; r and mu are int rows.

    ``mu``, when given, is a prefix mu_0..mu_m of the result; it is extended
    in place to order and returned.
    """
    if mu is None:
        mu = ([1], [1])
    rn, rd = r
    mn, md = mu
    for l in range(len(mn), order + 1):
        # j = 0..l-1 pairs r_{l-j}, at index l-1-j, with mu_j
        num, den = dot(zip(_binomials(l - 1), rn[l - 1::-1], rd[l - 1::-1], mn, md))
        mn.append(num)
        md.append(den)
    return mu


def _reduced_walk(memo, n, step, order, fetch):
    """mu_0..mu_order at dimension n, extending ``memo`` = (r, mu) in place.

    r_l = v_l(n - step) + v_l(n + step) - 2 v_l(n), l = 1..order, with the
    int rows v from ``fetch(dimension, order)``, and mu is the Bell transform
    of r.  Both rows only grow: r_l and mu_l depend on nothing above order l.
    The returned row is ``mu`` itself (it may be longer) and must not be
    modified.
    """
    r, mu = memo
    if order < 1:
        return mu
    rows = [fetch(m, order) for m in (n - step, n + step, n)]
    rn, rd = r
    for j in range(len(rn), order):
        num, den = _second_difference(*rows, j)
        rn.append(num)
        rd.append(den)
    return bell_transform(r, order, mu)


class _Lattice:
    """A recurrence over the dimension lattice n + step Z at one parameter
    point.  The step appends v_{l+1} = [sum_i w_i v_{i+1} v_{l-i} + linear
    terms + C l(l-1)(l-2) coupling mu_{l-3}] / (S * leading coefficient),
    with integers C and S chosen so that every weight is an integer.

    A statistic passes its coupling (n -> reduced int pair) and its step
    weights ((beta, l) -> the w_i paired by ``_paired``), and supplies
    ``_initial(n)``, the int row of the closed first values;
    ``_dimension_constants(n)``, ((q2, P, Q) of ``_leading``, g);
    ``_linear_terms(l, nums, dens, g)``, int terms of ``dot``; and
    ``_fetch(n)``, the (dimension, order) -> int row callable the reduced
    moments at n read.

    ``visited`` lists the dimensions in the order their closed first values
    were set.  Dimension 0 is the empty ensemble: its values are all zero,
    and it is neither evaluated nor visited.
    """

    def __init__(self, beta, coupling, coupling_weight, scale, pair_weights):
        self.beta = beta
        self.step = lattice_step(beta)
        self._eta = eta_factor(beta)
        self._coupling_at = coupling
        self._coupling_weight = coupling_weight
        self._scale = scale
        self._pair_weights = pair_weights
        self._values = {}  # dimension -> int row v_1, v_2, ...
        self._reduced = {}  # dimension -> (int row r_1, r_2, ..., int row mu_0, mu_1, ...)
        self._couplings = {}  # dimension -> coupling constant as a reduced int pair
        self._constants = {}  # dimension -> ((q2, P, Q), g)
        self.visited = []

    def coupling(self, n):
        """The coupling at dimension n as a reduced int pair, once per engine
        (a pole is not stored)."""
        c = self._couplings.get(n)
        if c is None:
            c = self._couplings[n] = self._coupling_at(n)
        return c

    def _dimension(self, n):
        c = self._constants.get(n)
        if c is None:
            c = self._constants[n] = self._dimension_constants(n)
        return c

    def _fill(self, n, order):
        """v_1..v_order at dimension n as an int row, extending its memo; empty
        below order 1."""
        if order < 1:
            return [], []
        if n == 0:
            return [0] * order, [1] * order
        values = self._values.get(n)
        if values is None:
            values = self._values[n] = self._initial(n)
            self.visited.append(n)
        nums, dens = values
        while len(nums) < order:
            self._extend(n, nums, dens)
        return nums[:order], dens[:order]

    def _extend(self, n, nums, dens):
        l = len(nums)  # recurrence index producing v_{l+1}
        (q2, P, Q), g = self._dimension(n)
        A = _leading(self.beta, l, q2, P, Q)
        if A == 0:
            raise PoleError(f"leading coefficient vanishes at order {l} (n={n})")
        # pair i is v_{i+1} v_{l-i}: the row read forwards and backwards
        terms = list(zip(self._pair_weights(self.beta, l), nums, dens, reversed(nums), reversed(dens)))
        terms += self._linear_terms(l, nums, dens, g)
        cn, cd = self.coupling(n)
        if cn:
            mn, md = self.reduced_moments(n, l - 3)
            terms.append((self._coupling_weight * l * (l - 1) * (l - 2), cn, cd, mn[l - 3], md[l - 3]))
        num, den = dot(terms, q2, self._scale * A)
        nums.append(num)
        dens.append(den)

    def reduced_moments(self, n, order):
        """mu_0..mu_order at dimension n as an int row, memoised; see
        ``_reduced_walk``."""
        memo = self._reduced.get(n)
        if memo is None:
            memo = self._reduced[n] = (([], []), ([1], [1]))
        return _reduced_walk(memo, n, self.step, order, self._fetch(n))


def _paired(w):
    """The quadratic sum's weights w_0..w_{l-1} at order l, one per pair: the
    sum is symmetric under i <-> l-1-i, so pair i < l/2 enters once with
    w_i + w_{l-1-i}, and the middle term of an odd l keeps its single weight."""
    l = len(w)
    return tuple(w[i] + w[l - 1 - i] for i in range(l // 2)) + tuple(w[l // 2:l // 2 + l % 2])


def _coeff_B(l, i, chi):
    li = l - i
    return (2 - chi) * li * (li * (6 * i - 2) + 3) + (chi - 1) * li * li * (6 * i + 2)


@cache
def _conductance_weights(beta, l):
    """The conductance step's paired weights at order l; memoised, one
    immutable tuple per (beta, l)."""
    chi = 2 if beta == 2 else 1
    return _paired([-eta_factor(beta) * c * _coeff_B(l, i, chi) for i, c in enumerate(_binomials(l)[:l])])


class ConductanceEngine(_Lattice):
    """Memoized cumulant computation across the dimension lattice for a fixed
    (beta, alpha, delta).  Single-threaded per instance; finished sequences
    are immutable and freely shareable."""

    def __init__(self, beta, alpha, delta):
        self.alpha = rat(alpha)
        self.delta = rat(delta)
        # alpha = a/q and delta/2 = h/q, q their common denominator
        self._q, (self._a, self._h) = _scaled(self.alpha, self.delta / 2)
        coupling = partial(_lattice_coupling, beta, self._q, self._a, self._h)
        super().__init__(beta, coupling, 12 // beta, 1, _conductance_weights)

    def _dimension_constants(self, n):
        """(q2, P, Q) of ``_leading`` at dimension n, and alpha - delta/2 + beta n
        as a reduced int pair.

        With t = alpha + delta/2 + beta n, P / q2 = (6 - 3 beta + t)(t + 2 - beta)
        and Q / q2 = t (t + 2 - beta), and q2 = q^2."""
        beta, q, a, h = self.beta, self._q, self._a, self._h
        t = a + h + beta * q * n
        u = t + (2 - beta) * q
        return (q * q, ((6 - 3 * beta) * q + t) * u, t * u), reduced(a - h + beta * q * n, q)

    def _initial(self, n):
        return _initial_row(self.beta, self._q, self._a, self._h, self._q * n)

    def _linear_terms(self, l, nums, dens, g):
        # index i holds kappa_{i+1}
        return [(l * (2 * l - 1), g[0], g[1], nums[l - 1], dens[l - 1]),
                (l * (l - 1) * (l - 2), nums[l - 2], dens[l - 2], 1, 1)]

    def _fetch(self, n):
        return self.kappas

    def kappas(self, n, order):
        """kappa_1..kappa_order at dimension n, as an int row: the exact
        determinant row where an even-beta row degenerates (see ``exactmoments``);
        a beta=1 failure passes through."""
        try:
            return self._fill(n, order)
        except CumulantError:
            if self.beta == 1:
                raise
            from .exactmoments import exact_conductance_cumulant_row

            p = TransportParams(self.beta, self.alpha, self.delta, n)
            self._values[n] = int_row(exact_conductance_cumulant_row(p, order))
            return self._fill(n, order)


def conductance_cumulants(p: TransportParams, max_order) -> CumulantSequence:
    """kappa_1..kappa_L exactly, engaging the dimension lattice when beta != 2."""
    if max_order < 1:
        raise InvalidOrderError("max_order must be >= 1")
    engine = ConductanceEngine(p.beta, p.alpha, p.delta)
    values = tuple(rationals(*engine.kappas(p.n, max_order)))
    # the farthest dimension visited, in lattice steps from n; order l
    # consumes reduced data to order l-3 and each recursion level drops the
    # needed order, so max_radius is a safe ceiling
    radii = {m: abs(m - p.n) // engine.step for m in engine.visited if m != p.n}
    max_radius = (max(max_order - 3, 0) + 2) // 3 + 1
    for m, r in radii.items():
        if r > max_radius:
            raise AssertionError(
                f"lattice visit at dimension {m} exceeds radius bound {max_radius}"
            )
    return CumulantSequence(
        params=p, values=values, lattice_radius=max(radii.values(), default=0)
    )


def reduced_moments(p: TransportParams, max_order, provider=None) -> ReducedSequence:
    """Reduced cumulants r_1..r_L and moments mu_0..mu_L at dimension n.

    ``provider`` maps (dimension, order) -> [kappa_1..kappa_order] as
    rationals; the default is the exact recurrence engine.  Only meaningful
    for beta in {1,4}.
    """
    if p.beta == 2:
        raise UnsupportedBetaError("beta=2 has no dimension lattice")
    if provider is None:
        fetch = ConductanceEngine(p.beta, p.alpha, p.delta).kappas
    else:
        def fetch(m, order):
            return int_row(provider(m, order))
    r, mu = memo = (([], []), ([1], [1]))
    _reduced_walk(memo, p.n, p.i_shift, max_order, fetch)
    return ReducedSequence(r_values=tuple(rationals(*r)), mu_values=tuple(rationals(*mu)))


def fourth_cumulant_closed(p: TransportParams):
    """Closed-form kappa_4 for beta in {1,2}; must match the recurrence exactly."""
    a, d, n = p.alpha, p.delta, p.n
    k1, k2, k3 = conductance_initial(p)
    if p.beta == 1:
        bn = b_constant(p)
        den = (a + d / 2 + n + 4) * (4 * a + 2 * d + 4 * n - 3)
        if den == 0:
            raise PoleError("kappa_4 denominator vanishes")
        return 3 * (
            -2 * k2 + 10 * k1 * k3 + 22 * k2 * k2
            + 5 * k3 * (d / 2 - a - n) - 24 * bn
        ) / den
    if p.beta == 2:
        den = (a + d / 2 + 2 * n) ** 2 - 9
        if den == 0:
            raise PoleError("kappa_4 denominator vanishes")
        return rat(3, 4) * (
            -2 * k2 + 20 * k1 * k3 + 32 * k2 * k2 + 5 * k3 * (d / 2 - a - 2 * n)
        ) / den
    raise UnsupportedBetaError("no closed kappa_4 for beta=4; use the recurrence")
