"""Exact finite-n cumulants of the Landauer conductance, and the lattice core
that the delay-time and joint recurrences share.

For beta=2 the recurrence closes at a single dimension; for beta in {1,4}
it couples dimension n to n +/- i(beta) through "reduced moments"
(exponential Bell transforms of second differences across the dimension
lattice), evaluated at concrete integer dimensions with memoization, not as
rational functions of n.

``_Lattice`` is the one engine core.  Per dimension it memoises the values,
the coupling constant, the integer constants of the step's leading
coefficient and the reduced moments, which grow by one term per order.  Its
``visited`` list is the one record of the dimensions a computation touched,
and it holds the one rule for dimension 0, the empty ensemble: all zero.  A
step is one ``rational.dot`` of its quadratic, linear and coupling terms,
divided once; the quadratic sum is symmetric under i <-> l-1-i, so each
pair is multiplied once.  ``ConductanceEngine`` and ``wigner.DelayEngine``
supply only their closed first values, per-dimension constants, step
weights and coupling.  ``jointcsn.JointEngine`` is a ``ConductanceEngine``
whose values are its k=0 row, so that row's reduced moments share the
lattice memo.  ``_reduced_walk`` is the one second-difference + Bell walk;
``reduced_moments`` runs it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .ensembles import _raw_coupling, _scaled, b_constant
from .errors import InvalidOrderError, PoleError, UnsupportedBetaError
from .params import TransportParams, eta_factor, lattice_step
from .rational import ONE, ZERO, dot, rat


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
    # integer form, as for the couplings in ``ensembles``: the parameters are
    # scaled by the common denominator q of alpha, delta/2 and n, each factor
    # below is q times the factor it stands for, and one rational is built per
    # cumulant
    q, (a, h, n) = _scaled(alpha, rat(delta) / 2, n)  # h = delta/2
    s = a + h
    t = beta * (n - q)  # q * beta(n-1)

    den1 = s + 2 * q + t
    if den1 == 0:
        raise PoleError("kappa_1 denominator vanishes")
    k1 = rat(n * (2 * a + 2 * q + t), 2 * q * den1)

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
        return (k1, rat(num2, den2), rat(num3, den3))

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
    return (k1, rat(num2, den2), rat(num3, den2 * den3))


def _leading(beta, l, q2, P, Q):
    """q2 times the leading coefficient eta l(l-1)(l-2) + beta l(2l-1)
    - (P l + Q) / q2 of the order-l step, the form shared by the conductance
    and delay-time recurrences; the integers q2, P, Q are fixed per dimension."""
    cubic = eta_factor(beta) * l * (l - 1) * (l - 2) + beta * l * (2 * l - 1)
    return q2 * cubic - P * l - Q


def _symmetric_terms(weights, values):
    """The ``dot`` terms of sum_i weights[i] values[i] values[l-1-i] over
    i < l = len(weights).  The product is symmetric under i <-> l-1-i, so each
    pair enters once with the sum of its two weights; the middle term of an
    odd l is its own pair and keeps its single weight."""
    l = len(weights)
    terms = [
        (weights[i] + weights[l - 1 - i], values[i], values[l - 1 - i])
        for i in range(l // 2)
    ]
    if l % 2:
        terms.append((weights[l // 2], values[l // 2], values[l // 2]))
    return terms


def _second_difference(minus, plus, here):
    """minus + plus - 2 here, the reduced cumulant of a value across the
    dimension lattice, as one ``dot``."""
    return dot(((1, minus, ONE), (1, plus, ONE), (-2, here, ONE)))


def bell_transform(r, order, mu=None):
    """mu_0..mu_order from r_1..r_order via
    mu_l = sum_j C(l-1, j) r_{l-j} mu_j, the coefficient form of mu = exp(r)
    as exponential generating functions.

    ``mu``, when given, is a prefix mu_0..mu_m of the result; it is extended
    in place to order and returned.
    """
    if mu is None:
        mu = [rat(1)]
    for l in range(len(mu), order + 1):
        mu.append(dot((math.comb(l - 1, j), r[l - j - 1], mu[j]) for j in range(l)))
    return mu


def _reduced_walk(memo, n, step, order, fetch):
    """mu_0..mu_order at dimension n, extending ``memo`` = (r, mu) in place.

    r_l = v_l(n - step) + v_l(n + step) - 2 v_l(n), l = 1..order, with v from
    ``fetch(dimension, order)``, and mu is the Bell transform of r.  Both lists
    only grow: r_l and mu_l depend on nothing above order l.  The returned list
    is ``mu`` itself (it may be longer) and must not be modified.
    """
    r, mu = memo
    if order < 1:
        return mu
    minus, plus, here = (fetch(m, order) for m in (n - step, n + step, n))
    r.extend(
        _second_difference(minus[j], plus[j], here[j]) for j in range(len(r), order)
    )
    return bell_transform(r, order, mu)


class _Lattice:
    """A recurrence over the dimension lattice n + step Z at one parameter
    point.  The step appends v_{l+1} = [sum_i w_i v_{i+1} v_{l-i} + linear
    terms + C l(l-1)(l-2) coupling mu_{l-3}] / (S * leading coefficient),
    with integers C and S chosen so that every weight is an integer.

    A statistic passes its coupling (n -> constant) and supplies
    ``_initial(n)``, the closed first values; ``_dimension_constants(n)``,
    ((q2, P, Q) of ``_leading``, g); ``_weights(l)``, the w_i;
    ``_linear_terms(l, values, g)``; and ``_fetch(n)``, the
    (dimension, order) -> values callable the reduced moments at n read.

    ``visited`` lists the dimensions in the order their closed first values
    were set.  Dimension 0 is the empty ensemble: its values are all zero,
    and it is neither evaluated nor visited.
    """

    def __init__(self, beta, coupling, coupling_weight, scale):
        self.beta = beta
        self.step = lattice_step(beta)
        self._eta = eta_factor(beta)
        self._coupling_at = coupling
        self._coupling_weight = coupling_weight
        self._scale = scale
        self._values = {}  # dimension -> [v_1, v_2, ...]
        self._reduced = {}  # dimension -> ([r_1, r_2, ...], [mu_0, mu_1, ...])
        self._couplings = {}  # dimension -> coupling constant
        self._constants = {}  # dimension -> ((q2, P, Q), g)
        self.visited = []

    def coupling(self, n):
        """The coupling at dimension n, once per engine (a pole is not stored)."""
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
        """v_1..v_order at dimension n, extending its memo; empty below order 1."""
        if order < 1:
            return []
        if n == 0:
            return [ZERO] * order
        values = self._values.get(n)
        if values is None:
            values = self._values[n] = self._initial(n)
            self.visited.append(n)
        while len(values) < order:
            self._extend(n, values)
        return values[:order]

    def _extend(self, n, values):
        l = len(values)  # recurrence index producing v_{l+1}
        (q2, P, Q), g = self._dimension(n)
        A = _leading(self.beta, l, q2, P, Q)
        if A == 0:
            raise PoleError(f"leading coefficient vanishes at order {l} (n={n})")
        terms = _symmetric_terms(self._weights(l), values)
        terms += self._linear_terms(l, values, g)
        c = self.coupling(n)
        if c != 0:
            mu = self.reduced_moments(n, l - 3)
            terms.append((self._coupling_weight * l * (l - 1) * (l - 2), c, mu[l - 3]))
        values.append(dot(terms) / rat(self._scale * A, q2))

    def reduced_moments(self, n, order):
        """mu_0..mu_order at dimension n, memoised; see ``_reduced_walk``."""
        memo = self._reduced.setdefault(n, ([], [ONE]))
        return _reduced_walk(memo, n, self.step, order, self._fetch(n))


def _coeff_B(l, i, chi):
    li = l - i
    return (2 - chi) * li * (li * (6 * i - 2) + 3) + (chi - 1) * li * li * (6 * i + 2)


class ConductanceEngine(_Lattice):
    """Memoized cumulant computation across the dimension lattice for a fixed
    (beta, alpha, delta).  Single-threaded per instance; finished sequences
    are immutable and freely shareable."""

    def __init__(self, beta, alpha, delta):
        self.alpha = rat(alpha)
        self.delta = rat(delta)
        coupling = partial(_raw_coupling, beta, self.alpha, self.delta)
        super().__init__(beta, coupling, 12 // beta, 1)
        self._chi = 2 if beta == 2 else 1

    def _dimension_constants(self, n):
        """(q2, P, Q) of ``_leading`` at dimension n, and alpha - delta/2 + beta n.

        With t = alpha + delta/2 + beta n, P / q2 = (6 - 3 beta + t)(t + 2 - beta)
        and Q / q2 = t (t + 2 - beta); q is the common denominator of alpha,
        delta/2 and n, and q2 = q^2."""
        beta = self.beta
        q, (a, h, m) = _scaled(self.alpha, self.delta / 2, n)
        t = a + h + beta * m
        u = t + (2 - beta) * q
        return (q * q, ((6 - 3 * beta) * q + t) * u, t * u), rat(a - h + beta * m, q)

    def _initial(self, n):
        return list(_initial_three(self.beta, self.alpha, self.delta, n))

    def _weights(self, l):
        return [-self._eta * math.comb(l, i) * _coeff_B(l, i, self._chi) for i in range(l)]

    def _linear_terms(self, l, kappa, g):
        # kappa[i] is kappa_{i+1}
        return [(l * (2 * l - 1), g, kappa[l - 1]),
                (l * (l - 1) * (l - 2), kappa[l - 2], ONE)]

    def _fetch(self, n):
        return self.kappas

    def kappas(self, n, order):
        """kappa_1..kappa_order at dimension n."""
        return self._fill(n, order)


def conductance_cumulants(p: TransportParams, max_order) -> CumulantSequence:
    """kappa_1..kappa_L exactly, engaging the dimension lattice when beta != 2."""
    if max_order < 1:
        raise InvalidOrderError("max_order must be >= 1")
    engine = ConductanceEngine(p.beta, p.alpha, p.delta)
    values = tuple(engine.kappas(p.n, max_order))
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

    ``provider`` maps (dimension, order) -> [kappa_1..kappa_order]; the default
    is the exact recurrence engine.  Only meaningful for beta in {1,4}.
    """
    if p.beta == 2:
        raise UnsupportedBetaError("beta=2 has no dimension lattice")
    if provider is None:
        provider = ConductanceEngine(p.beta, p.alpha, p.delta).kappas
    r, mu = memo = ([], [ONE])
    _reduced_walk(memo, p.n, p.i_shift, max_order, provider)
    return ReducedSequence(r_values=tuple(r), mu_values=tuple(mu))


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
