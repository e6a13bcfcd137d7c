"""Exact finite-n cumulants of the Landauer conductance.

The cumulants satisfy a differential-difference recurrence: for beta=2 it
closes at a single dimension, while for beta in {1,4} the right-hand side
couples dimension n to n +/- i(beta) through "reduced moments" (exponential
Bell transforms of second differences across the dimension lattice).  We
evaluate the lattice at concrete shifted integer dimensions with memoization
rather than doing symbolic rational-function-of-n arithmetic: simpler, exact,
and the asymptotics come from the separate limiting recurrences.  The reduced
moments are memoised per dimension too and extended by one term per order, so
a depth-L fill costs O(L^2) Bell terms per dimension rather than O(L^3).  The
constants that depend on the dimension alone (the coupling b_n, the closed
kappa_1..kappa_3 and the coefficients of each step's leading coefficient, a
cubic in the order) are evaluated once per dimension and engine, in integer
arithmetic (see ``ensembles``); nothing is cached across engines.  Each
exact value is one call of ``rational.dot`` with one reduction: a step's
linear, quadratic and coupling terms go into a single sum, divided once by
the leading coefficient; each second difference r_l and each Bell-transform
coefficient mu_l is one sum as well.  The quadratic sum is symmetric under
i <-> l-1-i, so each pair of terms is multiplied once under the sum of its
two weights.  That gain was measured with the ``fractions`` backend only
and may be smaller with gmpy2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ensembles import _raw_coupling, _scaled, b_constant
from .errors import InvalidOrderError, PoleError, UnsupportedBetaError
from .params import TransportParams, eta_factor, lattice_step
from .rational import ONE, dot, rat


@dataclass(frozen=True)
class CumulantSequence:
    """kappa_1..kappa_L of the conductance, with lattice provenance."""

    params: TransportParams
    values: tuple
    lattice_radius: int
    extended_validity: bool

    def __getitem__(self, order):
        if not 1 <= order <= len(self.values):
            raise InvalidOrderError(f"cumulant order {order} not computed")
        return self.values[order - 1]

    @property
    def max_order(self):
        return len(self.values)


@dataclass(frozen=True)
class ReducedSequence:
    """Second differences r_l across the lattice and their Bell transform mu_l."""

    r_values: tuple
    mu_values: tuple  # mu_0..mu_L with mu_0 = 1


def conductance_initial(p: TransportParams):
    """The closed-form first three cumulants (kappa_1, kappa_2, kappa_3)."""
    k = _initial_three(p.beta, p.alpha, p.delta, p.n)
    return k[0], k[1], k[2]


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


def _coeff_B(l, i, chi):
    li = l - i
    return (2 - chi) * li * (li * (6 * i - 2) + 3) + (chi - 1) * li * li * (6 * i + 2)


class ConductanceEngine:
    """Memoized cumulant computation across the dimension lattice for a fixed
    (beta, alpha, delta).  Single-threaded per instance; finished sequences
    are immutable and freely shareable.

    ``radius`` records the farthest lattice point visited, in steps from
    ``center``; a visit beyond ``max_radius`` is an internal error.
    """

    def __init__(self, beta, alpha, delta, center=None, max_radius=None):
        self.beta = beta
        self.alpha = rat(alpha)
        self.delta = rat(delta)
        self.step = lattice_step(beta)
        self._kappa = {}  # dimension -> [kappa_1, kappa_2, ...]
        self._reduced = {}  # dimension -> ([r_1, r_2, ...], [mu_0, mu_1, ...])
        self._coupling = {}  # dimension -> b_n
        self._constants = {}  # dimension -> ((q2, P, Q), alpha - delta/2 + beta n)
        self.radius = 0
        self._center = center
        self._max_radius = max_radius

    def _note_visit(self, n):
        if self._center is None or n == self._center:
            return
        r = abs(n - self._center) // self.step
        if self._max_radius is not None and r > self._max_radius:
            raise AssertionError(
                f"lattice visit at dimension {n} exceeds radius bound {self._max_radius}"
            )
        self.radius = max(self.radius, r)

    def coupling(self, n):
        """b_n at dimension n, evaluated once per engine (a pole is raised
        again on every request, never stored)."""
        bn = self._coupling.get(n)
        if bn is None:
            bn = self._coupling[n] = _raw_coupling(self.beta, self.alpha, self.delta, n)
        return bn

    def _dimension(self, n):
        """(q2, P, Q) of ``_leading`` at dimension n, and alpha - delta/2 + beta n.

        With t = alpha + delta/2 + beta n, P / q2 = (6 - 3 beta + t)(t + 2 - beta)
        and Q / q2 = t (t + 2 - beta); q is the common denominator of alpha,
        delta/2 and n, and q2 = q^2."""
        c = self._constants.get(n)
        if c is None:
            beta = self.beta
            q, (a, h, m) = _scaled(self.alpha, self.delta / 2, n)
            t = a + h + beta * m
            u = t + (2 - beta) * q
            lead = (q * q, ((6 - 3 * beta) * q + t) * u, t * u)
            c = self._constants[n] = (lead, rat(a - h + beta * m, q))
        return c

    def kappas(self, n, order):
        """kappa_1..kappa_order at dimension n (n=0 yields an empty sum: all zero)."""
        if order < 1:
            return []
        if n == 0:
            return [rat(0)] * order
        self._note_visit(n)
        cached = self._kappa.get(n, None)
        if cached is None:
            cached = list(_initial_three(self.beta, self.alpha, self.delta, n))
            self._kappa[n] = cached
        while len(cached) < order:
            self._extend(n, cached)
        return cached[:order]

    def _extend(self, n, kappa):
        beta = self.beta
        l = len(kappa)  # recurrence index producing kappa_{l+1}
        chi = 2 if beta == 2 else 1
        eta = eta_factor(beta)
        (q2, P, Q), g = self._dimension(n)
        A = _leading(beta, l, q2, P, Q)
        if A == 0:
            raise PoleError(f"leading coefficient vanishes at order {l} (n={n})")
        # kappa[i] is kappa_{i+1}
        terms = _symmetric_terms(
            [-eta * math.comb(l, i) * _coeff_B(l, i, chi) for i in range(l)], kappa
        )
        terms.append((l * (2 * l - 1), g, kappa[l - 1]))
        terms.append((l * (l - 1) * (l - 2), kappa[l - 2], ONE))
        bn = self.coupling(n)
        if bn != 0:
            mu = self.reduced_moments(n, l - 3)
            terms.append((12 * l * (l - 1) * (l - 2) // beta, bn, mu[l - 3]))
        kappa.append(dot(terms) / rat(A, q2))

    def reduced_moments(self, n, order):
        """mu_0..mu_order at dimension n from the reduced cumulants
        r_l = kappa_l(n-i) + kappa_l(n+i) - 2*kappa_l(n), l = 1..order.

        Both lists are memoised per dimension and only extended: r_l and mu_l
        depend on nothing above order l.  The returned list is the memo (it
        may hold more than order + 1 entries) and must not be modified.
        """
        r, mu = self._reduced.setdefault(n, ([], [rat(1)]))
        if order >= 1:
            minus = self.kappas(n - self.step, order)
            plus = self.kappas(n + self.step, order)
            here = self.kappas(n, order)
            r.extend(
                _second_difference(minus[j], plus[j], here[j])
                for j in range(len(r), order)
            )
        return bell_transform(r, order, mu)


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


def conductance_cumulants(p: TransportParams, max_order) -> CumulantSequence:
    """kappa_1..kappa_L exactly, engaging the dimension lattice when beta != 2."""
    if max_order < 1:
        raise InvalidOrderError("max_order must be >= 1")
    # order l consumes reduced data to order l-3; each recursion level drops
    # the needed order, so this radius is a safe ceiling.
    engine = ConductanceEngine(
        p.beta, p.alpha, p.delta,
        center=p.n, max_radius=(max(max_order - 3, 0) + 2) // 3 + 1,
    )
    values = tuple(engine.kappas(p.n, max_order))
    return CumulantSequence(
        params=p,
        values=values,
        lattice_radius=engine.radius,
        extended_validity=p.extended_validity,
    )


def reduced_moments(p: TransportParams, max_order, provider=None) -> ReducedSequence:
    """Reduced cumulants r_1..r_L and moments mu_0..mu_L at dimension n.

    ``provider`` maps (dimension, order) -> [kappa_1..kappa_order]; the default
    is the exact recurrence engine.  Only meaningful for beta in {1,4}.
    """
    if p.beta == 2:
        raise UnsupportedBetaError("beta=2 has no dimension lattice")
    step = p.i_shift
    if provider is None:
        engine = ConductanceEngine(p.beta, p.alpha, p.delta)
        provider = engine.kappas
    minus = provider(p.n - step, max_order)
    plus = provider(p.n + step, max_order)
    here = provider(p.n, max_order)
    r = [_second_difference(minus[j], plus[j], here[j]) for j in range(max_order)]
    mu = bell_transform(r, max_order)
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
