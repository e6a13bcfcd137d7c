"""Exact finite-n joint cumulants of conductance and shot noise.

The table kappa_{l,k} is filled column by column in k: the double recurrence
expresses the (k+1)-column in terms of columns <= k with l shifted up by at
most 4, so the conductance boundary row is computed to order L + 2K + 4 up
front.  For beta in {1,4} the right-hand side consumes joint reduced moments,
i.e. joint tables at the shifted dimensions, recursively with decreasing
column depth.  Every entry depends only on (n, l, k), so the memoised table
at each dimension, and its joint reduced moments, are grown in place when a
deeper staircase is requested.  Dimension 0 is the empty ensemble (all cumulants zero);
negative lattice dimensions are evaluated by the same rational continuation
the conductance row uses.

Each entry is one ``rational.dot`` with one reduction, divided once by its
integer leading coefficient 2l + 3k + 2; the double sum is symmetric under
(i, j) <-> (k-1-i, l-j), so each pair of its terms is multiplied once under
twice the weight.  Each reduced cumulant r_{l,k} and each mu_{l,k} is one
``dot`` as well.  The gain was measured with the ``fractions`` backend only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conductance import (
    ConductanceEngine,
    CumulantSequence,
    _second_difference,
    bell_transform,
)
from .ensembles import b_constant
from .errors import (
    BoundaryUnavailableError,
    CumulantError,
    InvalidOrderError,
    UnsupportedBetaError,
    UnsupportedParameterError,
)
from .params import TransportParams, eta_factor, lattice_step
from .rational import ONE, dot, rat


@dataclass(frozen=True)
class JointCumulantTable:
    """kappa_{l,k} for 0 <= l <= max_l, 0 <= k <= max_k (kappa_{0,0} = 0)."""

    params: TransportParams
    values: dict
    boundary: CumulantSequence
    max_l: int
    max_k: int

    def __getitem__(self, lk):
        l, k = lk
        try:
            return self.values[(l, k)]
        except KeyError:
            raise InvalidOrderError(f"joint cumulant ({l},{k}) not computed") from None


@dataclass(frozen=True)
class JointReducedTable:
    r: dict
    mu: dict


class JointEngine:
    """Memoized joint-table computation across the dimension lattice.

    ``boundary_override`` maps a dimension to a precomputed conductance
    cumulant list; it is consulted before the recurrence, which lets callers
    supply an exact-moment boundary at the isolated parameter points where
    the recurrence's leading coefficient vanishes.
    """

    def __init__(self, beta, alpha, delta, boundary_override=None, center=None):
        self.beta = beta
        self.alpha = rat(alpha)
        self.delta = rat(delta)
        self.step = lattice_step(beta)
        self.cond = ConductanceEngine(beta, alpha, delta, center=center)
        self.boundary_override = boundary_override or {}
        # dimension -> {(l, k): value}, each grown in place; an entry is
        # stored only once computed, so a failed fill leaves a valid prefix
        self._kappa = {}
        self._r = {}
        self._mu = {}
        self._mu_row = {}  # dimension -> ([r_{1,0}, ...], [mu_{0,0}, mu_{1,0}, ...])

    def _boundary(self, n, order):
        override = self.boundary_override.get(n)
        if override is not None and len(override) >= order:
            return list(override[:order])
        if override is not None and self.beta == 1:
            raise BoundaryUnavailableError(
                f"boundary override at dimension {n} is too short"
            )
        try:
            return self.cond.kappas(n, order)
        except CumulantError as exc:
            # even-beta rows degenerate at isolated orders (the leading
            # coefficient vanishes at l = t for beta=2 and l = t/2 - 1 for
            # beta=4, t = alpha + delta/2 + beta n); the exact determinant
            # moments supply the row instead
            if self.beta in (2, 4):
                from .exactmoments import exact_conductance_cumulant_row

                row = exact_conductance_cumulant_row(
                    TransportParams(self.beta, self.alpha, self.delta, n), order
                )
                self.boundary_override[n] = row
                return list(row)
            raise BoundaryUnavailableError(
                f"conductance row failed at dimension {n}: {exc}"
            ) from exc

    def _row_or_zeros(self, n, order):
        if n == 0:
            return [rat(0)] * order
        return self._boundary(n, order)

    def table(self, n, max_l, max_k):
        """kappa_{l,k} at dimension n; column k holds l <= max_l + 2*(max_k-k).

        The returned dict is the memo for dimension n: it may hold more
        entries, and gains more when a deeper staircase is requested later.
        """
        kappa = self._kappa.setdefault(n, {(0, 0): rat(0)})
        if all((max_l + 2 * (max_k - k), k) in kappa for k in range(max_k + 1)):
            return kappa

        # Column k+1 at index l consumes row entries up to l + 4 with k-1, and
        # l + 2 with k; chasing the extents shows the k=0 row is consumed to
        # exactly L + 2K.  Computing deeper would risk spurious poles at
        # parameters where a higher-order leading coefficient happens to vanish.
        row_order = max_l + 2 * max_k
        if n == 0:
            for k in range(max_k + 1):
                for l in range(max_l + 2 * (max_k - k) + 1):
                    kappa[(l, k)] = rat(0)
        else:
            row = self._boundary(n, row_order)
            c = self.alpha + self.delta / 2 + self.beta * n + 2 - self.beta
            eta = eta_factor(self.beta)
            bn = self.cond.coupling(n)
            mu = None
            if bn != 0 and max_k >= 2:
                # the consumed entries mu[(l, k-1)] fit exactly the staircase
                # profile of a (max_l, max_k - 2) table
                mu = self._joint_reduced_moments(n, max_l, max_k - 2)
            # stored only after the recursion above returns, so requests made
            # inside it find the cache a build from scratch would find
            for l in range(1, row_order + 1):
                kappa[(l, 0)] = row[l - 1]
            for k in range(max_k):
                extent = max_l + 2 * (max_k - k - 1)
                for l in range(extent + 1):
                    if (l, k + 1) in kappa:
                        continue
                    terms = [(2, c, kappa[(l + 2, k)])]
                    if k >= 1:
                        if bn != 0:
                            terms.append((12 // self.beta * k, bn, mu[(l, k - 1)]))
                        terms.append((-eta * k, kappa[(l + 4, k - 1)], ONE))
                        terms.append((k, kappa[(l + 2, k - 1)], ONE))
                        terms.extend(_double_sum(kappa, l, k, -6 * eta * k))
                    # the leading coefficient 2l + 3k + 2 is at least 2
                    kappa[(l, k + 1)] = dot(terms) / (2 * l + 3 * k + 2)
        return kappa

    def _joint_reduced_moments(self, n, L, K):
        """mu_{l,k} on the staircase profile: column k holds l <= L + 2*(K-k).

        Exactly the entries a (L, K)-shaped table provides, so the shifted
        joint tables are requested no deeper than the recurrence consumes.
        Like ``table``, the result is the memo for dimension n.
        """
        step = self.step
        r = self._joint_reduced_cumulants(n, L, K)
        mu = self._mu.setdefault(n, {})
        reduced_row, mu_row = self._mu_row.setdefault(n, ([], [rat(1)]))
        row_len = L + 2 * K
        minus_row = self._row_or_zeros(n - step, row_len)
        plus_row = self._row_or_zeros(n + step, row_len)
        here_row = self._row_or_zeros(n, row_len)
        reduced_row.extend(
            _second_difference(minus_row[j], plus_row[j], here_row[j])
            for j in range(len(reduced_row), row_len)
        )
        bell_transform(reduced_row, row_len, mu_row)
        for l in range(row_len + 1):
            mu[(l, 0)] = mu_row[l]
        for k in range(1, K + 1):
            for l in range(L + 2 * (K - k) + 1):
                if (l, k) in mu:
                    continue
                mu[(l, k)] = dot(
                    (math.comb(k - 1, i) * math.comb(l, j), r[(l - j, k - i)], mu[(j, i)])
                    for i in range(k)
                    for j in range(l + 1)
                )
        return mu

    def _joint_reduced_cumulants(self, n, L, K):
        minus = self.table(n - self.step, L, K)
        plus = self.table(n + self.step, L, K)
        here = self.table(n, L, K)
        r = self._r.setdefault(n, {(0, 0): rat(0)})
        for k in range(K + 1):
            for l in range(L + 2 * (K - k) + 1):
                if (l, k) not in r:
                    r[(l, k)] = _second_difference(
                        minus[(l, k)], plus[(l, k)], here[(l, k)]
                    )
        return r


def _double_sum(kappa, l, k, scale):
    """The terms of scale * sum_{i<k, j<=l} C(k-1,i) C(l,j)
    kappa_{j+2,i} kappa_{l-j+2,k-1-i}.

    With m = i(l+1) + j, the mirror (k-1-i, l-j) of a term sits at
    k(l+1) - 1 - m and has the same weight and product, so each pair enters
    once with twice the weight; the middle term (2i = k-1, 2j = l) is its own
    pair."""
    size = k * (l + 1)
    for m in range((size + 1) // 2):
        i, j = divmod(m, l + 1)
        w = scale * math.comb(k - 1, i) * math.comb(l, j)
        if 2 * m + 1 < size:
            w *= 2
        yield w, kappa[(j + 2, i)], kappa[(l - j + 2, k - 1 - i)]


def joint_reduced_table(p: TransportParams, max_l, max_k) -> JointReducedTable:
    """The reduced joint cumulants r_{l,k} (second differences across the
    dimension lattice) and their exponential-Bell transform mu_{l,k}, on the
    staircase profile of a (max_l, max_k) table.  Only beta in {1,4} carry a
    lattice."""
    if p.beta == 2:
        raise UnsupportedBetaError("beta=2 has no dimension lattice")
    engine = JointEngine(p.beta, p.alpha, p.delta)
    r = engine._joint_reduced_cumulants(p.n, max_l, max_k)
    mu = engine._joint_reduced_moments(p.n, max_l, max_k)
    return JointReducedTable(r=r, mu=mu)


def joint_cumulants(p: TransportParams, max_l, max_k,
                    boundary_override=None) -> JointCumulantTable:
    """Exact kappa_{l,k} for the rectangle l <= max_l, k <= max_k."""
    if max_l < 0 or max_k < 0:
        raise InvalidOrderError("orders must be nonnegative")
    engine = JointEngine(p.beta, p.alpha, p.delta, boundary_override, center=p.n)
    kappa = engine.table(p.n, max_l, max_k)
    values = {
        (l, k): kappa[(l, k)]
        for l in range(max_l + 1)
        for k in range(max_k + 1)
    }
    boundary = CumulantSequence(
        params=p,
        values=tuple(engine._boundary(p.n, max(max_l, 1))),
        lattice_radius=engine.cond.radius,
        extended_validity=p.extended_validity,
    )
    return JointCumulantTable(
        params=p, values=values, boundary=boundary, max_l=max_l, max_k=max_k
    )


def shot_noise_variance_closed(p: TransportParams):
    """Closed-form kappa_{0,2} for beta in {1,4}; must equal the recurrence."""
    from .conductance import conductance_cumulants

    if p.beta == 2:
        raise UnsupportedBetaError("no closed shot-noise variance for beta=2")
    seq = conductance_cumulants(p, 4)
    k2, k4 = seq[2], seq[4]
    bn = b_constant(p)
    s = p.alpha + p.delta / 2
    if p.beta == 4:
        return rat(1, 5) * (
            rat(2, 3) * (s + 4 * p.n - 2) ** 2 * k4
            - 4 * k4
            - 24 * k2 * k2
            + k2
            + 3 * bn
        )
    return rat(1, 5) * (
        rat(2, 3) * (s + p.n + 1) ** 2 * k4 - k4 - 6 * k2 * k2 + k2 + 12 * bn
    )


def mean_shot_noise(p: TransportParams):
    """kappa_{0,1} = (alpha + delta/2 + n*beta + 2 - beta) * kappa_2, the l=0
    case of the first-column identity; valid for every beta."""
    from .conductance import conductance_initial

    _, k2, _ = conductance_initial(p)
    return (p.alpha + p.delta / 2 + p.n * p.beta + 2 - p.beta) * k2


def altland_identity_check(n, max_k):
    """Cumulant form of the distributional identity between shot noise in the
    unitary class and a rescaled sum of two superconducting-class conductances.

    For k = 1..max_k asserts, exactly,
        kappa_{0,k}(P; beta=2, alpha=0, delta=0, n)
        = 4^{-k} * [kappa_k(G; N1, delta=-1) + kappa_k(G; N2, delta=+1)]
    with N1 = floor((n+1)/2), N2 = floor(n/2): cumulants add under independent
    sums, and scaling by 1/4 multiplies the k-th cumulant by 4^{-k}.
    """
    from .conductance import conductance_cumulants

    n1, n2 = (n + 1) // 2, n // 2
    left = TransportParams(2, 0, 0, n)
    left_table = joint_cumulants(left, 0, max_k)
    right1 = (
        conductance_cumulants(TransportParams(2, 0, -1, n1), max_k).values
        if n1 >= 1
        else (rat(0),) * max_k
    )
    right2 = (
        conductance_cumulants(TransportParams(2, 0, 1, n2), max_k).values
        if n2 >= 1
        else (rat(0),) * max_k
    )
    failures = []
    rows = []
    for k in range(1, max_k + 1):
        lhs = left_table[(0, k)]
        rhs = (right1[k - 1] + right2[k - 1]) / rat(4) ** k
        rows.append({"k": k, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs})
        if lhs != rhs:
            failures.append(k)
    return {
        "n": n,
        "n1": n1,
        "n2": n2,
        "max_k": max_k,
        "ok": not failures,
        "first_failure": failures[0] if failures else None,
        "rows": rows,
    }


def gaussian_factorization_check(n, w, rel_tol=1e-6):
    """Numerically verifies the generating-function factorization
    M_n(0, -4w) = M_{N1}(-w)|_{delta=-1} * M_{N2}(-w)|_{delta=+1}
    (beta=2, alpha=0) by quadrature of all three integrals."""
    if n > 3:
        raise UnsupportedParameterError("quadrature cost limits the check to n <= 3")
    if not w > 0:
        raise InvalidOrderError("w must be positive")
    from .quadrature import transport_mgf_value  # loads numpy/scipy on first use

    n1, n2 = (n + 1) // 2, n // 2
    lhs = transport_mgf_value(
        TransportParams(2, 0, 0, n), z=0.0, w=-4.0 * w, rel_tol=rel_tol / 4
    )
    rhs = 1.0
    if n1 >= 1:
        rhs *= transport_mgf_value(
            TransportParams(2, 0, -1, n1), z=-w, w=0.0, rel_tol=rel_tol / 4
        )
    if n2 >= 1:
        rhs *= transport_mgf_value(
            TransportParams(2, 0, 1, n2), z=-w, w=0.0, rel_tol=rel_tol / 4
        )
    lhs, rhs = float(lhs), float(rhs)
    rel_err = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    return {
        "n": n,
        "w": w,
        "lhs": lhs,
        "rhs": rhs,
        "rel_err": rel_err,
        "ok": bool(rel_err <= rel_tol),
    }
