"""Exact finite-n joint cumulants of conductance and shot noise.

The table kappa_{l,k} is filled column by column in k: the double recurrence
expresses the (k+1)-column in terms of columns <= k with l shifted up by at
most 4, so the conductance boundary row is computed to order L + 2K up
front.  For beta in {1,4} the right-hand side consumes joint reduced moments,
i.e. joint tables at the shifted dimensions, recursively with decreasing
column depth.  Every entry depends only on (n, l, k), so the memoised table
at each dimension, and its joint reduced moments, are grown in place when a
deeper staircase is requested.  Each is a list of columns, column k an int
row (``rational.int_row``) indexed by l, and the backend rationals of a
table are built only when it leaves the engine.  ``JointEngine`` is its k=0
row's own conductance lattice (``conductance.ConductanceEngine``): the row,
its even-beta fallback, dimension 0 and negative dimensions included, and its
reduced moments are the lattice's.  A table's k=0 column is that row behind
kappa_{0,0} = 0; ``JointCumulantTable`` holds no other copy of it.

Each entry is one ``rational.dot`` with one reduction, with the division by
its integer leading coefficient 2l + 3k + 2 folded in; the double sum is
symmetric under (i, j) <-> (k-1-i, l-j), so each pair of its terms is
multiplied once under twice the weight.  Each reduced cumulant r_{l,k} and
each mu_{l,k} is one ``dot`` as well.  The gain was measured with the
``fractions`` backend only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conductance import (
    ConductanceEngine, _binomials, _second_difference, conductance_cumulants, conductance_initial,
)
from .ensembles import b_constant
from .errors import (
    BoundaryUnavailableError,
    CumulantError,
    InvalidOrderError,
    UnsupportedBetaError,
    UnsupportedParameterError,
)
from .params import TransportParams
from .rational import dot, rat, rationals, reduced


@dataclass(frozen=True)
class JointCumulantTable:
    """kappa_{l,k} for 0 <= l <= max_l, 0 <= k <= max_k (kappa_{0,0} = 0)."""

    params: TransportParams
    values: dict
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


class JointEngine(ConductanceEngine):
    """Memoized joint-table computation across the dimension lattice; the
    lattice's own values are the k=0 row."""

    def __init__(self, beta, alpha, delta):
        super().__init__(beta, alpha, delta)
        # dimension -> columns, column k the int row kappa_{0,k}, kappa_{1,k}, ...;
        # each grown in place, an entry stored only once computed, so a
        # failed fill leaves a valid prefix
        self._kappa = {}
        # dimension -> columns of r_{l,k}, k >= 1 (the k=0 row is the
        # lattice's, so column 0 is None) and of mu_{l,k}
        self._r = {}
        self._mu = {}

    def table(self, n, max_l, max_k):
        """kappa_{l,k} at dimension n as columns of int rows; column k holds
        l <= max_l + 2*(max_k-k).

        The returned list is the memo for dimension n: it may hold more
        entries, and gains more when a deeper staircase is requested later.
        """
        cols = self._kappa.setdefault(n, [([0], [1])])
        if len(cols) > max_k and all(
            len(cols[k][0]) > max_l + 2 * (max_k - k) for k in range(max_k + 1)
        ):
            return cols

        # Column k+1 at index l consumes row entries up to l + 4 with k-1, and
        # l + 2 with k; chasing the extents shows the k=0 row is consumed to
        # exactly L + 2K.  Computing deeper would risk spurious poles at
        # parameters where a higher-order leading coefficient happens to vanish.
        row_order = max_l + 2 * max_k
        try:
            row_nums, row_dens = self.kappas(n, row_order)
        except CumulantError as exc:
            if self.beta != 1:
                raise
            raise BoundaryUnavailableError(
                f"conductance row failed at dimension {n}: {exc}"
            ) from exc
        # c = alpha + delta/2 + beta(n-1) + 2 on the engine's integer scale
        cn, cd = reduced(self._a + self._h + (self.beta * (n - 1) + 2) * self._q, self._q)
        eta = self._eta
        # b_n enters columns k >= 2 only, so a narrower table, the conductance
        # row among them, does not stop at a pole of b_n
        bn, bd = self.coupling(n) if max_k >= 2 else (0, 1)
        mu = None
        if bn:
            # the consumed entries mu_{l,k-1} fit exactly the staircase
            # profile of a (max_l, max_k - 2) table
            mu = self._joint_reduced_moments(n, max_l, max_k - 2)
        # stored only after the recursion above returns, so requests made
        # inside it find the cache a build from scratch would find
        if len(cols[0][0]) <= row_order:
            cols[0] = ([0, *row_nums], [1, *row_dens])
        while len(cols) <= max_k:
            cols.append(([], []))
        for k in range(max_k):
            # column k+1 from column k and, for k >= 1, column k-1
            kn, kd = cols[k]
            nums, dens = cols[k + 1]
            for l in range(len(nums), max_l + 2 * (max_k - k - 1) + 1):
                terms = [(2, cn, cd, kn[l + 2], kd[l + 2])]
                if k >= 1:
                    pn, pd = cols[k - 1]
                    if bn:
                        mn, md = mu[k - 1]
                        terms.append((self._coupling_weight * k, bn, bd, mn[l], md[l]))
                    terms.append((-eta * k, pn[l + 4], pd[l + 4], 1, 1))
                    terms.append((k, pn[l + 2], pd[l + 2], 1, 1))
                    _double_sum(terms, cols, l, k, eta)
                # the leading coefficient 2l + 3k + 2 is at least 2
                num, den = dot(terms, 1, 2 * l + 3 * k + 2)
                nums.append(num)
                dens.append(den)
        return cols

    def _joint_reduced_moments(self, n, L, K):
        """mu_{l,k} on the staircase profile: column k holds l <= L + 2*(K-k).

        Exactly the entries a (L, K)-shaped table provides, so the shifted
        joint tables are requested no deeper than the recurrence consumes.
        Like ``table``, the result is the memo for dimension n, as columns of
        int rows; column 0 is the lattice's reduced-moment row.
        """
        r = self._joint_reduced_cumulants(n, L, K)
        mu = self._mu.setdefault(n, [None])
        mu[0] = self.reduced_moments(n, L + 2 * K)
        while len(mu) <= K:
            mu.append(([], []))
        for k in range(1, K + 1):
            nums, dens = mu[k]
            for l in range(len(nums), L + 2 * (K - k) + 1):
                # sum_{i<k, j<=l} C(k-1,i) C(l,j) r_{l-j,k-i} mu_{j,i}
                terms = []
                binomials = _binomials(l)
                for i, ci in enumerate(_binomials(k - 1)):
                    rn, rd = r[k - i]
                    terms.extend(zip([ci * b for b in binomials], rn[l::-1], rd[l::-1], *mu[i]))
                num, den = dot(terms)
                nums.append(num)
                dens.append(den)
        return mu

    def _joint_reduced_cumulants(self, n, L, K):
        """r_{l,k}, k >= 1, on the staircase profile of an (L, K) table: all
        the 2-D Bell sum reads, as columns of int rows with column 0 None.
        The k=0 row is the lattice's (``reduced_moments``)."""
        step = self.step
        minus = self.table(n - step, L, K)
        plus = self.table(n + step, L, K)
        here = self.table(n, L, K)
        r = self._r.setdefault(n, [None])
        while len(r) <= K:
            r.append(([], []))
        for k in range(1, K + 1):
            nums, dens = r[k]
            for l in range(len(nums), L + 2 * (K - k) + 1):
                num, den = _second_difference(minus[k], plus[k], here[k], l)
                nums.append(num)
                dens.append(den)
        return r


def _double_sum(terms, cols, l, k, eta):
    """Append to ``terms`` the terms of -6 eta k sum_{i<k, j<=l} C(k-1,i) C(l,j)
    kappa_{j+2,i} kappa_{l-j+2,k-1-i}.

    The mirror (k-1-i, l-j) of a term has the same weight and product, so
    each pair enters once with twice the weight: column i < (k-1)/2 with all
    its j against column k-1-i, and for odd k the middle column with
    j < l/2 against l - j; the middle term (2i = k-1, 2j = l) is its own
    pair."""
    binomials = _binomials(l)
    for i, ci in enumerate(_binomials(k - 1)[:(k + 1) // 2]):
        scale = -6 * eta * k * ci
        if 2 * i + 1 < k:
            weights = [2 * scale * b for b in binomials]
        else:
            weights = [2 * scale * b for b in binomials[:l // 2 + 1]]
            if l % 2 == 0:
                weights[-1] = scale * binomials[l // 2]
        (an, ad), (bn, bd) = cols[i], cols[k - 1 - i]
        terms.extend(zip(weights, an[2:], ad[2:], bn[l + 2:1:-1], bd[l + 2:1:-1]))


def _rectangle(cols, max_l, max_k):
    """The backend rationals kappa_{l,k} of a table's columns on the
    rectangle l <= max_l, k <= max_k, keyed (l, k)."""
    values = [rationals(nums[:max_l + 1], dens[:max_l + 1]) for nums, dens in cols[:max_k + 1]]
    return {(l, k): values[k][l] for l in range(max_l + 1) for k in range(max_k + 1)}


def joint_reduced_table(p: TransportParams, max_l, max_k) -> JointReducedTable:
    """The reduced joint cumulants r_{l,k} (second differences across the
    dimension lattice) and their exponential-Bell transform mu_{l,k}, on the
    staircase profile of a (max_l, max_k) table.  Only beta in {1,4} carry a
    lattice."""
    if p.beta == 2:
        raise UnsupportedBetaError("beta=2 has no dimension lattice")
    engine = JointEngine(p.beta, p.alpha, p.delta)
    mu_cols = engine._joint_reduced_moments(p.n, max_l, max_k)
    rn, rd = engine._reduced[p.n][0]
    r_cols = [([0, *rn], [1, *rd]), *engine._r[p.n][1:]]
    r, mu = {}, {}
    for k in range(max_k + 1):
        extent = max_l + 2 * (max_k - k) + 1
        for table, cols in ((r, r_cols), (mu, mu_cols)):
            nums, dens = cols[k]
            table.update(((l, k), v) for l, v in enumerate(rationals(nums[:extent], dens[:extent])))
    return JointReducedTable(r=r, mu=mu)


def joint_cumulants(p: TransportParams, max_l, max_k) -> JointCumulantTable:
    """Exact kappa_{l,k} for the rectangle l <= max_l, k <= max_k."""
    if max_l < 0 or max_k < 0:
        raise InvalidOrderError("orders must be nonnegative")
    cols = JointEngine(p.beta, p.alpha, p.delta).table(p.n, max_l, max_k)
    return JointCumulantTable(
        params=p, values=_rectangle(cols, max_l, max_k), max_l=max_l, max_k=max_k
    )


def shot_noise_variance_closed(p: TransportParams):
    """Closed-form kappa_{0,2} for beta in {1,4}; must equal the recurrence."""
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
    if max_k < 1:
        raise InvalidOrderError(f"max_k must be >= 1, got {max_k}")
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


#: relative tolerance of ``gaussian_factorization_check``; each of its three
#: integrals is taken to a quarter of it
GAUSS_FACTOR_REL_TOL = 1e-6


def gaussian_factorization_check(n, w):
    """Numerically verifies the generating-function factorization
    M_n(0, -4w) = M_{N1}(-w)|_{delta=-1} * M_{N2}(-w)|_{delta=+1}
    (beta=2, alpha=0) by quadrature of all three integrals, to relative
    tolerance ``GAUSS_FACTOR_REL_TOL``."""
    if n > 3:
        raise UnsupportedParameterError("quadrature cost limits the check to n <= 3")
    if not w > 0:
        raise InvalidOrderError("w must be positive")
    from .quadrature import transport_mgf_value  # loads numpy/scipy on first use

    n1, n2 = (n + 1) // 2, n // 2
    tol = GAUSS_FACTOR_REL_TOL / 4
    lhs = transport_mgf_value(TransportParams(2, 0, 0, n), z=0.0, w=-4.0 * w, rel_tol=tol)
    rhs = 1.0
    if n1 >= 1:
        rhs *= transport_mgf_value(TransportParams(2, 0, -1, n1), z=-w, w=0.0, rel_tol=tol)
    if n2 >= 1:
        rhs *= transport_mgf_value(TransportParams(2, 0, 1, n2), z=-w, w=0.0, rel_tol=tol)
    lhs, rhs = float(lhs), float(rhs)
    rel_err = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    return {
        "n": n,
        "w": w,
        "lhs": lhs,
        "rhs": rhs,
        "rel_err": rel_err,
        "ok": bool(rel_err <= GAUSS_FACTOR_REL_TOL),
    }
