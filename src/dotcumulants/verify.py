"""Independent oracles: quadrature moments, exact ODE/PDE residual checks for
the three master equations, and the Jacobi-polynomial identity suite.

The quadrature oracle and its reference read the mixed (l, k) table of
conductance and shot noise, one rectangle and key rule per statistic
(``statistic_cells``): G is its k=0 column and P its l=0 row.

The residual operations build the generating functions as ``DoubleSeries``
straight from the computed cumulants, assemble the differential equation in
exact arithmetic, and assert that its Taylor coefficients are identically
zero: the conductance and delay-time ODEs through one fourth-order assembly
on (M, 0) rectangles, the joint PDE on a double rectangle.  Every product is
taken on the rectangle the residual reads of it, no larger.
Each checker accepts a ``perturb`` hook so tests can confirm it detects a
corrupted cumulant (a residual checker that cannot see a fault is itself
broken).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .asymptotics import staircase_sum
from .conductance import ConductanceEngine
from .doubleseries import DoubleSeries, moments_to_cumulants
from .ensembles import b_constant, d_constant
from .errors import InsufficientOrderError, InvalidOrderError, UnsupportedParameterError
from .jointcsn import JointEngine, _rectangle
from .params import DelayParams, TransportParams
from .rational import rat, rationals
from .wigner import DelayEngine


@dataclass(frozen=True)
class ResidualReport:
    equation: str
    params: dict
    order_checked: object
    max_abs_coefficient: object
    first_nonzero_index: object

    @property
    def passed(self):
        return self.max_abs_coefficient == 0 and self.first_nonzero_index is None

    def describe(self):
        return {
            "equation": self.equation,
            "params": self.params,
            "order_checked": self.order_checked,
            "max_abs_coefficient": str(self.max_abs_coefficient),
            "first_nonzero_index": self.first_nonzero_index,
            "passed": self.passed,
        }


def _report(equation, params, order, series_coeffs):
    nonzero = [(idx, c) for idx, c in series_coeffs if c != 0]
    return ResidualReport(
        equation=equation,
        params=params,
        order_checked=order,
        max_abs_coefficient=max((abs(c) for _, c in nonzero), default=rat(0)),
        first_nonzero_index=nonzero[0][0] if nonzero else None,
    )


# -- the fourth-order ODEs ---------------------------------------------------------


def _require_ode_order(order):
    # the residual to order M takes four derivatives of a series of order
    # M + 1, which leaves nothing to evaluate below M = 3
    if order < 3:
        raise InvalidOrderError(f"ODE residual order must be >= 3, got {order}")


def _fourth_order_residual(equation, p, order, fetch, scale, polynomials, coupling, perturb):
    """Residual series to order M of the equation the conductance and the
    delay time share,

      eta z^3 s'''' + 6 eta z^3 s''^2 + beta (2 z^2 s''' + z s'^2 + 4 z^2 s' s'')
        + z (p2/z) s'' + p1 s' + p0 - (12 c / beta) z^3 exp(rho),

    with s = sum_l v_l (scale z)^l / l! over the int row v = ``fetch(n, M + 1)``,
    (p0, p1, p2/z) given by their exponential-generating coefficients (t_l l!
    for the Taylor coefficient t_l), c = ``coupling(p)``, taken after v, and rho the
    same series of r_l = v_l(n - i) + v_l(n + i) - 2 v_l(n), l <= M - 3.
    Grouped by the power of z in front, each group is a series of order M
    once multiplied by it, and so is their sum.
    """
    M, n, beta, eta = order, p.n, p.beta, p.eta14
    # order M+1 is exactly what a residual valid to order M consumes; going
    # deeper risks the isolated orders where the recurrence coefficient
    # vanishes and the values are not recurrence-reachable.
    values = rationals(*fetch(n, M + 1))
    if perturb is not None:
        idx, delta = perturb
        values[idx - 1] = values[idx - 1] + rat(delta)

    def s_to(L):
        """s on the (L, 0) rectangle."""
        return DoubleSeries.univariate([0, *values[:L]], L, scale)

    s = s_to(M + 1)
    s1, s2, s3, s4 = (s.derivative(d) for d in (1, 2, 3, 4))
    # each product is taken on the rectangle its group reads, from the
    # derivatives of a shorter s: s''^2 to M - 3, s' s'' to M - 2, s'^2 to M - 1
    t = s_to(M)
    t1, t2 = t.derivative(1), t.derivative(2)
    u2 = s_to(M - 1).derivative(2)
    # p2 has no constant term; factoring out z keeps the product valid to M
    p0, p1, p2_over_z = (DoubleSeries.univariate(egf, M) for egf in polynomials)
    cubic = eta * (s4 + 6 * (u2 * u2))
    c = coupling(p)
    if c != 0:
        reduced = []
        if M > 3:
            minus, plus = (rationals(*fetch(n + m * p.i_shift, M - 3)) for m in (-1, 1))
            reduced = [minus[j] + plus[j] - 2 * values[j] for j in range(M - 3)]
        rho = DoubleSeries.univariate([0, *reduced], M - 3, scale)
        cubic = cubic - (12 * c / beta) * rho.exponential()
    res = (
        cubic.times(3)
        + (beta * (2 * s3 + 4 * (t1 * t2))).times(2)
        + (beta * (t1 * t1) + p2_over_z * s2).times(1)
        + p1 * s1
        + p0
    )
    return _report(equation, p.describe(), M, enumerate(res.taylor()))


def ode_residual_conductance(p: TransportParams, order, perturb=None) -> ResidualReport:
    """Residual series of the fourth-order conductance ODE, exact-zero contract."""
    _require_ode_order(order)
    beta, a, d, n = p.beta, p.alpha, p.delta, p.n
    t = a + d / 2 + beta * n
    polynomials = (
        (-rat(n, 2) * (beta * n + 2 * a + 2 - beta) * (beta * n + d / 2 + a),
         rat(n, 2) * (beta * n + 2 * a + 2 - beta)),
        (-t * (t + 2 - beta), beta * n + a - d / 2),
        (-(beta * n + a + d / 2 + 6 - 3 * beta) * (t + 2 - beta) + beta,
         2 * (beta * n + a - d / 2),
         -2),  # the z^2 coefficient -1, times 2!
    )
    return _fourth_order_residual(
        "conductance-ode", p, order, ConductanceEngine(beta, a, d).kappas, -1, polynomials,
        b_constant, perturb,
    )


def ode_residual_wigner(p: DelayParams, order, perturb=None) -> ResidualReport:
    """Residual series of the fourth-order delay-time ODE, exact-zero contract."""
    _require_ode_order(order)
    if order > p.q - 4:
        raise InsufficientOrderError(
            f"order must be <= q - 4 = {p.q - 4} (only q={p.q} cumulants exist)"
        )
    beta, n = p.beta, p.n
    u = p.b - beta * n
    polynomials = (
        (n * u,),
        (-(u - 2 + beta) * u, 2),
        (beta - (u - 6 + 3 * beta) * (u - 2 + beta), 4),
    )
    # at n itself order M + 1 <= q, so naming n as the requester changes nothing
    fetch = partial(DelayEngine(beta, p.b).cumulants, requester=n)
    return _fourth_order_residual(
        "delay-ode", p, order, fetch, rat(2, beta), polynomials, d_constant, perturb
    )


# -- joint PDE ----------------------------------------------------------------------------


def _signed_series(table, L, K):
    """sum (-1)^(l+k) table[(l, k)] z^l w^k / (l! k!) on the (L, K) rectangle."""
    signed = [(-1) ** (l + k) * table[(l, k)] for l in range(L + 1) for k in range(K + 1)]
    return DoubleSeries(signed, (L, K))


def pde_residual_joint(p: TransportParams, order_z, order_w, perturb=None) -> ResidualReport:
    """Residual of the joint conductance/shot-noise PDE on the double Taylor
    rectangle (order_z, order_w); exact-zero contract."""
    if order_z < 0 or order_w < 0:
        raise InvalidOrderError(
            f"PDE residual orders must be >= 0, got ({order_z}, {order_w})"
        )
    Mz, Mw, beta, eta = order_z, order_w, p.beta, p.eta14
    engine = JointEngine(beta, p.alpha, p.delta)
    # s_w, s_zw and s_ww read column Mw + 1 and no further; a deeper table
    # runs the conductance row deeper, into orders the residual never reads
    table = _rectangle(engine.table(p.n, Mz + 4, Mw + 1), Mz + 4, Mw + 1)
    kap = dict(table)
    if perturb is not None:
        kap[perturb[0]] = kap[perturb[0]] + rat(perturb[1])
    s_to = partial(_signed_series, kap)  # s on an (L, K) rectangle
    s = s_to(Mz + 4, Mw + 1)
    c = p.alpha + p.delta / 2 + p.n * beta + 2 - beta
    # 2 z s_zw + 2 s_w + 2c s_zz
    #   + w (eta s_zzzz + 6 eta s_zz^2 + 3 s_ww - s_zz - (12 b_n / beta) exp(rho)),
    # each term on the rectangle the (Mz, Mw) residual reads: the group in
    # front of w to column Mw - 1, so none of it when Mw = 0
    res = (
        2 * s.derivative(1, 1).times(1, 0)
        + 2 * s.derivative(0, 1)
        + 2 * c * s_to(Mz + 2, Mw).derivative(2, 0)
    )
    if Mw > 0:
        s2 = s_to(Mz + 2, Mw - 1).derivative(2, 0)
        group = eta * (s.derivative(4, 0) + 6 * (s2 * s2)) + 3 * s.derivative(0, 2) - s2
        bn = b_constant(p)
        if bn != 0:
            minus, plus = (_rectangle(engine.table(p.n + m * p.i_shift, Mz, Mw - 1), Mz, Mw - 1)
                           for m in (-1, 1))
            sigma = partial(_signed_series, L=Mz, K=Mw - 1)
            rho = sigma(minus) + sigma(plus) - 2 * sigma(table)  # table unperturbed
            group = group - (12 * bn / beta) * rho.exponential()
        res = res + group.times(0, 1)
    # reported as the double Taylor coefficients res[l,k] / (l! k!)
    L, K = res.shape  # (Mz, Mw)
    keys = [(l, k) for l in range(L + 1) for k in range(K + 1)]
    return _report("joint-pde", p.describe(), (Mz, Mw), zip(keys, res.taylor()))


# -- quadrature oracle ------------------------------------------------------------------


def statistic_cells(statistic, order):
    """The rectangle (L, K) of the mixed (l, k) table that ``statistic`` reads
    to ``order`` M, and the cells it reports, as ((l, k), key) pairs with
    0 < l + k <= M in total-degree order.  "G" reads the k=0 column, (M, 0),
    and "P" the l=0 row, (0, M); each lies on one axis, where l + k is its
    one index and key.  "mixed" reads the (M, M) rectangle, keyed (l, k)."""
    rectangles = {"G": (order, 0), "P": (0, order), "mixed": (order, order)}
    if statistic not in rectangles:
        raise ValueError(f"unknown statistic {statistic!r}")
    L, K = rectangles[statistic]
    cells = [((l, t - l), (l, t - l) if statistic == "mixed" else t)
             for t in range(1, order + 1) for l in range(max(0, t - K), min(t, L) + 1)]
    return (L, K), cells


def quadrature_moments(p: TransportParams, statistic, max_total_order):
    """Cumulants from adaptive quadrature of the raw moments (n <= 3), on the
    rectangle and under the keys of ``statistic_cells``.  Relative error
    target 1e-8 by way of the tighter quadrature tolerance
    ``quadrature.RAW_MOMENTS_REL_TOL``.
    """
    if max_total_order < 1:
        raise InvalidOrderError(f"max_order must be >= 1, got {max_total_order}")
    if p.n > 3:
        raise UnsupportedParameterError("quadrature oracle is capped at n <= 3")
    (L, K), cells = statistic_cells(statistic, max_total_order)
    from .quadrature import transport_raw_moments  # loads numpy/scipy on first use

    pairs = [(l, k) for l in range(L + 1) for k in range(K + 1) if l + k > 0]
    moments, err = transport_raw_moments(p, pairs)
    kappa = moments_to_cumulants(moments, L, K)
    return {key: kappa[lk] for lk, key in cells}, err


# -- Jacobi polynomial identity suite --------------------------------------------------


def general_binomial(upper, lower):
    """binom(upper, lower) with rational upper and integer lower >= 0."""
    if lower < 0:
        return rat(0)
    upper = rat(upper)
    acc = rat(1)
    for t in range(lower):
        acc *= (upper - t)
    return acc / math.factorial(lower)


def jacobi_polynomial_value(degree, a, b, x):
    """P_degree^{(a,b)}(x) via its finite binomial sum; exact for rational
    inputs.  degree < 0 evaluates to 0 (the standard convention)."""
    if degree < 0:
        return rat(0)
    a, b, x = rat(a), rat(b), rat(x)
    acc = rat(0)
    for j in range(degree + 1):
        acc += (
            general_binomial(degree + a, j)
            * general_binomial(degree + b, degree - j)
            * ((x - 1) / 2) ** (degree - j)
            * ((x + 1) / 2) ** j
        )
    return acc


def jacobi_identity_check(lmax, kmax):
    """Exact check of the binomial-sum/Jacobi-polynomial identity and the
    four-term contiguity relation behind the staircase collapse, on the grid
    l <= lmax, k <= kmax.  The binomial sum is ``asymptotics.staircase_sum``,
    the one the joint limits run."""
    failures = []
    for l in range(lmax + 1):
        for k in range(kmax + 1):
            lhs = staircase_sum(2 * l, k)
            rhs = (
                rat(math.factorial(2 * l) * math.factorial(k))
                / (math.factorial(l) * math.factorial(k + l))
                * jacobi_polynomial_value(k, l, -rat(k) - rat(1, 2), -3)
            )
            if lhs != rhs:
                failures.append({"identity": "binomial-sum", "l": l, "k": k})
                continue
            four = (
                (4 * l + 3 * k + 2) * (k + 1)
                * jacobi_polynomial_value(k + 1, l, -rat(k) - rat(3, 2), -3)
                + (2 * l + 1) * (k + l + 1)
                * jacobi_polynomial_value(k - 1, l + 1, -rat(k) + rat(1, 2), -3)
                + (2 * l + k) * (2 * l + 1)
                * jacobi_polynomial_value(k, l + 1, -rat(k) - rat(1, 2), -3)
                - 3 * (k + l) * (k + l + 1)
                * jacobi_polynomial_value(k - 1, l, -rat(k) + rat(1, 2), -3)
            )
            if four != 0:
                failures.append({"identity": "four-term", "l": l, "k": k})
    return {
        "lmax": lmax,
        "kmax": kmax,
        "ok": not failures,
        "first_failure": failures[0] if failures else None,
        "checked": (lmax + 1) * (kmax + 1),
    }
