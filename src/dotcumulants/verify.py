"""Independent oracles: quadrature moments, exact ODE/PDE residual checks for
the three master equations, and the Jacobi-polynomial identity suite.

The quadrature oracle and its reference read the mixed (l, k) table of
conductance and shot noise, one rectangle and key rule per statistic
(``statistic_cells``): G is its k=0 column and P its l=0 row.

The residual operations read the engines' int rows (``kappas``,
``cumulants``, the joint table's columns) straight into ``DoubleSeries``
(``DoubleSeries.from_row``), build their polynomial coefficients from
parameters scaled to integers once (``ensembles._scaled``), take b_n and d_n
as int pairs from the integer cores behind ``b_constant`` and
``d_constant``, and assert that the Taylor coefficients of the assembled
equation are identically zero: the conductance and delay-time ODEs through
one fourth-order assembly on (M, 0) rectangles, the joint PDE on a double
rectangle.  Each equation is summed term by term, a coefficient times a
monomial times a derivative of s, of a product or of exp(rho), in one
``DoubleSeries.combination``; every product is taken on the rectangle its
terms read, no larger.  A report is read off the integer numerators;
rationals are built only for the nonzero coefficients of a failing one.
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
from .ensembles import _lattice_coupling, _lattice_delay_coupling, _scaled
from .errors import InsufficientOrderError, InvalidOrderError, UnsupportedParameterError
from .jointcsn import JointEngine
from .params import DelayParams, TransportParams
from .rational import ZERO, dot, rat
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


def _report(equation, params, order, keys, res):
    nonzero = [] if res.is_zero() else [(idx, c) for idx, c in zip(keys, res.taylor()) if c]
    return ResidualReport(
        equation=equation,
        params=params,
        order_checked=order,
        max_abs_coefficient=max((abs(c) for _, c in nonzero), default=ZERO),
        first_nonzero_index=nonzero[0][0] if nonzero else None,
    )


def _perturbed(row, idx, delta):
    """A copy of the int row with the rational ``delta`` added to entry idx."""
    nums, dens, delta = list(row[0]), list(row[1]), rat(delta)
    nums[idx], dens[idx] = dot(((1, nums[idx], dens[idx], 1, 1),
                                (1, delta.numerator, delta.denominator, 1, 1)))
    return nums, dens


def _second_differences(minus, plus, centre):
    """minus + plus - 2 centre over three int rows as an int row, one ``dot``
    per entry."""
    pairs = [dot(((1, a, ad, 1, 1), (1, b, bd, 1, 1), (-2, c, cd, 1, 1)))
             for a, ad, b, bd, c, cd in zip(*minus, *plus, *centre)]
    return [x for x, _ in pairs], [d for _, d in pairs]


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
    (p0, p1, p2/z) given by their Taylor coefficients, ints or rationals,
    c the int pair ``coupling()``, taken after v, and rho the same series of
    r_l = v_l(n - i) + v_l(n + i) - 2 v_l(n), l <= M - 3.  Each term is a
    coefficient times z^a times a derivative of s, of a product or of
    exp(rho), and the terms are summed in one ``DoubleSeries.combination``
    on the (M, 0) rectangle.
    """
    M, n, beta, eta = order, p.n, p.beta, p.eta14
    # order M+1 is exactly what a residual valid to order M consumes; going
    # deeper risks the isolated orders where the recurrence coefficient
    # vanishes and the values are not recurrence-reachable.
    values = fetch(n, M + 1)
    if perturb is not None:
        values = _perturbed(values, perturb[0] - 1, perturb[1])
    nums, dens = values
    s = DoubleSeries.from_row([0, *nums], [1, *dens], (M + 1, 0), scale)
    # each product is taken on the rectangle its terms read: s'^2 to M - 1
    # (its derivative is 2 s' s''), s''^2 to M - 3
    s1 = s.truncated(M).derivative(1)
    s2 = s.truncated(M - 1).derivative(2)
    s1_sq = s1 * s1
    # p2 has no constant term; factoring out z keeps its terms valid to M
    p0, p1, p2_over_z = polynomials
    one = DoubleSeries.from_row([1], [1], (M, 0))
    terms = [
        (eta, (3, 0), s, (4, 0)), (6 * eta, (3, 0), s2 * s2, (0, 0)),
        (2 * beta, (2, 0), s, (3, 0)), (2 * beta, (2, 0), s1_sq, (1, 0)),
        (beta, (1, 0), s1_sq, (0, 0)),
        *((c, (j + 1, 0), s, (2, 0)) for j, c in enumerate(p2_over_z)),
        *((c, (j, 0), s, (1, 0)) for j, c in enumerate(p1)),
        *((c, (j, 0), one, (0, 0)) for j, c in enumerate(p0)),
    ]
    cn, cd = coupling()
    if cn:
        r = [], []
        if M > 3:
            minus, plus = (fetch(n + m * p.i_shift, M - 3) for m in (-1, 1))
            r = _second_differences(minus, plus, (nums[:M - 3], dens[:M - 3]))
        rho = DoubleSeries.from_row([0, *r[0]], [1, *r[1]], (M - 3, 0), scale)
        terms.append((rat(-12 * cn, beta * cd), (3, 0), rho.exponential(), (0, 0)))
    res = DoubleSeries.combination(terms, (M, 0))
    return _report(equation, p.describe(), M, range(M + 1), res)


def ode_residual_conductance(p: TransportParams, order, perturb=None) -> ResidualReport:
    """Residual series of the fourth-order conductance ODE, exact-zero contract."""
    _require_ode_order(order)
    beta, n = p.beta, p.n
    q, (a, h) = _scaled(p.alpha, p.delta / 2)  # alpha = a/q, delta/2 = h/q
    two = (2 - beta) * q
    t = a + h + beta * n * q  # q (alpha + delta/2 + beta n)
    u = t + a - h + two  # q (beta n + 2 alpha + 2 - beta)
    m = t - 2 * h  # q (beta n + alpha - delta/2)
    polynomials = (
        (rat(-n * u * t, 2 * q * q), rat(n * u, 2 * q)),
        (rat(-t * (t + two), q * q), rat(m, q)),
        (rat(beta * q * q - (t + 3 * two) * (t + two), q * q), rat(2 * m, q), -1),
    )
    return _fourth_order_residual(
        "conductance-ode", p, order, ConductanceEngine(beta, p.alpha, p.delta).kappas, -1,
        polynomials, partial(_lattice_coupling, beta, q, a, h, n), perturb,
    )


def ode_residual_wigner(p: DelayParams, order, perturb=None) -> ResidualReport:
    """Residual series of the fourth-order delay-time ODE, exact-zero contract."""
    _require_ode_order(order)
    if order > p.q - 4:
        raise InsufficientOrderError(
            f"order must be <= q - 4 = {p.q - 4} (only q={p.q} cumulants exist)"
        )
    beta, n = p.beta, p.n
    # b = B/q and u = b - beta n = U/q, all ints
    q, (B,) = _scaled(p.b)
    U, two = B - beta * n * q, (2 - beta) * q
    polynomials = (
        (rat(n * U, q),),
        (rat(-(U - two) * U, q * q), 2),
        (rat(beta * q * q - (U - 3 * two) * (U - two), q * q), 4),
    )
    # at n itself order M + 1 <= q, so naming n as the requester changes nothing
    fetch = partial(DelayEngine(beta, p.b).cumulants, requester=n)
    return _fourth_order_residual(
        "delay-ode", p, order, fetch, rat(2, beta), polynomials,
        partial(_lattice_delay_coupling, beta, q, B, n), perturb,
    )


# -- joint PDE ----------------------------------------------------------------------------


def _signed_row(cols, L, K):
    """(-1)^k kappa_{l,k} row by row over the (L, K) rectangle, as an int row
    read from a table's columns; as a series of scale -1 it is
    sum (-1)^(l+k) kappa_{l,k} z^l w^k / (l! k!)."""
    rows = [(-cols[k][0][l] if k % 2 else cols[k][0][l], cols[k][1][l])
            for l in range(L + 1) for k in range(K + 1)]
    return [x for x, _ in rows], [d for _, d in rows]


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
    kap = table = engine.table(p.n, Mz + 4, Mw + 1)
    if perturb is not None:
        (l, k), delta = perturb
        if not (0 <= l <= Mz + 4 and 0 <= k <= Mw + 1):
            raise KeyError((l, k))
        kap = table[:k] + [_perturbed(table[k], l, delta)] + table[k + 1:]
    s = DoubleSeries.from_row(*_signed_row(kap, Mz + 4, Mw + 1), (Mz + 4, Mw + 1), -1)
    q, (a, h) = _scaled(p.alpha, p.delta / 2)  # alpha = a/q, delta/2 = h/q
    c = rat(a + h + (p.n * beta + 2 - beta) * q, q)
    # 2 z s_zw + 2 s_w + 2c s_zz
    #   + w (eta s_zzzz + 6 eta s_zz^2 + 3 s_ww - s_zz - (12 b_n / beta) exp(rho)),
    # summed on the (Mz, Mw) rectangle: the group in front of w to column
    # Mw - 1, so none of it when Mw = 0
    terms = [(2, (1, 0), s, (1, 1)), (2, (0, 0), s, (0, 1)), (2 * c, (0, 0), s, (2, 0))]
    if Mw > 0:
        s2 = s.truncated(Mz + 2, Mw - 1).derivative(2, 0)
        terms += [(eta, (0, 1), s, (4, 0)), (6 * eta, (0, 1), s2 * s2, (0, 0)),
                  (3, (0, 1), s, (0, 2)), (-1, (0, 1), s, (2, 0))]
        bn, bd = _lattice_coupling(beta, q, a, h, p.n)
        if bn:
            minus, plus = (_signed_row(engine.table(p.n + m * p.i_shift, Mz, Mw - 1), Mz, Mw - 1)
                           for m in (-1, 1))
            centre = _signed_row(table, Mz, Mw - 1)  # table unperturbed
            rho = DoubleSeries.from_row(*_second_differences(minus, plus, centre), (Mz, Mw - 1), -1)
            terms.append((rat(-12 * bn, beta * bd), (0, 1), rho.exponential(), (0, 0)))
    res = DoubleSeries.combination(terms, (Mz, Mw))
    # reported as the double Taylor coefficients res[l,k] / (l! k!)
    keys = [(l, k) for l in range(Mz + 1) for k in range(Mw + 1)]
    return _report("joint-pde", p.describe(), (Mz, Mw), keys, res)


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
