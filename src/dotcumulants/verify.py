"""Independent oracles: quadrature moments, exact ODE/PDE residual checks for
the three master equations, and the Jacobi-polynomial identity suite.

The residual operations build the generating functions as truncated series
straight from the computed cumulants, assemble the differential equation
coefficient by coefficient in exact arithmetic, and assert the result is
identically zero.  Each checker accepts a ``perturb`` hook so tests can
confirm it detects a corrupted cumulant (a residual checker that cannot see
a fault is itself broken).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conductance import ConductanceEngine
from .ensembles import b_constant, d_constant
from .errors import InsufficientOrderError, InvalidOrderError, UnsupportedParameterError
from .jointcsn import JointEngine
from .params import DelayParams, TransportParams
from .rational import dot, rat
from .series import TruncatedSeries, moments_to_cumulants
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
    worst = rat(0)
    first = None
    for idx, c in series_coeffs:
        if c != 0 and first is None:
            first = idx
        if abs(c) > worst:
            worst = abs(c)
    return ResidualReport(
        equation=equation,
        params=params,
        order_checked=order,
        max_abs_coefficient=worst,
        first_nonzero_index=first,
    )


# -- conductance ODE ---------------------------------------------------------------


def _cgf_series(kappas, order):
    """sigma(z) = sum (-1)^l kappa_l z^l / l! as a truncated series."""
    coeffs = [rat(0)]
    for l in range(1, order + 1):
        coeffs.append(rat(-1) ** l * kappas[l - 1] / math.factorial(l))
    return TruncatedSeries(coeffs)


def _require_ode_order(order):
    # the residual to order M takes four derivatives of a series of order
    # M + 1, which leaves nothing to evaluate below M = 3
    if order < 3:
        raise InvalidOrderError(f"ODE residual order must be >= 3, got {order}")


def ode_residual_conductance(p: TransportParams, order, perturb=None) -> ResidualReport:
    """Residual series of the fourth-order conductance ODE, exact-zero contract."""
    _require_ode_order(order)
    M = order
    beta, a, d, n = p.beta, p.alpha, p.delta, p.n
    eta = p.eta14
    engine = ConductanceEngine(beta, a, d)
    # order M+1 is exactly what a residual valid to order M consumes; going
    # deeper risks the isolated orders where the recurrence coefficient
    # vanishes and the cumulants are not recurrence-reachable.
    kappas = list(engine.kappas(n, M + 1))
    if perturb is not None:
        idx, delta = perturb
        kappas[idx - 1] = kappas[idx - 1] + rat(delta)
    sigma = _cgf_series(kappas, M + 1)
    s1 = sigma.differentiate()
    s2 = s1.differentiate()
    s3 = s2.differentiate()
    s4 = s3.differentiate()

    t = a + d / 2 + beta * n
    p0 = TruncatedSeries.from_terms(
        {0: -rat(n, 2) * (beta * n + 2 * a + 2 - beta) * (beta * n + d / 2 + a),
         1: rat(n, 2) * (beta * n + 2 * a + 2 - beta)},
        M,
    )
    p1 = TruncatedSeries.from_terms(
        {0: -(t) * (t + 2 - beta), 1: beta * n + a - d / 2},
        M,
    )
    # p2 has no constant term; factoring out z keeps the product valid to M
    p2_over_z = TruncatedSeries.from_terms(
        {0: -(beta * n + a + d / 2 + 6 - 3 * beta) * (t + 2 - beta) + beta,
         1: 2 * (beta * n + a - d / 2),
         2: rat(-1)},
        M,
    )

    lhs = (
        eta * s4.shift(3)
        + 6 * eta * (s2 * s2).shift(3)
        + beta * (2 * s3.shift(2) + (s1 * s1).shift(1) + 4 * (s1 * s2).shift(2))
        + (p2_over_z * s2).shift(1)
        + p1 * s1
        + p0
    )
    bn = b_constant(p)
    if bn != 0:
        shift_order = M - 3
        if shift_order >= 1:
            step = p.i_shift
            minus = engine.kappas(n - step, shift_order)
            plus = engine.kappas(n + step, shift_order)
            here = kappas[:shift_order]
            reduced = [minus[j] + plus[j] - 2 * here[j] for j in range(shift_order)]
            rho = _cgf_series(reduced, shift_order)
        else:
            rho = TruncatedSeries.zero(0)
        lhs = lhs - (12 * bn / beta) * rho.exponential().shift(3)
    res = lhs.truncate(M)
    return _report(
        "conductance-ode", p.describe(), M, list(enumerate(res.coefficients))
    )


# -- joint PDE (index-wise on double Taylor coefficients) -------------------------------


def _dims(arr):
    return len(arr) - 1, len(arr[0]) - 1

def _deriv(arr, dl, dk):
    L, K = _dims(arr)
    out = []
    for l in range(L - dl + 1):
        row = []
        for k in range(K - dk + 1):
            c = arr[l + dl][k + dk]
            for t in range(1, dl + 1):
                c = c * (l + t)
            for t in range(1, dk + 1):
                c = c * (k + t)
            row.append(c)
        out.append(row)
    return out

def _shift(arr, dl, dk):
    L, K = _dims(arr)
    zero_row = [rat(0)] * (K + 1 + dk)
    out = [list(zero_row) for _ in range(dl)]
    for l in range(L + 1):
        out.append([rat(0)] * dk + list(arr[l]))
    return out

def _combine(terms):
    """Sum of (coefficient, array) pairs, clipped to the common rectangle."""
    L = min(_dims(a)[0] for _, a in terms)
    K = min(_dims(a)[1] for _, a in terms)
    out = [[rat(0)] * (K + 1) for _ in range(L + 1)]
    for c, a in terms:
        for l in range(L + 1):
            for k in range(K + 1):
                out[l][k] = out[l][k] + c * a[l][k]
    return out

def _product(a, b):
    La, Ka = _dims(a)
    Lb, Kb = _dims(b)
    L, K = min(La, Lb), min(Ka, Kb)
    return [
        [
            dot((1, a[i][j], b[l - i][k - j]) for i in range(l + 1) for j in range(k + 1))
            for k in range(K + 1)
        ]
        for l in range(L + 1)
    ]

def _bexp(arr):
    """exp of a double series with zero constant term."""
    L, K = _dims(arr)
    E = [[rat(0)] * (K + 1) for _ in range(L + 1)]
    E[0][0] = rat(1)
    for k in range(1, K + 1):
        E[0][k] = dot((b, arr[0][b], E[0][k - b]) for b in range(1, k + 1)) / k
    for l in range(1, L + 1):
        for k in range(K + 1):
            E[l][k] = dot(
                (i, arr[i][j], E[l - i][k - j]) for i in range(1, l + 1) for j in range(k + 1)
            ) / l
    return E


def _joint_coeff_array(table, L, K):
    """sigma double-coefficients s[l][k] = (-1)^{l+k} kappa_{l,k} / (l! k!)."""
    return [
        [
            rat(-1) ** (l + k) * table[(l, k)] / (math.factorial(l) * math.factorial(k))
            for k in range(K + 1)
        ]
        for l in range(L + 1)
    ]


def pde_residual_joint(p: TransportParams, order_z, order_w, perturb=None) -> ResidualReport:
    """Residual of the joint conductance/shot-noise PDE on the double Taylor
    rectangle (order_z, order_w); exact-zero contract."""
    if order_z < 0 or order_w < 0:
        raise InvalidOrderError(
            f"PDE residual orders must be >= 0, got ({order_z}, {order_w})"
        )
    Mz, Mw = order_z, order_w
    beta = p.beta
    eta = p.eta14
    engine = JointEngine(beta, p.alpha, p.delta)
    table = engine.table(p.n, Mz + 4, Mw + 2)
    kap = {
        (l, k): table[(l, k)] for l in range(Mz + 5) for k in range(Mw + 3)
    }
    if perturb is not None:
        (pl, pk), delta = perturb
        kap[(pl, pk)] = kap[(pl, pk)] + rat(delta)
    s = _joint_coeff_array(kap, Mz + 4, Mw + 2)

    c = p.alpha + p.delta / 2 + p.n * beta + 2 - beta
    terms = [
        (rat(eta), _shift(_deriv(s, 4, 0), 0, 1)),       # eta w d4z
        (rat(6 * eta), _shift(_product(_deriv(s, 2, 0), _deriv(s, 2, 0)), 0, 1)),
        (rat(2), _shift(_deriv(s, 1, 1), 1, 0)),         # 2 z dz dw
        (rat(3), _shift(_deriv(s, 0, 2), 0, 1)),         # 3 w d2w
        (rat(2), _deriv(s, 0, 1)),                       # 2 dw
        (2 * c, _deriv(s, 2, 0)),                        # 2c d2z
        (rat(-1), _shift(_deriv(s, 2, 0), 0, 1)),        # -w d2z
    ]
    bn = b_constant(p)
    if bn != 0:
        step = p.i_shift
        sKw = max(Mw - 1, 0)
        minus = engine.table(p.n - step, Mz, sKw)
        plus = engine.table(p.n + step, Mz, sKw)
        rho = [
            [
                rat(-1) ** (l + k)
                * (minus[(l, k)] + plus[(l, k)] - 2 * table[(l, k)])
                / (math.factorial(l) * math.factorial(k))
                for k in range(sKw + 1)
            ]
            for l in range(Mz + 1)
        ]
        terms.append((-12 * bn / beta, _shift(_bexp(rho), 0, 1)))
    res = _combine(terms)
    coeffs = [
        ((l, k), res[l][k]) for l in range(Mz + 1) for k in range(Mw + 1)
    ]
    return _report("joint-pde", p.describe(), (Mz, Mw), coeffs)


# -- delay-time ODE ----------------------------------------------------------------------


def _delay_series(K, beta, order):
    """xi(z) = sum K_l (2z/beta)^l / l! as a truncated series."""
    scale = rat(2, beta)
    coeffs = [rat(0)]
    for l in range(1, order + 1):
        coeffs.append(K[l - 1] * scale**l / math.factorial(l))
    return TruncatedSeries(coeffs)


def ode_residual_wigner(p: DelayParams, order, perturb=None) -> ResidualReport:
    """Residual series of the fourth-order delay-time ODE, exact-zero contract."""
    _require_ode_order(order)
    M = order
    if M > p.q - 4:
        raise InsufficientOrderError(
            f"order must be <= q - 4 = {p.q - 4} (only q={p.q} cumulants exist)"
        )
    beta, n, b = p.beta, p.n, p.b
    eta = p.eta14
    engine = DelayEngine(beta, b)
    K = list(engine.cumulants(n, M + 1))
    if perturb is not None:
        idx, delta = perturb
        K[idx - 1] = K[idx - 1] + rat(delta)
    xi = _delay_series(K, beta, M + 1)
    x1 = xi.differentiate()
    x2 = x1.differentiate()
    x3 = x2.differentiate()
    x4 = x3.differentiate()

    u = b - beta * n
    p1 = TruncatedSeries.from_terms({0: -(u - 2 + beta) * u, 1: rat(2)}, M)
    # p2 has no constant term; factor out z to keep validity at order M
    p2_over_z = TruncatedSeries.from_terms(
        {0: beta - (u - 6 + 3 * beta) * (u - 2 + beta), 1: rat(4)}, M
    )
    lhs = (
        eta * x4.shift(3)
        + 2 * beta * x3.shift(2)
        + beta * (x1 * x1).shift(1)
        + 4 * beta * (x2 * x1).shift(2)
        + 6 * eta * (x2 * x2).shift(3)
        + (p2_over_z * x2).shift(1)
        + p1 * x1
        + TruncatedSeries.constant(n * u, M)
    )
    dn = d_constant(p)
    if dn != 0:
        shift_order = M - 3
        if shift_order >= 1:
            step = p.i_shift
            minus = engine.cumulants(n - step, shift_order, requester=n)
            plus = engine.cumulants(n + step, shift_order, requester=n)
            here = K[:shift_order]
            reduced = [minus[j] + plus[j] - 2 * here[j] for j in range(shift_order)]
            rho = _delay_series(reduced, beta, shift_order)
        else:
            rho = TruncatedSeries.zero(0)
        lhs = lhs - (12 * dn / beta) * rho.exponential().shift(3)
    res = lhs.truncate(M)
    return _report(
        "delay-ode", p.describe(), M, list(enumerate(res.coefficients))
    )


# -- quadrature oracle ------------------------------------------------------------------


def quadrature_moments(p: TransportParams, statistic, max_total_order, rel_tol=1e-8):
    """Cumulants from adaptive quadrature of the raw moments (n <= 3).

    ``statistic`` is "G", "P" or "mixed"; for "mixed" the full rectangle
    l + k <= max_total_order is returned, keyed (l, k).  Relative error
    target 1e-8 by way of a tighter internal quadrature tolerance.
    """
    if max_total_order < 1:
        raise InvalidOrderError(f"max_order must be >= 1, got {max_total_order}")
    if p.n > 3:
        raise UnsupportedParameterError("quadrature oracle is capped at n <= 3")
    from .quadrature import transport_raw_moments  # loads numpy/scipy on first use

    if statistic == "G":
        pairs = [(l, 0) for l in range(1, max_total_order + 1)]
        L, Kw = max_total_order, 0
    elif statistic == "P":
        pairs = [(0, k) for k in range(1, max_total_order + 1)]
        L, Kw = 0, max_total_order
    elif statistic == "mixed":
        L = Kw = max_total_order
        pairs = [
            (l, k)
            for l in range(L + 1)
            for k in range(Kw + 1)
            if 0 < l + k
        ]
    else:
        raise ValueError(f"unknown statistic {statistic!r}")
    moments, err = transport_raw_moments(p, pairs, rel_tol=min(rel_tol / 100, 1e-10))
    moments = dict(moments)
    moments[(0, 0)] = 1.0
    # fill the rectangle needed by the triangle with zero-padding never
    # happening: "G"/"P" only touch their own axis, "mixed" is complete
    kappa = moments_to_cumulants(moments, L, Kw)
    if statistic == "G":
        out = {l: kappa[(l, 0)] for l in range(1, max_total_order + 1)}
    elif statistic == "P":
        out = {k: kappa[(0, k)] for k in range(1, max_total_order + 1)}
    else:
        out = {
            (l, k): v for (l, k), v in kappa.items() if l + k <= max_total_order
        }
    return out, err


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
    l <= lmax, k <= kmax."""
    failures = []
    for l in range(lmax + 1):
        for k in range(kmax + 1):
            lhs = rat(0)
            for j in range(k + 1):
                lhs += (
                    math.comb(2 * j + 2 * l, j + l)
                    * math.comb(k, j)
                    * rat(-1, 2) ** j
                )
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
