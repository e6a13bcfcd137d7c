"""Naive references for the three residual checks of ``dotcumulants.verify``:
the assembly on backend rationals that the checks ran before they read the
engines' int rows.  Each converts the engine's rows to rationals, adds a
perturbation as a rational, builds its polynomial coefficients and couplings
from the public rational functions, and reads every Taylor coefficient of
the residual as a rational.  ``tests/test_residual_reference.py`` compares
the reports of both paths."""

from functools import partial

from dotcumulants.conductance import ConductanceEngine
from dotcumulants.doubleseries import DoubleSeries
from dotcumulants.ensembles import b_constant, d_constant
from dotcumulants.errors import InsufficientOrderError, InvalidOrderError
from dotcumulants.jointcsn import JointEngine, _rectangle
from dotcumulants.rational import rat, rationals
from dotcumulants.verify import ResidualReport
from dotcumulants.wigner import DelayEngine

__all__ = ["ode_residual_conductance", "ode_residual_wigner", "pde_residual_joint"]


def _report(equation, params, order, series_coeffs):
    nonzero = [(idx, c) for idx, c in series_coeffs if c != 0]
    return ResidualReport(
        equation=equation,
        params=params,
        order_checked=order,
        max_abs_coefficient=max((abs(c) for _, c in nonzero), default=rat(0)),
        first_nonzero_index=nonzero[0][0] if nonzero else None,
    )


def _require_ode_order(order):
    if order < 3:
        raise InvalidOrderError(f"ODE residual order must be >= 3, got {order}")


def _fourth_order_residual(equation, p, order, fetch, scale, polynomials, coupling, perturb):
    M, n, beta, eta = order, p.n, p.beta, p.eta14
    values = rationals(*fetch(n, M + 1))
    if perturb is not None:
        idx, delta = perturb
        values[idx - 1] = values[idx - 1] + rat(delta)

    def s_to(L):
        return DoubleSeries.univariate([0, *values[:L]], L, scale)

    s = s_to(M + 1)
    s1, s2, s3, s4 = (s.derivative(d) for d in (1, 2, 3, 4))
    t = s_to(M)
    t1, t2 = t.derivative(1), t.derivative(2)
    u2 = s_to(M - 1).derivative(2)
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


def ode_residual_conductance(p, order, perturb=None):
    _require_ode_order(order)
    beta, a, d, n = p.beta, p.alpha, p.delta, p.n
    t = a + d / 2 + beta * n
    polynomials = (
        (-rat(n, 2) * (beta * n + 2 * a + 2 - beta) * (beta * n + d / 2 + a),
         rat(n, 2) * (beta * n + 2 * a + 2 - beta)),
        (-t * (t + 2 - beta), beta * n + a - d / 2),
        (-(beta * n + a + d / 2 + 6 - 3 * beta) * (t + 2 - beta) + beta,
         2 * (beta * n + a - d / 2),
         -2),
    )
    return _fourth_order_residual(
        "conductance-ode", p, order, ConductanceEngine(beta, a, d).kappas, -1, polynomials,
        b_constant, perturb,
    )


def ode_residual_wigner(p, order, perturb=None):
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
    fetch = partial(DelayEngine(beta, p.b).cumulants, requester=n)
    return _fourth_order_residual(
        "delay-ode", p, order, fetch, rat(2, beta), polynomials, d_constant, perturb
    )


def _signed_series(table, L, K):
    signed = [(-1) ** (l + k) * table[(l, k)] for l in range(L + 1) for k in range(K + 1)]
    return DoubleSeries(signed, (L, K))


def pde_residual_joint(p, order_z, order_w, perturb=None):
    if order_z < 0 or order_w < 0:
        raise InvalidOrderError(
            f"PDE residual orders must be >= 0, got ({order_z}, {order_w})"
        )
    Mz, Mw, beta, eta = order_z, order_w, p.beta, p.eta14
    engine = JointEngine(beta, p.alpha, p.delta)
    table = _rectangle(engine.table(p.n, Mz + 4, Mw + 1), Mz + 4, Mw + 1)
    kap = dict(table)
    if perturb is not None:
        kap[perturb[0]] = kap[perturb[0]] + rat(perturb[1])
    s_to = partial(_signed_series, kap)
    s = s_to(Mz + 4, Mw + 1)
    c = p.alpha + p.delta / 2 + p.n * beta + 2 - beta
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
            rho = sigma(minus) + sigma(plus) - 2 * sigma(table)
            group = group - (12 * bn / beta) * rho.exponential()
        res = res + group.times(0, 1)
    L, K = res.shape
    keys = [(l, k) for l in range(L + 1) for k in range(K + 1)]
    return _report("joint-pde", p.describe(), (Mz, Mw), zip(keys, res.taylor()))
