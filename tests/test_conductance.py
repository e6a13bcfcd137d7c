import math
from fractions import Fraction
from itertools import product

import pytest

from dotcumulants.conductance import (
    ConductanceEngine,
    CumulantSequence,
    bell_transform,
    conductance_cumulants,
    conductance_initial,
    fourth_cumulant_closed,
    reduced_moments,
)
from dotcumulants.errors import PoleError, UnsupportedBetaError
from dotcumulants.exactmoments import exact_conductance_cumulant_row
from dotcumulants.params import TransportParams
from dotcumulants.rational import rat
from dotcumulants.verify import ode_residual_conductance, quadrature_moments
from introws import int_row, row_values

COE_HALF = rat(-1, 2)


def test_initial_uniform_channel():
    k1, k2, k3 = conductance_initial(TransportParams(2, 0, 0, 1))
    assert (k1, k2, k3) == (rat(1, 2), rat(1, 12), rat(0))


def test_initial_mean_is_half_n_in_unitary_class():
    for n in (1, 2, 5, 9, 30):
        k1, _, _ = conductance_initial(TransportParams(2, 0, 0, n))
        assert k1 == rat(n, 2)


def test_initial_beta_family_matches_beta_distribution():
    # n=1 is a Beta(alpha+1, delta/2+1) variable; closed cumulants must match
    for alpha, delta in ((rat(-1, 2), 1), (rat(1), 2), (rat(0), -1)):
        a, b = alpha + 1, rat(delta, 2) + 1
        k1, k2, k3 = conductance_initial(TransportParams(1, alpha, delta, 1))
        assert k1 == a / (a + b)
        assert k2 == a * b / ((a + b) ** 2 * (a + b + 1))
        assert k3 == 2 * a * b * (b - a) / (
            (a + b) ** 3 * (a + b + 1) * (a + b + 2)
        )


def test_initial_matches_quadrature_oracle():
    p = TransportParams(1, COE_HALF, 0, 2)
    exact = conductance_initial(p)
    oracle, _ = quadrature_moments(p, "G", 3)
    for l in (1, 2, 3):
        assert abs(oracle[l] - float(exact[l - 1])) <= 1e-8 * max(
            abs(float(exact[l - 1])), 1e-30
        )


def test_recurrence_beta2_fourth_cumulant_closed_form():
    p = TransportParams(2, 0, 0, 5)
    assert conductance_cumulants(p, 4)[4] == fourth_cumulant_closed(p)


def test_recurrence_beta1_fourth_cumulant_closed_form():
    p = TransportParams(1, COE_HALF, 0, 10)
    assert conductance_cumulants(p, 4)[4] == fourth_cumulant_closed(p)


def test_fourth_cumulant_closed_unsupported_beta4():
    with pytest.raises(UnsupportedBetaError):
        fourth_cumulant_closed(TransportParams(4, 0, 0, 5))


def test_fourth_cumulant_agreement_grid():
    for beta in (1, 2):
        for alpha in (COE_HALF, rat(0), rat(1)):
            for delta in (-1, 0, 1, 2):
                for n in range(5, 11):
                    p = TransportParams(beta, alpha, delta, n)
                    assert conductance_cumulants(p, 4)[4] == fourth_cumulant_closed(p)


def test_low_order_cumulants_match_quadrature_beta1_n2():
    p = TransportParams(1, COE_HALF, 0, 2)
    seq = conductance_cumulants(p, 4)
    oracle, _ = quadrature_moments(p, "G", 4)
    for l in (1, 2, 3, 4):
        assert abs(oracle[l] - float(seq[l])) <= 1e-8 * abs(float(seq[l]))


def test_fourth_cumulant_vs_quadrature_beta2_n2():
    p = TransportParams(2, 0, 0, 2)
    oracle, _ = quadrature_moments(p, "G", 4)
    exact = float(fourth_cumulant_closed(p))
    assert abs(oracle[4] - exact) <= 1e-8 * abs(exact)


def test_reduced_moments_stub_constant_in_n():
    p = TransportParams(1, COE_HALF, 0, 6)
    stub = lambda n, order: [rat(7), rat(3), rat(1), rat(5)][:order]
    red = reduced_moments(p, 4, provider=stub)
    assert all(r == 0 for r in red.r_values)
    assert red.mu_values[0] == 1
    assert all(m == 0 for m in red.mu_values[1:])


def test_reduced_moments_bell_structure():
    p = TransportParams(1, COE_HALF, 0, 6)

    def stub(n, order):
        # arbitrary values varying in n so the differences are the r's we want
        return [rat(n * n, 3), rat(n**3, 5), rat(2 * n**4, 7)][:order]

    red = reduced_moments(p, 2, provider=stub)
    r1, r2 = red.r_values
    assert red.mu_values[1] == r1
    assert red.mu_values[2] == r2 + r1 * r1


def test_reduced_moments_partition_sum_oracle():
    # mu_3 must equal the sum over the 5 partitions of a 3-set
    p = TransportParams(1, COE_HALF, 0, 10)
    red = reduced_moments(p, 3)
    r1, r2, r3 = red.r_values
    partitions = r3 + 3 * r1 * r2 + r1**3
    assert red.mu_values[3] == partitions


@pytest.mark.parametrize("beta, alpha, n", [(1, COE_HALF, 64), (4, 0, 32)])
def test_engine_grown_in_rising_orders_equals_fresh(beta, alpha, n):
    grown = ConductanceEngine(beta, alpha, 0)
    for order in (8, 20, 40):
        grown_values = grown.kappas(n, order)
    fresh = ConductanceEngine(beta, alpha, 0)
    assert grown_values == fresh.kappas(n, 40)
    # the memoised reduced moments equal a transform of freshly taken
    # second differences
    p = TransportParams(beta, alpha, 0, n)
    scratch = reduced_moments(p, 30, provider=lambda m, order: row_values(fresh.kappas(m, order)))
    assert row_values(grown.reduced_moments(n, 30))[:31] == list(scratch.mu_values)


def test_engine_after_failed_fill_equals_fresh():
    # at n=3 the COE recurrence hits a vanishing leading coefficient at order
    # 5, so the fill at n=5 fails once it needs order 6 there
    failed = ConductanceEngine(1, COE_HALF, 0)
    with pytest.raises(PoleError):
        failed.kappas(5, 12)
    fresh = ConductanceEngine(1, COE_HALF, 0)
    assert failed.kappas(5, 8) == fresh.kappas(5, 8)
    assert failed.reduced_moments(5, 5) == fresh.reduced_moments(5, 5)


def test_bell_transform_extends_prefix():
    r = int_row(rat(j * j - 3, j + 2) for j in range(1, 13))
    for m in (0, 1, 5):
        prefix = bell_transform(r, m)
        extended = bell_transform(r, 12, prefix)
        assert extended is prefix
        assert extended == bell_transform(r, 12)


def test_reduced_moments_rejects_beta2():
    with pytest.raises(UnsupportedBetaError):
        reduced_moments(TransportParams(2, 0, 0, 5), 3)


def test_beta2_lattice_bypass_equivalence():
    # independent plain iteration of the beta=2 recurrence (no lattice code)
    p = TransportParams(2, 0, 0, 6)
    seq = conductance_cumulants(p, 8).values
    t = p.alpha + p.delta / 2 + 2 * p.n
    kappa = list(conductance_initial(p))
    for l in range(3, 8):
        A = (l + 1) * (l - t) * (l + t)  # factored beta=2 leading coefficient
        quad = sum(
            math.comb(l, i)
            * ((l - i) ** 2 * (6 * i + 2))
            * kappa[i]
            * kappa[l - i - 1]
            for i in range(l)
        )
        value = (
            l * (2 * l - 1) * (p.alpha - p.delta / 2 + 2 * p.n) * kappa[l - 1]
            + l * (l - 1) * (l - 2) * kappa[l - 2]
            - quad
        )
        kappa.append(value / A)
    assert tuple(kappa) == seq


def test_staircase_decay_bounded_and_converging():
    engine_vals = {
        n: conductance_cumulants(TransportParams(1, COE_HALF, 0, n), 8)
        for n in (64, 128, 256)
    }
    for l in range(3, 9):
        nu = l if l % 2 == 1 else l - 1
        scaled = [float(rat(n) ** nu * engine_vals[n][l]) for n in (64, 128, 256)]
        assert abs(scaled[2] - scaled[1]) < abs(scaled[1] - scaled[0])
        assert all(abs(s) < 10 for s in scaled)


def test_universal_conductance_fluctuations():
    for beta, alpha in ((1, COE_HALF), (2, rat(0)), (4, rat(1))):
        devs = []
        for n in (128, 256):
            _, k2, _ = conductance_initial(TransportParams(beta, alpha, 0, n))
            devs.append(abs(8 * beta * k2 - 1))
        assert devs[1] < devs[0]


def test_variance_below_mean_on_grid():
    for beta, alpha, delta, n in product(
        (1, 2, 4), (COE_HALF, rat(0), rat(1)), (-1, 0, 1, 2), (1, 2, 3, 8)
    ):
        k1, k2, _ = conductance_initial(TransportParams(beta, alpha, delta, n))
        assert k1 > 0 and k2 > 0
        assert k2 < k1


def test_lattice_radius_recorded():
    seq = conductance_cumulants(TransportParams(1, COE_HALF, 0, 10), 10)
    assert isinstance(seq, CumulantSequence)
    assert seq.lattice_radius >= 1
    assert not seq.params.extended_validity
    odd = conductance_cumulants(TransportParams(1, COE_HALF, 0, 9), 3)
    assert odd.params.extended_validity


def test_pole_error_at_degenerate_order():
    """A beta=1 row that degenerates raises ``pole``; an even-beta one (here
    beta=2, alpha=delta=0, whose leading coefficient vanishes at l = 2n) is
    the exact determinant row."""
    with pytest.raises(PoleError):
        conductance_cumulants(TransportParams(1, COE_HALF, -1, 1), 8)
    p = TransportParams(2, 0, 0, 2)
    assert list(conductance_cumulants(p, 6).values) == exact_conductance_cumulant_row(p, 6)


class _RecurrenceOnly(ConductanceEngine):
    """The conductance engine without its even-beta fallback."""

    def kappas(self, n, order):
        return self._fill(n, order)


def _recurrence_poles():
    """The even-beta points of the sweep grid, n = 1..6, whose row to order 8
    the recurrence alone cannot give."""
    for beta, a, d, n in product((2, 4), DUALITY_ALPHAS, DUALITY_DELTAS, range(1, 7)):
        try:
            _RecurrenceOnly(beta, rat(a), rat(d)).kappas(n, 8)
        except PoleError:
            yield TransportParams(beta, rat(a), rat(d), n)


@pytest.mark.parametrize("order", [6, 7])
def test_every_fallback_row_satisfies_the_ode(order):
    """Each even-beta grid row that the recurrence alone cannot give is the
    exact determinant row; the fourth-order ODE, an oracle independent of
    ``exactmoments``, checks it.  Order 7 consumes kappa_1..kappa_8, so it
    reads the fallback at every point.  At beta=4, n=1 the ODE's own b_n
    has a pole."""
    points = list(_recurrence_poles())
    assert len(points) == 43
    coupling_poles = 0
    for p in points:
        try:
            report = ode_residual_conductance(p, order)
        except PoleError as exc:
            assert (p.beta, p.n, exc.token) == (4, 1, "pole")
            assert str(exc) == "b_n(beta=4): denominator factor vanishes"
            coupling_poles += 1
            continue
        assert report.passed and report.max_abs_coefficient == 0, p
        assert not ode_residual_conductance(p, order, perturb=(1 + p.n % 7, rat(1, 1000))).passed, p
    assert coupling_poles == 4


def test_coupling_evaluated_once_per_dimension_per_call(monkeypatch):
    """b_n is memoised on the engine: each lattice dimension evaluates it at
    most once, and a second call (a fresh engine) evaluates it again."""
    from dotcumulants import ensembles

    original = ensembles._transport_coupling
    dimensions = []

    def counting(q, a, h, n, what):
        dimensions.append(Fraction(n, q))
        return original(q, a, h, n, what)

    monkeypatch.setattr(ensembles, "_transport_coupling", counting)
    p = TransportParams(1, COE_HALF, 0, 64)
    first = conductance_cumulants(p, 40)
    visited = list(dimensions)
    assert visited
    assert len(visited) == len(set(visited))
    assert len(visited) <= 2 * first.lattice_radius + 1
    dimensions.clear()
    second = conductance_cumulants(p, 40)
    assert sorted(dimensions) == sorted(visited)
    assert second.values == first.values


#: the (alpha, delta) grid of the sweep benchmark
DUALITY_ALPHAS = ("-1/2", "0", "1/2", "1", "3/2")
DUALITY_DELTAS = ("-1", "0", "1", "2")


def test_beta_one_four_duality():
    """kappa^(4)_l(alpha, delta, n) = (-1/2)^l kappa^(1)_l(-alpha/2, -delta/2, -2n)
    to order 12, n = 4..8.  The recurrence poles at some points on either
    side; only those are skipped."""
    order = 12
    compared = 0
    for a, d, n in product(DUALITY_ALPHAS, DUALITY_DELTAS, range(4, 9)):
        alpha, delta = rat(a), rat(d)
        try:
            four = row_values(ConductanceEngine(4, alpha, delta).kappas(n, order))
            one = row_values(ConductanceEngine(1, -alpha / 2, -delta / 2).kappas(-2 * n, order))
        except PoleError:
            continue
        assert four == [rat(-1, 2) ** l * k for l, k in enumerate(one, 1)], (a, d, n)
        compared += 1
    assert compared >= 87


def test_traced_names_stay_where_the_benchmark_tracer_looks(monkeypatch):
    """``perfbench/tracer.py`` wraps ``ConductanceEngine.kappas``,
    ``DelayEngine.cumulants`` and ``JointEngine.table`` found in their own
    class ``__dict__`` (an inherited method would go uncounted), and the
    module-level ``conductance.bell_transform``.  Each must also be the name
    the lattice recursion calls, so that a wrapper sees every lattice point."""
    import inspect

    from dotcumulants import conductance, jointcsn, wigner
    from dotcumulants.params import DelayParams

    assert inspect.isfunction(conductance.bell_transform)
    assert conductance.bell_transform.__module__ == conductance.__name__
    seen = {}
    for cls, name in (
        (conductance.ConductanceEngine, "kappas"),
        (wigner.DelayEngine, "cumulants"),
        (jointcsn.JointEngine, "table"),
    ):
        assert name in cls.__dict__, (cls, name)
        original = cls.__dict__[name]

        def counted(self, n, *args, _key=name, _original=original, **kwargs):
            seen.setdefault(_key, set()).add(n)
            return _original(self, n, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    bell_orders = []
    bell = conductance.bell_transform

    def counted_bell(*args, **kwargs):
        # the tracer's hook reads the order as the second positional argument
        assert len(args) >= 2 and type(args[1]) is int and "order" not in kwargs, (args, kwargs)
        bell_orders.append(args[1])
        return bell(*args, **kwargs)

    monkeypatch.setattr(conductance, "bell_transform", counted_bell)
    for run, name, points in (
        (lambda: conductance.conductance_cumulants(TransportParams(1, COE_HALF, 0, 8), 10),
         "kappas", {6, 8, 10}),
        (lambda: wigner.wigner_cumulants(DelayParams(4, 16), 8), "cumulants", {15, 16, 17}),
        (lambda: jointcsn.joint_cumulants(TransportParams(4, 0, 0, 8), 2, 4),
         "table", {7, 8, 9}),
    ):
        seen.clear()
        bell_orders.clear()
        run()
        assert points <= seen[name], name
        assert max(bell_orders) >= 1, name
