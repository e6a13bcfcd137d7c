import math
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
from dotcumulants.params import TransportParams
from dotcumulants.rational import rat
from dotcumulants.verify import quadrature_moments

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
    scratch = reduced_moments(p, 30, provider=fresh.kappas)
    assert grown.reduced_moments(n, 30)[:31] == list(scratch.mu_values)


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
    r = [rat(j * j - 3, j + 2) for j in range(1, 13)]
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
    assert not seq.extended_validity
    odd = conductance_cumulants(TransportParams(1, COE_HALF, 0, 9), 3)
    assert odd.extended_validity


def test_pole_error_at_degenerate_order():
    # beta=2, alpha=delta=0: leading coefficient vanishes at l = 2n
    with pytest.raises(PoleError):
        conductance_cumulants(TransportParams(2, 0, 0, 2), 6)


def test_coupling_evaluated_once_per_dimension_per_call(monkeypatch):
    """b_n is memoised on the engine: each lattice dimension evaluates it at
    most once, and a second call (a fresh engine) evaluates it again."""
    from dotcumulants import ensembles

    original = ensembles.transport_coupling_beta1
    dimensions = []

    def counting(alpha, delta, n):
        dimensions.append(n)
        return original(alpha, delta, n)

    monkeypatch.setattr(ensembles, "transport_coupling_beta1", counting)
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
