import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dotcumulants.conductance import conductance_cumulants, conductance_initial
from dotcumulants.errors import CumulantError, UnsupportedBetaError
from dotcumulants.exactmoments import (
    exact_conductance_cumulant_row,
    exact_transport_cumulants,
)
from dotcumulants.jointcsn import (
    altland_identity_check,
    gaussian_factorization_check,
    joint_cumulants,
    mean_shot_noise,
    shot_noise_variance_closed,
)
from dotcumulants.params import TransportParams
from dotcumulants.rational import rat
from dotcumulants.verify import quadrature_moments

COE_HALF = rat(-1, 2)


def test_mean_shot_noise_unitary_closed_form():
    for n in (1, 2, 5, 9):
        p = TransportParams(2, 0, 0, n)
        expected = rat(n**3, 2 * (4 * n * n - 1))
        assert mean_shot_noise(p) == expected
        assert joint_cumulants(p, 0, 1)[(0, 1)] == expected
    assert mean_shot_noise(TransportParams(2, 0, 0, 1)) == rat(1, 6)


def test_first_column_identity_all_betas():
    # (l+1) kappa_{l,1} = (alpha + delta/2 + n beta + 2 - beta) kappa_{l+2,0}
    for beta, alpha in ((1, COE_HALF), (2, rat(0)), (4, rat(1))):
        for delta in (0, 1):
            p = TransportParams(beta, alpha, delta, 6)
            t = joint_cumulants(p, 8, 1)
            c = p.alpha + p.delta / 2 + p.n * beta + 2 - beta
            for l in range(0, 7):
                assert (l + 1) * t[(l, 1)] == c * t[(l + 2, 0)]


@settings(max_examples=40, deadline=None)
@given(
    beta=st.sampled_from((1, 2, 4)),
    a_num=st.integers(-1, 4),
    a_den=st.sampled_from((1, 2)),
    delta=st.integers(-1, 3),
    n=st.integers(4, 12),
)
def test_first_column_identity_random_parameters(beta, a_num, a_den, delta, n):
    from dotcumulants.errors import CumulantError

    alpha = rat(a_num, a_den)
    assume(alpha > -1)
    p = TransportParams(beta, alpha, delta, n)
    try:
        t = joint_cumulants(p, 5, 1)
    except CumulantError:
        assume(False)  # isolated degenerate order; identity not at issue
    c = p.alpha + p.delta / 2 + p.n * beta + 2 - beta
    for l in range(0, 4):
        assert (l + 1) * t[(l, 1)] == c * t[(l + 2, 0)]


def test_covariance_links_to_third_cumulant():
    for beta, alpha in ((1, COE_HALF), (2, rat(0)), (4, rat(1))):
        p = TransportParams(beta, alpha, 0, 7)
        t = joint_cumulants(p, 1, 1)
        c = p.alpha + p.delta / 2 + p.n * beta + 2 - beta
        _, _, k3 = conductance_initial(p)
        assert 2 * t[(1, 1)] == c * k3


def test_boundary_row_equals_conductance():
    p = TransportParams(1, COE_HALF, 0, 8)
    t = joint_cumulants(p, 4, 2)
    for l in range(1, 5):
        assert t[(l, 0)] == t.boundary.values[l - 1]


def test_shot_noise_low_cumulants_match_quadrature():
    p = TransportParams(1, COE_HALF, 0, 2)
    t = joint_cumulants(p, 0, 2)
    oracle, _ = quadrature_moments(p, "P", 2)
    for k in (1, 2):
        exact = float(t[(0, k)])
        assert abs(oracle[k] - exact) <= 1e-8 * abs(exact)


def test_mixed_cumulants_match_quadrature():
    p = TransportParams(1, COE_HALF, 0, 2)
    t = joint_cumulants(p, 3, 3)
    oracle, _ = quadrature_moments(p, "mixed", 3)
    for lk in ((1, 1), (2, 1), (1, 2), (0, 3), (3, 0)):
        exact = float(t[lk])
        assert abs(oracle[lk] - exact) <= 1e-8 * abs(exact)


def test_mixed_cumulants_match_exact_moments_beta2():
    p = TransportParams(2, 0, 0, 3)
    t = joint_cumulants(p, 3, 3)
    exact = exact_transport_cumulants(p, 3, 3)
    for l in range(4):
        for k in range(4):
            if (l, k) == (0, 0):
                continue
            assert t[(l, k)] == exact[(l, k)]


def test_mixed_cumulants_match_exact_moments_beta4():
    # independent symbolic check of the beta=4 double recurrence including
    # its lattice right-hand side (alpha=1 keeps every order regular)
    p = TransportParams(4, 1, 0, 3)
    t = joint_cumulants(p, 2, 2)
    exact = exact_transport_cumulants(p, 2, 2)
    for l in range(3):
        for k in range(3):
            if (l, k) == (0, 0):
                continue
            assert t[(l, k)] == exact[(l, k)], (l, k)


@pytest.mark.parametrize("p, max_l", [
    (TransportParams(2, COE_HALF, -1, 6), 8),
    (TransportParams(4, 0, 0, 6), 10),
])
def test_exact_boundary_beyond_five_channels(p, max_l):
    # the consumed conductance row (order max_l + 4) crosses the order where
    # the recurrence's leading coefficient vanishes; the exact determinant
    # moments supply it at any n
    with pytest.raises(CumulantError):
        conductance_cumulants(p, max_l + 4)
    t = joint_cumulants(p, max_l, 2)
    row = exact_conductance_cumulant_row(p, max_l)
    assert [t[(l, 0)] for l in range(1, max_l + 1)] == row
    assert t[(0, 1)] == mean_shot_noise(p)
    exact = exact_transport_cumulants(p, 4, 2)
    for l in range(5):
        for k in (1, 2):
            assert t[(l, k)] == exact[(l, k)], (l, k)


def test_shot_noise_variance_closed_matches_recurrence():
    for beta, alpha in ((1, COE_HALF), (4, rat(0))):
        for n in (6, 10):
            p = TransportParams(beta, alpha, 0, n)
            assert shot_noise_variance_closed(p) == joint_cumulants(p, 0, 2)[(0, 2)]
    with pytest.raises(UnsupportedBetaError):
        shot_noise_variance_closed(TransportParams(2, 0, 0, 5))


def test_shot_noise_variance_approaches_universal_value():
    devs = []
    for n in (64, 128, 256):
        p = TransportParams(1, COE_HALF, 0, n)
        devs.append(abs(64 * shot_noise_variance_closed(p) - 1))
    assert devs[0] > devs[1] > devs[2]


def test_mean_shot_noise_scaling_all_betas():
    for beta, alpha in ((1, COE_HALF), (2, rat(0)), (4, rat(1))):
        devs = []
        for n in (64, 128, 256):
            p = TransportParams(beta, alpha, 0, n)
            devs.append(abs(8 * mean_shot_noise(p) / n - 1))
        assert devs[0] > devs[1] > devs[2]


def test_table_structure_from_random_reduced_inputs():
    # the mu recurrence must reproduce the explicit low-order polynomials
    import random

    random.seed(7)
    r = {
        (l, k): rat(random.randint(-9, 9), random.randint(1, 7))
        for l in range(4)
        for k in range(3)
    }
    r[(0, 0)] = rat(0)

    def mu_recurrence(l, k, memo):
        if (l, k) in memo:
            return memo[(l, k)]
        if k == 0:
            # univariate Bell column from r_{j,0}
            acc = rat(1) if l == 0 else rat(0)
            if l >= 1:
                acc = sum(
                    math.comb(l - 1, j) * r[(l - j, 0)] * mu_recurrence(j, 0, memo)
                    for j in range(l)
                )
            memo[(l, k)] = acc
            return acc
        acc = rat(0)
        for i in range(k):
            for j in range(l + 1):
                acc += (
                    math.comb(k - 1, i)
                    * math.comb(l, j)
                    * r[(l - j, k - i)]
                    * mu_recurrence(j, i, memo)
                )
        memo[(l, k)] = acc
        return acc

    memo = {}
    mu11 = mu_recurrence(1, 1, memo)
    mu21 = mu_recurrence(2, 1, memo)
    assert mu11 == r[(0, 1)] * r[(1, 0)] + r[(1, 1)]
    assert mu21 == (
        r[(2, 1)]
        + 2 * r[(1, 0)] * r[(1, 1)]
        + r[(0, 1)] * r[(2, 0)]
        + r[(0, 1)] * r[(1, 0)] ** 2
    )


def test_joint_reduced_table_bell_structure():
    # the Bell transform of the real reduced cumulants must satisfy the
    # explicit low-order polynomials
    from dotcumulants.jointcsn import joint_reduced_table
    from dotcumulants.errors import UnsupportedBetaError as UBE

    p = TransportParams(1, COE_HALF, 0, 8)
    red = joint_reduced_table(p, 2, 1)
    r, mu = red.r, red.mu
    assert mu[(0, 0)] == 1
    assert mu[(1, 0)] == r[(1, 0)]
    assert mu[(2, 0)] == r[(2, 0)] + r[(1, 0)] ** 2
    assert mu[(1, 1)] == r[(0, 1)] * r[(1, 0)] + r[(1, 1)]
    assert mu[(2, 1)] == (
        r[(2, 1)]
        + 2 * r[(1, 0)] * r[(1, 1)]
        + r[(0, 1)] * r[(2, 0)]
        + r[(0, 1)] * r[(1, 0)] ** 2
    )
    with pytest.raises(UBE):
        joint_reduced_table(TransportParams(2, 0, 0, 8), 2, 1)


@pytest.mark.parametrize("beta, alpha, n", [(1, COE_HALF, 24), (4, 1, 12)])
def test_table_grown_in_place_equals_fresh(beta, alpha, n):
    from dotcumulants.jointcsn import JointEngine

    grown = JointEngine(beta, alpha, 0)
    grown.table(n, 4, 2)
    deeper = dict(grown.table(n, 4, 6))
    assert deeper == JointEngine(beta, alpha, 0).table(n, 4, 6)
    # a staircase neither inside nor around the cached one: more columns,
    # but a shorter k=0 row
    wide = JointEngine(beta, alpha, 0)
    wide.table(n, 8, 2)
    other = wide.table(n, 2, 4)
    reference = JointEngine(beta, alpha, 0).table(n, 2, 4)
    assert all(other[key] == value for key, value in reference.items())


def test_column_consistency_under_rebuild():
    p = TransportParams(4, rat(1), 0, 6)
    small = joint_cumulants(p, 3, 2)
    large = joint_cumulants(p, 3, 4)
    for l in range(4):
        for k in range(3):
            assert small[(l, k)] == large[(l, k)]


def test_altland_identity_small_and_odd_splits():
    for n in (2, 4, 7):
        rep = altland_identity_check(n, 4)
        assert rep["ok"], rep["first_failure"]
    # n=7 splits into N1=4, N2=3
    rep = altland_identity_check(7, 4)
    assert (rep["n1"], rep["n2"]) == (4, 3)


def test_altland_identity_first_cumulant_by_hand():
    rep = altland_identity_check(2, 1)
    lhs = rep["rows"][0]["lhs"]
    k1_minus = conductance_initial(TransportParams(2, 0, -1, 1))[0]
    k1_plus = conductance_initial(TransportParams(2, 0, 1, 1))[0]
    assert lhs == (k1_minus + k1_plus) / 4
    assert lhs == mean_shot_noise(TransportParams(2, 0, 0, 2))


def test_gaussian_factorization_small_n():
    rep = gaussian_factorization_check(1, 1.0)
    assert rep["ok"] and rep["rel_err"] <= 1e-6
    rep = gaussian_factorization_check(2, 0.5)
    assert rep["ok"]
    rep = gaussian_factorization_check(3, 0.35)
    assert rep["ok"]


def test_gaussian_factorization_w_to_zero():
    rep = gaussian_factorization_check(2, 1e-6)
    assert abs(rep["lhs"] - 1.0) < 1e-4 and abs(rep["rhs"] - 1.0) < 1e-4
