import hashlib
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dotcumulants.conductance import conductance_cumulants, conductance_initial, reduced_moments
from dotcumulants.errors import CumulantError, InvalidOrderError, UnsupportedBetaError
from dotcumulants.exactmoments import (
    exact_conductance_cumulant_row,
    exact_transport_cumulants,
)
from dotcumulants.jointcsn import (
    altland_identity_check,
    gaussian_factorization_check,
    joint_cumulants,
    joint_reduced_table,
    mean_shot_noise,
    shot_noise_variance_closed,
)
from dotcumulants.params import TransportParams
from dotcumulants.rational import rat
from dotcumulants.verify import quadrature_moments
from introws import table_entries

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
    """The table's k=0 column against a fresh conductance engine."""
    p = TransportParams(1, COE_HALF, 0, 8)
    t = joint_cumulants(p, 4, 2)
    assert tuple(t[(l, 0)] for l in range(1, 5)) == conductance_cumulants(p, 4).values


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
    # moments supply it at any n, to the conductance row and the table alike
    assert list(conductance_cumulants(p, max_l + 4).values) == exact_conductance_cumulant_row(
        p, max_l + 4
    )
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


def _digest(table):
    text = json.dumps(sorted((str(k), str(v)) for k, v in table.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("args, max_l, max_k, r_digest, mu_digest", [
    # digests of the tables as computed when the k=0 row was still taken
    # from the shifted joint tables
    ((1, COE_HALF, 0, 8), 3, 2, "3a4a8d87e4d43c2d", "90f1e860e806c04c"),
    ((4, 1, 0, 6), 2, 2, "40d889699de2ef3b", "2dea4fa646c5a361"),
    ((1, rat(1, 2), 1, 10), 2, 3, "7c96d915b2ae8ee6", "75375e434cba7d75"),
    ((4, 0, 1, 5), 4, 0, "1c21f3cd027e3a60", "06f754130b573529"),
])
def test_joint_reduced_table_row_comes_from_the_row_walk(args, max_l, max_k, r_digest, mu_digest):
    from dotcumulants.conductance import reduced_moments
    from dotcumulants.jointcsn import joint_reduced_table

    p = TransportParams(*args)
    red = joint_reduced_table(p, max_l, max_k)
    row = reduced_moments(p, max_l + 2 * max_k).r_values
    assert [red.r[(l, 0)] for l in range(1, max_l + 2 * max_k + 1)] == list(row)
    assert red.r[(0, 0)] == 0
    assert (_digest(red.r), _digest(red.mu)) == (r_digest, mu_digest)


@pytest.mark.parametrize("beta, alpha, n", [(1, COE_HALF, 24), (4, 1, 12)])
def test_table_grown_in_place_equals_fresh(beta, alpha, n):
    from dotcumulants.jointcsn import JointEngine

    grown = JointEngine(beta, alpha, 0)
    grown.table(n, 4, 2)
    deeper = table_entries(grown.table(n, 4, 6))
    assert deeper == table_entries(JointEngine(beta, alpha, 0).table(n, 4, 6))
    # a staircase neither inside nor around the cached one: more columns,
    # but a shorter k=0 row
    wide = JointEngine(beta, alpha, 0)
    wide.table(n, 8, 2)
    other = table_entries(wide.table(n, 2, 4))
    reference = table_entries(JointEngine(beta, alpha, 0).table(n, 2, 4))
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


@pytest.mark.parametrize("max_k", [0, -1])
def test_altland_identity_needs_a_first_cumulant(max_k):
    """max_k < 1 is reported against max_k, not against the orders of the
    inner conductance or joint calls."""
    with pytest.raises(InvalidOrderError, match=f"max_k must be >= 1, got {max_k}"):
        altland_identity_check(4, max_k)


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


def test_beta_one_four_duality_of_the_joint_table():
    """kappa^(4)_{l,k}(alpha, delta, n)
    = (-1/2)^(l+k) kappa^(1)_{l,k}(-alpha/2, -delta/2, -2n) on the table
    (4, 3), n = 4..8, over the sweep benchmark's (alpha, delta) grid.  A
    point is skipped only where the recurrence poles or its conductance row
    is unavailable on either side."""
    from itertools import product

    from dotcumulants.errors import BoundaryUnavailableError, PoleError
    from dotcumulants.jointcsn import JointEngine
    from test_conductance import DUALITY_ALPHAS, DUALITY_DELTAS

    compared = 0
    for a, d, n in product(DUALITY_ALPHAS, DUALITY_DELTAS, range(4, 9)):
        alpha, delta = rat(a), rat(d)
        try:
            four = table_entries(JointEngine(4, alpha, delta).table(n, 4, 3))
            one = table_entries(JointEngine(1, -alpha / 2, -delta / 2).table(-2 * n, 4, 3))
        except (PoleError, BoundaryUnavailableError):
            continue
        for l, k in product(range(5), range(4)):
            assert four[(l, k)] == rat(-1, 2) ** (l + k) * one[(l, k)], (a, d, n, l, k)
        compared += 1
    assert compared >= 92


def test_one_reduced_row_per_dimension(monkeypatch):
    """The k=0 row's reduced moments are memoised once per dimension, by the
    lattice the row comes from: the Bell transform extends at most one r list
    per dimension of the table."""
    from dotcumulants import conductance
    from dotcumulants.jointcsn import JointEngine

    extended = {}
    bell = conductance.bell_transform

    def recording(r, order, mu=None):
        extended[id(r)] = r  # kept alive, so an id is never reused
        return bell(r, order, mu)

    monkeypatch.setattr(conductance, "bell_transform", recording)
    engine = JointEngine(1, COE_HALF, 0)
    engine.table(16, 6, 6)
    assert extended
    assert len(extended) <= len(engine._kappa)


def test_failing_joint_calls_keep_their_tokens_and_messages():
    """Every failing ``joint_cumulants`` call on the sweep benchmark's
    (alpha, delta) grid at (4,2) and (6,4), n = 1..8: a beta=1 row failure is
    wrapped in ``boundary-unavailable`` once, naming the table's dimension,
    and an even-beta failure passes through unwrapped.  No table narrower
    than k = 2 evaluates b_n, so the beta=4 tables whose lattice reaches a
    pole of b_n only through such a table no longer fail (see
    ``test_tables_that_reach_a_coupling_pole_only_below_k2_are_exact``)."""
    from itertools import product

    from test_conductance import DUALITY_ALPHAS, DUALITY_DELTAS

    failures = []
    for beta, a, d, n, (L, K) in product(
        (1, 2, 4), DUALITY_ALPHAS, DUALITY_DELTAS, range(1, 9), ((4, 2), (6, 4))
    ):
        try:
            joint_cumulants(TransportParams(beta, rat(a), rat(d), n), L, K)
        except CumulantError as exc:
            failures.append([beta, a, d, n, L, K, exc.token, str(exc)])
    assert len(failures) == 57
    assert sum(f[0] == 1 for f in failures) == 45
    assert not any(f[7].count("conductance row failed") > 1 for f in failures)
    text = json.dumps(failures)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "510f686cf9b0a05a"


@pytest.mark.parametrize("alpha,delta", [("-1/2", "-1"), ("-1/2", "1"), ("0", "0"), ("1/2", "-1")])
@pytest.mark.parametrize("n,shape", [(2, (4, 2)), (3, (6, 4))])
def test_tables_that_reach_a_coupling_pole_only_below_k2_are_exact(alpha, delta, n, shape):
    """b_n enters columns k >= 2 only; at these beta=4 points the lattice
    reaches the pole of b_n at n = 1 through a table with k <= 1, which
    needs no b_n, so the table is the exact-moment oracle's."""
    p = TransportParams(4, rat(alpha), rat(delta), n)
    table, exact = joint_cumulants(p, *shape), exact_transport_cumulants(p, *shape)
    assert {key: table[key] for key in exact} == exact


@pytest.mark.parametrize("beta,alpha,delta", [(1, "-1/2", "0"), (1, "0", "-1"), (4, "0", "0")])
def test_a_row_table_is_the_conductance_row_at_a_coupling_pole(beta, alpha, delta):
    """At n = 1 the denominator of b_n vanishes here; neither the conductance
    row to order 3 nor the (3, 0) table, its k=0 column, reads b_n."""
    p = TransportParams(beta, rat(alpha), rat(delta), 1)
    table = joint_cumulants(p, 3, 0)
    assert [table[(l, 0)] for l in (1, 2, 3)] == list(conductance_cumulants(p, 3).values)


def test_one_row_and_one_failure_per_grid_point():
    """On the sweep grid, n = 1..6, the conductance row to order 8 and the
    k=0 column of the (8, 0) table are one row, or fail together at beta=1
    only, as ``pole`` and ``boundary-unavailable``; at beta=4 the row's
    reduced moments and the table's exist at every point, with the same k=0
    mu."""
    from itertools import product

    from test_conductance import DUALITY_ALPHAS, DUALITY_DELTAS

    failures = 0
    for beta, a, d, n in product((1, 2, 4), DUALITY_ALPHAS, DUALITY_DELTAS, range(1, 7)):
        p = TransportParams(beta, rat(a), rat(d), n)
        try:
            row = list(conductance_cumulants(p, 8).values)
        except CumulantError as exc:
            row = exc.token
        try:
            table = joint_cumulants(p, 8, 0)
            column = [table[(l, 0)] for l in range(1, 9)]
        except CumulantError as exc:
            column = exc.token
        if isinstance(row, str) or isinstance(column, str):
            assert (beta, row, column) == (1, "pole", "boundary-unavailable"), p
            failures += 1
        else:
            assert row == column, p
        if beta == 4:
            mu = joint_reduced_table(p, 8, 0).mu
            assert list(reduced_moments(p, 8).mu_values) == [mu[(l, 0)] for l in range(9)], p
    assert failures == 13
