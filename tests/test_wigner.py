import math

import pytest

from dotcumulants.conductance import bell_transform
from dotcumulants.errors import (
    InsufficientOrderError,
    InvalidOrderError,
    LatticeOrderShortfallError,
    NonexistentCumulantError,
)
from dotcumulants.params import DelayParams
from dotcumulants.rational import rat
from dotcumulants.wigner import (
    chazy_residual,
    wigner_cumulants,
    wigner_fourth_closed,
    wigner_initial,
)
from introws import int_row, row_values


def test_mean_is_one_at_default_exponent():
    for beta in (1, 2, 4):
        for n in (2, 5, 12):
            assert wigner_initial(DelayParams(beta, n))[0] == 1


def test_variance_and_skew_closed_forms():
    for beta in (1, 2, 4):
        for n in (6, 9):
            p = DelayParams(beta, n)
            got = wigner_initial(p)
            assert got[1] == rat(4, (n + 1) * (n * beta - 2))
            assert got[2] == rat(
                96, (n + 1) * (n + 2) * (n * beta - 2) * (n * beta - 4)
            )


def test_small_n_existence_boundaries():
    p = DelayParams(2, 2)
    assert p.q == 2
    assert wigner_initial(p) == (rat(1), rat(2, 3))
    with pytest.raises(NonexistentCumulantError):
        wigner_cumulants(p, 3)
    p1 = DelayParams(2, 1)
    assert p1.q == 1
    assert wigner_initial(p1) == (rat(1),)


def test_fourth_cumulant_beta2_values():
    assert wigner_fourth_closed(2, 4) == rat(257, 525)
    assert wigner_cumulants(DelayParams(2, 4), 4)[4] == rat(257, 525)
    n = rat(10)
    expected = 12 * (53 * n**2 - 77) / (
        (n**2 - 1) ** 2 * (n**2 - 4) * (n**2 - 9)
    )
    assert wigner_cumulants(DelayParams(2, 10), 4)[4] == expected


def test_fourth_cumulant_beta4_value():
    assert wigner_fourth_closed(4, 3) == rat(9, 100)
    assert wigner_cumulants(DelayParams(4, 3), 4)[4] == rat(9, 100)


def test_fourth_cumulant_beta1_recurrence_consistency():
    for n in (8, 14, 20):
        assert wigner_cumulants(DelayParams(1, n), 4)[4] == wigner_fourth_closed(1, n)


def _closed_beta2(n, order):
    """The beta=2 delay recurrence at the default b, term by term:
    (l+1)(n^2 - l^2) K_{l+1} = 2l(2l-1) K_l
                              + 2 sum_i (3i+1) C(l,i) (l-i)^2 K_{i+1} K_{l-i}."""
    K = list(wigner_initial(DelayParams(2, n)))[:order]
    while len(K) < order:
        l = len(K)
        acc = 2 * l * (2 * l - 1) * K[l - 1]
        for i in range(l):
            acc += 2 * (3 * i + 1) * math.comb(l, i) * (l - i) ** 2 * K[i] * K[l - i - 1]
        K.append(acc / ((l + 1) * (n * n - l * l)))
    return tuple(K)


def test_beta2_engine_equals_closed_recurrence():
    for n in range(1, 65):
        p = DelayParams(2, n)
        order = min(p.q, 14)
        res = wigner_cumulants(p, order)
        assert res.values == _closed_beta2(n, order)
        assert res.lattice_note == ((n, p.b),)
        if p.q >= 4:
            assert res[4] == wigner_fourth_closed(2, n)


def test_lattice_uses_fixed_exponent():
    res = wigner_cumulants(DelayParams(1, 20), 6)
    dims = {dim for dim, _ in res.lattice_note}
    assert 20 in dims and (18 in dims or 22 in dims)
    assert all(b == res.params.b for _, b in res.lattice_note)


def test_lattice_order_shortfall_names_blocking_point():
    # At the default exponent the lattice is self-consistent: a shifted point
    # always supports exactly the order the recurrence consumes (floor(omega)
    # drops by 2 beta per upward step, matching the order the right-hand side
    # loses).  The shortfall error is therefore a defensive contract,
    # exercised through the engine directly.
    from dotcumulants.wigner import DelayEngine

    p = DelayParams(1, 10)
    engine = DelayEngine(1, p.b)
    shifted = p.shifted(1)
    with pytest.raises(LatticeOrderShortfallError) as err:
        engine.cumulants(shifted.n, shifted.q + 1, requester=p.n)
    assert str(shifted.n) in str(err.value)


@pytest.mark.parametrize("beta, n", [(1, 256), (4, 128)])
def test_engine_grown_in_rising_orders_equals_fresh(beta, n):
    from dotcumulants.wigner import DelayEngine

    b = DelayParams(beta, n).b
    grown = DelayEngine(beta, b)
    for order in (8, 20, 40):
        grown_values = grown.cumulants(n, order)
    fresh = DelayEngine(beta, b)
    assert grown_values == fresh.cumulants(n, 40)
    # the memoised reduced moments equal a transform of freshly taken
    # second differences
    step = DelayParams(beta, n).i_shift
    minus, plus, here = (row_values(fresh.cumulants(m, 30)) for m in (n - step, n + step, n))
    rho = [minus[j] + plus[j] - 2 * here[j] for j in range(30)]
    assert row_values(grown.reduced_moments(n, 30))[:31] == row_values(bell_transform(int_row(rho), 30))


def test_variance_asymptotics_residual_order():
    for beta in (1, 2, 4):
        residuals = []
        for n in (32, 64, 128):
            K2 = wigner_initial(DelayParams(beta, n))[1]
            model = rat(4, beta) + rat(4, beta * n) * (rat(2, beta) - 1)
            residuals.append(abs(float(n * n * K2 - model)) * n * n)
        assert max(residuals) < 50  # n^2 K_2 - model = O(n^-2)


def test_no_staircase_scaled_ratios_stabilize():
    # n^{2l-2} K_l approaches a nonzero constant for EVERY l (no parity
    # alternation); l=1 is exactly 1 at all n
    vals = {n: wigner_cumulants(DelayParams(2, n), 5).values for n in (32, 64, 128)}
    assert all(vals[n][0] == 1 for n in vals)
    for l in range(2, 6):
        scaled = [float(rat(n) ** (2 * l - 2) * vals[n][l - 1]) for n in (32, 64, 128)]
        assert scaled[2] != 0
        assert abs(scaled[2] / scaled[1] - 1) < abs(scaled[1] / scaled[0] - 1)


def test_chazy_residual_identity():
    assert chazy_residual(10, 8).is_zero()
    assert chazy_residual(4, 3).is_zero()


def test_chazy_residual_detects_perturbation():
    res = chazy_residual(10, 3, perturb=(2, rat(1, 1000)))
    assert not res.is_zero()
    assert res.shape == (3, 0)
    assert next(l for l, c in enumerate(res.taylor()) if c) <= 3


def test_chazy_requires_enough_cumulants():
    with pytest.raises(InsufficientOrderError):
        chazy_residual(4, 4)


@pytest.mark.parametrize("order", [0, -1])
def test_chazy_rejects_order_below_one(order):
    with pytest.raises(InvalidOrderError):
        chazy_residual(4, order)
