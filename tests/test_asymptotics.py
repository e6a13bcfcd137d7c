import math

import pytest

from dotcumulants import asymptotics as asy
from dotcumulants.doubleseries import DoubleSeries
from dotcumulants.errors import ExcludedIndexError, IllConditionedError, UnsupportedBetaError
from dotcumulants.params import DelayParams, TransportParams
from dotcumulants.rational import rat
from dotcumulants.wigner import wigner_cumulants

COE = TransportParams(1, rat(-1, 2), 0, 10)


def z_series(taylor, L):
    """sum taylor[l] z^l on the (L, 0) rectangle, zero past the given coefficients."""
    return DoubleSeries.univariate([rat(t) * math.factorial(l) for l, t in enumerate(taylor)], L)

CSE = TransportParams(4, 1, 0, 10)


def test_limit_conductance_coe_specializations():
    assert asy.limit_conductance(COE, 3) == rat(1, 16)
    assert asy.limit_conductance(COE, 5) == rat(math.factorial(4), 2**7)
    assert asy.limit_conductance(COE, 4) == rat(-3, 128)
    assert asy.limit_conductance(COE, 6) == -rat(
        math.factorial(4) * math.comb(6, 3), 2**13
    )


def test_limit_conductance_rejects_beta2():
    # beta is checked before the index, so l < 3 is refused for beta too
    for l in (0, 3):
        with pytest.raises(UnsupportedBetaError):
            asy.limit_conductance(TransportParams(2, 0, 0, 5), l)


def test_limit_conductance_recurrence_cross_path():
    for p in (COE, CSE):
        iterated = asy.iterate_limit_conductance(p, 14)
        for l in range(3, 15):
            assert asy.limit_conductance(p, l) == iterated[l]


def test_rescaled_initial_data():
    # the parameter-free rescaling sends the seeds to 2, 24, 3/4, 15/2
    for p in (COE, CSE):
        beta = rat(p.beta)
        c_odd = (p.delta / 2 - p.alpha) * (p.alpha + p.delta / 2 + 2 - beta) / (
            2 * beta**2
        )
        c_even = beta / 2 - 1
        scale = lambda l: (2 * beta) ** (l + (1 if l % 2 == 0 else 0) - 1)
        assert scale(3) * asy.limit_conductance(p, 3) / c_odd == 2
        assert scale(5) * asy.limit_conductance(p, 5) / c_odd == 24
        assert scale(4) * asy.limit_conductance(p, 4) / c_even == rat(3, 4)
        assert scale(6) * asy.limit_conductance(p, 6) / c_even == rat(15, 2)


def test_limit_joint_excluded_indices():
    for lk in ((0, 0), (1, 0), (0, 1), (0, 2), (2, 0)):
        with pytest.raises(ExcludedIndexError):
            asy.limit_joint(COE, *lk)


def test_limit_joint_shot_noise_specializations():
    # even k: -(k-2)! C(k,k/2) / 2^{3k+1}; odd k: exact zero at leading order
    for k in (4, 6, 8):
        expected = -rat(math.factorial(k - 2) * math.comb(k, k // 2), 2 ** (3 * k + 1))
        assert asy.limit_joint(COE, 0, k) == expected
    for k in (3, 5, 7, 9):
        assert asy.limit_joint(COE, 0, k) == 0


def test_limit_joint_recurrence_cross_path():
    table = asy.iterate_limit_joint(10, 10)
    for p in (COE, CSE):
        for l in range(0, 11):
            for k in range(0, 11 - l):
                if (l, k) in asy.EXCLUDED_JOINT_INDICES:
                    continue
                assert asy.limit_joint(p, l, k) == asy.joint_limit_from_iteration(
                    p, l, k, table
                )


def test_staircase_collapse_identity():
    # sum_j C(2j,j) C(k,j) (-2)^{-j} = 0 (k odd) or 2^{-k} C(k,k/2) (k even)
    for k in range(0, 31):
        value = asy.staircase_sum(0, k)
        if k % 2 == 1:
            assert value == 0
        else:
            assert value == rat(math.comb(k, k // 2), 2**k)


def test_generating_function_odes():
    # rescaled closed forms satisfy their first-order ODEs to order 20
    order = 20
    odd = z_series([0] + [1] * order, order)  # y/(1-y) = sum_{l>=1} y^l
    even = z_series(
        [0, 0]
        + [
            rat(math.factorial(2 * l - 2) * math.comb(2 * l, l), 4**l)
            / math.factorial(2 * l - 1)
            for l in range(2, order + 1)
        ],
        order,
    )
    # cross-check the even series against sqrt: 1 - y/2 - sqrt(1-y)
    sqrt_coeffs = [rat(1)]
    for j in range(1, order + 1):
        sqrt_coeffs.append(sqrt_coeffs[-1] * (rat(3, 2) - j) / j * -1)
    sqrt_series = z_series(sqrt_coeffs, order)  # (1-y)^{1/2}
    alt = z_series([1, rat(-1, 2)], order) - sqrt_series
    assert even == alt

    d_odd = odd.derivative(1)  # the residuals below hold to order - 1
    poly = z_series([0, 2, -8, 6], order)  # 2y(1-3y)(1-y)
    res = poly * d_odd + z_series([1, -3, 6], order) * odd - z_series([0, 3, -6], order)
    assert res.shape == (order - 1, 0) and res.is_zero()

    d_even = even.derivative(1)
    res = z_series([4, -4], order) * d_even + 2 * even - z_series([0, 1], order)
    assert res.shape == (order - 1, 0) and res.is_zero()


def test_scaling_exponents_per_kind():
    # n^{l - eps(l)} kappa_l, n^{l + k - eps(l)} kappa_{l,k} and n^{2l-2} K_l
    assert [asy.scaling_exponent("conductance", l) for l in range(1, 7)] == [1, 1, 3, 3, 5, 5]
    assert [asy.scaling_exponent("joint", l, 2) for l in range(0, 5)] == [1, 3, 3, 5, 5]
    assert [asy.scaling_exponent("wigner", l) for l in range(1, 5)] == [0, 2, 4, 6]


def test_limit_wigner_first_values_and_table():
    lim = asy.limit_wigner(8)
    expected = [1, 2, 24, 636, 27360, 1657440, 130515840, 12698673120]
    for l, val in enumerate(expected, start=1):
        assert lim.values[l] == val
        assert lim.scaling_exponent[l] == 2 * l - 2
    p = asy.limit_wigner_recurrence(4)
    assert p == [1, 2, 12, 106]


def test_zeta_coefficients_integrality_and_value():
    zs = asy.zeta_coefficients(20)
    assert zs[0] == 4
    assert all(isinstance(z, int) for z in zs)


def test_quartic_residual_zero():
    zs = asy.zeta_coefficients(20)
    omega = z_series([1] + zs, 20)
    assert asy.quartic_residual(omega).is_zero()


def test_dalembert_ode():
    F = asy.wigner_limit_generating_series(15)
    assert asy.dalembert_residual(F).is_zero()


def test_generating_function_matches_recurrence():
    F = asy.wigner_limit_generating_series(20).taylor()
    p = asy.limit_wigner_recurrence(20)
    for l in range(1, 21):
        assert F[l] == p[l - 1]


def test_beta2_delay_limits_from_finite_n_extrapolation():
    # third independent path for the limiting delay cumulants: Richardson
    # extrapolation of the exact finite-n values lands on the limiting
    # recurrence's integers, l=3 -> 24 included
    lim = asy.limit_wigner(6)
    for l in range(1, 7):
        samples = [
            (n, wigner_cumulants(DelayParams(2, n), l)[l])
            for n in (64, 96, 128, 192, 256)
        ]
        est, _ = asy.extrapolate_limit(samples, 2 * l - 2)
        assert abs(est / float(lim.values[l]) - 1) < 1e-6


def test_extrapolate_wigner_variance_beta1():
    samples = [
        (n, wigner_cumulants(DelayParams(1, n), 2)[2]) for n in (64, 128, 256)
    ]
    est, err = asy.extrapolate_limit(samples, 2)
    assert abs(est - 4.0) < 1e-3


def test_extrapolate_wigner_fourth_beta4():
    samples = [
        (n, wigner_cumulants(DelayParams(4, n), 4)[4]) for n in (64, 128, 256)
    ]
    est, err = asy.extrapolate_limit(samples, 6)
    assert abs(est / 79.5 - 1) < 1e-3


def test_extrapolate_constant_sequence():
    est, err = asy.extrapolate_limit([(2, rat(7)), (4, rat(7)), (8, rat(7))], 0)
    assert est == 7.0 and err == 0.0


def test_extrapolate_requires_increasing_n():
    with pytest.raises(IllConditionedError):
        asy.extrapolate_limit([(4, rat(1)), (2, rat(1)), (8, rat(1))], 0)
    with pytest.raises(IllConditionedError):
        asy.extrapolate_limit([(2, rat(1)), (4, rat(1))], 0)


def test_finite_n_data_converges_to_limits():
    from dotcumulants.conductance import conductance_cumulants

    vals = {
        n: conductance_cumulants(TransportParams(1, rat(-1, 2), 0, n), 6)
        for n in (256, 512)
    }
    for l in (3, 4, 5, 6):
        nu = l - (1 if l % 2 == 0 else 0)
        lim = float(asy.limit_conductance(COE, l))
        devs = [
            abs(float(rat(n) ** nu * vals[n][l]) / lim - 1) for n in (256, 512)
        ]
        assert devs[1] < devs[0]


@pytest.mark.parametrize("l,k", [(-1, 0), (-7, 0), (3, -2), (-2, -2), (0, -1), (-3, 4)])
def test_negative_indices_are_excluded(l, k):
    """One index rule for every limit: a negative l or k is an excluded
    index, never a value (``limit_joint(p, 3, -2)`` returned 0) or a bare
    ``ValueError``."""
    for p in (COE, CSE):
        with pytest.raises(ExcludedIndexError):
            asy.limit_joint(p, l, k)
        with pytest.raises(ExcludedIndexError):
            asy.joint_limit_from_iteration(p, l, k)
        if k == 0:
            with pytest.raises(ExcludedIndexError):
                asy.limit_conductance(p, l)
