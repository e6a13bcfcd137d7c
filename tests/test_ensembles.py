import math
from fractions import Fraction

import pytest

from dotcumulants.conductance import _initial_three
from dotcumulants.ensembles import (
    b_constant,
    d_constant,
    delay_coupling_beta1,
    delay_coupling_beta4,
    log_delay_norm,
    log_selberg,
    transport_coupling_beta1,
    transport_coupling_beta4,
)
from dotcumulants.errors import InvalidGammaArgumentError, PoleError
from dotcumulants.params import DelayParams, TransportParams
from dotcumulants.quadrature import delay_norm_quadrature
from dotcumulants.rational import rat


def test_b_constant_beta2_is_zero():
    for n in (1, 3, 7):
        assert b_constant(TransportParams(2, rat(1, 3), 1, n)) == 0


def test_b_constant_beta1_limit_quarter_of_64():
    # alpha = delta = 0: b_n -> 1/256 with monotone residual decay
    residuals = [
        abs(b_constant(TransportParams(1, 0, 0, n)) - rat(1, 256))
        for n in (50, 100, 200)
    ]
    assert residuals[0] > residuals[1] > residuals[2]
    residuals = [
        abs(b_constant(TransportParams(1, 0, 0, n)) - rat(1, 256))
        for n in (32, 64, 128)
    ]
    assert residuals[0] > residuals[1] > residuals[2]


def test_b_constant_beta1_log_gamma_oracle():
    # closed form must match the normalization-constant ratio at n=4
    p = TransportParams(1, rat(-1, 2), 0, 4)
    closed = float(b_constant(p))
    log_ratio = (
        log_selberg(p.with_n(2)) + log_selberg(p.with_n(6)) - 2 * log_selberg(p)
    )
    oracle = (4 * 3) / (5 * 6) * math.exp(log_ratio)
    assert abs(closed - oracle) <= 1e-10 * abs(oracle)


def test_b_constant_beta4_log_gamma_oracle():
    p = TransportParams(4, 1, 0, 5)
    closed = float(b_constant(p))
    log_ratio = (
        log_selberg(p.with_n(4)) + log_selberg(p.with_n(6)) - 2 * log_selberg(p)
    )
    oracle = 5 / 6 * math.exp(log_ratio)
    assert abs(closed - oracle) <= 1e-10 * abs(oracle)


def test_b_duality_beta4_from_beta1():
    # b_n^(4) = b_n^(1) at delta -> -delta/2, alpha -> -alpha/2, n -> -2n
    for n in range(2, 9):
        for alpha, delta in ((rat(0), rat(0)), (rat(1, 2), rat(1)), (rat(1), rat(2))):
            lhs = b_constant(TransportParams(4, alpha, delta, n))
            rhs = transport_coupling_beta1(-alpha / 2, -delta / 2, -2 * n)
            assert lhs == rhs


def test_d_constant_beta2_is_zero():
    assert d_constant(DelayParams(2, 4)) == 0


def test_d_constant_beta1_log_gamma_oracle():
    p = DelayParams(1, 6)  # default b = 10
    assert p.b == 10
    closed = float(d_constant(p))
    log_ratio = (
        log_delay_norm(DelayParams(1, 4, p.b))
        + log_delay_norm(DelayParams(1, 8, p.b))
        - 2 * log_delay_norm(p)
    )
    oracle = (6 * 5) / (7 * 8) * math.exp(log_ratio)
    assert abs(closed - oracle) <= 1e-10 * abs(oracle)


def test_d_duality():
    # 16 d_n^(4) = d_n^(1) at b -> -b/2, n -> -2n
    for n in range(3, 9):
        p = DelayParams(4, n)
        lhs = 16 * d_constant(p)
        rhs = delay_coupling_beta1(-p.b / 2, -2 * n)
        assert lhs == rhs


def test_couplings_positive_on_physical_grid():
    for beta in (1, 4):
        for alpha in (rat(-1, 2), rat(0), rat(1)):
            for delta in (-1, 0, 1, 2):
                for n in (5, 8):
                    assert b_constant(TransportParams(beta, alpha, delta, n)) > 0
        for n in (5, 8):
            assert d_constant(DelayParams(beta, n)) > 0


def test_log_selberg_uniform_cases():
    assert abs(log_selberg(TransportParams(2, 0, 0, 1))) < 1e-14
    # int over [0,1]^2 of (T1 - T2)^2 equals 1/6
    assert abs(log_selberg(TransportParams(2, 0, 0, 2)) - math.log(1 / 6)) < 1e-12
    # Beta(1/2, 1) = 2
    assert abs(log_selberg(TransportParams(1, rat(-1, 2), 0, 1)) - math.log(2)) < 1e-12


def test_nonpositive_gamma_argument_rejected():
    # valid parameter records always give positive Gamma arguments, so the
    # guard is exercised directly; a shrunk delay exponent also trips it
    from dotcumulants.ensembles import _lgamma

    with pytest.raises(InvalidGammaArgumentError):
        _lgamma(0.0, "test")
    with pytest.raises(InvalidGammaArgumentError):
        log_delay_norm(DelayParams(2, 3, b=rat(1)))


def test_log_delay_norm_single_channel():
    # n=1, b=3: integral of lambda^{-3} exp(-1/lambda) is Gamma(2) = 1
    assert abs(log_delay_norm(DelayParams(2, 1))) < 1e-14


def test_log_delay_norm_quadrature_cross_check():
    p = DelayParams(2, 2)  # default b = 6
    assert p.b == 6
    lhs = log_delay_norm(p)
    rhs = delay_norm_quadrature(p)
    assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


def test_log_delay_norm_monotone_in_n():
    vals = [log_delay_norm(DelayParams(2, n)) for n in (1, 2, 3, 4, 5)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# -- integer evaluation of the lattice constants -------------------------------
#
# A direct Fraction transcription of the closed forms, one operation per
# factor, is the reference for the integer-scaled evaluation.


def _reference_ratio(num_factors, den_factors):
    num = Fraction(1)
    for f in num_factors:
        num *= f
    den = Fraction(1)
    for f in den_factors:
        if f == 0:
            raise PoleError("denominator factor vanishes")
        den *= f
    return num / den


def _reference_b1(a, d, n):
    a, d, n = Fraction(a), Fraction(d), Fraction(n)
    num = [n, n - 1, 2 * a + n, 2 * a + n + 1, d + n, d + n + 1,
           d + 2 * a + n + 1, d + 2 * a + n + 2]
    den = [Fraction(16),
           d / 2 + a + n, d / 2 + a + n + 1, d / 2 + a + n + 1, d / 2 + a + n + 2,
           d + 2 * a + 2 * n - 1, d + 2 * a + 2 * n + 1, d + 2 * a + 2 * n + 1,
           d + 2 * a + 2 * n + 3]
    return _reference_ratio(num, den)


def _reference_b4(a, d, n):
    a, d, n = Fraction(a), Fraction(d), Fraction(n)
    num = [Fraction(2), n, 2 * n + 1, a + 2 * n, a + 2 * n - 1, d / 2 + 2 * n,
           d / 2 + 2 * n - 1, d / 2 + a + 2 * n - 1, d / 2 + a + 2 * n - 2]
    s = d / 2 + a
    den = [s + 4 * n, s + 4 * n - 2, s + 4 * n - 2, s + 4 * n - 4,
           s + 4 * n + 1, s + 4 * n - 1, s + 4 * n - 1, s + 4 * n - 3]
    return _reference_ratio(num, den)


def _reference_d1(b, n):
    b, n = Fraction(b), Fraction(n)
    num = [n, n - 1, 2 * b - 2 - n, 2 * b - 1 - n]
    den = [b - n, 2 * b - 2 * n + 1, b - n - 2, 2 * b - 2 * n - 3,
           b - 1 - n, b - 1 - n, 2 * b - 2 * n - 1, 2 * b - 2 * n - 1]
    return _reference_ratio(num, den)


def _reference_d4(b, n):
    b, n = Fraction(b), Fraction(n)
    num = [Fraction(2), n, 2 * n + 1, b + 2 - 2 * n, b + 1 - 2 * n]
    den = [b + 3 - 4 * n, b + 1 - 4 * n, b + 1 - 4 * n, b + 2 - 4 * n,
           b + 2 - 4 * n, b - 1 - 4 * n, b - 4 * n, b - 4 * n + 4]
    return _reference_ratio(num, den)


def _reference_initial_three(beta, a, d, n):
    a, d = Fraction(a), Fraction(d)
    s = a + d / 2
    den1 = s + 2 + beta * (n - 1)
    if den1 == 0:
        raise PoleError("kappa_1")
    k1 = n * (a + 1 + Fraction(beta * (n - 1), 2)) / den1
    if n == 1:
        den2 = (s + 2) ** 2 * (s + 3)
        if den2 == 0:
            raise PoleError("kappa_2")
        k2 = Fraction(1, 4) * (2 * a + 2) * (d + 2) / den2
        den3 = (s + 2) * (s + 4)
        if den3 == 0:
            raise PoleError("kappa_3")
        return (k1, k2, 2 * k2 * (d / 2 - a) / den3)
    den2a = (s + 2 + beta * (n - 1)) ** 2 * (s + 3 + beta * (n - 1))
    den2b = 2 * a + d + 4 + beta * (2 * n - 3)
    if den2a == 0 or den2b == 0:
        raise PoleError("kappa_2")
    k2 = (
        Fraction(1, 4) * n * (2 * a + 2 + beta * (n - 1)) * (d + 2 + beta * (n - 1))
        / den2a * (d + 2 * a + 4 + beta * (n - 2)) / den2b
    )
    den3 = (
        (s + 2 + beta * (n - 1)) * (s + 4 + beta * (n - 1)) * (s + 2 + beta * (n - 2))
    )
    if den3 == 0:
        raise PoleError("kappa_3")
    return (k1, k2, 2 * k2 * (d / 2 - a) * (s + 2 - beta) / den3)


_ALPHAS = [rat(x) for x in ("-1/2", "0", "1/2", "1", "3/2", "-1/3", "7/5")]
_DELTAS = [rat(x) for x in ("-1", "0", "1", "2", "1/3", "-5/7")]
_DIMENSIONS = list(range(-12, 41))


def _same(fn, reference, *args):
    """Both give the same rational, or both raise PoleError; True if a value."""
    try:
        expected = reference(*args)
    except PoleError:
        with pytest.raises(PoleError):
            fn(*args)
        return False
    assert fn(*args) == expected, args
    return True


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_integer_transport_couplings_match_fraction_reference(alpha):
    values = 0
    for delta in _DELTAS:
        for n in _DIMENSIONS:
            values += _same(transport_coupling_beta1, _reference_b1, alpha, delta, n)
            values += _same(transport_coupling_beta4, _reference_b4, alpha, delta, n)
    assert values > len(_DELTAS) * len(_DIMENSIONS)


@pytest.mark.parametrize("b", _ALPHAS + _DELTAS + [rat(10), rat(23, 3), rat(-9, 2)])
def test_integer_delay_couplings_match_fraction_reference(b):
    values = 0
    for n in _DIMENSIONS:
        values += _same(delay_coupling_beta1, _reference_d1, b, n)
        values += _same(delay_coupling_beta4, _reference_d4, b, n)
    assert values > len(_DIMENSIONS)


def test_integer_couplings_at_duality_and_rational_arguments():
    for n in range(2, 9):
        for alpha, delta in ((rat(0), rat(0)), (rat(1, 2), rat(1)), (rat(1), rat(2))):
            assert _same(transport_coupling_beta1, _reference_b1, -alpha / 2, -delta / 2, -2 * n)
        b = DelayParams(4, n).b
        assert _same(delay_coupling_beta1, _reference_d1, -b / 2, -2 * n)
    for n in (rat(1, 2), rat(-7, 3), rat(22, 5)):
        for alpha in _ALPHAS:
            for delta in _DELTAS:
                _same(transport_coupling_beta1, _reference_b1, alpha, delta, n)
                _same(transport_coupling_beta4, _reference_b4, alpha, delta, n)
        for b in _ALPHAS + _DELTAS:
            _same(delay_coupling_beta1, _reference_d1, b, n)
            _same(delay_coupling_beta4, _reference_d4, b, n)


@pytest.mark.parametrize("beta", [1, 2, 4])
def test_integer_initial_three_match_fraction_reference(beta):
    values = 0
    for alpha in _ALPHAS:
        for delta in _DELTAS:
            for n in _DIMENSIONS:
                values += _same(_initial_three, _reference_initial_three, beta, alpha, delta, n)
    assert values > len(_ALPHAS) * len(_DELTAS) * len(_DIMENSIONS) // 2


def test_couplings_reject_a_vanishing_denominator_factor():
    # d/2 + a + n = 0 at alpha = -1/2, delta = -1, n = 1
    with pytest.raises(PoleError):
        transport_coupling_beta1(rat(-1, 2), rat(-1), 1)
    # b - n = 0
    with pytest.raises(PoleError):
        delay_coupling_beta1(rat(5), 5)
