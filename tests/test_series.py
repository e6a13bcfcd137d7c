import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dotcumulants.rational import rat
from dotcumulants.series import TruncatedSeries


def S(*coeffs):
    return TruncatedSeries([rat(c) for c in coeffs])


def test_multiply_difference_of_squares():
    a = S(1, 1, 0)
    b = S(1, -1, 0)
    assert (a * b) == S(1, 0, -1)


def test_multiply_identity():
    s = S(3, "1/2", -7, "22/7")
    one = TruncatedSeries.constant(1, s.order)
    assert one * s == s


def test_multiply_hand_convolution():
    a = S(1, 2, 3)
    b = S(1, 1, 0)
    assert a * b == S(1, 3, 5)


def test_multiply_truncates_to_min_order():
    a = S(1, 1, 1, 1)
    b = S(1, 1)
    assert (a * b).order == 1


def test_exponential_of_zero():
    assert S(0, 0, 0).exponential() == S(1, 0, 0)


def test_exponential_of_x():
    assert S(0, 1, 0, 0).exponential() == S(1, 1, "1/2", "1/6")


def test_exponential_hand_expansion():
    # exp(x + x^2) = 1 + x + 3/2 x^2 + ...
    assert S(0, 1, 1).exponential() == S(1, 1, "3/2")


def test_exponential_rejects_constant_term():
    with pytest.raises(ValueError):
        S(1, 1).exponential()


def test_differentiate_power_rule():
    assert S(1, 1, 1).differentiate() == S(1, 2)
    assert S(5, 0, 0, 0).differentiate() == S(0, 0, 0)
    assert S(0, 0, 0, 3).differentiate() == S(0, 0, 9)


def test_differentiate_rejects_order_zero():
    with pytest.raises(ValueError):
        S(1).differentiate()


def test_shift_extends_order():
    s = S(1, 2)
    assert s.shift(2) == S(0, 0, 1, 2)


def test_addition_truncates_to_min_order():
    a = S(1, 1, 1, 1)
    b = S(1, 1)
    assert (a + b) == S(2, 2)
    assert (a - b).order == 1


def test_truncate_and_scalar_ops():
    s = S(1, 2, 3, 4)
    assert s.truncate(1) == S(1, 2)
    assert s.truncate(9) is s
    assert 2 * s == S(2, 4, 6, 8)
    assert (s + 1).coefficient(0) == 2
    assert (1 - s) == S(0, -2, -3, -4)


def test_serialization_strings():
    assert S("1/2", 3, "-7/3").to_strings() == ["1/2", "3", "-7/3"]


small_rationals = st.builds(
    rat, st.integers(-8, 8), st.integers(1, 6)
)


def series_strategy(order, first_zero=False):
    lo = 1 if first_zero else 0
    return st.lists(
        small_rationals, min_size=order + 1 - lo, max_size=order + 1 - lo
    ).map(lambda cs: TruncatedSeries(([rat(0)] * lo) + cs))


@settings(max_examples=60, deadline=None)
@given(series_strategy(6, first_zero=True))
def test_exponential_inverse_property(a):
    assert (a.exponential() * (-a).exponential()) == TruncatedSeries.constant(
        1, a.order
    )


@settings(max_examples=60, deadline=None)
@given(series_strategy(6, first_zero=True))
def test_exponential_derivative_property(a):
    e = a.exponential()
    lhs = e.differentiate()
    rhs = a.differentiate() * e
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(series_strategy(5), series_strategy(5), series_strategy(5))
def test_multiplication_commutative_associative(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


# -- the integer-numerator representation against a naive Fraction transcription --

#: numerators up to 2**80 in size and denominators that are coprime primes,
#: shared factors or large; zero coefficients are drawn often
wide_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(
        Fraction,
        st.integers(-(2**80), 2**80),
        st.one_of(st.sampled_from([1, 2, 3, 4, 6, 7, 12, 97, 2**61 - 1]), st.integers(1, 2**64)),
    ),
)


def wide_series(max_order=5):
    return st.lists(wide_rationals, min_size=1, max_size=max_order + 1)


def naive_mul(a, b):
    m = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(m)]


def naive_exp(a):
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for m in range(1, len(a)):
        out[m] = sum((j * a[j] * out[m - j] for j in range(1, m + 1)), Fraction(0)) / m
    return out


def assert_series(series, expected):
    """Same coefficients, and equal (with equal hashes) to the series built
    from them directly, so the stored pair is canonical."""
    expected = [rat(c.numerator, c.denominator) for c in expected]
    assert list(series.coefficients) == expected
    direct = TruncatedSeries(expected)
    assert series == direct and hash(series) == hash(direct)
    assert series.is_zero() == (not any(expected))
    nonzero = [k for k, c in enumerate(expected) if c]
    assert series.first_nonzero_index() == (nonzero[0] if nonzero else None)


def build(coeffs):
    return TruncatedSeries([rat(c.numerator, c.denominator) for c in coeffs])


@settings(max_examples=150, deadline=None)
@given(wide_series(), wide_series(), wide_rationals, st.integers(0, 3))
def test_series_algebra_matches_naive_fractions(a, b, s, k):
    A, B = build(a), build(b)
    m = min(len(a), len(b))
    scalar = rat(s.numerator, s.denominator)
    assert_series(A, a)
    assert_series(A + B, [x + y for x, y in zip(a, b)])
    assert_series(A - B, [x - y for x, y in zip(a, b)])
    assert_series(-A, [-x for x in a])
    assert_series(A + scalar, [a[0] + s] + a[1:])
    assert_series(scalar - A, [s - a[0]] + [-x for x in a[1:]])
    assert_series(A * scalar, [x * s for x in a])
    assert_series(scalar * A, [x * s for x in a])
    assert_series(A * B, naive_mul(a, b))
    assert_series(A.shift(k), [Fraction(0)] * k + a)
    assert_series(A.truncate(m - 1), a[:m])
    if len(a) > 1:
        assert_series(A.differentiate(), [j * x for j, x in enumerate(a) if j])
    else:
        with pytest.raises(ValueError):
            A.differentiate()
    tail = [Fraction(0)] + a[1:]
    assert_series(build(tail).exponential(), naive_exp(tail))


def naive_exponential_generating(values, s):
    return [Fraction(0)] + [v * s**l / math.factorial(l) for l, v in enumerate(values, 1)]


@settings(max_examples=150, deadline=None)
@given(st.lists(wide_rationals, max_size=9), wide_rationals)
def test_exponential_generating_matches_naive_fractions(values, s):
    series = TruncatedSeries.exponential_generating(
        [rat(v.numerator, v.denominator) for v in values], rat(s.numerator, s.denominator)
    )
    assert series.order == len(values)
    assert_series(series, naive_exponential_generating(values, s))


@settings(max_examples=100, deadline=None)
@given(wide_series(), wide_series())
def test_equal_series_built_differently_are_equal(a, b):
    A, B = build(a), build(b)
    m = min(len(a), len(b))
    # (A + B) - B and A truncated to the common order, built two ways
    left = (A + B) - B
    right = A.truncate(m - 1)
    assert left == right and hash(left) == hash(right)
    assert A * TruncatedSeries.constant(1, A.order) == A
    assert TruncatedSeries.zero(A.order) == A * 0 == A - A
    assert TruncatedSeries.from_terms(dict(enumerate(A.coefficients)), A.order) == A
    if any(a):
        assert A != TruncatedSeries.zero(A.order)
    assert (A == build(a[:-1] + [a[-1] + 1])) is False
