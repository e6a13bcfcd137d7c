import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dotcumulants.rational import rat
from dotcumulants.doubleseries import DoubleSeries, moments_to_cumulants
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


# -- DoubleSeries against a naive Fraction transcription on double Taylor dicts --
#
# A double Taylor dict maps (l, k) to the ordinary coefficient a[l,k] of
# z^l w^k; the DoubleSeries holding it has c[l,k] = a[l,k] l! k!.

#: small rationals for the exponential, whose naive transcription multiplies
#: up to L + K series together
narrow_rationals = st.builds(
    Fraction, st.integers(-(2**20), 2**20), st.sampled_from([1, 2, 3, 4, 6, 7, 12, 97])
)


def fact(l, k):
    return math.factorial(l) * math.factorial(k)


@st.composite
def taylor_dicts(draw, values=wide_rationals, max_l=3, max_k=3, zero_constant=False):
    L, K = draw(st.integers(0, max_l)), draw(st.integers(0, max_k))
    a = {(l, k): draw(values) for l in range(L + 1) for k in range(K + 1)}
    if zero_constant:
        a[(0, 0)] = Fraction(0)
    return a, (L, K)


def to_double(a, shape):
    L, K = shape
    return DoubleSeries(
        [rat(a[(l, k)] * fact(l, k)) for l in range(L + 1) for k in range(K + 1)], shape
    )


def assert_double(series, expected, shape):
    """Same double Taylor coefficients on the same rectangle, and equal to
    the series built from them directly, so the stored triple is canonical."""
    L, K = shape
    got = {
        (l, k): series.coefficient(l, k) / fact(l, k) for l in range(L + 1) for k in range(K + 1)
    }
    assert got == {key: rat(v) for key, v in expected.items()}
    assert series == to_double(expected, shape)
    assert series.is_zero() == (not any(expected.values()))


def clip(a, shape):
    L, K = shape
    return {(l, k): a.get((l, k), Fraction(0)) for l in range(L + 1) for k in range(K + 1)}


def naive_double_mul(a, b, shape):
    L, K = shape
    return {
        (l, k): sum(
            (a[(i, j)] * b[(l - i, k - j)] for i in range(l + 1) for j in range(k + 1)), Fraction(0)
        )
        for l in range(L + 1) for k in range(K + 1)
    }


def naive_double_derivative(a, shape, dl, dk):
    L, K = shape
    return {
        (l, k): a[(l + dl, k + dk)] * math.perm(l + dl, dl) * math.perm(k + dk, dk)
        for l in range(L - dl + 1) for k in range(K - dk + 1)
    }


def naive_double_exp(a, shape):
    # exp(a) = sum_m a^m / m!, and a^m vanishes for m > L + K
    out = clip({(0, 0): Fraction(1)}, shape)
    term = dict(out)
    for m in range(1, shape[0] + shape[1] + 1):
        term = {key: v / m for key, v in naive_double_mul(term, a, shape).items()}
        out = {key: out[key] + term[key] for key in out}
    return out


@settings(max_examples=120, deadline=None)
@given(
    taylor_dicts(), taylor_dicts(), wide_rationals,
    st.integers(-5, 5), st.integers(0, 2), st.integers(0, 2),
)
def test_double_series_matches_naive_fractions(fa, fb, s, n, dl, dk):
    (a, sa), (b, sb) = fa, fb
    A, B = to_double(a, sa), to_double(b, sb)
    common = (min(sa[0], sb[0]), min(sa[1], sb[1]))
    assert_double(A, a, sa)
    assert_double(A + B, {key: a[key] + b[key] for key in clip(a, common)}, common)
    assert_double(A - B, {key: a[key] - b[key] for key in clip(a, common)}, common)
    assert_double(A * B, naive_double_mul(a, b, common), common)
    assert_double(B * A, naive_double_mul(a, b, common), common)
    scalar = rat(s.numerator, s.denominator)
    assert_double(A * scalar, {key: v * s for key, v in a.items()}, sa)
    assert_double(scalar * A, {key: v * s for key, v in a.items()}, sa)
    assert_double(n * A, {key: v * n for key, v in a.items()}, sa)
    grown = (sa[0] + dl, sa[1] + dk)
    shifted = clip({(l + dl, k + dk): v for (l, k), v in a.items()}, grown)
    assert_double(A.times(dl, dk), shifted, grown)
    if dl <= sa[0] and dk <= sa[1]:
        shrunk = (sa[0] - dl, sa[1] - dk)
        assert_double(A.derivative(dl, dk), naive_double_derivative(a, sa, dl, dk), shrunk)
    else:
        with pytest.raises(ValueError):
            A.derivative(dl, dk)


@settings(max_examples=80, deadline=None)
@given(taylor_dicts(values=narrow_rationals, zero_constant=True))
def test_double_series_exponential_matches_naive_fractions(fa):
    a, shape = fa
    assert_double(to_double(a, shape).exponential(), naive_double_exp(a, shape), shape)


def test_double_series_exponential_rejects_constant_term():
    with pytest.raises(ValueError, match="zero constant term"):
        DoubleSeries([1, 1], (1, 0)).exponential()


@pytest.mark.parametrize("k_range", [(0, 0), (1, 3)], ids=["K=0", "K>0"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_log_and_exponential_invert_each_other(k_range, data):
    shape = (data.draw(st.integers(0, 3)), data.draw(st.integers(*k_range)))
    size = (shape[0] + 1) * (shape[1] + 1)
    tail = st.lists(narrow_rationals, min_size=size - 1, max_size=size - 1)
    g = DoubleSeries([0, *data.draw(tail)], shape)
    f = DoubleSeries([1, *data.draw(tail)], shape)
    assert g.exponential().log() == g
    assert f.log().exponential() == f
    # the log of a moment series holds the cumulants moments_to_cumulants finds
    moments = {(l, k): f.coefficient(l, k) for l in range(shape[0] + 1) for k in range(shape[1] + 1)}
    kappa = f.log()
    assert moments_to_cumulants(moments, *shape) == {
        key: kappa.coefficient(*key) for key in moments if key != (0, 0)
    }


def test_log_rejects_a_constant_term_other_than_one():
    with pytest.raises(ValueError, match="constant term of 1"):
        DoubleSeries([2, 1], (1, 0)).log()
    with pytest.raises(ValueError, match="constant term of 1"):
        DoubleSeries([0, 1], (0, 1)).log()


def integer_series(shape, constant):
    rest = (shape[0] + 1) * (shape[1] + 1) - 1
    tail = st.lists(st.integers(-(2**70), 2**70), min_size=rest, max_size=rest)
    return st.tuples(constant, tail).map(lambda parts: DoubleSeries([parts[0], *parts[1]], shape))


@pytest.mark.parametrize("k_range", [(0, 0), (1, 3)], ids=["K=0", "K>0"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_exact_quotient_and_sqrt_invert_the_product(k_range, data):
    shape = (data.draw(st.integers(0, 4)), data.draw(st.integers(*k_range)))
    f = data.draw(integer_series(shape, st.integers(-(2**70), 2**70)))
    g = data.draw(integer_series(shape, st.integers(-(2**70), 2**70).filter(bool)))
    assert (f * g).exact_quotient(g) == f


def test_exact_division_and_sqrt_refuse_what_they_cannot_do():
    three, two = DoubleSeries([3, 1], (0, 1)), DoubleSeries([2, 0], (0, 1))
    with pytest.raises(ValueError):
        three.exact_quotient(two)  # 3/2 is not an integer
    with pytest.raises(ValueError):
        DoubleSeries([rat(1, 2), 0], (1, 0)).exact_quotient(DoubleSeries([1, 0], (1, 0)))
    with pytest.raises(ValueError):
        DoubleSeries([1, 2, 3], (1, 1))
    with pytest.raises(IndexError):
        DoubleSeries([1, 2], (0, 1)).coefficient(1, 0)  # flat index 2 would wrap rows


def naive_moments_to_cumulants(moments, max_l, max_k):
    """The bivariate triangle written out term by term, in total-degree order."""
    kappa = {}
    for total in range(1, max_l + max_k + 1):
        for l in range(min(total, max_l) + 1):
            k = total - l
            if k > max_k:
                continue
            acc = moments[(l, k)]
            if l >= 1:
                for a in range(l):
                    for b in range(k + 1):
                        if (a, b) != (l - 1, k):
                            acc = acc - (
                                math.comb(l - 1, a) * math.comb(k, b)
                                * kappa[(a + 1, b)] * moments[(l - 1 - a, k - b)]
                            )
            else:
                for b in range(k - 1):
                    acc = acc - math.comb(k - 1, b) * kappa[(0, b + 1)] * moments[(0, k - 1 - b)]
            kappa[(l, k)] = acc
    return kappa


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(0, 4), st.booleans(), st.data())
def test_moments_to_cumulants_matches_the_triangle(max_l, max_k, floats, data):
    values = st.floats(-1e3, 1e3, allow_nan=False) if floats else narrow_rationals
    moments = {(l, k): data.draw(values) for l in range(max_l + 1) for k in range(max_k + 1)}
    moments[(0, 0)] = 1.0 if floats else Fraction(1)
    got = moments_to_cumulants(moments, max_l, max_k)
    want = naive_moments_to_cumulants(moments, max_l, max_k)
    # the same operations in the same order: floats agree bit for bit, in key order
    assert repr(list(got.items())) == repr(list(want.items()))
