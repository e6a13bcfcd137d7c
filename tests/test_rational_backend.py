import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dotcumulants import wigner
from dotcumulants.conductance import _initial_three, bell_transform, conductance_cumulants
from dotcumulants.ensembles import _raw_coupling, _raw_delay_coupling
from dotcumulants.jointcsn import joint_cumulants
from dotcumulants.params import DelayParams, TransportParams, eta_factor, lattice_step
from dotcumulants.rational import (
    BACKEND,
    ONE,
    ZERO,
    dot,
    floor_rational,
    is_integral,
    parse_rational,
    rat,
    rational_str,
)
from introws import int_row, row_values


def test_serialization_conventions():
    assert rational_str(rat(3, 4)) == "3/4"
    assert rational_str(rat(-6, 4)) == "-3/2"
    assert rational_str(rat(5)) == "5"
    assert parse_rational("-7/3") == rat(-7, 3)
    assert parse_rational("12") == rat(12)
    assert parse_rational(4) == rat(4)


def test_reduction_and_sign_invariants():
    x = rat(-6, -4)
    assert x.numerator == 3 and x.denominator == 2
    assert rat(0, 5) == 0


def test_rat_returns_a_backend_scalar_unchanged():
    x = rat(-7, 3)
    assert rat(x) is x


def test_floor_and_integrality():
    assert floor_rational(rat(-7, 2)) == -4
    assert floor_rational(rat(7, 2)) == 3
    assert is_integral(rat(8, 4))
    assert not is_integral(rat(1, 3))


def test_floats_rejected():
    import pytest

    with pytest.raises(TypeError):
        rat(0.5)


def test_fallback_backend_subprocess():
    """The fractions fallback is selected by env flag and gives identical
    exact results on a representative recurrence."""
    code = (
        "import json\n"
        "from dotcumulants.rational import BACKEND, rat\n"
        "from dotcumulants.params import TransportParams\n"
        "from dotcumulants.conductance import conductance_cumulants\n"
        "v = conductance_cumulants(TransportParams(1, rat(-1,2), 0, 8), 6)[6]\n"
        "print(json.dumps({'backend': BACKEND, 'value': str(v)}))\n"
    )
    env = dict(os.environ)
    env["DOTCUMULANTS_PURE_PYTHON"] = "1"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert doc["backend"] == "fractions"
    from dotcumulants.conductance import conductance_cumulants
    from dotcumulants.params import TransportParams

    here = conductance_cumulants(TransportParams(1, rat(-1, 2), 0, 8), 6)[6]
    assert doc["value"] == rational_str(here)
    assert BACKEND in ("gmpy2", "fractions")


# -- the dot-product kernel ----------------------------------------------------------

_denominators = st.one_of(
    st.integers(1, 12),
    st.sampled_from([2**61 - 1, 10**9 + 7, 3**40, 2**64]),  # large, some coprime
    st.integers(1, 10**25),
)
_rationals = st.one_of(
    st.just(0),
    st.builds(rat, st.integers(-(10**30), 10**30), _denominators),
)
_terms = st.lists(
    st.tuples(st.integers(-(10**6), 10**6), _rationals, _rationals), max_size=40
)


def _int_terms(terms):
    """``dot``'s int terms (c, xn, xd, yn, yd) of rational (c, x, y) triples."""
    return [(c, x.numerator, x.denominator, y.numerator, y.denominator) for c, x, y in terms]


def _pair(x):
    return x.numerator, x.denominator


@settings(max_examples=200, deadline=None)
@given(_terms)
def test_dot_equals_the_naive_sum(terms):
    terms = [(c, rat(x), rat(y)) for c, x, y in terms]
    expected = sum((c * x * y for c, x, y in terms), ZERO)
    assert dot(iter(_int_terms(terms))) == _pair(expected)


# Denominators built as products of a few factors drawn from one small base,
# so that a term's denominator often divides the running denominator, equals
# an earlier one, or shares nothing with it: both branches of the kernel run.
_FACTORS = [2, 3, 4, 5, 7, 9, 11, 2**61 - 1, 10**9 + 7, 3**40, 2**64]


@st.composite
def _structured_terms(draw):
    base = draw(st.lists(st.sampled_from(_FACTORS), min_size=1, max_size=4))
    factors = st.lists(st.sampled_from(base), max_size=4).map(math.prod)
    value = st.one_of(
        st.just(ZERO),
        st.builds(rat, st.integers(-(10**30), 10**30), factors),
    )
    terms = draw(st.lists(
        st.tuples(st.integers(-(10**6), 10**6), value, value), max_size=30
    ))
    if draw(st.booleans()):
        # the negated copy makes the whole sum cancel to zero
        terms = draw(st.permutations(terms + [(-c, x, y) for c, x, y in terms]))
    return terms


@settings(max_examples=300, deadline=None)
@given(_structured_terms())
def test_dot_equals_the_naive_sum_over_related_denominators(terms):
    expected = sum((c * x * y for c, x, y in terms), ZERO)
    got = dot(_int_terms(terms))
    assert got == _pair(expected)
    assert all(type(v) is int for v in got)


_divisors = st.integers(-(10**12), 10**12).filter(bool)


@settings(max_examples=300, deadline=None)
@given(_structured_terms(), _divisors, _divisors)
def test_dot_folds_its_scale_and_divisor(terms, scale, divisor):
    expected = sum((c * x * y for c, x, y in terms), ZERO) * scale / divisor
    num, den = dot(_int_terms(terms), scale, divisor)
    assert (num, den) == _pair(expected)
    assert den > 0 and math.gcd(num, den) == 1


def test_dot_takes_both_denominator_branches():
    # 1/6 divides the running 1/12; 1/8 forces a rescale to 24; 1/9 shares
    # only a 3 with 24 and rescales to 72
    terms = [(1, rat(1, 12), ONE), (5, rat(1, 6), ONE), (3, rat(1, 8), ONE),
             (2, rat(1, 3), rat(1, 3))]
    expected = rat(1, 12) + rat(5, 6) + rat(3, 8) + rat(2, 9)
    assert dot(_int_terms(terms)) == _pair(expected)
    assert dot(_int_terms(terms + [(-c, x, y) for c, x, y in terms])) == (0, 1)


def test_dot_divides_by_a_negative_and_a_non_unit_divisor():
    terms = _int_terms([(1, rat(1, 12), ONE), (3, rat(1, 8), ONE)])  # 11/24
    assert dot(terms, 1, -6) == (-11, 144)
    assert dot(terms, 4, 6) == (11, 36)
    assert dot(terms, -10, -22) == (5, 24)
    # a zero sum stays (0, 1) whatever it is scaled or divided by
    assert dot(terms + [(-c, xn, xd, yn, yd) for c, xn, xd, yn, yd in terms], 7, -3) == (0, 1)
    assert dot([], 5, -2) == (0, 1)


def test_dot_returns_a_reduced_int_pair():
    assert dot([]) == (0, 1)
    assert dot(_int_terms([(3, rat(1, 2), rat(2, 3))])) == (1, 1)
    assert dot(_int_terms([(0, rat(1, 2), rat(2, 3)), (5, ZERO, rat(7))])) == (0, 1)
    # unreduced inputs give the reduced sum
    assert dot([(1, 2, 4, 3, 9)]) == (1, 6)


def test_public_results_hold_backend_scalars():
    """The engines run on int pairs; every value they hand out is the backend
    scalar, whose ``numerator`` and ``denominator`` the benchmark's tracer
    and the payload serialization read."""
    from dotcumulants.conductance import reduced_moments
    from dotcumulants.exactmoments import exact_conductance_cumulant_row
    from dotcumulants.jointcsn import joint_reduced_table
    from dotcumulants.wigner import wigner_cumulants

    scalar = type(ZERO)
    coe = TransportParams(1, rat(-1, 2), 0, 8)
    joint = joint_cumulants(coe, 4, 3).values
    reduced = reduced_moments(TransportParams(1, rat(1), 2, 9), 6)  # r_1, r_3, r_5 are 0
    joint_reduced = joint_reduced_table(TransportParams(4, rat(1), 0, 6), 3, 2)
    results = {
        "conductance": conductance_cumulants(TransportParams(4, 0, 1, 5), 10).values,
        "wigner": wigner_cumulants(DelayParams(1, 30), 8).values,
        "joint": list(joint.values()),
        "reduced": reduced.r_values + reduced.mu_values,
        "joint-reduced": [*joint_reduced.r.values(), *joint_reduced.mu.values()],
        "exact": exact_conductance_cumulant_row(TransportParams(2, rat(1, 2), 0, 3), 6),
    }
    for name, values in results.items():
        assert values, name
        assert all(type(v) is scalar for v in values), name


# Term-by-term transcriptions of the recurrences, one rational operation per
# term, kept as the reference the kernel-based engines must reproduce.


def _naive_bell(r, order):
    mu = [rat(1)]
    for l in range(1, order + 1):
        acc = rat(0)
        for j in range(l):
            acc += math.comb(l - 1, j) * r[l - j - 1] * mu[j]
        mu.append(acc)
    return mu


def _second_difference(rows):
    minus, plus, here = rows
    return [minus[j] + plus[j] - 2 * here[j] for j in range(len(here))]


def _naive_conductance(beta, alpha, delta, n, order, memo):
    if order < 1:
        return []
    if n == 0:
        return [rat(0)] * order
    if n not in memo:
        memo[n] = list(_initial_three(beta, alpha, delta, n))
    kappa = memo[n]
    eta, chi, step = eta_factor(beta), 2 if beta == 2 else 1, lattice_step(beta)
    t = alpha + delta / 2 + beta * n
    while len(kappa) < order:
        l = len(kappa)
        lead = (
            eta * l * (l - 1) * (l - 2) + beta * l * (2 * l - 1)
            - (6 - 3 * beta) * (t + 2 - beta) * l - t * (t + 2 - beta) * (l + 1)
        )
        bn = _raw_coupling(beta, alpha, delta, n)
        rhs = rat(0)
        if bn != 0:
            r = _second_difference(
                [_naive_conductance(beta, alpha, delta, m, l - 3, memo)
                 for m in (n - step, n + step, n)]
            )
            rhs = 12 * bn / beta * l * (l - 1) * (l - 2) * _naive_bell(r, l - 3)[l - 3]
        quad = rat(0)
        for i in range(l):
            li = l - i
            B = (2 - chi) * li * (li * (6 * i - 2) + 3) + (chi - 1) * li * li * (6 * i + 2)
            quad += math.comb(l, i) * B * kappa[i] * kappa[l - i - 1]
        kappa.append(
            (rhs + l * (2 * l - 1) * (alpha - delta / 2 + beta * n) * kappa[l - 1]
             + l * (l - 1) * (l - 2) * kappa[l - 2] - eta * quad) / lead
        )
    return kappa[:order]


def _naive_delay(beta, b, n, order, memo):
    if order < 1:
        return []
    if n == 0:
        return [rat(0)] * order
    omega = b - 2 - beta * (n - 1)
    if n not in memo:
        memo[n] = wigner._initial_three(beta, omega, n, 3)
    K = memo[n]
    eta, step = eta_factor(beta), lattice_step(beta)
    while len(K) < order:
        l = len(K)
        lead = (
            eta * l * (l - 1) * (l - 2) + beta * l * (2 * l - 1)
            - omega * (omega - 4 + 2 * beta) * l - omega * (omega + 2 - beta)
        )
        dn = _raw_delay_coupling(beta, b, n)
        rhs = rat(0)
        if dn != 0:
            rho = _second_difference(
                [_naive_delay(beta, b, m, l - 3, memo) for m in (n - step, n + step, n)]
            )
            phi = _naive_bell(rho, l - 3)
            rhs = 12 * dn / beta * l * (l - 1) * (l - 2) * rat(beta, 2) ** 4 * phi[l - 3]
        quad = rat(0)
        for i in range(l):
            B = (l - i) * (6 * eta * (l - i - 1) * i + beta + 4 * beta * i)
            quad += math.comb(l, i) * B * K[l - i - 1] * K[i]
        K.append((rhs - beta * l * (2 * l - 1) * K[l - 1] - quad) / lead)
    return K[:order]


def _staircase(L, K):
    return [(l, k) for k in range(K + 1) for l in range(L + 2 * (K - k) + 1)]


def _naive_joint(beta, alpha, delta, n, L, K, memo):
    """kappa_{l,k} on the staircase l <= L + 2(K-k), built from scratch."""
    if n == 0:
        return {lk: rat(0) for lk in _staircase(L, K)}
    row = _naive_conductance(beta, alpha, delta, n, L + 2 * K, memo)
    kappa = {(0, 0): rat(0)}
    kappa.update({(l, 0): row[l - 1] for l in range(1, L + 2 * K + 1)})
    eta, step = eta_factor(beta), lattice_step(beta)
    c = alpha + delta / 2 + beta * n + 2 - beta
    bn = _raw_coupling(beta, alpha, delta, n)
    if bn != 0 and K >= 2:
        tables = [_naive_joint(beta, alpha, delta, m, L, K - 2, memo)
                  for m in (n - step, n + step, n)]
        r = {lk: tables[0][lk] + tables[1][lk] - 2 * tables[2][lk]
             for lk in _staircase(L, K - 2)}
        mu_row = _naive_bell([r[(l, 0)] for l in range(1, L + 2 * K - 3)], L + 2 * K - 4)
        mu = {(l, 0): v for l, v in enumerate(mu_row)}
        for l, k in _staircase(L, K - 2):
            if k >= 1:
                acc = rat(0)
                for i in range(k):
                    for j in range(l + 1):
                        acc += (math.comb(k - 1, i) * math.comb(l, j)
                                * r[(l - j, k - i)] * mu[(j, i)])
                mu[(l, k)] = acc
    for k in range(K):
        for l in range(L + 2 * (K - k - 1) + 1):
            acc = 2 * c * kappa[(l + 2, k)]
            if k >= 1:
                if bn != 0:
                    acc += 12 * bn / beta * k * mu[(l, k - 1)]
                acc -= k * (eta * kappa[(l + 4, k - 1)] - kappa[(l + 2, k - 1)])
                double = rat(0)
                for i in range(k):
                    for j in range(l + 1):
                        double += (math.comb(k - 1, i) * math.comb(l, j)
                                   * kappa[(j + 2, i)] * kappa[(l - j + 2, k - i - 1)])
                acc -= 6 * eta * k * double
            kappa[(l, k + 1)] = acc / (2 * l + 3 * k + 2)
    return kappa


def test_bell_transform_equals_naive_loop():
    r = [rat(3, 7), rat(0), rat(-5, 2), rat(11, 9), rat(0), rat(1, 2**40), rat(-13)]
    assert row_values(bell_transform(int_row(r), 7)) == _naive_bell(r, 7)


@pytest.mark.parametrize("beta,alpha,delta,n", [
    (1, rat(-1, 2), 0, 16), (2, rat(1, 2), rat(1, 3), 5), (4, rat(1), rat(1, 3), 8),
])
def test_conductance_row_equals_naive_loop(beta, alpha, delta, n):
    _check_conductance_row(beta, alpha, delta, n, 16)


# A row ending at an odd order: its last step has an even index l and no
# self-paired middle term, while every odd l before it has one.
@pytest.mark.parametrize("beta,alpha,delta,n", [
    (1, rat(-1, 2), 0, 16), (2, rat(1, 2), rat(1, 3), 5), (4, rat(1), rat(1, 3), 8),
])
def test_conductance_row_to_odd_order_equals_naive_loop(beta, alpha, delta, n):
    _check_conductance_row(beta, alpha, delta, n, 15)


def _check_conductance_row(beta, alpha, delta, n, order):
    alpha, delta = rat(alpha), rat(delta)
    expected = _naive_conductance(beta, alpha, delta, n, order, {})
    p = TransportParams(beta, alpha, delta, n)
    assert list(conductance_cumulants(p, order).values) == expected


@pytest.mark.parametrize("beta,n", [(1, 40), (2, 30), (4, 20)])
def test_delay_row_equals_naive_loop(beta, n):
    _check_delay_row(beta, n, 14)


@pytest.mark.parametrize("beta,n", [(1, 40), (2, 30), (4, 20)])
def test_delay_row_to_odd_order_equals_naive_loop(beta, n):
    _check_delay_row(beta, n, 13)


def _check_delay_row(beta, n, order):
    p = DelayParams(beta, n)
    expected = _naive_delay(beta, p.b, n, order, {})
    assert list(wigner.wigner_cumulants(p, order).values) == expected


@pytest.mark.parametrize("beta,alpha,delta,n", [
    (1, rat(-1, 2), 0, 8), (2, rat(1, 2), rat(1, 3), 3), (4, rat(1), 1, 5),
])
def test_joint_table_equals_naive_loop(beta, alpha, delta, n):
    _check_joint_table(beta, alpha, delta, n, 4, 4)


# A deeper table: the steps of a (6, 5) table run k = 0..4 with l up to
# 6 + 2(4 - k), so the double sum has self-paired middle terms (k odd, l even)
# at k = 1 and 3, and the coupling term consumes mu up to column 3.
@pytest.mark.parametrize("beta,alpha,delta,n", [(1, rat(-1, 2), 0, 8), (4, rat(1), 1, 5)])
def test_joint_table_6_5_equals_naive_loop(beta, alpha, delta, n):
    _check_joint_table(beta, alpha, delta, n, 6, 5)


def _check_joint_table(beta, alpha, delta, n, L, K):
    alpha, delta = rat(alpha), rat(delta)
    expected = _naive_joint(beta, alpha, delta, n, L, K, {})
    table = joint_cumulants(TransportParams(beta, alpha, delta, n), L, K)
    assert table.values == {
        (l, k): expected[(l, k)] for l in range(L + 1) for k in range(K + 1)
    }
