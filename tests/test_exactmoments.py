"""The determinant exact-moment oracle against independent closed forms and
against the recurrences, beyond the dimensions a permutation expansion
could reach."""

import pytest

from dotcumulants.conductance import conductance_cumulants, conductance_initial
from dotcumulants.errors import CumulantError, UnsupportedBetaError
from dotcumulants.exactmoments import (
    exact_conductance_cumulant_row,
    exact_moments,
    exact_transport_cumulants,
)
from dotcumulants.params import TransportParams
from dotcumulants.rational import rat

#: the physical (alpha, delta) grid of the benchmark's sweep
GRID = [
    (rat(a), rat(d))
    for a in ("-1/2", "0", "1/2", "1", "3/2")
    for d in ("-1", "0", "1", "2")
]


@pytest.mark.parametrize("beta", [2, 4])
@pytest.mark.parametrize("alpha, delta", [
    (rat(-1, 2), rat(1)), (rat(3, 2), rat(-1)), (rat(0), rat(0)), (rat(1), rat(2)),
])
def test_single_channel_is_beta_distribution(beta, alpha, delta):
    # n=1 has no interaction factor: G = T ~ Beta(a, b) and P = T(1-T)
    a, b = alpha + 1, delta / 2 + 1
    s = a + b
    kappa = exact_transport_cumulants(TransportParams(beta, alpha, delta, 1), 4, 1)
    assert kappa[(1, 0)] == a / s
    assert kappa[(2, 0)] == a * b / (s ** 2 * (s + 1))
    assert kappa[(3, 0)] == 2 * a * b * (b - a) / (s ** 3 * (s + 1) * (s + 2))
    assert kappa[(4, 0)] == 6 * a * b * ((a - b) ** 2 * (s + 1) - a * b * (s + 2)) / (
        s ** 4 * (s + 1) ** 2 * (s + 2) * (s + 3)
    )
    assert kappa[(0, 1)] == a * b / (s * (s + 1))


@pytest.mark.parametrize("beta", [2, 4])
@pytest.mark.parametrize("n", range(1, 9))
def test_low_cumulants_match_closed_form(beta, n):
    for alpha, delta in GRID:
        p = TransportParams(beta, alpha, delta, n)
        try:
            closed = list(conductance_initial(p))
        except CumulantError:
            continue
        assert exact_conductance_cumulant_row(p, 3) == closed, (alpha, delta)


@pytest.mark.parametrize("beta, n", [(4, 5), (2, 6), (2, 7), (2, 8)])
def test_rows_match_recurrence_at_larger_n(beta, n):
    for alpha, delta in GRID:
        p = TransportParams(beta, alpha, delta, n)
        try:
            recurrence = list(conductance_cumulants(p, 8).values)
        except CumulantError:
            continue
        assert exact_conductance_cumulant_row(p, 8) == recurrence, (alpha, delta)


def test_moments_cover_the_rectangle_and_are_normalized():
    moments = exact_moments(TransportParams(4, rat(1, 2), 0, 3), 3, 2)
    assert sorted(moments) == [(l, k) for l in range(4) for k in range(3)]
    assert moments[(0, 0)] == 1


def test_odd_beta_is_unsupported():
    with pytest.raises(UnsupportedBetaError):
        exact_moments(TransportParams(1, 0, 0, 2), 2)
