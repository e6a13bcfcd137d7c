"""The determinant exact-moment oracle against independent closed forms and
against the recurrences, beyond the dimensions a permutation expansion
could reach; its Pfaffian elimination against a Laplace expansion."""

import hashlib
import random

import pytest

from dotcumulants.conductance import conductance_cumulants, conductance_initial
from dotcumulants.doubleseries import DoubleSeries
from dotcumulants.errors import CumulantError, UnsupportedBetaError
from dotcumulants.exactmoments import (
    _det,
    _matrix,
    _pfaffian,
    exact_conductance_cumulant_row,
    exact_moments,
    exact_transport_cumulants,
)
from dotcumulants.params import TransportParams
from dotcumulants.rational import rat, rational_str

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


@pytest.mark.parametrize("beta, n", [(4, 5), (4, 6), (4, 7), (4, 8), (2, 6), (2, 7), (2, 8)])
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


#: SHA-256 of the order-8 conductance rows and of the (4,3) cumulant tables
#: over GRID and n = 1..5, per beta, as the determinant-and-square-root
#: oracle computed them before the Pfaffian was taken directly
DIGESTS = {
    2: ("a354d9957ecd069ffd5385ea6b733c8820f022b58afb8bb92f4767db2b607815",
        "eedd22b9e7d5db8085a696bd97cb10012877d40e259d80f9ad29549bd931a7c0"),
    4: ("d8ffa75394cd480391f06d6fda9cbe56f44f9b579dc2f49d6602bacf921ae622",
        "82505579466a56deb3def1e202343accac4adf6a77132854e8f3c2de49344f55"),
}


@pytest.mark.parametrize("beta", [2, 4])
def test_outputs_match_their_pinned_digests(beta):
    rows, tables = hashlib.sha256(), hashlib.sha256()
    for alpha, delta in GRID:
        for n in range(1, 6):
            p = TransportParams(beta, alpha, delta, n)
            row = exact_conductance_cumulant_row(p, 8)
            rows.update((" ".join(map(rational_str, row)) + "\n").encode())
            table = exact_transport_cumulants(p, 4, 3)
            tables.update((" ".join(
                f"{l},{k}:{rational_str(v)}" for (l, k), v in table.items()
            ) + "\n").encode())
    assert (rows.hexdigest(), tables.hexdigest()) == DIGESTS[beta]


# -- Pfaffian elimination against the Laplace expansion --------------------------------


def laplace_pfaffian(a, idx=None):
    """Pf by expansion along the first row, reading a[i][j] for i < j only."""
    if idx is None:
        idx = list(range(len(a)))
    if not idx:
        return 1
    first, rest = idx[0], idx[1:]
    terms = [a[first][j] * laplace_pfaffian(a, rest[:pos] + rest[pos + 1:]) * (-1) ** pos
             for pos, j in enumerate(rest)]
    return sum(terms[1:], terms[0])


@pytest.mark.parametrize("shape", [(3, 0), (2, 1)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pfaffian_matches_laplace_on_de_bruijn_matrices(n, shape):
    for alpha, delta in GRID:
        matrix = _matrix(TransportParams(4, alpha, delta, n), *shape)
        assert _pfaffian(matrix) == laplace_pfaffian(matrix), (alpha, delta)


def random_skew(rng, size, shape):
    """An integer skew matrix of series (None below the diagonal) whose
    leading Pfaffians have nonzero constant terms."""
    cells = (shape[0] + 1) * (shape[1] + 1)
    while True:
        a = [[DoubleSeries([rng.randint(-9, 9) for _ in range(cells)], shape) if j < k else None
              for k in range(size)] for j in range(size)]
        leading = [[row[:2 * s] for row in a[:2 * s]] for s in range(1, size // 2 + 1)]
        if all(laplace_pfaffian(block).coefficient(0, 0) for block in leading):
            return a


@pytest.mark.parametrize("size", [2, 4, 6, 8])
@pytest.mark.parametrize("shape", [(0, 0), (2, 0), (1, 2)])
def test_pfaffian_matches_laplace_on_random_skew_matrices(size, shape):
    rng = random.Random(size * 100 + 10 * shape[0] + shape[1])
    for _ in range(3):
        a = random_skew(rng, size, shape)
        assert _pfaffian(a) == laplace_pfaffian(a)


def test_a_pivot_with_zero_constant_term_raises():
    one, zero = DoubleSeries([1, 2], (1, 0)), DoubleSeries([0, 1], (1, 0))
    skew = [[None, zero, one, one], [None, None, one, one], [None] * 4, [None] * 4]
    with pytest.raises(RuntimeError, match="zero constant term"):
        _pfaffian(skew)
    with pytest.raises(RuntimeError, match="zero constant term"):
        _det([[zero, one], [one, one]])
