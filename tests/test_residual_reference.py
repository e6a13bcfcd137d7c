"""The residual checks on int rows against their naive rational references.

``tests/fractionresiduals.py`` keeps the assembly on backend rationals; the
checks in ``dotcumulants.verify`` read the engines' int rows and build their
series over integer numerators.  On physical points off the benchmark grid,
with and without one perturbed cumulant, both paths give the same report,
or raise the same error with the same message.  A passing check builds a
bounded number of backend scalars, whatever its order.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fractionresiduals as reference
from dotcumulants import verify
from dotcumulants.errors import CumulantError
from dotcumulants.params import DelayParams, TransportParams, default_delay_exponent
from dotcumulants.rational import BACKEND, rat

DENOMINATORS = st.integers(1, 7)


@st.composite
def rationals_above(draw, floor, span):
    """A rational in (floor, floor + span] with a denominator up to 7."""
    den = draw(DENOMINATORS)
    return rat(draw(st.integers(floor * den + 1, (floor + span) * den)), den)


def outcome(check, *args, **kwargs):
    """The report's ``describe()``, or the error's type, token and message."""
    try:
        return check(*args, **kwargs).describe()
    except (CumulantError, ValueError) as exc:
        return type(exc).__name__, getattr(exc, "token", None), str(exc)


def perturbations(draw, places):
    """None, or one (place, rational) drawn from ``places``."""
    if not draw(st.booleans()):
        return None
    den = draw(DENOMINATORS)
    return draw(st.sampled_from(places)), rat(draw(st.integers(-9, 9).filter(bool)), den)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), beta=st.sampled_from([1, 2, 4]), n=st.integers(1, 8),
       order=st.integers(3, 7))
def test_conductance_ode_matches_the_rational_reference(data, beta, n, order):
    alpha = data.draw(rationals_above(-1, 3))
    delta = data.draw(rationals_above(-2, 4))
    p = TransportParams(beta, alpha, delta, n)
    perturb = perturbations(data.draw, list(range(1, order + 2)))
    assert outcome(verify.ode_residual_conductance, p, order, perturb=perturb) == outcome(
        reference.ode_residual_conductance, p, order, perturb=perturb)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), beta=st.sampled_from([1, 2, 4]), n=st.integers(1, 8),
       order=st.integers(3, 7))
def test_delay_ode_matches_the_rational_reference(data, beta, n, order):
    # b = default + r moves q by about r; r shifts q to order + 4 first (so
    # that order <= q - 4 but for a negative draw) where the default is short
    default = DelayParams(beta, n)
    r = max(0, order + 4 - default.q) + data.draw(rationals_above(-1, 4))
    p = DelayParams(beta, n, default_delay_exponent(beta, n) + r)
    perturb = perturbations(data.draw, list(range(1, order + 2)))
    assert outcome(verify.ode_residual_wigner, p, order, perturb=perturb) == outcome(
        reference.ode_residual_wigner, p, order, perturb=perturb)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), beta=st.sampled_from([1, 2, 4]), n=st.integers(1, 8),
       order_z=st.integers(0, 3), order_w=st.integers(0, 2))
def test_joint_pde_matches_the_rational_reference(data, beta, n, order_z, order_w):
    alpha = data.draw(rationals_above(-1, 3))
    delta = data.draw(rationals_above(-2, 4))
    p = TransportParams(beta, alpha, delta, n)
    cells = [(l, k) for l in range(order_z + 5) for k in range(order_w + 2)]
    perturb = perturbations(data.draw, cells)
    assert outcome(verify.pde_residual_joint, p, order_z, order_w, perturb=perturb) == outcome(
        reference.pde_residual_joint, p, order_z, order_w, perturb=perturb)


def test_a_perturbed_cell_outside_the_rectangle_is_a_key_error():
    p = TransportParams(4, 1, 0, 5)
    for cell in ((9, 0), (0, 4), (-1, 0)):
        for check in (verify.pde_residual_joint, reference.pde_residual_joint):
            with pytest.raises(KeyError):
                check(p, 4, 2, perturb=(cell, rat(1)))


#: one beta=1 and one beta=4 point of each check, at a low and a high order
COUNTED = [
    (verify.ode_residual_conductance, TransportParams(1, rat(-1, 2), 0, 8), (4,), (10,)),
    (verify.ode_residual_conductance, TransportParams(4, 1, 0, 6), (4,), (10,)),
    (verify.ode_residual_wigner, DelayParams(1, 40), (4,), (10,)),
    (verify.ode_residual_wigner, DelayParams(4, 8), (4,), (10,)),
    (verify.pde_residual_joint, TransportParams(1, rat(-1, 2), 0, 8), (4, 2), (10, 2)),
    (verify.pde_residual_joint, TransportParams(4, 1, 0, 5), (4, 2), (10, 2)),
]


@pytest.mark.skipif(BACKEND != "fractions", reason="counts fractions.Fraction constructions")
@pytest.mark.parametrize("check, p, low, high", COUNTED)
def test_a_passing_residual_builds_no_rational_per_coefficient(monkeypatch, check, p, low, high):
    """The series are assembled over integer numerators, and a zero residual
    is read off them; the few backend scalars left (a scale, the polynomial
    coefficients, the coupling factor) do not grow with the order."""
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    counts = []
    for orders in (low, high):
        before = len(built)
        assert check(p, *orders).passed
        counts.append(len(built) - before)
    assert counts[1] <= counts[0], counts
