import pytest

from dotcumulants.params import DelayParams, TransportParams, default_delay_exponent
from dotcumulants.rational import rat


def test_transport_params_validation():
    with pytest.raises(ValueError):
        TransportParams(3, 0, 0, 4)
    with pytest.raises(ValueError):
        TransportParams(2, -1, 0, 4)
    with pytest.raises(ValueError):
        TransportParams(2, 0, -2, 4)
    with pytest.raises(ValueError):
        TransportParams(2, 0, 0, 0)
    # bool is an int, and equals 1: a boolean beta or n is refused all the same
    with pytest.raises(ValueError, match="beta"):
        TransportParams(True, 0, 0, 4)
    with pytest.raises(ValueError, match="n must be"):
        TransportParams(1, 0, 0, True)
    with pytest.raises(ValueError):
        TransportParams(True, 0, 0, True)


def test_transport_derived_quantities():
    p1 = TransportParams(1, rat(-1, 2), 0, 6)
    p2 = TransportParams(2, 0, 0, 6)
    p4 = TransportParams(4, 1, 0, 6)
    assert (p1.eta14, p2.eta14, p4.eta14) == (1, 1, 4)
    assert (p1.i_shift, p2.i_shift, p4.i_shift) == (2, None, 1)
    assert p1.shifted(-1).n == 4 and p4.shifted(2).n == 8
    with pytest.raises(ValueError):
        p2.shifted(1)
    assert p1.extended_validity is False
    assert TransportParams(1, 0, 0, 7).extended_validity is True


def test_delay_params_defaults_and_q():
    p = DelayParams(2, 5)
    assert p.b == default_delay_exponent(2, 5) == 3 * 2 * 5 // 2 + 2 - 2
    assert p.omega == 5 and p.q == 5
    odd = DelayParams(1, 7)
    assert odd.b == rat(23, 2)
    assert odd.omega == rat(7, 2) and odd.q == 3
    custom = DelayParams(1, 7, b=rat(21, 2))
    assert custom.omega == rat(5, 2) and custom.q == 2
    assert not custom.has_default_b
    shifted = custom.shifted(1)
    assert shifted.n == 9 and shifted.b == custom.b


def test_delay_params_validation():
    with pytest.raises(ValueError):
        DelayParams(3, 5)
    with pytest.raises(ValueError):
        DelayParams(2, 0)
    with pytest.raises(ValueError, match="beta"):
        DelayParams(True, 20)
    with pytest.raises(ValueError, match="n must be"):
        DelayParams(1, True)
    # omega = b - 2 - beta*(n-1) <= -1: the weight z^omega e^(-z) cannot be normalised
    for beta, n, b in ((2, 10, rat(1, 2)), (2, 3, 1), (1, 1, 1), (4, 2, 5), (1, 20, rat(39, 2))):
        with pytest.raises(ValueError, match="integrable"):
            DelayParams(beta, n, b)
    # just above the edge the record is valid, with no finite cumulant
    edge = DelayParams(1, 1, rat(11, 10))
    assert edge.omega == rat(-9, 10) and edge.q == -1
