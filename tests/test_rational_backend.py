import json
import os
import subprocess
import sys

from dotcumulants.rational import (
    BACKEND,
    floor_rational,
    is_integral,
    parse_rational,
    rat,
    rational_str,
)


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
