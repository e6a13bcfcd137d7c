"""Property tests of the one index rule of the leading-order limits.

The ``asymptotic conductance`` and ``asymptotic joint`` commands exit 1 with
``unsupported-beta`` exactly when beta = 2, whatever ``--max-index``, and
exit 0 otherwise.  Each limit function of ``asymptotics``, and each
bound-taking cross-check path (``iterate_limit_conductance``,
``iterate_limit_joint``, ``staircase_sum``), answers a negative index or
bound with a ``CumulantError``, never a value, a ``ValueError`` or a
``KeyError``.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from dotcumulants import asymptotics as asy
from dotcumulants.cli import dispatch
from dotcumulants.errors import CumulantError
from dotcumulants.params import TransportParams
from dotcumulants.rational import parse_rational

#: weight exponents valid for every beta
ALPHAS = ("-1/2", "0", "3/2")
DELTAS = ("-1", "0", "2")


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["conductance", "joint"]),
    beta=st.sampled_from([1, 2, 4]),
    max_index=st.integers(0, 12),
    alpha=st.sampled_from(ALPHAS),
    delta=st.sampled_from(DELTAS),
)
def test_asymptotic_commands_refuse_exactly_beta2(kind, beta, max_index, alpha, delta):
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "out.json")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = dispatch(["asymptotic", kind, f"--beta={beta}", f"--alpha={alpha}",
                             f"--delta={delta}", f"--max-index={max_index}", f"--out={out}"])
        if beta == 2:
            assert code == 1
            assert err.getvalue().startswith("error: unsupported-beta: ")
            assert os.listdir(scratch) == []
        else:
            assert code == 0, err.getvalue()
            assert os.listdir(scratch) == ["out.json"]


#: functions of one index or bound l, and whether they take the parameters
ONE_INDEX = {"limit_conductance": True, "iterate_limit_conductance": True, "limit_wigner": False}
#: functions of (l, k) that take no parameters
NO_PARAMS = ("iterate_limit_joint", "staircase_sum")


def _call(name, p, l, k):
    fn = getattr(asy, name)
    if name in ONE_INDEX:
        return fn(p, l) if ONE_INDEX[name] else fn(l)
    return fn(l, k) if name in NO_PARAMS else fn(p, l, k)


@st.composite
def negative_index_call(draw):
    name = draw(st.sampled_from(
        ["limit_conductance", "limit_joint", "joint_limit_from_iteration", "limit_wigner",
         "iterate_limit_conductance", "iterate_limit_joint", "staircase_sum"]
    ))
    alpha, delta = (parse_rational(draw(st.sampled_from(v))) for v in (ALPHAS, DELTAS))
    p = TransportParams(draw(st.sampled_from([1, 2, 4])), alpha, delta, draw(st.integers(1, 8)))
    l = draw(st.integers(-12, 12))
    k = draw(st.integers(-12, 12))
    if name in ONE_INDEX or draw(st.booleans()):
        l = -draw(st.integers(1, 12))
    elif k >= 0:
        k = -draw(st.integers(1, 12))
    return name, p, l, k


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(negative_index_call())
def test_negative_indices_are_cumulant_errors(call):
    name, p, l, k = call
    try:
        value = _call(name, p, l, k)
    except CumulantError:
        return
    except Exception as exc:  # a ValueError or KeyError breaks the contract
        raise AssertionError(f"{name}{(p, l, k)} raised {exc!r}") from exc
    raise AssertionError(f"{name}{(p, l, k)} returned {value!r}")
