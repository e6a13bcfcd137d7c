import ast
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dotcumulants.errors import (
    CumulantError,
    InsufficientOrderError,
    InvalidOrderError,
    QuadratureFailureError,
    UnsupportedParameterError,
)
from dotcumulants.exactmoments import exact_transport_cumulants
from dotcumulants.params import DelayParams, TransportParams
from dotcumulants.rational import parse_rational, rat
from dotcumulants.verify import (
    general_binomial,
    jacobi_identity_check,
    jacobi_polynomial_value,
    ode_residual_conductance,
    ode_residual_wigner,
    pde_residual_joint,
    quadrature_moments,
)

COE_HALF = rat(-1, 2)


def test_conductance_ode_residual_zero_all_betas():
    cases = [
        (TransportParams(2, 0, 0, 5), 8),
        (TransportParams(2, 0, 0, 8), 6),
        (TransportParams(1, COE_HALF, 0, 8), 6),
        (TransportParams(1, COE_HALF, 0, 12), 6),
        (TransportParams(4, 1, 0, 6), 6),
        (TransportParams(4, 0, 0, 7), 6),
    ]
    for p, order in cases:
        rep = ode_residual_conductance(p, order)
        assert rep.passed, (p, rep.first_nonzero_index)


def test_conductance_ode_residual_detects_fault():
    rep = ode_residual_conductance(
        TransportParams(1, COE_HALF, 0, 8), 6, perturb=(5, rat(1))
    )
    assert not rep.passed
    assert rep.first_nonzero_index <= 5


def test_joint_pde_residual_zero_all_betas():
    for p, orders in (
        (TransportParams(2, 0, 0, 4), (5, 3)),
        (TransportParams(4, 1, 0, 5), (4, 2)),
        (TransportParams(4, 0, 0, 5), (3, 2)),  # exact-moment boundary path
        (TransportParams(1, COE_HALF, 0, 8), (4, 2)),
    ):
        rep = pde_residual_joint(p, *orders)
        assert rep.passed, (p, rep.first_nonzero_index)


def test_joint_pde_degenerate_slice_matches_conductance_row():
    # with order_w = 0 the PDE residual reduces to the w^0 coefficient band,
    # which encodes the first-column identity on top of the conductance row
    rep = pde_residual_joint(TransportParams(2, 0, 0, 7), 5, 0)
    assert rep.passed


@pytest.mark.parametrize("args, orders", [
    ((4, 0, 0, 2), (5, 0)),
    ((1, COE_HALF, -1, 5), (3, 1)),
])
def test_joint_pde_residual_tables_stop_at_the_columns_it_reads(args, orders):
    # the residual reads columns k <= order_w + 1 of the table, and the
    # shifted tables only for order_w >= 1; one column more used to run the
    # boundary row two orders deeper, into a spurious pole
    # (beta=4) or boundary-unavailable (beta=1)
    assert pde_residual_joint(TransportParams(*args), *orders).passed


def test_joint_pde_residual_detects_fault():
    rep = pde_residual_joint(
        TransportParams(4, 1, 0, 5), 4, 2, perturb=((2, 1), rat(1, 1000))
    )
    assert not rep.passed


#: perturbed residual reports, (first_nonzero_index, max_abs_coefficient),
#: as the assembly on per-coefficient rationals reported them before the
#: shared series algebra
PERTURBED_REPORTS = [
    ("conductance", (1, COE_HALF, 0, 8), 6, (5, rat(1)), 4, "1475/96"),
    ("conductance", (4, 1, 0, 6), 6, (2, rat(1, 3)), 1, "336"),
    ("conductance", (2, 0, 0, 5), 8, (7, rat(-2, 5)), 6, "56/225"),
    ("delay", (1, 20), 4, (3, rat(1, 1000)), 2, "132/125"),
    ("delay", (2, 10), 6, (1, rat(3)), 0, "300"),
    ("delay", (4, 6), 4, (5, rat(-1, 7)), 4, "85/672"),
    ("joint", (4, 1, 0, 5), (4, 2), ((2, 1), rat(1, 1000)), (0, 1), "19/500"),
    ("joint", (1, COE_HALF, 0, 8), (4, 2), ((3, 0), rat(2)), (1, 0), "34"),
    ("joint", (2, 0, 0, 4), (5, 3), ((0, 4), rat(-1, 9)), (0, 3), "11/54"),
]


@pytest.mark.parametrize("which, args, order, perturb, first, worst", PERTURBED_REPORTS)
def test_perturbed_residual_reports_are_pinned(which, args, order, perturb, first, worst):
    if which == "conductance":
        rep = ode_residual_conductance(TransportParams(*args), order, perturb=perturb)
    elif which == "delay":
        rep = ode_residual_wigner(DelayParams(*args), order, perturb=perturb)
    else:
        rep = pde_residual_joint(TransportParams(*args), *order, perturb=perturb)
    assert not rep.passed
    assert rep.first_nonzero_index == first
    assert rep.max_abs_coefficient == rat(worst)
    assert rep.order_checked == order


def test_wigner_ode_residual_zero_all_betas():
    for p, order in (
        (DelayParams(2, 10), 6),
        (DelayParams(1, 20), 4),
        (DelayParams(4, 6), 4),
    ):
        rep = ode_residual_wigner(p, order)
        assert rep.passed, (p, rep.first_nonzero_index)


def test_wigner_ode_residual_detects_fault():
    rep = ode_residual_wigner(DelayParams(1, 20), 4, perturb=(3, rat(1, 1000)))
    assert not rep.passed


def test_wigner_ode_order_guard():
    with pytest.raises(InsufficientOrderError):
        ode_residual_wigner(DelayParams(2, 6), 4)


@pytest.mark.parametrize("order", [-1, 0, 1, 2])
def test_ode_residuals_reject_order_below_three(order):
    with pytest.raises(InvalidOrderError):
        ode_residual_wigner(DelayParams(1, 30), order)
    with pytest.raises(InvalidOrderError):
        ode_residual_conductance(TransportParams(1, COE_HALF, 0, 8), order)


def test_ode_residuals_lowest_order():
    assert ode_residual_wigner(DelayParams(1, 30), 3).passed
    assert ode_residual_conductance(TransportParams(1, COE_HALF, 0, 8), 3).passed


def test_quadrature_oracle_uniform():
    kappa, _ = quadrature_moments(TransportParams(2, 0, 0, 1), "G", 2)
    assert abs(kappa[1] - 0.5) < 1e-12
    assert abs(kappa[2] - 1 / 12) < 1e-12
    kp, _ = quadrature_moments(TransportParams(2, 0, 0, 1), "P", 1)
    assert abs(kp[1] - 1 / 6) < 1e-12


def test_quadrature_oracle_symmetry_type_c():
    # beta=4, delta=2 is the superconducting type-C weight
    p = TransportParams(4, 0, 2, 2)
    from dotcumulants.conductance import conductance_initial

    kappa, _ = quadrature_moments(p, "G", 1)
    exact = float(conductance_initial(p)[0])
    assert abs(kappa[1] - exact) <= 1e-8 * exact


def test_quadrature_oracle_matches_exact_moments():
    # two independent oracles agree: float quadrature vs symbolic expansion
    # at alpha = delta/2 the weight is symmetric under T -> 1-T, so the odd
    # conductance-direction cumulants are exactly zero; the comparison needs
    # an absolute floor there
    p = TransportParams(2, 0, 0, 3)
    kappa, _ = quadrature_moments(p, "mixed", 3)
    exact = exact_transport_cumulants(p, 3, 3)
    for lk, val in kappa.items():
        if lk == (0, 0):
            continue
        target = float(exact[lk])
        assert abs(val - target) <= 1e-8 * abs(target) + 1e-12


#: SHA-256 of the records of ``quadrature_moments`` over beta in {1,2,4},
#: alpha in {-1/2, 0, 1}, delta in {-1, 0, 2}, n in {1,2}, every statistic
#: and max order 1 and 3: the keys in order, the values and the error
#: estimates bit for bit, and any failure as token and message
QUADRATURE_PROBE_SHA256 = "2ff796082eeeda1d6fff85222108336fe52d854184661229209a4adfd45fd1cc"


def test_quadrature_probe_matches_its_pinned_digest():
    digest = hashlib.sha256()
    records = 0
    for beta in (1, 2, 4):
        for alpha in ("-1/2", "0", "1"):
            for delta in ("-1", "0", "2"):
                for n in (1, 2):
                    for statistic in ("G", "P", "mixed"):
                        for order in (1, 3):
                            head = (beta, alpha, delta, n, statistic, order)
                            p = TransportParams(
                                beta, parse_rational(alpha), parse_rational(delta), n
                            )
                            try:
                                kappa, err = quadrature_moments(p, statistic, order)
                                record = (
                                    head,
                                    [(repr(key), v.hex()) for key, v in kappa.items()],
                                    err.hex(),
                                )
                            except CumulantError as exc:
                                record = (head, exc.token, str(exc))
                            digest.update((repr(record) + "\n").encode())
                            records += 1
    assert records == 324
    assert digest.hexdigest() == QUADRATURE_PROBE_SHA256


def test_quadrature_keys_follow_the_statistic():
    p = TransportParams(2, 0, 0, 2)
    assert list(quadrature_moments(p, "G", 3)[0]) == [1, 2, 3]
    assert list(quadrature_moments(p, "P", 3)[0]) == [1, 2, 3]
    assert list(quadrature_moments(p, "mixed", 2)[0]) == [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    with pytest.raises(ValueError, match="unknown statistic"):
        quadrature_moments(p, "Q", 2)


def test_quadrature_capped_at_three_channels():
    with pytest.raises(UnsupportedParameterError):
        quadrature_moments(TransportParams(2, 0, 0, 4), "G", 2)


def test_jacobi_polynomial_hand_value():
    # P_1^{(1,-3/2)}(-3) = -1, making both sides of the identity -1 at l=k=1
    assert jacobi_polynomial_value(1, 1, rat(-3, 2), -3) == -1
    lhs = sum(
        math.comb(2 * j + 2, j + 1) * math.comb(1, j) * rat(-1, 2) ** j
        for j in range(2)
    )
    assert lhs == -1


def test_jacobi_identity_k_zero_reduces_to_central_binomial():
    for l in range(0, 7):
        rhs = rat(math.factorial(2 * l), math.factorial(l) ** 2)
        lhs = (
            rat(math.factorial(2 * l) * 1, math.factorial(l) * math.factorial(l))
            * jacobi_polynomial_value(0, l, rat(-1, 2), -3)
        )
        assert lhs == rhs == math.comb(2 * l, l)


def test_jacobi_identity_grid():
    rep = jacobi_identity_check(8, 8)
    assert rep["ok"], rep["first_failure"]


def test_general_binomial():
    assert general_binomial(rat(-1, 2), 2) == rat(3, 8)
    assert general_binomial(5, 2) == 10
    assert general_binomial(rat(7, 3), 0) == 1
    assert general_binomial(rat(1, 2), -1) == 0


def test_adaptive_quadrature_reports_achieved_bound():
    from dotcumulants.quadrature import _adaptive

    calls = {"i": 0}

    def never_converges(size):
        calls["i"] += 1
        return [1.0 if calls["i"] % 2 else 2.0]

    with pytest.raises(QuadratureFailureError) as err:
        _adaptive(never_converges, 1e-10, "synthetic")
    assert err.value.achieved is not None and err.value.achieved > 0.1


# -- oracle independence ----------------------------------------------------------------

#: the engines' reduced-moment machinery and their private constants and
#: steps, which an oracle must not reuse: each residual keeps its own
#: transcription of its equation
ENGINE_NAMES = {
    "bell_transform", "_reduced_walk", "_joint_reduced_moments",
    "_dimension_constants", "_initial_row", "_leading", "_second_difference",
    "_conductance_weights", "_delay_weights", "_paired",
}


def loaded_by(imports, candidates):
    """The modules of ``dotcumulants`` among ``candidates`` that a fresh
    interpreter has loaded after importing ``imports``."""
    script = (
        "import sys\n"
        + "".join(f"import dotcumulants.{m}\n" for m in imports)
        + f"print(sorted(m for m in {tuple(candidates)!r} if 'dotcumulants.' + m in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_exact_moment_oracle_loads_no_engine():
    assert loaded_by(["exactmoments"], ["conductance", "jointcsn", "wigner"]) == "[]"


def test_engines_load_no_series_algebra():
    engines = ["conductance", "jointcsn", "wigner"]
    assert loaded_by(engines, ["series", "doubleseries"]) == "[]"


@pytest.mark.parametrize("module", ["doubleseries.py", "exactmoments.py", "verify.py"])
def test_oracles_never_name_the_engine_bell_machinery(module):
    path = Path(__file__).resolve().parents[1] / "src" / "dotcumulants" / module
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname})
    assert not names & ENGINE_NAMES
