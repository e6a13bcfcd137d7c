"""Command-line surface: every module behind reproducible, serializable runs.

Exit codes: 0 success, 1 computation error (the module's error token is
printed verbatim), 2 usage error.  Exact results are JSON (rationals as
"p/q" strings with advisory floats); CSV is reserved for plot data.

Importing this module loads only the standard library and ``errors``: each
verb imports its own layer inside its handler, so a command pays for the
modules it runs and no others.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
from itertools import islice

from .errors import CumulantError, ExcludedIndexError, UnsupportedParameterError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports argparse's own errors (an unknown flag, a missing required
    flag, a bad choice or type) as a usage error; its subparsers inherit it."""

    def error(self, message):
        raise _UsageError(message)


@contextlib.contextmanager
def _parsing(what):
    """Reports a value that fails to parse or to validate as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(f"invalid {what}: {exc}") from None
    except ZeroDivisionError:
        raise _UsageError(f"invalid {what}: a rational with zero denominator") from None


@contextlib.contextmanager
def _file_access(what):
    """Reports an OSError on the ``--config`` or ``--out`` file as a usage error."""
    try:
        yield
    except OSError as exc:
        raise _UsageError(f"cannot {what}: {exc.strerror}") from None


def _positive(flag, value):
    """A dimension or weight that must be finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise _UsageError(f"invalid {flag}: must be finite and > 0, got {value}")
    return value


def _nonnegative(flag, value):
    """An order or index bound that must be >= 0."""
    if value < 0:
        raise _UsageError(f"invalid {flag}: must be >= 0, got {value}")
    return value


def _int_list(flag, text):
    with _parsing(flag):
        return [int(x) for x in text.split(",")]


def _load_config(ns):
    merged = {}
    if getattr(ns, "config", None):
        try:
            with _file_access(f"read --config {ns.config}"), open(ns.config) as handle:
                document = json.load(handle)
        except ValueError as exc:
            raise _UsageError(f"--config {ns.config} is not valid JSON: {exc}") from None
        if not isinstance(document, dict):
            raise _UsageError(f"--config {ns.config} must hold a JSON object")
        merged.update(document)
    for field in ("beta", "alpha", "delta", "n", "b"):
        value = getattr(ns, field, None)
        if value is not None:
            merged[field] = value
    return merged


def _require(cfg, field):
    if field not in cfg or cfg[field] is None:
        raise _UsageError(f"missing parameter --{field} (flag or config document)")
    return cfg[field]


def _integer(field, value):
    """beta or n: an int or an integer string; a float or a boolean is
    refused, not truncated or read as 1."""
    if type(value) not in (int, str):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _transport_params(ns, default_n=None):
    from .params import TransportParams
    from .rational import parse_rational

    cfg = _load_config(ns)
    n = cfg.get("n", default_n)
    if n is None:
        raise _UsageError("missing parameter --n (flag or config document)")
    beta = _require(cfg, "beta")
    with _parsing("parameters"):
        return TransportParams(
            beta=_integer("beta", beta),
            alpha=parse_rational(cfg.get("alpha", 0)),
            delta=parse_rational(cfg.get("delta", 0)),
            n=_integer("n", n),
        )


def _delay_params(ns):
    from .params import DelayParams
    from .rational import parse_rational

    cfg = _load_config(ns)
    beta, n, b = _require(cfg, "beta"), _require(cfg, "n"), cfg.get("b")
    with _parsing("parameters"):
        return DelayParams(
            beta=_integer("beta", beta),
            n=_integer("n", n),
            b=parse_rational(b) if b is not None else None,
        )


def _emit_json(ns, payload, params_desc, argv):
    from .manifest import atomic_write_text, attach_checksum, build_manifest

    manifest = attach_checksum(build_manifest(argv, params_desc), payload)
    document = {"payload": payload, "manifest": manifest}
    text = json.dumps(document, indent=2) + "\n"
    if getattr(ns, "out", None):
        with _file_access(f"write --out {ns.out}"):
            atomic_write_text(ns.out, text)
    else:
        sys.stdout.write(text)


#: rows per CSV block: each block is written and hashed before the next is
#: drawn, so emission holds one block of text, not the payload
_CSV_BLOCK_ROWS = 4096


def _csv_blocks(header, rows):
    """The CSV text of the header and rows, one block of rows at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    rows = iter(rows)
    while True:
        writer.writerows(islice(rows, _CSV_BLOCK_ROWS))
        block = buf.getvalue()
        if not block:
            return
        yield block
        buf.seek(0)
        buf.truncate()


def _emit_csv(ns, header, rows, params_desc, argv):
    """Streams the CSV of any iterable of rows; with ``--out``, into the file
    and the payload checksum of its ``.manifest.json`` sidecar."""
    blocks = _csv_blocks(header, rows)
    if not getattr(ns, "out", None):
        sys.stdout.writelines(blocks)
        return
    from .manifest import TextChecksum, atomic_write_text, atomic_writer, build_manifest

    checksum = TextChecksum()
    with _file_access(f"write --out {ns.out}"):
        with atomic_writer(ns.out) as handle:
            for block in blocks:
                checksum.update(block)
                handle.write(block)
        manifest = dict(build_manifest(argv, params_desc), payload_sha256=checksum.hexdigest())
        atomic_write_text(ns.out + ".manifest.json", json.dumps(manifest, indent=2) + "\n")


def _rationals_payload(values):
    from .rational import rational_str

    return {
        "values": [rational_str(v) for v in values],
        "floats": [float(v) for v in values],
    }


# -- cumulants ----------------------------------------------------------------------


def _cmd_cumulants_conductance(ns, argv):
    from .conductance import conductance_cumulants
    from .rational import rational_str

    p = _transport_params(ns)
    seq = conductance_cumulants(p, ns.max_order)
    payload = {
        "params": p.describe(),
        "orders": list(range(1, ns.max_order + 1)),
        **_rationals_payload(seq.values),
        "lattice_radius": seq.lattice_radius,
        "extended_validity": p.extended_validity,
    }
    if ns.format == "csv":
        rows = [
            (l, rational_str(v), float(v))
            for l, v in zip(payload["orders"], seq.values)
        ]
        _emit_csv(ns, ("order", "value", "float"), rows, p.describe(), argv)
    else:
        _emit_json(ns, payload, p.describe(), argv)
    return 0


def _cmd_cumulants_joint(ns, argv):
    from .jointcsn import joint_cumulants
    from .rational import rational_str

    p = _transport_params(ns)
    table = joint_cumulants(p, ns.max_l, ns.max_k)
    cells = [
        {
            "l": l,
            "k": k,
            "value": rational_str(table[(l, k)]),
            "float": float(table[(l, k)]),
        }
        for l in range(ns.max_l + 1)
        for k in range(ns.max_k + 1)
        if (l, k) != (0, 0)
    ]
    payload = {
        "params": p.describe(),
        "max_l": ns.max_l,
        "max_k": ns.max_k,
        "cumulants": cells,
        "extended_validity": p.extended_validity,
    }
    _emit_json(ns, payload, p.describe(), argv)
    return 0


def _cmd_cumulants_wigner(ns, argv):
    from .rational import rational_str
    from .wigner import wigner_cumulants

    p = _delay_params(ns)
    res = wigner_cumulants(p, ns.max_order)
    payload = {
        "params": p.describe(),
        "q": p.q,
        "orders": list(range(1, ns.max_order + 1)),
        **_rationals_payload(res.values),
        "lattice_note": [
            {"n": dim, "b": rational_str(b)} for dim, b in res.lattice_note
        ],
    }
    _emit_json(ns, payload, p.describe(), argv)
    return 0


# -- asymptotic ----------------------------------------------------------------------


def _cmd_asymptotic(ns, argv):
    from .asymptotics import limit_joint, limit_wigner, scaling_exponent
    from .rational import rational_str

    kind = ns.kind
    _nonnegative("--max-index", ns.max_index)
    if kind == "wigner":
        lim = limit_wigner(ns.max_index)
        payload = {
            "kind": "wigner",
            "beta": 2,
            "values": {
                str(l): rational_str(lim.values[l]) for l in sorted(lim.values)
            },
            "scaling_exponent": lim.scaling_exponent,
        }
        _emit_json(ns, payload, {"beta": 2}, argv)
        return 0
    # the limits do not depend on n; any valid dimension works for the record
    p = _transport_params(ns, default_n=8)
    # conductance is the k=0 column of the joint table, walked the same way
    joint = kind == "joint"
    values, scaling = {}, {}
    for l in range(0, ns.max_index + 1):
        for k in range(0, ns.max_index + 1 - l if joint else 1):
            try:
                value = limit_joint(p, l, k)
            except ExcludedIndexError:
                continue
            key = f"{l},{k}" if joint else l
            values[str(key)] = value
            scaling[key] = scaling_exponent(kind, l, k)
    payload = {
        "kind": kind,
        "params": p.describe(),
        "values": {key: rational_str(v) for key, v in values.items()},
        "floats": {key: float(v) for key, v in values.items()},
        "scaling_exponent": scaling,
    }
    _emit_json(ns, payload, p.describe(), argv)
    return 0


#: the keys each extrapolation target kind takes: its parameters, then the
#: cumulant indices, all of which it needs
_TARGET_KEYS = {
    "wigner": ("beta", "l"),
    "conductance": ("beta", "alpha", "delta", "l"),
    "joint": ("beta", "alpha", "delta", "l", "k"),
}
_INDEX_KEYS = ("l", "k")


def _parse_target(spec, n_list):
    """Kind, cumulant indices (l, k) and one parameter record per n of a
    target such as "joint:beta=1,alpha=-1/2,l=2,k=1"; a conductance target
    is the (l, 0) entry of the joint table, and a wigner target has k = 0."""
    from .params import DelayParams, TransportParams
    from .rational import parse_rational

    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind not in _TARGET_KEYS:
        raise _UsageError(f"unknown extrapolation target kind {kind!r}")
    known, fields = _TARGET_KEYS[kind], {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in known:
                raise _UsageError(f"--target {kind} takes no key {key!r} "
                                  f"(it takes {', '.join(known)})")
            if key in fields:
                raise _UsageError(f"--target repeats the key {key!r}")
            fields[key] = value.strip()
    missing = [key for key in known if key in _INDEX_KEYS and key not in fields]
    if missing:
        raise _UsageError(f"--target {kind} needs {missing[0]}=<index>")
    with _parsing("--target"):
        indices = tuple(int(fields.get(key, 0)) for key in _INDEX_KEYS)
        beta = int(fields.get("beta", 2))
        if kind == "wigner":
            params = [DelayParams(beta, n) for n in n_list]
        else:
            alpha = parse_rational(fields.get("alpha", 0))
            delta = parse_rational(fields.get("delta", 0))
            params = [TransportParams(beta, alpha, delta, n) for n in n_list]
    return kind, indices, params


def _cmd_asymptotic_extrapolate(ns, argv):
    from .asymptotics import check_index, extrapolate_limit, scaling_exponent

    n_list = _int_list("--n-list", ns.n_list)
    kind, (l, k), params = _parse_target(ns.target, n_list)
    if kind == "wigner":
        from .wigner import wigner_cumulants

        samples = [(p.n, wigner_cumulants(p, l)[l]) for p in params]
    else:
        check_index(l, k)  # a negative or mean- or variance-type index has no limit
        from .jointcsn import joint_cumulants

        samples = [(p.n, joint_cumulants(p, l, k)[(l, k)]) for p in params]
    nu = scaling_exponent(kind, l, k)
    estimate, error_bar = extrapolate_limit(samples, nu)
    payload = {
        "target": ns.target,
        "n_list": n_list,
        "scaling_exponent": nu,
        "estimate": estimate,
        "error_bar": error_bar,
    }
    _emit_json(ns, payload, {"target": ns.target}, argv)
    return 0


# -- verify -------------------------------------------------------------------------


def _cmd_verify_ode(ns, argv):
    from .verify import ode_residual_conductance, ode_residual_wigner, pde_residual_joint

    if ns.which == "joint":
        if ns.order_z is None or ns.order_w is None:
            raise _UsageError("--order-z and --order-w are required for --which joint")
        p = _transport_params(ns)
        rep = pde_residual_joint(p, ns.order_z, ns.order_w)
    else:
        if ns.order is None:
            raise _UsageError(f"--order is required for --which {ns.which}")
        if ns.which == "conductance":
            p = _transport_params(ns)
            rep = ode_residual_conductance(p, ns.order)
        else:
            p = _delay_params(ns)
            rep = ode_residual_wigner(p, ns.order)
    _emit_json(ns, rep.describe(), rep.params, argv)
    return 0 if rep.passed else 1


def _cmd_verify_chazy(ns, argv):
    from .rational import rational_str
    from .wigner import chazy_residual

    res = chazy_residual(_positive("--n", ns.n), _positive("--order", ns.order))
    coefficients = res.taylor()
    payload = {
        "equation": "chazy-first-integral",
        "n": ns.n,
        "order_checked": ns.order,
        "coefficients": [rational_str(c) for c in coefficients],
        "passed": res.is_zero(),
        "first_nonzero_index": next((l for l, c in enumerate(coefficients) if c), None),
    }
    _emit_json(ns, payload, {"n": ns.n, "beta": 2}, argv)
    return 0 if res.is_zero() else 1


def _cmd_verify_jacobi(ns, argv):
    from .verify import jacobi_identity_check

    rep = jacobi_identity_check(_nonnegative("--lmax", ns.lmax), _nonnegative("--kmax", ns.kmax))
    _emit_json(ns, rep, {"lmax": ns.lmax, "kmax": ns.kmax}, argv)
    return 0 if rep["ok"] else 1


def _cmd_verify_oracle(ns, argv):
    from .jointcsn import joint_cumulants
    from .verify import quadrature_moments, statistic_cells

    def fmt(key):
        return f"{key[0]},{key[1]}" if isinstance(key, tuple) else str(key)

    p = _transport_params(ns)
    kappa, err = quadrature_moments(p, ns.statistic, ns.max_order)
    (L, K), cells = statistic_cells(ns.statistic, ns.max_order)
    try:
        table = joint_cumulants(p, L, K)
        reference = {fmt(key): float(table[lk]) for lk, key in cells}
    except CumulantError:
        reference = {}  # recurrence degenerate here; the oracle still reports
    payload = {
        "params": p.describe(),
        "statistic": ns.statistic,
        "cumulants": {fmt(key): val for key, val in kappa.items()},
        "quadrature_error": err,
        "recurrence_reference": reference,
    }
    _emit_json(ns, payload, p.describe(), argv)
    return 0


def _cmd_verify_altland(ns, argv):
    from .jointcsn import altland_identity_check
    from .rational import rational_str

    rep = altland_identity_check(_positive("--n", ns.n), ns.max_k)
    payload = {
        "n": rep["n"],
        "n1": rep["n1"],
        "n2": rep["n2"],
        "ok": rep["ok"],
        "first_failure": rep["first_failure"],
        "rows": [
            {
                "k": row["k"],
                "lhs": rational_str(row["lhs"]),
                "rhs": rational_str(row["rhs"]),
                "equal": row["equal"],
            }
            for row in rep["rows"]
        ],
    }
    _emit_json(ns, payload, {"n": ns.n, "max_k": ns.max_k}, argv)
    return 0 if rep["ok"] else 1


def _cmd_verify_gauss_factor(ns, argv):
    from .jointcsn import gaussian_factorization_check

    rep = gaussian_factorization_check(_positive("--n", ns.n), _positive("--w", ns.w))
    _emit_json(ns, rep, {"n": ns.n, "w": ns.w}, argv)
    return 0 if rep["ok"] else 1


# -- mc -----------------------------------------------------------------------------


def _cmd_mc_sample(ns, argv):
    from .montecarlo import sample_delay_times, sample_jacobi_spectrum

    _nonnegative("--seed", ns.seed)
    if ns.statistic == "tauW":
        p = _delay_params(ns)
        batch = sample_delay_times(p, ns.count, ns.seed)
    else:
        p = _transport_params(ns)
        pair = sample_jacobi_spectrum(p, ns.count, ns.seed)
        batch = pair.g if ns.statistic == "G" else pair.p
    desc = dict(p.describe())
    desc.update({"statistic": ns.statistic, "count": ns.count, "seed": ns.seed})
    _emit_csv(ns, ("index", "value"), enumerate(map(repr, batch.values)), desc, argv)
    return 0


#: most ``mc edgeworth --grid`` steps.  A step costs 7-9 us (its four CSV
#: fields dominate; 2-core VM), so the largest grid adds under 2 s to the
#: command, and each of its float arrays (grid, density, histogram and the
#: density's temporaries) holds 1.6 MB
EDGEWORTH_MAX_STEPS = 200_000


def _cmd_mc_edgeworth(ns, argv):
    p = _delay_params(ns)
    _nonnegative("--seed", ns.seed)
    with _parsing("--grid (lo:hi:steps)"):
        lo, hi, steps = ns.grid.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi and steps >= 2):
        raise _UsageError("--grid needs finite lo < hi and at least 2 steps")
    if steps > EDGEWORTH_MAX_STEPS:
        raise UnsupportedParameterError(
            f"--grid has {steps} steps; mc edgeworth takes at most {EDGEWORTH_MAX_STEPS}"
        )
    import numpy as np

    from .montecarlo import edgeworth_density, sample_delay_times
    from .wigner import wigner_cumulants

    grid = np.linspace(lo, hi, steps)
    # the density needs K_1..K_5: below q = 5 this raises
    # nonexistent-cumulant before any sampling
    K = [float(v) for v in wigner_cumulants(p, 5).values]
    ew = edgeworth_density(K, grid)
    mean, sd = K[0], math.sqrt(K[1])
    gauss = np.exp(-(((grid - mean) / sd) ** 2) / 2) / (sd * math.sqrt(2 * math.pi))
    batch = sample_delay_times(p, ns.count, ns.seed)
    hist, edges = np.histogram(
        batch.values, bins=len(grid) - 1, range=(grid[0], grid[-1]), density=True
    )
    hist_on_grid = np.append(hist, hist[-1])
    rows = (
        (repr(x), repr(e), repr(g), repr(h))
        for x, e, g, h in zip(grid, ew, gauss, hist_on_grid)
    )
    desc = dict(p.describe())
    desc.update({"count": ns.count, "seed": ns.seed, "grid": ns.grid})
    _emit_csv(
        ns, ("x", "edgeworth", "gaussian", "histogram_density"), rows, desc, argv
    )
    return 0


# -- report --------------------------------------------------------------------------


def _cmd_report_table2(ns, argv):
    from .report import TABLE2_TARGETS, limiting_delay_table

    n_list = (
        tuple(_int_list("--n-list", ns.n_list))
        if ns.n_list is not None
        else (64, 96, 128, 192, 256)
    )
    if min(n_list) < 1:
        raise _UsageError(f"invalid --n-list: every n must be >= 1, got {min(n_list)}")
    top = len(TABLE2_TARGETS[1])
    if not 1 <= ns.max_order <= top:
        raise _UsageError(f"invalid --max-order: must be in 1..{top}, got {ns.max_order}")
    table = limiting_delay_table(max_order=ns.max_order, n_list=n_list)
    _emit_json(ns, table, {"n_list": list(n_list)}, argv)
    return 0


# -- parser ---------------------------------------------------------------------------


def _add_transport_flags(sp, need_n=True):
    sp.add_argument("--beta", type=int)
    sp.add_argument("--alpha", type=str)
    sp.add_argument("--delta", type=str)
    if need_n:
        sp.add_argument("--n", type=int)
    sp.add_argument("--config", type=str, help="JSON parameter document")


def _add_out_flags(sp, with_format=False):
    sp.add_argument("--out", type=str)
    if with_format:
        sp.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser():
    parser = _Parser(
        prog="dotcumulants",
        description="Transport cumulants of ballistic chaotic cavities",
    )
    top = parser.add_subparsers(dest="command", required=True)

    cum = top.add_parser("cumulants", help="exact finite-n cumulants")
    cum_sub = cum.add_subparsers(dest="subcommand", required=True)

    sp = cum_sub.add_parser("conductance")
    _add_transport_flags(sp)
    sp.add_argument("--max-order", type=int, required=True)
    _add_out_flags(sp, with_format=True)
    sp.set_defaults(func=_cmd_cumulants_conductance)

    sp = cum_sub.add_parser("joint")
    _add_transport_flags(sp)
    sp.add_argument("--max-l", type=int, required=True)
    sp.add_argument("--max-k", type=int, required=True)
    _add_out_flags(sp)
    sp.set_defaults(func=_cmd_cumulants_joint)

    sp = cum_sub.add_parser("wigner")
    sp.add_argument("--beta", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--b", type=str)
    sp.add_argument("--config", type=str)
    sp.add_argument("--max-order", type=int, required=True)
    _add_out_flags(sp)
    sp.set_defaults(func=_cmd_cumulants_wigner)

    asym = top.add_parser("asymptotic", help="leading-order limits")
    asym_sub = asym.add_subparsers(dest="subcommand", required=True)
    for kind in ("conductance", "joint", "wigner"):
        sp = asym_sub.add_parser(kind)
        if kind != "wigner":  # the beta=2 delay limit has no parameters
            _add_transport_flags(sp, need_n=False)
        sp.add_argument("--max-index", type=int, required=True)
        sp.set_defaults(func=_cmd_asymptotic, kind=kind, n=None)
        _add_out_flags(sp)
    sp = asym_sub.add_parser("extrapolate")
    sp.add_argument("--n-list", type=str, required=True)
    sp.add_argument("--target", type=str, required=True,
                    help='e.g. "wigner:beta=1,l=3" or "joint:beta=1,alpha=-1/2,l=2,k=1"')
    _add_out_flags(sp)
    sp.set_defaults(func=_cmd_asymptotic_extrapolate)

    ver = top.add_parser("verify", help="independent oracles and residuals")
    ver_sub = ver.add_subparsers(dest="subcommand", required=True)

    sp = ver_sub.add_parser("ode")
    sp.add_argument("--which", choices=("conductance", "joint", "wigner"),
                    required=True)
    _add_transport_flags(sp)
    sp.add_argument("--b", type=str)
    sp.add_argument("--order", type=int)
    sp.add_argument("--order-z", type=int)
    sp.add_argument("--order-w", type=int)
    _add_out_flags(sp)
    sp.set_defaults(func=_cmd_verify_ode)

    sp = ver_sub.add_parser("chazy")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--order", type=int, required=True)
    _add_out_flags(sp)
    sp.set_defaults(func=_cmd_verify_chazy)

    sp = ver_sub.add_parser("jacobi")
    sp.add_argument("--lmax", type=int, required=True)
    sp.add_argument("--kmax", type=int, required=True)
    _add_out_flags(sp)
    sp.set_defaults(func=_cmd_verify_jacobi)

    sp = ver_sub.add_parser("oracle")
    _add_transport_flags(sp)
    sp.add_argument("--statistic", choices=("G", "P", "mixed"), default="G")
    sp.add_argument("--max-order", type=int, default=3)
    _add_out_flags(sp)
    sp.set_defaults(func=_cmd_verify_oracle)

    sp = ver_sub.add_parser("altland")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-k", type=int, required=True)
    _add_out_flags(sp)
    sp.set_defaults(func=_cmd_verify_altland)

    sp = ver_sub.add_parser("gauss-factor")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--w", type=float, required=True)
    _add_out_flags(sp)
    sp.set_defaults(func=_cmd_verify_gauss_factor)

    mc = top.add_parser("mc", help="Monte Carlo sampling and density data")
    mc_sub = mc.add_subparsers(dest="subcommand", required=True)

    sp = mc_sub.add_parser("sample")
    sp.add_argument("--statistic", choices=("tauW", "G", "P"), required=True)
    _add_transport_flags(sp)
    sp.add_argument("--b", type=str)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    _add_out_flags(sp)
    sp.set_defaults(func=_cmd_mc_sample)

    sp = mc_sub.add_parser("edgeworth")
    sp.add_argument("--beta", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--b", type=str)
    sp.add_argument("--config", type=str)
    sp.add_argument("--grid", type=str, required=True, help="lo:hi:steps")
    sp.add_argument("--count", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=1)
    _add_out_flags(sp)
    sp.set_defaults(func=_cmd_mc_edgeworth)

    rep = top.add_parser("report", help="derived documents")
    rep_sub = rep.add_subparsers(dest="subcommand", required=True)
    sp = rep_sub.add_parser("table2")
    sp.add_argument("--n-list", type=str)
    sp.add_argument("--max-order", type=int, default=8)
    _add_out_flags(sp)
    sp.set_defaults(func=_cmd_report_table2)

    return parser


def dispatch(argv):
    parser = build_parser()
    try:
        try:
            ns = parser.parse_args(argv)
        except SystemExit as exc:  # -h/--help printed its text
            return exc.code
        return ns.func(ns, argv)
    except CumulantError as exc:
        sys.stderr.write(f"error: {exc.token}: {exc}\n")
        return 1
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
