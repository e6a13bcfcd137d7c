import argparse
import ast
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from dotcumulants import cli
from dotcumulants.cli import dispatch
from dotcumulants.params import TransportParams
from dotcumulants.rational import BACKEND, parse_rational, rat


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out) if out else None


def test_wigner_fourth_cumulant_command(capsys):
    code, doc = run_json(
        capsys, "cumulants", "wigner", "--beta", "2", "--n", "4", "--max-order", "4"
    )
    assert code == 0
    assert doc["payload"]["values"][3] == "257/525"


def test_conductance_uniform_command(capsys):
    code, doc = run_json(
        capsys,
        "cumulants", "conductance",
        "--beta", "2", "--alpha", "0", "--delta", "0", "--n", "1",
        "--max-order", "2",
    )
    assert code == 0
    assert doc["payload"]["values"] == ["1/2", "1/12"]


def test_chazy_command_pass(capsys):
    code, doc = run_json(capsys, "verify", "chazy", "--n", "10", "--order", "8")
    assert code == 0
    assert doc["payload"]["passed"] is True


def test_chazy_command_reports_a_failing_residual(capsys, monkeypatch):
    from dotcumulants import wigner

    exact = wigner.chazy_residual
    monkeypatch.setattr(wigner, "chazy_residual",
                        lambda n, order: exact(n, order, perturb=(2, rat(1, 1000))))
    code, doc = run_json(capsys, "verify", "chazy", "--n", "10", "--order", "3")
    payload = doc["payload"]
    assert code == 1 and payload["passed"] is False
    first = payload["first_nonzero_index"]
    assert payload["coefficients"][:first] == ["0"] * first
    assert payload["coefficients"][first] != "0"


def test_computation_error_exit_code(capsys):
    code = dispatch(
        ["cumulants", "wigner", "--beta", "2", "--n", "2", "--max-order", "5"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "nonexistent-cumulant" in err


@pytest.mark.parametrize("which", [
    ["--which", "wigner", "--beta", "1", "--n", "30"],
    ["--which", "conductance", "--beta", "1", "--alpha", "0", "--delta", "0",
     "--n", "8"],
])
def test_verify_ode_order_below_three_is_invalid_order(capsys, which):
    code = dispatch(["verify", "ode", *which, "--order", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: invalid-order")
    assert "Traceback" not in err


def test_usage_error_exit_code(capsys):
    code = dispatch(["cumulants", "conductance", "--beta", "2"])  # missing required
    err = capsys.readouterr().err
    assert code == 2
    assert err == "usage error: the following arguments are required: --max-order\n"


@pytest.mark.parametrize("argv, message", [
    (["asymptotic", "wigner", "--beta", "9", "--max-index", "2"],
     "unrecognized arguments: --beta 9"),
    (["cumulants", "conductance", "--beta", "2", "--alpha", "0", "--delta", "0",
      "--n", "1", "--max-order", "2", "--format", "xml"],
     "argument --format: invalid choice: 'xml'"),
    (["cumulants", "conductance", "--beta", "2", "--n", "x", "--max-order", "2"],
     "argument --n: invalid int value: 'x'"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    (["verify"], "the following arguments are required: subcommand"),
])
def test_argparse_errors_are_one_usage_line(capsys, argv, message):
    code = dispatch(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"usage error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["verify", "oracle", "--help"]])
def test_help_prints_and_returns_zero(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("usage: dotcumulants")


@pytest.mark.parametrize("argv", [
    ["cumulants", "wigner", "--beta", "2", "--n", "10", "--b", "1/2", "--max-order", "1"],
    ["verify", "ode", "--which", "wigner", "--beta", "2", "--n", "10", "--b", "1/2",
     "--order", "3"],
])
def test_a_non_integrable_delay_weight_is_invalid_parameters(capsys, argv):
    # omega = b - 2 - beta*(n-1) = -39/2: z^omega e^(-z) cannot be normalised
    code = dispatch(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error: invalid parameters: b - 2 - beta*(n-1) must exceed -1")


def test_missing_parameter_is_usage_error(capsys):
    code = dispatch(
        ["cumulants", "conductance", "--beta", "2", "--max-order", "2"]
    )
    assert code == 2
    assert "usage error" in capsys.readouterr().err
    code = dispatch(
        ["verify", "ode", "--which", "joint", "--beta", "2", "--alpha", "0",
         "--delta", "0", "--n", "7", "--order", "4"]
    )
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["cumulants", "conductance", "--beta", "3", "--alpha", "0", "--delta", "0",
     "--n", "2", "--max-order", "2"],
    ["cumulants", "wigner", "--beta", "3", "--n", "4", "--max-order", "2"],
    ["cumulants", "conductance", "--beta", "2", "--alpha=-2", "--delta", "0",
     "--n", "2", "--max-order", "2"],
    ["cumulants", "conductance", "--beta", "2", "--alpha", "1/0", "--delta", "0",
     "--n", "2", "--max-order", "2"],
    ["cumulants", "wigner", "--config", "{missing}", "--max-order", "2"],
    ["cumulants", "wigner", "--config", "{garbled}", "--max-order", "2"],
    ["cumulants", "wigner", "--config", "{array}", "--max-order", "2"],
    ["asymptotic", "extrapolate", "--n-list", "64,128", "--target", "wigner:beta=1"],
    ["asymptotic", "extrapolate", "--n-list", "64,128", "--target", "joint:beta=1,l=2"],
    ["asymptotic", "extrapolate", "--n-list", "64,x", "--target", "wigner:beta=1,l=3"],
    ["asymptotic", "extrapolate", "--n-list", "64,128", "--target", "wigner:beta=3,l=3"],
    ["mc", "edgeworth", "--beta", "1", "--n", "20", "--grid", "0.4:1.8"],
    ["mc", "edgeworth", "--beta", "1", "--n", "20", "--grid", "1.8:0.4:81"],
    ["report", "table2", "--n-list", "64,x"],
    ["report", "table2", "--n-list", "0,1"],
    ["report", "table2", "--max-order", "9"],
    ["report", "table2", "--max-order", "-1"],
    ["report", "table2", "--max-order", "0"],
    ["verify", "chazy", "--n", "0", "--order", "2"],
    ["verify", "altland", "--n", "0", "--max-k", "2"],
    ["asymptotic", "wigner", "--max-index", "-2"],
    ["verify", "gauss-factor", "--n", "2", "--w", "nan"],
    ["verify", "gauss-factor", "--n", "2", "--w", "inf"],
    ["verify", "gauss-factor", "--n", "2", "--w", "0"],
    ["verify", "chazy", "--n", "2", "--order", "0"],
    ["verify", "chazy", "--n", "2", "--order", "-1"],
    ["verify", "jacobi", "--lmax", "-1", "--kmax", "2"],
    ["verify", "jacobi", "--lmax", "2", "--kmax", "-1"],
    ["mc", "sample", "--statistic", "tauW", "--beta", "1", "--n", "20",
     "--count", "5", "--seed", "-1"],
    ["mc", "edgeworth", "--beta", "1", "--n", "20", "--grid", "0.5:1.5:3", "--seed", "-1"],
    ["report", "table2", "--n-list="],
    ["asymptotic", "extrapolate", "--n-list", "4,6", "--target", "x"],
    # beta and n are integers, and no parameter is a boolean: neither is
    # truncated or read as 1
    ["cumulants", "conductance", "--config", "{fractional}", "--max-order", "2", "--out", "{out}"],
    ["cumulants", "wigner", "--config", "{fractional}", "--max-order", "2", "--out", "{out}"],
    ["cumulants", "conductance", "--config", "{true_beta}", "--max-order", "2", "--out", "{out}"],
    ["cumulants", "conductance", "--config", "{true_alpha}", "--max-order", "2", "--out", "{out}"],
    # grid bounds are finite: an infinite one fails before any sampling
    ["mc", "edgeworth", "--beta", "1", "--n", "20", "--grid", "0.4:inf:81", "--out", "{out}"],
    ["mc", "edgeworth", "--beta", "1", "--n", "20", "--grid=-inf:1.8:5", "--out", "{out}"],
    # an extrapolation target takes only its kind's keys, each once
    ["asymptotic", "extrapolate", "--n-list", "8,12,16", "--target", "wigner:beta=1,l=3,b=5,foo=1",
     "--out", "{out}"],
    ["asymptotic", "extrapolate", "--n-list", "8,12,16", "--target", "wigner:beta=1,l=3,alpha=0",
     "--out", "{out}"],
    ["asymptotic", "extrapolate", "--n-list", "8,12,16", "--target", "conductance:beta=1,l=3,k=0",
     "--out", "{out}"],
    ["asymptotic", "extrapolate", "--n-list", "8,12,16", "--target", "joint:beta=1,l=2,k=1,l=3",
     "--out", "{out}"],
    ["asymptotic", "extrapolate", "--n-list", "8,12,16", "--target", "wigner:beta=1,beta=2,l=3",
     "--out", "{out}"],
])
def test_malformed_input_is_usage_error(capsys, tmp_path, argv):
    (tmp_path / "garbled.json").write_text('{"beta": 2,')
    (tmp_path / "array.json").write_text("[2, 4]")
    (tmp_path / "fractional.json").write_text('{"beta": 1.5, "n": 8.7}')
    (tmp_path / "true_beta.json").write_text('{"beta": true, "n": 4}')
    (tmp_path / "true_alpha.json").write_text('{"beta": 1, "alpha": true, "n": 4}')
    names = ("missing", "garbled", "array", "fractional", "true_beta", "true_alpha", "out")
    paths = {name: str(tmp_path / f"{name}.json") for name in names}
    code = dispatch([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert not os.path.exists(paths["out"])
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["cumulants", "conductance", "--beta", "1", "--n", "2", "--max-order", "3"],
    ["cumulants", "conductance", "--beta", "1", "--n", "2", "--max-order", "3", "--format", "csv"],
    ["mc", "sample", "--statistic", "G", "--beta", "1", "--n", "2", "--count", "10", "--seed", "1"],
])
@pytest.mark.parametrize("target", ["missing/x.out", "directory"])
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv, target):
    """An --out in a missing directory, or naming a directory, exits 2 with
    one usage error line, through the JSON and the CSV emitter alike, and
    leaves no temp file behind."""
    (tmp_path / "directory").mkdir()
    out = tmp_path / target
    code = dispatch([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot write --out {out}: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["directory"]


def test_exact_verbs_load_neither_numpy_nor_scipy(tmp_path):
    """Only the Monte Carlo verbs, ``verify oracle`` and ``verify
    gauss-factor`` need numpy/scipy; the exact verbs must not import them."""
    script = (
        "import json, sys\n"
        "def heavy():\n"
        "    return sorted(m for m in ('numpy', 'scipy') if m in sys.modules)\n"
        "from dotcumulants.cli import dispatch\n"
        "state = {'import': heavy()}\n"
        "dispatch(['cumulants', 'wigner', '--beta', '2', '--n', '4',\n"
        "          '--max-order', '4', '--out', 'w.json'])\n"
        "dispatch(['verify', 'ode', '--which', 'joint', '--beta', '4', '--alpha', '1',\n"
        "          '--delta', '0', '--n', '3', '--order-z', '3', '--order-w', '1',\n"
        "          '--out', 'j.json'])\n"
        "state['exact'] = heavy()\n"
        "state['oracle_exit'] = dispatch(['verify', 'oracle', '--beta', '2', '--alpha', '0',\n"
        "                                 '--delta', '0', '--n', '2', '--out', 'o.json'])\n"
        "state['oracle'] = heavy()\n"
        "print(json.dumps(state))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=tmp_path,
        capture_output=True, text=True, check=True,
    )
    state = json.loads(out.stdout)
    assert state["import"] == []
    assert state["exact"] == []
    assert state["oracle_exit"] == 0
    assert state["oracle"] == ["numpy", "scipy"]
    assert json.loads((tmp_path / "j.json").read_text())["payload"]["passed"] is True


QUADRATURE_CAPPED = [
    ["verify", "oracle", "--beta", "2", "--alpha", "0", "--delta", "0", "--n", "4"],
    ["verify", "gauss-factor", "--n", "4", "--w", "0.5"],
]


@pytest.mark.parametrize("argv", QUADRATURE_CAPPED)
def test_quadrature_channel_cap_is_unsupported_parameter(capsys, tmp_path, argv):
    out = tmp_path / "o.json"
    code = dispatch(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: unsupported-parameter: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_quadrature_channel_cap_refuses_before_loading_numpy(tmp_path):
    script = (
        "import json, sys\n"
        "from dotcumulants.cli import dispatch\n"
        f"codes = [dispatch(argv) for argv in {QUADRATURE_CAPPED!r}]\n"
        "heavy = sorted(m for m in ('numpy', 'scipy', 'dotcumulants.quadrature')\n"
        "               if m in sys.modules)\n"
        "print(json.dumps([codes, heavy]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=tmp_path,
        capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == [[1, 1], []]


def test_cli_import_loads_no_computation_module(tmp_path):
    """``import dotcumulants.cli`` loads the package, the CLI and the error
    classes only; each verb imports the layers it runs."""
    script = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('dotcumulants'))\n"
        "from dotcumulants.cli import dispatch\n"
        "state = {'import': loaded()}\n"
        "state['wigner_exit'] = dispatch(['cumulants', 'wigner', '--beta', '2', '--n', '4',\n"
        "                                 '--max-order', '4', '--out', 'w.json'])\n"
        "state['wigner'] = loaded()\n"
        "from dotcumulants import BACKEND, DelayParams, TransportParams, rat\n"
        "state['names'] = [TransportParams.__name__, DelayParams.__name__, str(rat(1, 2)),\n"
        "                  BACKEND]\n"
        "import dotcumulants\n"
        "try:\n"
        "    dotcumulants.no_such_name\n"
        "except AttributeError:\n"
        "    state['unknown'] = 'AttributeError'\n"
        "print(json.dumps(state))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=tmp_path,
        capture_output=True, text=True, check=True,
    )
    state = json.loads(out.stdout)
    assert state["import"] == ["dotcumulants", "dotcumulants.cli", "dotcumulants.errors"]
    assert state["wigner_exit"] == 0
    unused = ("verify", "jointcsn", "asymptotics", "report", "montecarlo", "quadrature",
              "exactmoments", "doubleseries")
    assert not {f"dotcumulants.{m}" for m in unused} & set(state["wigner"])
    assert state["names"] == ["TransportParams", "DelayParams", "1/2", BACKEND]
    assert state["unknown"] == "AttributeError"


def test_asymptotic_wigner_rejects_transport_flags(capsys, tmp_path):
    out = tmp_path / "w.json"
    code = dispatch(["asymptotic", "wigner", "--alpha=x", "--beta", "9", "--max-index", "2",
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "usage error: unrecognized arguments: --alpha=x --beta 9\n"
    assert not out.exists()


def test_round_trip_parameters_and_rationals(capsys):
    # negative rationals need the --flag=value form (argparse would read a
    # bare "-1/2" as an option)
    code, doc = run_json(
        capsys,
        "cumulants", "conductance",
        "--beta", "1", "--alpha=-1/2", "--delta", "0", "--n", "6",
        "--max-order", "4",
    )
    assert code == 0
    payload = doc["payload"]
    parsed = TransportParams(
        beta=payload["params"]["beta"],
        alpha=parse_rational(payload["params"]["alpha"]),
        delta=parse_rational(payload["params"]["delta"]),
        n=payload["params"]["n"],
    )
    assert parsed == TransportParams(1, rat(-1, 2), 0, 6)
    values = [parse_rational(v) for v in payload["values"]]
    from dotcumulants.conductance import conductance_cumulants

    assert tuple(values) == conductance_cumulants(parsed, 4).values


def test_manifest_checksum_reproducible(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = dispatch(
            ["cumulants", "joint", "--beta", "2", "--alpha", "0", "--delta", "0",
             "--n", "3", "--max-l", "2", "--max-k", "2", "--out", str(out)]
        )
        assert code == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    assert d1["manifest"]["payload_sha256"] == d2["manifest"]["payload_sha256"]
    assert d1["payload"] == d2["payload"]


def test_mc_sample_csv_with_manifest_sidecar(capsys, tmp_path):
    out = tmp_path / "samples.csv"
    code = dispatch(
        ["mc", "sample", "--statistic", "tauW", "--beta", "1", "--n", "20",
         "--count", "500", "--seed", "42", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,value"
    assert len(lines) == 501
    sidecar = json.loads((tmp_path / "samples.csv.manifest.json").read_text())
    assert sidecar["params"]["seed"] == 42
    # identical rerun produces an identical payload checksum
    out2 = tmp_path / "samples2.csv"
    dispatch(
        ["mc", "sample", "--statistic", "tauW", "--beta", "1", "--n", "20",
         "--count", "500", "--seed", "42", "--out", str(out2)]
    )
    sidecar2 = json.loads((tmp_path / "samples2.csv.manifest.json").read_text())
    assert sidecar["payload_sha256"] == sidecar2["payload_sha256"]


ROOT = Path(__file__).resolve().parents[1]


def _readme_commands():
    """The ``dotcumulants ...`` lines of the README's "Command line" block,
    each split as a shell would, without the program name."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = (shlex.split(line, comments=True) for line in block.splitlines())
    return [words[1:] for words in lines if words[:1] == ["dotcumulants"]]


def _benchmark_commands():
    """The ``README_COMMANDS`` tuple of the benchmark's workloads, read from
    the source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
            getattr(t, "id", None) for t in node.targets
        ] == ["README_COMMANDS"]:
            return [shlex.split(c) for c in ast.literal_eval(node.value)]
    raise AssertionError("README_COMMANDS not found")


def test_readme_commands_are_the_benchmarks():
    """The cli workload pins the outputs of the README's commands; an edit to
    either list alone would leave those digests measuring other commands."""
    readme = _readme_commands()
    assert len(readme) == 17
    assert readme == _benchmark_commands()


#: the README's sampling command, and the SHA-256 of the file it writes and
#: of its payload (the sidecar's ``payload_sha256``)
README_SAMPLE = ["mc", "sample", "--statistic", "tauW", "--beta", "1", "--n", "20",
                 "--count", "100000", "--seed", "42"]
README_SAMPLE_FILE = "8db94c9b57a4bf17d991ab395b03fae11aafa161b4ef8da093dc51002dd08cb6"
README_SAMPLE_PAYLOAD = "a5cebe44830e2652350edbf0ff0c0029085076846bd289b2a7d2bacbd9a8cd9a"


def test_mc_sample_readme_command_is_pinned_and_streams_the_same_bytes_to_stdout(
    capsys, tmp_path
):
    out = tmp_path / "tau.csv"
    assert dispatch(README_SAMPLE + ["--out", str(out)]) == 0
    written = out.read_bytes()
    assert hashlib.sha256(written).hexdigest() == README_SAMPLE_FILE
    sidecar = json.loads((tmp_path / "tau.csv.manifest.json").read_text())
    assert sidecar["payload_sha256"] == README_SAMPLE_PAYLOAD
    capsys.readouterr()
    assert dispatch(README_SAMPLE) == 0
    assert capsys.readouterr().out == written.decode()


def test_mc_sample_memory_beyond_the_batch_is_a_fixed_cost(tmp_path):
    """The CSV is written and hashed a block at a time: 200000 draws peak at
    7-8 MB of traced allocations, most of it the sampler's (the 1.6 MB batch
    and its sub-batches), where a payload built whole took 57 MB."""
    import dotcumulants.manifest  # noqa: F401  (imports are not the run's memory)
    import dotcumulants.montecarlo  # noqa: F401

    argv = README_SAMPLE[:-4] + ["--count", "200000", "--seed", "42",
                                 "--out", str(tmp_path / "tau.csv")]
    tracemalloc.start()
    try:
        code = dispatch(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 12 * 2**20, peak


def test_csv_row_failure_leaves_no_file_and_no_sidecar(tmp_path):
    def rows():  # fails after more than one block has been written
        yield from ((i, repr(i / 7)) for i in range(3 * cli._CSV_BLOCK_ROWS))
        raise RuntimeError("row source failed")

    out = tmp_path / "rows.csv"
    with pytest.raises(RuntimeError, match="row source failed"):
        cli._emit_csv(argparse.Namespace(out=str(out)), ("index", "value"), rows(), {}, ["mc"])
    assert list(tmp_path.iterdir()) == []


def test_mc_sample_non_default_b_is_unsupported_parameter(capsys, tmp_path):
    out = tmp_path / "samples.csv"
    code = dispatch(
        ["mc", "sample", "--statistic", "tauW", "--beta", "1", "--n", "20",
         "--b", "30", "--count", "10", "--seed", "1", "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: unsupported-parameter")
    assert "Traceback" not in err
    assert not out.exists()


# q < 2 leaves no variance; 2 <= q < 5 would leave the density without its
# corrections, so neither samples anything
@pytest.mark.parametrize("beta,n", [(2, 1), (1, 3), (2, 2), (2, 3), (2, 4), (1, 8)])
def test_mc_edgeworth_without_variance_is_nonexistent_cumulant(capsys, tmp_path, beta, n):
    out = tmp_path / "curve.csv"
    code = dispatch(
        ["mc", "edgeworth", "--beta", str(beta), "--n", str(n), "--grid", "0.5:1.5:41",
         "--count", "100", "--seed", "9", "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: nonexistent-cumulant")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "ode", "--which", "joint", "--beta", "2", "--n", "2",
     "--order-z", "-1", "--order-w", "1"],
    ["verify", "ode", "--which", "joint", "--beta", "2", "--n", "2",
     "--order-z", "1", "--order-w", "-1"],
    ["verify", "oracle", "--beta", "2", "--n", "1", "--max-order", "-1"],
])
def test_negative_residual_and_oracle_orders_are_invalid_order(capsys, argv):
    code = dispatch(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: invalid-order")


@pytest.mark.parametrize("argv", [
    ["cumulants", "wigner", "--beta", "1", "--n", "20", "--max-order", "0"],
    ["asymptotic", "extrapolate", "--n-list", "64,128", "--target", "wigner:beta=1,l=0"],
    ["asymptotic", "extrapolate", "--n-list", "64,128", "--target", "wigner:beta=1,l=-1"],
])
def test_a_delay_order_below_one_is_invalid_order(capsys, argv):
    """``nonexistent-cumulant`` names a delay cumulant beyond q; an order
    below 1 is an invalid order, as for the conductance."""
    code = dispatch(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: invalid-order: max_order must be >= 1\n"


def test_mc_edgeworth_csv_columns(capsys, tmp_path):
    out = tmp_path / "curve.csv"
    code = dispatch(
        ["mc", "edgeworth", "--beta", "1", "--n", "20", "--grid", "0.5:1.5:41",
         "--count", "2000", "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "x,edgeworth,gaussian,histogram_density"


#: payload SHA-256 of the README command ``mc edgeworth --beta 1 --n 20
#: --grid 0.4:1.8:81``
README_EDGEWORTH_PAYLOAD = "54e8ba1b6fc0de2dda79d85bcabf3cf6f2bdfbc27cec0ab0c995db29086adf3c"


def test_mc_edgeworth_readme_command_is_pinned(tmp_path):
    out = tmp_path / "curve.csv"
    argv = ["mc", "edgeworth", "--beta", "1", "--n", "20", "--grid", "0.4:1.8:81"]
    assert dispatch(argv + ["--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
    assert sidecar["payload_sha256"] == README_EDGEWORTH_PAYLOAD


@pytest.mark.parametrize("steps", [cli.EDGEWORTH_MAX_STEPS + 1, 100_000_000])
def test_mc_edgeworth_refuses_a_grid_above_its_ceiling_before_building_it(
    capsys, tmp_path, steps
):
    out = tmp_path / "curve.csv"
    argv = ["mc", "edgeworth", "--beta", "1", "--n", "20", "--grid", f"0.4:1.8:{steps}",
            "--out", str(out)]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = dispatch(argv)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: unsupported-parameter: --grid has {steps} steps; "
        f"mc edgeworth takes at most {cli.EDGEWORTH_MAX_STEPS}\n"
    )
    assert peak < 2**20, peak  # one grid array alone would take 8 bytes a step
    assert seconds < 1.0
    assert not out.exists()


def test_mc_edgeworth_streams_its_rows(tmp_path):
    """The rows go to the CSV emitter one block at a time: the peak is the
    float arrays and a fixed few MB, about 120 bytes a step at 50k steps,
    where the rows held whole as text took about 500."""
    steps = 50_000
    argv = ["mc", "edgeworth", "--beta", "1", "--n", "20", "--count", "1000",
            "--out", str(tmp_path / "curve.csv"), "--grid"]
    assert dispatch(argv + ["0.4:1.8:3"]) == 0  # imports stay out of the peak
    tracemalloc.start()
    try:
        code = dispatch(argv + [f"0.4:1.8:{steps}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len((tmp_path / "curve.csv").read_text().splitlines()) == steps + 1
    assert peak < 250 * steps, peak


def test_asymptotic_wigner_command(capsys):
    code, doc = run_json(capsys, "asymptotic", "wigner", "--max-index", "4")
    assert code == 0
    assert doc["payload"]["values"]["3"] == "24"


def test_asymptotic_conductance_and_joint_commands(capsys):
    code, doc = run_json(
        capsys, "asymptotic", "conductance",
        "--beta", "1", "--alpha=-1/2", "--delta", "0", "--max-index", "4",
    )
    assert code == 0
    assert doc["payload"]["values"]["3"] == "1/16"
    code, doc = run_json(
        capsys, "asymptotic", "joint",
        "--beta", "1", "--alpha=-1/2", "--delta", "0", "--max-index", "4",
    )
    assert code == 0
    assert doc["payload"]["values"]["0,3"] == "0"


@pytest.mark.parametrize("kind", ["conductance", "joint"])
def test_asymptotic_beta2_is_unsupported(capsys, tmp_path, kind):
    """The leading-order limits are stated for beta in {1,4}: both kinds
    refuse beta=2 at every --max-index, also where no conductance index has
    a limit (l < 3), and write nothing."""
    out = tmp_path / "a.json"
    for max_index in ("0", "1", "2", "4"):
        code = dispatch(["asymptotic", kind, "--beta", "2", "--alpha", "0", "--delta", "0",
                         "--max-index", max_index, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1, max_index
        assert err.startswith("error: unsupported-beta: ")
        assert err.count("\n") == 1
        assert not out.exists()


#: payload SHA-256 of ``asymptotic KIND --beta B --alpha A --delta D
#: --max-index 12``; two-digit indices guard the type and order of the keys
ASYMPTOTIC_DIGESTS = {
    ("conductance", "1", "-1/2", "0"):
        "5763a2dab1600d2329ba1a86508831c09201df0f72009c833887f840523adf55",
    ("conductance", "1", "3/2", "-1"):
        "745f3c7991ecb61feaacbb731272208e8a4ceac4f6f2d78a37828eb039cb1f5c",
    ("conductance", "4", "-1/2", "0"):
        "4b5accc4ad70b0da1d2007b1223a342b6476433e53d267b8298ecb323ea80e73",
    ("conductance", "4", "3/2", "-1"):
        "42a50b18976c313325244e55e13ffb54bbc3711814112e6fcca619eb5909e8fd",
    ("joint", "1", "-1/2", "0"):
        "10b8dc3d4e12ac7eb2285dadd13739e72e9695eaa004a29e108bf1d84d492b98",
    ("joint", "1", "3/2", "-1"):
        "3105a3fe7ad1a83b4f1286003458a92f17bac49033afa6145a8765684bf84c4a",
    ("joint", "4", "-1/2", "0"):
        "64937ad6aa88cd96fde93df56d6406f9e8459b55b4737b11ea7b36f57038f1aa",
    ("joint", "4", "3/2", "-1"):
        "4702eefbf72b8e80594a46df9414166e6a93a1c090ec7962ffdc7aa72427a39e",
}


@pytest.mark.parametrize("case", sorted(ASYMPTOTIC_DIGESTS))
def test_asymptotic_payload_digests_are_pinned(capsys, case):
    kind, beta, alpha, delta = case
    code, doc = run_json(capsys, "asymptotic", kind, "--beta", beta, f"--alpha={alpha}",
                         f"--delta={delta}", "--max-index", "12")
    assert code == 0
    assert doc["manifest"]["payload_sha256"] == ASYMPTOTIC_DIGESTS[case]


#: payload SHA-256 of ``verify oracle --beta 1 --alpha=-1/2 --delta 0 --n 2
#: --statistic S --max-order 3``
ORACLE_DIGESTS = {
    "G": "e2ee66ec18bee993e7b4d7a6d4794012bf9a8da1e61e7355c4fa7d3e8cfbd9ca",
    "P": "4b65c705aeee6b952cfc7780f2e28329bac474f69b5a5a14435dbf9b90df9bb8",
    "mixed": "cf1e5f105aa0e43f4545f1c58ee7a2bcf2277d2a4fbb244a8ab8c1e39dfea2a7",
}


@pytest.mark.parametrize("statistic", sorted(ORACLE_DIGESTS))
def test_verify_oracle_payload_digests_are_pinned(capsys, statistic):
    code, doc = run_json(capsys, "verify", "oracle", "--beta", "1", "--alpha=-1/2",
                         "--delta", "0", "--n", "2", "--statistic", statistic,
                         "--max-order", "3")
    assert code == 0
    assert doc["manifest"]["payload_sha256"] == ORACLE_DIGESTS[statistic]


#: payload SHA-256 of the README command ``verify gauss-factor --n 2 --w 0.5``
GAUSS_FACTOR_DIGEST = "d2bbc566893a30af626983af2bdfca441523c001b8f84d5c2a02af79b91cf83f"


def test_verify_gauss_factor_payload_digest_is_pinned(capsys):
    code, doc = run_json(capsys, "verify", "gauss-factor", "--n", "2", "--w", "0.5")
    assert code == 0
    assert doc["manifest"]["payload_sha256"] == GAUSS_FACTOR_DIGEST


def test_verify_oracle_command_with_reference(capsys):
    code, doc = run_json(
        capsys, "verify", "oracle",
        "--beta", "1", "--alpha=-1/2", "--delta", "0", "--n", "2",
        "--statistic", "P", "--max-order", "2",
    )
    assert code == 0
    got = doc["payload"]["cumulants"]
    ref = doc["payload"]["recurrence_reference"]
    for key in ("1", "2"):
        assert abs(got[key] - ref[key]) <= 1e-8 * abs(ref[key])


def test_verify_oracle_g_reference_is_the_joint_k0_column_at_an_even_beta_pole(capsys):
    """At beta=2, alpha=1, n=1 the conductance recurrence stops at a pole;
    the joint table's k=0 column holds the exact-moment row there."""
    code, doc = run_json(capsys, "verify", "oracle", "--beta", "2", "--alpha", "1",
                         "--delta", "0", "--n", "1", "--statistic", "G", "--max-order", "4")
    assert code == 0
    payload = doc["payload"]
    exact = [rat(2, 3), rat(1, 18), rat(-1, 135), rat(-1, 540)]
    assert payload["recurrence_reference"] == {str(l): float(v) for l, v in enumerate(exact, 1)}
    for key, value in payload["recurrence_reference"].items():
        assert abs(payload["cumulants"][key] - value) <= 1e-8 * abs(value)


@pytest.mark.parametrize("key", ["b", "foo", "k"])
def test_extrapolate_target_names_an_unknown_key(capsys, key):
    code = dispatch(["asymptotic", "extrapolate", "--n-list", "8,12,16",
                     "--target", f"conductance:beta=1,l=3,{key}=1"])
    assert code == 2
    assert f"takes no key '{key}'" in capsys.readouterr().err


def test_extrapolate_target_names_a_repeated_key(capsys):
    code = dispatch(["asymptotic", "extrapolate", "--n-list", "8,12,16",
                     "--target", "joint:beta=1,l=2,k=1,k=2"])
    assert code == 2
    assert "repeats the key 'k'" in capsys.readouterr().err


@pytest.mark.parametrize("target", [
    "conductance:beta=1,alpha=-1/2,l=0",
    "conductance:beta=1,alpha=-1/2,l=1",
    "conductance:beta=1,alpha=-1/2,l=2",
    "conductance:beta=2,l=2",
    "joint:beta=1,alpha=-1/2,l=0,k=1",
    "joint:beta=4,l=0,k=2",
    "joint:beta=1,l=3,k=-1",
    "joint:beta=2,l=-2,k=3",
])
def test_extrapolate_refuses_excluded_indices_before_computing(capsys, monkeypatch, tmp_path, target):
    """A mean- or variance-type index has no limit, so no power of n to
    extrapolate with; the verb says so before it computes any cumulant."""
    from dotcumulants import jointcsn

    def no_table(*args):
        raise AssertionError("joint_cumulants ran for an excluded index")

    monkeypatch.setattr(jointcsn, "joint_cumulants", no_table)
    out = tmp_path / "x.json"
    code = dispatch(["asymptotic", "extrapolate", "--n-list", "64,128,256", "--target", target,
                     "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: excluded-index: ")
    assert not out.exists()


@pytest.mark.parametrize("target,nu", [("conductance:beta=2,l=3", 3), ("joint:beta=2,l=2,k=1", 2)])
def test_extrapolate_transport_targets_keep_beta2(capsys, target, nu):
    """The extrapolation gate is the index half of the limits' rule only."""
    code, doc = run_json(capsys, "asymptotic", "extrapolate", "--n-list", "8,12,16",
                         "--target", target)
    assert code == 0
    assert doc["payload"]["scaling_exponent"] == nu


def test_asymptotic_extrapolate_command(capsys):
    code, doc = run_json(
        capsys,
        "asymptotic", "extrapolate", "--n-list", "64,128,256",
        "--target", "wigner:beta=1,l=2",
    )
    assert code == 0
    assert abs(doc["payload"]["estimate"] - 4.0) < 1e-3


def test_verify_ode_command(capsys):
    code, doc = run_json(
        capsys,
        "verify", "ode", "--which", "conductance",
        "--beta", "2", "--alpha", "0", "--delta", "0", "--n", "5", "--order", "6",
    )
    assert code == 0
    assert doc["payload"]["passed"] is True


def test_verify_altland_command(capsys):
    code, doc = run_json(capsys, "verify", "altland", "--n", "4", "--max-k", "3")
    assert code == 0
    assert doc["payload"]["ok"] is True


@pytest.mark.parametrize("max_k", ["0", "-1"])
def test_verify_altland_max_k_below_one_names_max_k(capsys, tmp_path, max_k):
    out = tmp_path / "a.json"
    code = dispatch(["verify", "altland", "--n", "4", "--max-k", max_k, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: invalid-order: max_k must be >= 1, got {max_k}\n"
    assert not out.exists()


def test_conductance_csv_format(capsys, tmp_path):
    out = tmp_path / "cond.csv"
    code = dispatch(
        ["cumulants", "conductance", "--beta", "2", "--alpha", "0", "--delta", "0",
         "--n", "1", "--max-order", "2", "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "order,value,float"
    assert lines[1].startswith("1,1/2,")
    assert lines[2].startswith("2,1/12,")
    assert (tmp_path / "cond.csv.manifest.json").exists()


def test_no_partial_file_on_error(tmp_path, capsys):
    out = tmp_path / "never.json"
    code = dispatch(
        ["cumulants", "wigner", "--beta", "2", "--n", "2", "--max-order", "5",
         "--out", str(out)]
    )
    assert code == 1
    assert not out.exists()
    assert not list(tmp_path.iterdir())  # no temp debris either


def test_report_table2_command(capsys):
    code, doc = run_json(
        capsys, "report", "table2", "--n-list", "64,96,128,192,256",
        "--max-order", "4",
    )
    assert code == 0
    beta2 = doc["payload"]["columns"]["2"]
    assert [row["value"] for row in beta2] == ["1", "2", "24", "636"]
    assert beta2[2]["suspected_erratum"]["printed_value"] == 4
    for beta in ("1", "4"):
        assert all(r["within_half_percent"] for r in doc["payload"]["columns"][beta])


def test_config_document(capsys, tmp_path):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"beta": 2, "alpha": "0", "delta": "0", "n": 4}))
    code, doc = run_json(
        capsys, "cumulants", "conductance", "--config", str(cfg), "--max-order", "2"
    )
    assert code == 0
    assert doc["payload"]["params"]["n"] == 4
