import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dotcumulants.cli import dispatch
from dotcumulants.params import TransportParams
from dotcumulants.rational import parse_rational, rat


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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        dispatch(["cumulants", "conductance", "--beta", "2"])  # missing required
    assert exc.value.code == 2


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
])
def test_malformed_input_is_usage_error(capsys, tmp_path, argv):
    (tmp_path / "garbled.json").write_text('{"beta": 2,')
    (tmp_path / "array.json").write_text("[2, 4]")
    paths = {name: str(tmp_path / f"{name}.json") for name in ("missing", "garbled", "array")}
    code = dispatch([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


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


def test_mc_edgeworth_csv_columns(capsys, tmp_path):
    out = tmp_path / "curve.csv"
    code = dispatch(
        ["mc", "edgeworth", "--beta", "1", "--n", "20", "--grid", "0.5:1.5:41",
         "--count", "2000", "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "x,edgeworth,gaussian,histogram_density"


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
