"""Every package name the benchmark harness reaches for exists.

The harness in ``perfbench/`` imports the package at run time, so a renamed
or deleted function would only show as an ``AttributeError`` in the middle
of a benchmark run.  The harness files are parsed, not imported: each
``from dotcumulants.X import Y``, and each ``M.attr`` on a module bound by
``from dotcumulants import M`` or ``import dotcumulants.X as M``, must
resolve.  The harness's traced runs of ``deep`` and ``sweep`` then run
end to end.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HARNESS_FILES = ("workloads.py", "run.py", "clitrace.py")


def _harness_names(path):
    """(module, attribute) pairs that ``path`` reads from the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {}  # local name -> package module it is bound to
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dotcumulants":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"dotcumulants.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dotcumulants."):
            names.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("dotcumulants.") and alias.asname:
                    aliases[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add((aliases[node.value.id], node.attr))
    return names


@pytest.mark.parametrize("harness_file", HARNESS_FILES)
def test_every_package_name_the_harness_reads_exists(harness_file):
    names = _harness_names(PERFBENCH / harness_file)
    assert names  # each file reaches the package in a form parsed here
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(names)
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


@pytest.mark.parametrize("workload", ["deep", "sweep"])
def test_traced_benchmark_runs_pass_their_checks(workload):
    """A traced run exits 1 when an output check fails, an operation raises
    something other than a ``CumulantError`` (a tracer hook that misreads a
    result included) or the spans break the trace invariants; each run takes
    a few seconds and writes its scratch files under ``.perfbench/``."""
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
