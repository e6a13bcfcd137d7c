"""The dotcumulants benchmark.

    python3 perfbench/run.py --workload {deep,sweep,cli,mc} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src``.  A
run builds the workload from the seed and repeats passes over its operations
while another pass still fits in ``--seconds``, checking every output after
each pass.

With ``--trace 0`` the metrics are the end-to-end ones, and set-up time is
measured first in fresh interpreters.  With ``--trace 1`` the first half of
the time runs untraced passes and the second half traced passes (the layer
wrappers of ``tracer.py`` installed); the metrics are the per-layer numbers of
the traced passes and the tracing overhead.  The last line of standard output
is the result; the line before it records the run's provenance, pass and
operation counts, failure tokens and the first check problems.  The exit code
is 0 when every check passed, 1 when one failed, and 2 when the checkout has
no ``src/dotcumulants``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import workloads

#: fresh-interpreter repeats behind each set-up and start-up median
PROBES = 11

#: Pinned for every process of a run.  The package does no BLAS work, but a
#: multi-threaded BLAS pool starts at numpy import and busy-waits on the
#: other core, which made each CLI command's time (0.3 s with one thread,
#: 0.4-0.6 s with two on a 2-core machine) depend on the neighbours' load.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: failure tokens reported by name; any other counts as failed.other
KNOWN_TOKENS = ("pole", "boundary-unavailable", "envelope-failure")

#: layers whose self times add up, with unattributed time, to a traced pass
SELF_LAYERS = (
    "bell_transform", "conductance", "jointcsn", "wigner", "ensembles", "series",
    "exactmoments", "quadrature", "verify", "asymptotics", "report",
    "montecarlo", "manifest", "cli",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def median_probe(cmd):
    """Median over ``PROBES`` fresh interpreters of the number ``cmd`` prints,
    or of its wall time when it prints nothing."""
    values = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=workloads.ROOT, check=True)
        wall = time.perf_counter() - t0
        values.append(float(proc.stdout) if proc.stdout.strip() else wall)
    return statistics.median(values)


def _read(path):
    with open(path) as handle:
        return handle.read().strip()


def provenance(args):
    from dotcumulants.rational import BACKEND

    digest = hashlib.sha256()
    package = os.path.join(workloads.SRC, "dotcumulants")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    commit = "unknown (not a git checkout)"
    git = os.path.join(workloads.ROOT, ".git")
    if os.path.isfile(os.path.join(git, "HEAD")):
        commit = _read(os.path.join(git, "HEAD"))
        if commit.startswith("ref: ") and os.path.isfile(os.path.join(git, commit[5:])):
            commit = _read(os.path.join(git, commit[5:]))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": BACKEND,
        "gmpy2": "present" if importlib.util.find_spec("gmpy2") else
                 "absent: the README's 3-7x gmpy2 speed-up is unverified here",
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "DOTCUMULANTS_THREADS": os.environ.get("DOTCUMULANTS_THREADS"),
        **BLAS_ENV,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run_passes(workload, seconds, problems, tracer=None):
    """Passes while another one, as long as the last, still ends within
    ``seconds`` (at least one pass).  Each pass is checked after it is timed;
    with a tracer, each pass is traced on its own.  Returns
    [(wall seconds, outcomes, trace summary or None)]."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1][0] <= seconds:
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        t0 = time.perf_counter()
        try:
            outcomes = workload.run_pass()
        finally:
            if tracer is not None:
                tracer.active = False
        wall = time.perf_counter() - t0
        passes.append((wall, outcomes, tracer.summary() if tracer is not None else None))
        problems.extend(workload.check(outcomes))
        problems.extend(
            f"{o.op.name}: {o.token} {o.detail}" for o in outcomes if o.token.startswith("exception:")
        )
    return passes


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, passes, setup_s):
    walls = [wall for wall, _, _ in passes]
    outcomes = [o for _, pass_outcomes, _ in passes for o in pass_outcomes]
    # one latency per operation, its median over the passes.  Quantiles of the
    # pooled latencies fall into the gaps between operations of different cost
    # (mc has six), where one slow call moves them by a quarter.
    by_op = {}
    for o in outcomes:
        by_op.setdefault(o.op.name, []).append(o.seconds)
    latencies = [statistics.median(seconds) for seconds in by_op.values()]
    if workload.name == "mc":
        work = sum(o.op.draws for o in outcomes if o.ok)
    else:
        work = len(outcomes)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(setup_s, "s"),
        "op_p50_s": metric(statistics.median(latencies), "s"),
        "op_p90_s": metric(statistics.quantiles(latencies, n=10, method="inclusive")[8], "s"),
        "throughput_per_s": metric(work / sum(walls), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "ok_frac": metric(sum(o.ok for o in outcomes) / len(outcomes), "ratio"),
    }


def layer_metrics(summary, outcomes, subbatch):
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    by_name, by_layer = summary["by_name"], summary["by_layer"]
    counters, maxima = summary["counters"], summary["maxima"]

    def calls(*names):
        return sum(by_name.get(n, [0])[0] for n in names)

    def total(name):
        return by_name.get(name, [0, 0.0])[1]

    def layer(name, field):
        return by_layer.get(name, [0, 0, 0.0, 0.0])[{"entries": 1, "s": 2, "self_s": 3}[field]]

    def rate(amount, per):
        return amount / per if per > 0 else 0.0

    tokens = Counter(o.token for o in outcomes if not o.ok)
    rejection = "montecarlo._sample_rejection"
    proposals = counters.get(f"rng_streams:{rejection}", 0) * subbatch
    out = {
        "bell_transform.calls": (calls("conductance.bell_transform"), "count"),
        "bell_transform.s": (layer("bell_transform", "s"), "s"),
        "bell_transform.terms": (counters.get("bell_transform.terms", 0), "count"),
        "conductance.kappas_calls": (calls("conductance.ConductanceEngine.kappas"), "count"),
        "conductance.lattice_radius": (maxima.get("conductance.lattice_radius", 0), "count"),
        "jointcsn.table_calls": (calls("jointcsn.JointEngine.table"), "count"),
        "wigner.cumulants_calls": (calls("wigner.DelayEngine.cumulants"), "count"),
        "wigner.lattice_points": (counters.get("wigner.lattice_points", 0), "count"),
        "ensembles.coupling_calls": (calls(
            "ensembles.transport_coupling_beta1", "ensembles.transport_coupling_beta4",
            "ensembles.delay_coupling_beta1", "ensembles.delay_coupling_beta4"), "count"),
        "rational.out_bits_max": (maxima.get("rational.out_bits_max", 0), "bits"),
        "exactmoments.calls": (layer("exactmoments", "entries"), "count"),
        "exactmoments.s": (layer("exactmoments", "s"), "s"),
        "quadrature.calls": (layer("quadrature", "entries"), "count"),
        "quadrature.s": (layer("quadrature", "s"), "s"),
        "series.mul_calls": (calls("series.TruncatedSeries.__mul__"), "count"),
        "series.s": (layer("series", "s"), "s"),
        "verify.residual_calls": (calls(
            "verify.ode_residual_conductance", "verify.pde_residual_joint",
            "verify.ode_residual_wigner"), "count"),
        "asymptotics.s": (layer("asymptotics", "s"), "s"),
        "manifest.s": (layer("manifest", "s"), "s"),
        "manifest.bytes": (counters.get("manifest.bytes", 0), "bytes"),
        "montecarlo.delay.draws_per_s": (rate(counters.get("draws:delay", 0), total("montecarlo.sample_delay_times")), "1/s"),
        "montecarlo.chain.draws_per_s": (rate(counters.get("draws:chain", 0), total("montecarlo._sample_chain")), "1/s"),
        "montecarlo.rejection.draws_per_s": (rate(counters.get("draws:rejection", 0), total(rejection)), "1/s"),
        "montecarlo.rejection.accept_ratio": (rate(counters.get("draws:rejection", 0), proposals), "ratio"),
        "montecarlo.kstats_s": (total("montecarlo.estimate_cumulants"), "s"),
        "failed.pole": (tokens["pole"], "count"),
        "failed.boundary-unavailable": (tokens["boundary-unavailable"], "count"),
        "failed.envelope-failure": (tokens["envelope-failure"], "count"),
        "failed.other": (sum(c for t, c in tokens.items() if t not in KNOWN_TOKENS), "count"),
        "trace.spans": (summary["spans"], "count"),
    }
    for name in SELF_LAYERS:
        if name != "bell_transform":  # no traced children: its self time is bell_transform.s
            out[f"{name}.self_s"] = (layer(name, "self_s"), "s")
    return out


def merge_cli_summaries(outcomes, problems):
    """Adds up the per-command summaries printed by clitrace.py.  Returns
    (summary, import times, dispatch times)."""
    merged = {"spans": 0, "root_s": 0.0, "by_name": {}, "by_layer": {}, "counters": Counter(), "maxima": {}}
    imports, dispatches = [], []
    for o in outcomes:
        try:
            child = json.loads(o.value)
        except ValueError:
            problems.append(f"{o.op.name}: no trace summary on standard output")
            continue
        imports.append(child["import_s"])
        dispatches.append(child["dispatch_s"])
        s = child["summary"]
        merged["spans"] += s["spans"]
        merged["root_s"] += s["root_s"]
        for key in ("by_name", "by_layer"):
            for name, row in s[key].items():
                acc = merged[key].get(name, [0] * len(row))
                merged[key][name] = [a + b for a, b in zip(acc, row)]
        merged["counters"].update(s["counters"])
        for name, value in s["maxima"].items():
            merged["maxima"][name] = max(value, merged["maxima"].get(name, 0))
    return merged, imports, dispatches


def trace_run(workload, args, problems):
    """Untraced passes for half the time, traced passes for the other half.
    Returns (metrics, outcomes, passes); the traced passes' summaries are
    written to the scratch directory."""
    from tracer import Tracer

    half = args.seconds / 2
    untraced = run_passes(workload, half, problems)
    if workload.name == "cli":
        workload.traced = True
        traced = [
            (wall, outcomes, *merge_cli_summaries(outcomes, problems))
            for wall, outcomes, _ in run_passes(workload, half, problems)
        ]
    else:
        tracer = Tracer().install()
        try:
            traced = [
                (wall, outcomes, summary, [], [])
                for wall, outcomes, summary in run_passes(workload, half, problems, tracer)
            ]
        finally:
            tracer.uninstall()
    with open(os.path.join(workloads.SCRATCH, f"trace-{workload.name}-seed{args.seed}.json"), "w") as handle:
        json.dump([summary for _, _, summary, _, _ in traced], handle)

    subbatch = getattr(sys.modules.get("dotcumulants.montecarlo"), "_SUBBATCH", 0)
    per_pass = []
    for wall, outcomes, summary, imports, dispatches in traced:
        values = layer_metrics(summary, outcomes, subbatch)
        attributed = values["bell_transform.s"][0] + sum(
            values[f"{n}.self_s"][0] for n in SELF_LAYERS if n != "bell_transform"
        )
        if abs(attributed - summary["root_s"]) > 1e-6 * max(1.0, summary["root_s"]):
            problems.append(f"trace: self times add up to {attributed}, outermost spans to {summary['root_s']}")
        if summary["root_s"] > wall + 1e-6:
            problems.append(f"trace: spans cover {summary['root_s']} s of a {wall} s pass")
        values["trace.wall_s"] = (wall, "s")
        values["trace.unattributed_s"] = (wall - attributed, "s")
        values["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
        values["cli.dispatch_s"] = (statistics.median(dispatches) if dispatches else 0.0, "s")
        per_pass.append(values)
    result = {
        name: metric(statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    untraced_wall = statistics.median(wall for wall, _, _ in untraced)
    result["trace.overhead_s"] = metric(result["trace.wall_s"]["value"] - untraced_wall, "s")
    result["python.start_s"] = metric(median_probe([sys.executable, "-c", "pass"]), "s")
    outcomes = [o for _, pass_outcomes, *_ in untraced + traced for o in pass_outcomes]
    return result, outcomes, len(untraced) + len(traced)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(workloads.SRC, "dotcumulants", "__init__.py")):
        sys.stderr.write(f"perfbench: no package at {workloads.SRC}/dotcumulants; run from the root of a checkout\n")
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, workloads.SRC)
    os.makedirs(workloads.SCRATCH, exist_ok=True)

    if not args.trace:
        setup_s = median_probe([sys.executable, os.path.join(workloads.HERE, "probe.py"), args.workload, str(args.seed)])
    workload = workloads.WORKLOADS[args.workload](args.seed)
    problems = []
    try:
        record = {"provenance": provenance(args)}
        if args.trace:
            metrics, outcomes, n_passes = trace_run(workload, args, problems)
        else:
            passes = run_passes(workload, args.seconds, problems)
            metrics = end_to_end(workload, passes, setup_s)
            outcomes = [o for _, pass_outcomes, _ in passes for o in pass_outcomes]
            n_passes = len(passes)
        problems.extend(workload.after_timing())
    finally:
        workload.close()
    failed = [o for o in outcomes if not o.ok]
    record.update({
        "passes": n_passes,
        "ops_per_pass": len(workload.ops),
        "failure_tokens": dict(Counter(o.token for o in failed)),
        "problems": problems[:20],
    })
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
