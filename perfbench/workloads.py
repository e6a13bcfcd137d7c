"""The four benchmark workloads: their inputs, operations and output checks.

``WORKLOADS[name](seed)`` builds a workload's inputs from the benchmark
seed.  One pass runs every operation once, in an order drawn from the seed;
only the operation itself is timed.  ``check`` runs after each pass, outside
the timed region, and returns a list of problems (empty when every output is
right).  Operations call the package through module attributes, so that the
tracer's wrappers are the functions they reach.

An operation either returns a value or fails.  A failure is a
``CumulantError`` (its stable token is recorded) or, for CLI commands, a
non-zero exit code.  Known defects are left in the workloads on purpose and
counted: the spurious ``pole`` points in ``sweep`` and the rejection
sampler's ``envelope-failure`` in ``mc``.  Any other exception is recorded
as ``exception:<type>`` and fails the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch files of a run (CLI outputs, trace summaries), inside the checkout
SCRATCH = os.path.join(ROOT, ".perfbench")

with open(os.path.join(HERE, "expected.json")) as _handle:
    EXPECTED = json.load(_handle)


def rational_digest(values):
    """SHA-256 of the canonical ``p/q`` strings, one per line."""
    return hashlib.sha256("\n".join(str(v) for v in values).encode()).hexdigest()


def agrees(x, y, rel=1e-8, floor=1e-12):
    x, y = float(x), float(y)
    return abs(x - y) <= max(rel * max(abs(x), abs(y)), floor)


@dataclass
class Op:
    """One timed operation.  ``fn`` does the work; ``key`` groups the
    operations whose outputs are checked against each other."""

    name: str
    fn: object
    key: object = None
    kind: str = ""
    draws: int = 0


@dataclass
class Outcome:
    op: Op
    seconds: float
    value: object = None
    token: str = "ok"  # "ok", a CumulantError token, "exit-<code>" or "exception:<type>"
    detail: str = ""

    @property
    def ok(self):
        return self.token == "ok"


def execute(op):
    """Run one operation, timing only ``op.fn``."""
    from dotcumulants.errors import CumulantError

    t0 = time.perf_counter()
    try:
        value = op.fn()
    except CumulantError as exc:
        return Outcome(op, time.perf_counter() - t0, token=exc.token, detail=str(exc))
    except Exception as exc:  # a crash is recorded and fails the run's checks
        return Outcome(
            op, time.perf_counter() - t0, token=f"exception:{type(exc).__name__}",
            detail=str(exc),
        )
    return Outcome(op, time.perf_counter() - t0, value=value)


class Workload:
    name = ""
    #: modules imported during set-up, in a fresh interpreter
    modules = ()

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.ops = []

    def pass_order(self):
        order = list(self.ops)
        self.rng.shuffle(order)
        return order

    def run_pass(self):
        return [execute(op) for op in self.pass_order()]

    def check(self, outcomes):
        return []

    def after_timing(self):
        """Checks that need extra work outside the timed passes."""
        return []

    def close(self):
        pass


# -- deep: a few parameter points at high order -----------------------------------


class Deep(Workload):
    """Deep recurrence fills.  Outputs are compared with pinned SHA-256
    digests of their rational strings, plus one closed form per statistic."""

    name = "deep"
    modules = ("dotcumulants.conductance", "dotcumulants.jointcsn", "dotcumulants.wigner")

    def __init__(self, seed):
        super().__init__(seed)
        from dotcumulants import conductance, jointcsn, wigner
        from dotcumulants.params import DelayParams, TransportParams
        from dotcumulants.rational import rat

        half = rat(-1, 2)
        self.ops = [
            Op("conductance b1 a-1/2 n64 L40",
               lambda: conductance.conductance_cumulants(TransportParams(1, half, 0, 64), 40).values),
            Op("conductance b4 a0 n32 L40",
               lambda: conductance.conductance_cumulants(TransportParams(4, 0, 0, 32), 40).values),
            Op("joint b1 a-1/2 n96 (10,10)",
               lambda: jointcsn.joint_cumulants(TransportParams(1, half, 0, 96), 10, 10)),
            Op("delay b1 n256 L40", lambda: wigner.wigner_cumulants(DelayParams(1, 256), 40).values),
            Op("delay b4 n128 L40", lambda: wigner.wigner_cumulants(DelayParams(4, 128), 40).values),
        ]

    @staticmethod
    def output_strings(value):
        if isinstance(value, tuple):
            return [str(v) for v in value]
        return [
            f"{l},{k}:{value[(l, k)]}"
            for l in range(value.max_l + 1)
            for k in range(value.max_k + 1)
        ]

    def check(self, outcomes):
        from dotcumulants.conductance import fourth_cumulant_closed
        from dotcumulants.params import TransportParams
        from dotcumulants.rational import rat
        from dotcumulants.wigner import wigner_fourth_closed

        problems = []
        pinned = EXPECTED["deep"]
        for o in outcomes:
            if not o.ok:
                problems.append(f"{o.op.name}: failed with {o.token}")
                continue
            digest = rational_digest(self.output_strings(o.value))
            if digest != pinned[o.op.name]:
                problems.append(f"{o.op.name}: digest {digest} != pinned")
        by_name = {o.op.name: o for o in outcomes if o.ok}
        coe = by_name.get("conductance b1 a-1/2 n64 L40")
        if coe and coe.value[3] != fourth_cumulant_closed(TransportParams(1, rat(-1, 2), 0, 64)):
            problems.append("conductance kappa_4 differs from its closed form")
        for beta, n in ((1, 256), (4, 128)):
            o = by_name.get(f"delay b{beta} n{n} L40")
            if o and o.value[3] != wigner_fourth_closed(beta, n):
                problems.append(f"delay beta={beta} K_4 differs from its closed form")
        return problems


# -- sweep: many parameter points at low order, each checked by its oracle ------------


#: the physical (alpha > -1, delta > -2) grid; it holds the COE point
#: (-1/2, 0) and alpha = delta = 0.  All of it is swept: drawing a few points
#: per seed made the cost of a pass vary by more than the bounds allow.
ALPHAS = ("-1/2", "0", "1/2", "1", "3/2")
DELTAS = ("-1", "0", "1", "2")
#: delay-time dimensions the seed draws from, DELAY_DRAWN per beta.  beta=1
#: needs n >= 16 for q >= 8, so that the fourth-order delay ODE is checked
#: to order >= 4 (below that ode_residual_wigner raises ValueError)
DELAY_NS = tuple(range(16, 41))
DELAY_DRAWN = 6


class Sweep(Workload):
    """For beta in {1,2,4}, the whole (alpha, delta) grid and n = 1..6: the
    conductance to order 8, the joint table to (4,2), the conductance ODE
    residual to order 6, exact moments (even beta, n <= 4) and quadrature
    (n <= 3); then delay cumulants and ODE residuals at seed-drawn n."""

    name = "sweep"
    modules = (
        "dotcumulants.conductance", "dotcumulants.jointcsn", "dotcumulants.wigner",
        "dotcumulants.verify", "dotcumulants.exactmoments",
    )

    def __init__(self, seed):
        super().__init__(seed)
        from dotcumulants import conductance, exactmoments, jointcsn, verify, wigner
        from dotcumulants.params import DelayParams, TransportParams
        from dotcumulants.rational import rat

        ops = []
        grid = [(b, a, d, n) for b in (1, 2, 4) for a in ALPHAS for d in DELTAS for n in range(1, 7)]
        for key in grid:
            beta, alpha, delta, n = key
            p = TransportParams(beta, rat(alpha), rat(delta), n)
            label = f"b{beta} a{alpha} d{delta} n{n}"
            ops.append(Op(f"conductance {label}", lambda p=p: conductance.conductance_cumulants(p, 8).values, key, "G"))
            ops.append(Op(f"joint {label}", lambda p=p: jointcsn.joint_cumulants(p, 4, 2), key, "J"))
            ops.append(Op(f"ode {label}", lambda p=p: verify.ode_residual_conductance(p, 6), key, "ODE"))
            if beta in (2, 4) and n <= 4:
                ops.append(Op(f"exact {label}", lambda p=p: exactmoments.exact_conductance_cumulant_row(p, 8), key, "EXACT"))
            if n <= 3:
                ops.append(Op(f"quadrature {label}", lambda p=p: verify.quadrature_moments(p, "G", 3)[0], key, "QUAD"))
        for beta in (1, 2, 4):
            for n in sorted(self.rng.sample(DELAY_NS, DELAY_DRAWN)):
                p = DelayParams(beta, n)
                order = min(8, p.q)
                ops.append(Op(f"delay b{beta} n{n}", lambda p=p, o=order: wigner.wigner_cumulants(p, o).values, (beta, n), "D"))
                ops.append(Op(f"delay-ode b{beta} n{n}", lambda p=p, o=min(6, p.q - 4): verify.ode_residual_wigner(p, o), (beta, n), "DODE"))
        self.ops = ops

    def check(self, outcomes):
        from dotcumulants.conductance import fourth_cumulant_closed
        from dotcumulants.errors import CumulantError
        from dotcumulants.jointcsn import mean_shot_noise, shot_noise_variance_closed
        from dotcumulants.params import TransportParams
        from dotcumulants.rational import rat
        from dotcumulants.wigner import wigner_fourth_closed

        def oracle(fn, *args):
            try:
                return fn(*args)
            except CumulantError:
                return None

        problems = []
        results = {(o.op.kind, o.op.key): o.value for o in outcomes if o.ok}
        for (kind, key), value in results.items():
            where = f"{kind} {key}"
            if kind in ("D", "DODE"):
                beta, n = key
                if kind == "DODE" and not value.passed:
                    problems.append(f"{where}: delay ODE residual is not zero")
                if kind == "D" and len(value) >= 4 and value[3] != wigner_fourth_closed(beta, n):
                    problems.append(f"{where}: K_4 differs from its closed form")
                continue
            beta, alpha, delta, n = key
            p = TransportParams(beta, rat(alpha), rat(delta), n)
            G = results.get(("G", key))
            exact = results.get(("EXACT", key))
            reference = G if G is not None else exact
            if kind == "G" and beta in (1, 2):
                k4 = oracle(fourth_cumulant_closed, p)
                if k4 is not None and value[3] != k4:
                    problems.append(f"{where}: kappa_4 differs from its closed form")
            elif kind == "J":
                column = [value[(l, 0)] for l in range(1, 5)]
                if reference is not None and column != list(reference[:4]):
                    problems.append(f"{where}: joint k=0 column differs from the conductance row")
                mean = oracle(mean_shot_noise, p)
                if mean is not None and value[(0, 1)] != mean:
                    problems.append(f"{where}: kappa_(0,1) differs from its closed form")
                if beta != 2:
                    var = oracle(shot_noise_variance_closed, p)
                    if var is not None and value[(0, 2)] != var:
                        problems.append(f"{where}: kappa_(0,2) differs from its closed form")
            elif kind == "ODE" and not value.passed:
                problems.append(f"{where}: conductance ODE residual is not zero")
            elif kind == "EXACT" and G is not None and list(value) != list(G):
                problems.append(f"{where}: exact moments differ from the recurrence")
            elif kind == "QUAD" and reference is not None:
                for l in (1, 2, 3):
                    if not agrees(value[l], reference[l - 1]):
                        problems.append(f"{where}: quadrature kappa_{l} off by more than 1e-8")
        return problems


# -- mc: samplers, threads and k-statistics -------------------------------------------


THREADS = 2
DRAWS = 250_000
REJECTION_DRAWS = 5_000
Z_LIMIT = 6.0


class MonteCarlo(Workload):
    """The float kernels.  Each batch is checked against the exact kappa_1 and
    kappa_2 at ``Z_LIMIT`` standard errors; batches must be byte-identical
    across passes and at 1 and ``THREADS`` threads."""

    name = "mc"
    modules = ("dotcumulants.montecarlo", "dotcumulants.conductance", "dotcumulants.wigner")

    def __init__(self, seed):
        super().__init__(seed)
        from dotcumulants import montecarlo
        from dotcumulants.conductance import conductance_cumulants
        from dotcumulants.params import DelayParams, TransportParams
        from dotcumulants.rational import rat
        from dotcumulants.wigner import wigner_cumulants

        os.environ["DOTCUMULANTS_THREADS"] = str(THREADS)
        seeds = [self.rng.randrange(2**32) for _ in range(5)]
        tau = DelayParams(1, 20)
        spectra = [
            ("chain b1 a-1/2 n20", TransportParams(1, rat(-1, 2), 0, 20), DRAWS),
            ("chain b4 a1 n8", TransportParams(4, 1, 0, 8), DRAWS),
            ("rejection b2 n3", TransportParams(2, 0, 0, 3), REJECTION_DRAWS),
            ("rejection b4 n4", TransportParams(4, 0, 0, 4), REJECTION_DRAWS),
        ]
        self.exact = {"tauW b1 n20": [float(v) for v in wigner_cumulants(tau, 2).values]}
        self.batches = {}
        self.tau_batch = None

        def tau_op():
            self.tau_batch = montecarlo.sample_delay_times(tau, DRAWS, seeds[0])
            return self.tau_batch.values

        self.ops = [Op("tauW b1 n20", tau_op, kind="delay", draws=DRAWS)]
        for (name, p, count), s in zip(spectra, seeds[1:]):
            self.exact[name] = [float(v) for v in conductance_cumulants(p, 2).values]
            self.ops.append(Op(
                name, lambda p=p, c=count, s=s: montecarlo.sample_jacobi_spectrum(p, c, s).g.values,
                kind="spectrum", draws=count,
            ))
        self.ops.append(Op("kstats order 5", lambda: montecarlo.estimate_cumulants(self.tau_batch, 5), kind="kstats"))
        self.threaded = self.ops[:3]  # the samplers that split work across threads

    def pass_order(self):
        # k-statistics consume the tauW batch drawn earlier in the same pass
        order = super().pass_order()
        order.remove(self.ops[-1])
        return order + [self.ops[-1]]

    def check(self, outcomes):
        from dotcumulants.montecarlo import SampleBatch, estimate_cumulants

        problems = []
        for o in outcomes:
            if not o.ok:
                continue
            if o.op.kind == "kstats":
                name, estimates = self.ops[0].name, o.value
            else:
                name = o.op.name
                digest = hashlib.sha256(o.value.tobytes()).hexdigest()
                if self.batches.setdefault(name, digest) != digest:
                    problems.append(f"{name}: batch differs between passes")
                batch = SampleBatch(statistic="G", params=None, seed=0, values=o.value)
                estimates = estimate_cumulants(batch, 2)
            for r, (k, se) in enumerate(estimates[:2], start=1):
                if abs(k - self.exact[name][r - 1]) > Z_LIMIT * se:
                    problems.append(f"{o.op.name}: k_{r} is {Z_LIMIT} standard errors off")
        return problems

    def after_timing(self):
        """Byte-identical batches at 1 thread and at ``THREADS`` threads."""
        problems = []
        os.environ["DOTCUMULANTS_THREADS"] = "1"
        try:
            for op in self.threaded:
                digest = hashlib.sha256(op.fn().tobytes()).hexdigest()
                if self.batches.get(op.name, digest) != digest:
                    problems.append(f"{op.name}: 1-thread batch differs from {THREADS}-thread batch")
        finally:
            os.environ["DOTCUMULANTS_THREADS"] = str(THREADS)
        return problems


# -- cli: the README commands, each in a fresh interpreter -----------------------------


README_COMMANDS = (
    "cumulants conductance --beta 2 --alpha 0 --delta 0 --n 1 --max-order 2",
    "cumulants joint --beta 1 --alpha=-1/2 --delta 0 --n 8 --max-l 4 --max-k 2",
    "cumulants wigner --beta 2 --n 4 --max-order 4",
    "asymptotic wigner --max-index 8",
    "asymptotic conductance --beta 1 --alpha=-1/2 --delta 0 --max-index 8",
    "asymptotic extrapolate --n-list 64,128,256 --target wigner:beta=1,l=3",
    "verify ode --which conductance --beta 2 --alpha 0 --delta 0 --n 5 --order 6",
    "verify ode --which joint --beta 4 --alpha 1 --delta 0 --n 5 --order-z 4 --order-w 2",
    "verify ode --which wigner --beta 1 --n 20 --order 4",
    "verify chazy --n 10 --order 8",
    "verify jacobi --lmax 8 --kmax 8",
    "verify oracle --beta 1 --alpha=-1/2 --delta 0 --n 2 --statistic G --max-order 3",
    "verify altland --n 7 --max-k 6",
    "verify gauss-factor --n 2 --w 0.5",
    "mc sample --statistic tauW --beta 1 --n 20 --count 100000 --seed 42 --out tau.csv",
    "mc edgeworth --beta 1 --n 20 --grid 0.4:1.8:81 --out curve.csv",
    "report table2",
)


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("DOTCUMULANTS_THREADS", "DOTCUMULANTS_PURE_PYTHON", "DOTCUMULANTS_TRACE"):
        env.pop(var, None)
    return env


class Cli(Workload):
    """The README commands, one after another, each in a fresh interpreter,
    writing into a scratch directory inside the checkout.  Exit codes and
    payload checksums are compared with pinned values."""

    name = "cli"
    modules = ("dotcumulants.cli",)

    def __init__(self, seed):
        super().__init__(seed)
        os.makedirs(SCRATCH, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="cli-", dir=SCRATCH)
        self.env = cli_env()
        self.ops = [Op(command, None, key=i) for i, command in enumerate(README_COMMANDS)]
        #: when set, each command runs under clitrace.py and prints its spans
        self.traced = False

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def argv(self, op):
        argv = op.name.split()
        if "--out" in argv:
            i = argv.index("--out")
            argv[i + 1] = os.path.join(self.workdir, argv[i + 1])
        else:
            argv += ["--out", os.path.join(self.workdir, f"out{op.key}.json")]
        return argv

    def output_path(self, op):
        argv = self.argv(op)
        return argv[argv.index("--out") + 1]

    def run_pass(self):
        outcomes = []
        for op in self.pass_order():
            if self.traced:
                cmd = [sys.executable, os.path.join(HERE, "clitrace.py")] + self.argv(op)
            else:
                cmd = [sys.executable, "-m", "dotcumulants.cli"] + self.argv(op)
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=self.env, cwd=self.workdir, capture_output=True, text=True)
            outcome = Outcome(op, time.perf_counter() - t0, value=proc.stdout)
            if proc.returncode != 0:
                outcome.token = f"exit-{proc.returncode}"
                outcome.detail = (proc.stderr.strip().splitlines() or [""])[-1]
            outcomes.append(outcome)
        return outcomes

    def payload_digest(self, op):
        """The manifest's payload checksum, after checking that it matches the
        payload it claims to cover.  ``None`` when the output is missing."""
        from dotcumulants.manifest import canonical_json

        path = self.output_path(op)
        csv = path.endswith(".csv")
        try:
            if csv:  # the checksum covers the text as written, CRLF included
                with open(path, newline="") as handle:
                    payload = handle.read()
                with open(path + ".manifest.json") as handle:
                    manifest = json.load(handle)
            else:
                with open(path) as handle:
                    document = json.load(handle)
                manifest, payload = document["manifest"], document["payload"]
        except OSError:
            return None
        os.unlink(path)
        if csv:
            os.unlink(path + ".manifest.json")
        actual = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
        return manifest["payload_sha256"] if actual == manifest["payload_sha256"] else "mismatch"

    def check(self, outcomes):
        problems = []
        pinned = EXPECTED["cli"]
        for o in outcomes:
            expected = pinned[o.op.name]
            code = 0 if o.ok else int(o.token.split("-", 1)[1])
            if code != expected["exit"]:
                problems.append(f"{o.op.name}: exit {code} != {expected['exit']} {o.detail}")
            digest = self.payload_digest(o.op)
            if digest != expected["payload_sha256"]:
                problems.append(f"{o.op.name}: payload checksum {digest} != pinned")
        return problems


WORKLOADS = {"deep": Deep, "sweep": Sweep, "mc": MonteCarlo, "cli": Cli}
