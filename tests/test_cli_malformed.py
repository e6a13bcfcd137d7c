"""Property test of the CLI exit contract over malformed argv.

Every drawn command line holds at least one malformed element: a
non-numeric or empty value, ``1/0``, a negative integer, an unknown flag, or
a missing required flag.  Through ``cli.dispatch`` it must return 1 (a
computation error with its token) or 2 (a usage error, argparse's own
included) without raising ``SystemExit``, print no traceback, and leave no
output file.

The valid values of every flag are tiny, so an example that fails late
still returns in milliseconds.  ``mc sample`` of G/P runs at n = 5 (the
chain sampler): at n <= 4 the rejection sampler can grind for hours.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from dotcumulants.cli import dispatch

INT, RATIONAL, FLOAT, TEXT = "int", "rational", "float", "text"

#: verb -> {flag: (valid value, kind, required)}; only flags the verb reads
VERBS = {
    ("cumulants", "conductance"): {
        "--beta": ("2", INT, True), "--alpha": ("0", RATIONAL, False),
        "--delta": ("0", RATIONAL, False), "--n": ("2", INT, True),
        "--max-order": ("2", INT, True), "--format": ("json", TEXT, False),
    },
    ("cumulants", "joint"): {
        "--beta": ("2", INT, True), "--alpha": ("0", RATIONAL, False),
        "--delta": ("0", RATIONAL, False), "--n": ("2", INT, True),
        "--max-l": ("2", INT, True), "--max-k": ("1", INT, True),
    },
    ("cumulants", "wigner"): {
        "--beta": ("2", INT, True), "--n": ("4", INT, True),
        "--b": ("12", RATIONAL, False), "--max-order": ("2", INT, True),
    },
    ("asymptotic", "conductance"): {
        "--beta": ("1", INT, True), "--alpha": ("-1/2", RATIONAL, False),
        "--delta": ("0", RATIONAL, False), "--max-index": ("4", INT, True),
    },
    ("asymptotic", "joint"): {
        "--beta": ("1", INT, True), "--alpha": ("-1/2", RATIONAL, False),
        "--delta": ("0", RATIONAL, False), "--max-index": ("2", INT, True),
    },
    ("asymptotic", "wigner"): {"--max-index": ("4", INT, True)},
    ("asymptotic", "extrapolate"): {
        "--n-list": ("4,6", TEXT, True),
        "--target": ("wigner:beta=2,l=2", TEXT, True),
    },
    ("verify", "ode", "conductance"): {
        "--which": ("conductance", TEXT, True), "--beta": ("2", INT, True),
        "--alpha": ("0", RATIONAL, False), "--delta": ("0", RATIONAL, False),
        "--n": ("2", INT, True), "--order": ("3", INT, True),
    },
    ("verify", "ode", "joint"): {
        "--which": ("joint", TEXT, True), "--beta": ("2", INT, True),
        "--alpha": ("0", RATIONAL, False), "--delta": ("0", RATIONAL, False),
        "--n": ("2", INT, True), "--order-z": ("1", INT, True),
        "--order-w": ("1", INT, True),
    },
    ("verify", "ode", "wigner"): {
        "--which": ("wigner", TEXT, True), "--beta": ("2", INT, True),
        "--n": ("8", INT, True), "--b": ("24", RATIONAL, False),
        "--order": ("3", INT, True),
    },
    ("verify", "chazy"): {"--n": ("4", INT, True), "--order": ("2", INT, True)},
    ("verify", "jacobi"): {"--lmax": ("1", INT, True), "--kmax": ("1", INT, True)},
    ("verify", "oracle"): {
        "--beta": ("2", INT, True), "--alpha": ("0", RATIONAL, False),
        "--delta": ("0", RATIONAL, False), "--n": ("1", INT, True),
        "--statistic": ("G", TEXT, False), "--max-order": ("1", INT, False),
    },
    ("verify", "altland"): {"--n": ("2", INT, True), "--max-k": ("1", INT, True)},
    ("verify", "gauss-factor"): {"--n": ("2", INT, True), "--w": ("1.5", FLOAT, True)},
    ("mc", "sample", "tauW"): {
        "--statistic": ("tauW", TEXT, True), "--beta": ("1", INT, True),
        "--n": ("6", INT, True), "--count": ("5", INT, True),
        "--seed": ("1", INT, True),
    },
    ("mc", "sample", "G"): {
        "--statistic": ("G", TEXT, True), "--beta": ("2", INT, True),
        "--alpha": ("0", RATIONAL, False), "--delta": ("0", RATIONAL, False),
        "--n": ("5", INT, True), "--count": ("5", INT, True),
        "--seed": ("1", INT, True),
    },
    ("mc", "edgeworth"): {
        "--beta": ("1", INT, True), "--n": ("20", INT, True),
        "--grid": ("0.5:1.5:3", TEXT, True), "--count": ("10", INT, False),
        "--seed": ("1", INT, False),
    },
    ("report", "table2"): {
        "--n-list": ("64,96", TEXT, False), "--max-order": ("2", INT, False),
    },
}

#: flags that no verb has and that abbreviate none of its flags
UNKNOWN_FLAGS = ("--frobnicate", "--unknown-flag", "--zz")


def _command(verb):
    """argv words of the verb itself (a trailing variant name is dropped)."""
    return list(verb[:2]) if verb[0] in ("verify", "mc") else list(verb)


@st.composite
def malformed_argv(draw):
    verb = draw(st.sampled_from(sorted(VERBS)))
    flags = {flag: spec[0] for flag, spec in VERBS[verb].items()}
    faults = ["value", "unknown"]
    if any(kind == INT for _, kind, _ in VERBS[verb].values()):
        faults.append("negative")
    if any(required for _, _, required in VERBS[verb].values()):
        faults.append("missing")
    extra = []
    for fault in draw(st.lists(st.sampled_from(faults), min_size=1, max_size=2)):
        if fault == "value":
            flag = draw(st.sampled_from(sorted(VERBS[verb])))
            flags[flag] = draw(st.sampled_from(["x", "", "1/0", "2.5.1"]))
        elif fault == "negative":
            ints = sorted(f for f, (_, kind, _) in VERBS[verb].items() if kind == INT)
            flags[draw(st.sampled_from(ints))] = str(-draw(st.integers(1, 5)))
        elif fault == "unknown":
            extra.append(f"{draw(st.sampled_from(UNKNOWN_FLAGS))}=1")
        else:
            required = sorted(f for f, (_, _, req) in VERBS[verb].items() if req)
            flags.pop(draw(st.sampled_from(required)), None)
    argv = _command(verb) + [f"{flag}={value}" for flag, value in flags.items()]
    return argv + extra


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(malformed_argv())
def test_malformed_argv_exits_1_or_2_without_traceback_or_output(argv):
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "out.file")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = dispatch(argv + [f"--out={out}"])
        assert code in (1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()
        assert os.listdir(scratch) == []
