"""Run one ``dotcumulants`` command with the layer tracer installed.

    python3 perfbench/clitrace.py <dotcumulants arguments>

Behaves like ``python3 -m dotcumulants.cli`` (same exit code, same output
files) and prints one JSON object on standard output: the import time of
``dotcumulants.cli``, the dispatch time, and the tracer's summary.
"""

import json
import sys
import time

from tracer import Tracer

t0 = time.perf_counter()
import dotcumulants.cli as cli  # noqa: E402  (timed import)

import_s = time.perf_counter() - t0
tracer = Tracer().install()
dispatch = tracer.wrap(cli.dispatch, "cli.dispatch", "cli")
tracer.active = True
t1 = time.perf_counter()
code = dispatch(sys.argv[1:])
dispatch_s = time.perf_counter() - t1
tracer.active = False
json.dump({"import_s": import_s, "dispatch_s": dispatch_s, "summary": tracer.summary()}, sys.stdout)
sys.stdout.flush()
sys.exit(code)
