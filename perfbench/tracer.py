"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces the public entry points of each layer module of
``dotcumulants`` (and the few engine methods the recurrences recurse through)
with timing wrappers, rebinding every name under which another module of the
package imported them.  ``uninstall()`` restores the originals.  Nothing is
recorded while ``active`` is false, so checks can call the same functions.

A span is (name, layer, duration, self time, outermost in its layer, root).
Self time is the duration minus the time covered by child spans, so a
recursive engine's time is not counted twice.  Spans are kept in memory;
``summary()`` aggregates them at the end.  Hooks on a few results add counts
(Bell-transform terms, draws, bytes written, lattice points) and maxima
(rational bit sizes, lattice radius), and the generators drawn by the
rejection sampler are counted to give its proposals.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, defaultdict

#: layer modules whose public functions are all wrapped
LAYER_MODULES = (
    "ensembles", "conductance", "jointcsn", "wigner", "exactmoments",
    "quadrature", "verify", "asymptotics", "report", "montecarlo", "manifest",
)

#: (module, class, methods) wrapped in addition; the layer is the module
METHODS = (
    ("series", "TruncatedSeries", ("__mul__", "__add__", "exponential", "differentiate", "shift", "truncate")),
    ("conductance", "ConductanceEngine", ("kappas",)),
    ("jointcsn", "JointEngine", ("table",)),
    ("wigner", "DelayEngine", ("cumulants",)),
)

#: private sampler paths, wrapped when present (the layer is montecarlo)
PRIVATE = ("_sample_chain", "_sample_rejection")

#: span names that get their own layer rather than their module's
OWN_LAYER = {"conductance.bell_transform": "bell_transform"}

#: exact moment-to-cumulant algebra, not numerical quadrature: its time stays
#: with the caller
SKIP = {"quadrature.moments_to_cumulants"}


def _bits(values):
    top = 0
    for v in values:
        top = max(top, int(v.numerator).bit_length(), int(v.denominator).bit_length())
    return top


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []
        self.counters = Counter()
        self.maxima = Counter()
        self._local = threading.local()
        self._restore = []

    # -- recording -----------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1][0] if stack else None

    def wrap(self, fn, name, layer, on_return=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            outermost = not stack or stack[-1][1] != layer
            frame = [name, layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][2] += duration
                tracer.spans.append((name, layer, duration, duration - frame[2], outermost, not stack))
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------------

    def install(self):
        """Wrap the layers already imported; a module imported later is not
        traced, and a name that no longer exists is skipped (its metrics
        read 0)."""
        loaded = {
            name.split(".", 1)[1]: module
            for name, module in list(sys.modules.items())
            if name.startswith("dotcumulants.") and module is not None
        }
        replacements = {}
        for short in LAYER_MODULES:
            module = loaded.get(short)
            if module is None:
                continue
            for attr, value in vars(module).items():
                name = f"{short}.{attr}"
                public = not attr.startswith("_") or attr in PRIVATE
                if public and name not in SKIP and callable(value) and not isinstance(value, type) and getattr(value, "__module__", None) == module.__name__:
                    layer = OWN_LAYER.get(name, short)
                    replacements[id(value)] = (value, self.wrap(value, name, layer, _HOOKS.get(name)))
        for short, cls_name, methods in METHODS:
            cls = getattr(loaded.get(short), cls_name, None)
            if cls is None:
                continue
            for meth in methods:
                original = cls.__dict__.get(meth)
                if original is None:
                    continue
                wrapped = self.wrap(original, f"{short}.{cls_name}.{meth}", short, _HOOKS.get(f"{short}.{cls_name}.{meth}"))
                for attr, value in list(vars(cls).items()):
                    if value is original:
                        self._restore.append((cls, attr, value))
                        setattr(cls, attr, wrapped)
        montecarlo = loaded.get("montecarlo")
        if montecarlo is not None and hasattr(montecarlo, "_rng_stream"):
            stream = montecarlo._rng_stream
            self._restore.append((montecarlo, "_rng_stream", stream))
            montecarlo._rng_stream = self._counting_stream(stream)
        for module in loaded.values():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    def _counting_stream(self, stream):
        """Counts generators drawn per enclosing span (rejection proposals
        come in sub-batches of one generator each)."""
        tracer = self

        def counted(seed):
            owner = tracer.current() if tracer.active else None
            for rng in stream(seed):
                if owner is not None:
                    tracer.counters[f"rng_streams:{owner}"] += 1
                yield rng

        return counted

    # -- aggregation ---------------------------------------------------------------

    def reset(self):
        self.spans = []
        self.counters = Counter()
        self.maxima = Counter()

    def summary(self):
        """Plain-data aggregate of the recorded spans, additive across passes
        and processes except for ``maxima``."""
        by_name = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        by_layer = defaultdict(lambda: [0, 0, 0.0, 0.0])  # calls, entries, inclusive, self
        root = 0.0
        for name, layer, duration, self_time, outermost, is_root in self.spans:
            row = by_name[name]
            row[0] += 1
            row[1] += duration
            row[2] += self_time
            lay = by_layer[layer]
            lay[0] += 1
            lay[2] += duration if outermost else 0.0
            lay[1] += 1 if outermost else 0
            lay[3] += self_time
            if is_root:
                root += duration
        return {
            "spans": len(self.spans),
            "root_s": root,
            "by_name": dict(by_name),
            "by_layer": dict(by_layer),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }


# -- hooks on results ---------------------------------------------------------------


def _keep_max(tracer, key, value):
    tracer.maxima[key] = max(tracer.maxima[key], value)


def _rational_bits(tracer, args, result):
    values = result if isinstance(result, (list, tuple, dict)) else result.values
    _keep_max(tracer, "rational.out_bits_max", _bits(values.values() if isinstance(values, dict) else values))


def _conductance_result(tracer, args, result):
    _rational_bits(tracer, args, result)
    _keep_max(tracer, "conductance.lattice_radius", getattr(result, "lattice_radius", 0))


def _joint_result(tracer, args, result):
    _rational_bits(tracer, args, result)
    boundary = getattr(result, "boundary", None)
    _keep_max(tracer, "conductance.lattice_radius", getattr(boundary, "lattice_radius", 0))


def _wigner_result(tracer, args, result):
    _rational_bits(tracer, args, result)
    tracer.counters["wigner.lattice_points"] += len(getattr(result, "lattice_note", ()))


def _bell_terms(tracer, args, result):
    order = args[1]
    tracer.counters["bell_transform.terms"] += order * (order + 1) // 2


def _draws(key):
    def hook(tracer, args, result):
        values = result.values if hasattr(result, "values") else result[0]
        tracer.counters[key] += len(values)

    return hook


def _written(tracer, args, result):
    tracer.counters["manifest.bytes"] += len(args[1].encode())


_HOOKS = {
    "conductance.conductance_cumulants": _conductance_result,
    "jointcsn.joint_cumulants": _joint_result,
    "wigner.wigner_cumulants": _wigner_result,
    "exactmoments.exact_conductance_cumulant_row": _rational_bits,
    "exactmoments.exact_transport_cumulants": _rational_bits,
    "conductance.bell_transform": _bell_terms,
    "montecarlo.sample_delay_times": _draws("draws:delay"),
    "montecarlo._sample_chain": _draws("draws:chain"),
    "montecarlo._sample_rejection": _draws("draws:rejection"),
    "manifest.atomic_write_text": _written,
}
