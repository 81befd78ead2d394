"""Spans: the benchmark's one timing mechanism.

A span is (id, parent, name, start, end, attrs).  Spans are kept in
memory and written as JSON lines when the process is done, so recording
costs two clock reads and one list append.  The orchestrator times
whole passes and commands with spans; a traced child process also
records a span around every call to the public functions listed in
`HOOKS`, by rebinding them on their modules from outside the package.

This module imports nothing heavy, so a child can import it before
numpy loads and still pin the BLAS threads first.
"""

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads(environ):
    """Set every BLAS thread count to one, as the package's CLI does."""
    for var in THREAD_VARS:
        environ[var] = "1"


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name, **attrs):
        span = {"id": len(self.spans),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "start": time.perf_counter(), "end": None,
                "attrs": attrs}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("span %r closed out of order" % (span["name"],))

    def span(self, name, **attrs):
        return _SpanContext(self, name, attrs)

    def wrap(self, fn, name, attrs=None):
        """Return fn recorded as a span; `name` may be a function of the
        bound arguments, and `attrs(bound, result)` adds counts."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs) if callable(name) or attrs \
                else None
            span = self.open(name(bound.arguments) if callable(name)
                             else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span["attrs"].update(attrs(bound.arguments, result))
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


class _SpanContext:
    def __init__(self, tracer, name, attrs):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self):
        self.span = self._tracer.open(self._name, **self._attrs)
        return self.span

    def __exit__(self, *exc):
        self._tracer.close(self.span)
        return False


def load_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def duration(span):
    return span["end"] - span["start"]


# ---------------------------------------------------------------------------
# what a traced process wraps


def _values(args, result):
    return {"values": int(result.size)}


def _addresses(args, result):
    import numpy as np
    return {"addresses": int(np.broadcast(np.asarray(args["index"]),
                                          np.asarray(args.get("attempt", 0))
                                          ).size),
            "values": int(result.size)}


def _panels(args, result):
    return {"panels": int(result[2])}


def _accepted(args, result):
    return {"accepted": int(args["count"])}


def _group(args, result):
    return {"group": args["spec"].group}


def _by_n(prefix):
    return lambda args: "%s.n%d" % (prefix, len(args["phis"]))


# (span name, how to count, every module binding that callers look up).
# A function imported by name into another module is wrapped there too;
# the two wrappers never nest because a call goes through one binding.
HOOKS = (
    ("rng.uniforms", _addresses, ("lowlying.rng",)),
    ("rng.normals", _values, ("lowlying.rng", "lowlying.rmt")),
    ("rmt.scaled_spectrum", None, ("lowlying.rmt",)),
    ("rmt.d_n_statistic", None, ("lowlying.rmt",)),
    ("rmt.prediction_for", None, ("lowlying.rmt",)),
    ("rmt.ensemble_average", _group, ("lowlying.rmt",)),
    (_by_n("kernels.determinant"), None, ("lowlying.kernels",),
     "prediction_with_error"),
    (_by_n("kernels.combinatorial"), None, ("lowlying.kernels",),
     "rubinstein_with_error"),
    ("quadrature.adaptive_tensor", _panels,
     ("lowlying.quadrature", "lowlying.measures")),
    ("quadrature.panel_grid", None,
     ("lowlying.quadrature", "lowlying.kernels")),
    ("measures.vertical_measure", None, ("lowlying.measures",)),
    ("measures.integrate", None, ("lowlying.measures",)),
    ("measures.density_mu_p", None, ("lowlying.measures",)),
    ("measures.sample_array", _accepted, ("lowlying.measures",)),
    ("hecke.spin_coeff_grid", None, ("lowlying.hecke", "lowlying.family")),
    ("hecke.std_coeff_grid", None, ("lowlying.hecke", "lowlying.family")),
    ("family.generate_family", None, ("lowlying.family",)),
    ("family.average_coefficient", None, ("lowlying.family",)),
    ("family.joint_sato_tate_test", None, ("lowlying.family",)),
    ("family.plus_minus_split_test", None, ("lowlying.family",)),
    ("family.write_family_csv", None, ("lowlying.family",)),
    ("paramodular.dimension_report", None, ("lowlying.paramodular",)),
)


def instrument(tracer):
    """Rebind every hooked function on its modules to a traced wrapper."""
    # import everything first: a module imported after a rebinding would
    # copy the wrapper into its own namespace and nest a second one in it
    for hook in HOOKS:
        for modname in hook[2]:
            importlib.import_module(modname)
    for hook in HOOKS:
        name, attrs, modules = hook[:3]
        func = hook[3] if len(hook) > 3 else name.rsplit(".", 1)[1]
        for modname in modules:
            module = importlib.import_module(modname)
            setattr(module, func,
                    tracer.wrap(getattr(module, func), name, attrs))


# ---------------------------------------------------------------------------
# reading spans back


class SpanIndex:
    """Durations, self times and counts over spans from several files."""

    def __init__(self, span_lists):
        self.spans = []
        self._by_name = defaultdict(list)
        child_time = defaultdict(float)
        parent_of = {}
        for k, spans in enumerate(span_lists):
            for s in spans:
                s = dict(s, id=(k, s["id"]),
                         parent=None if s["parent"] is None
                         else (k, s["parent"]),
                         dur=s["end"] - s["start"])
                self.spans.append(s)
                self._by_name[s["name"]].append(s)
                parent_of[s["id"]] = s
                if s["parent"] is not None:
                    child_time[s["parent"]] += s["dur"]
        self._parent_of = parent_of
        for s in self.spans:
            s["self"] = s["dur"] - child_time[s["id"]]

    def ancestors(self, span):
        while span["parent"] is not None:
            span = self._parent_of[span["parent"]]
            yield span

    def named(self, name, where=None):
        return [s for s in self._by_name.get(name, ())
                if where is None or where(s)]

    def calls(self, name):
        return len(self._by_name.get(name, ()))

    def total(self, name, where=None):
        """Wall time inside `name`, counting a recursive call once."""
        return sum(s["dur"] for s in self.named(name, where)
                   if not any(a["name"] == name for a in self.ancestors(s)))

    def self_time(self, name):
        return sum(s["self"] for s in self.named(name))

    def attr(self, name, key, where=None):
        return sum(s["attrs"].get(key, 0) for s in self.named(name, where))

    def within(self, name):
        """Predicate: the span runs inside a span called `name`."""
        return lambda s: any(a["name"] == name for a in self.ancestors(s))
