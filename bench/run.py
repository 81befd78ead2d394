"""Benchmark of the lowlying laboratory, run the way a user runs it.

    python3 bench/run.py --workload {ensemble,family,predict} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout (the directory holding `src/lowlying`).
Without --workload it runs all three in turn.  Every CLI command runs in
a fresh process with BLAS pinned to one thread, so module caches start
cold, as they do for a user; `predict` runs its library calls in one
fresh process.  Load is a closed loop: one command at a time, nothing
queues, so no layer reports a wait time.

With --trace 0 the workload repeats whole passes until --seconds is used
up (at least two passes where a pass is short enough to repeat) and
reports end-to-end metrics, each the median over passes.  Times of CLI
commands and library calls are scaled to a reference host pace (see
PaceSampler); the unscaled pass time is printed as raw_wall_s.

  wall_s       wall time of one pass.
  setup_s      fresh interpreter, threads pinned, importing every
               lowlying module (median of several starts per run).
  peak_rss_mb  largest max-RSS among the run's processes.
  main_s       the dominant part of a pass:
                 ensemble  the SOeven, SOodd and USp `rmt` commands
                 family    the `family` command
                 predict   the determinant-route calls
  rest_s       the rest of a pass, which the main part's optimisations
               should leave alone:
                 ensemble  the `U` `rmt` command
                 family    the `density`, `moments` and `dims` commands
                 predict   the combinatorial-route calls
  items_per_s  ensemble  Haar matrices through spectrum and statistic
                         per second of `rmt` wall time (main + rest)
               family    forms x primes sampled, reduced and exported
                         per second of `family`-command wall time (main)
               predict   library calls per second of call time

With --trace 1 it runs one untraced and one traced pass, checks that
both wrote byte-identical outputs, and reports the per-layer metrics of
the traced pass (see LAYER_METRICS) and the tracing overhead.

An operation is one CLI command, or one library call in `predict`.  It
fails on a nonzero exit, on `"pass": false`, on a failed output check,
or when its output digest differs from the first pass of the same run
(or, traced, from the untraced pass).  The last stdout line is the JSON
result; the exit code is 1 when any operation failed.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

from tracing import (SpanIndex, THREAD_VARS, Tracer, duration, load_spans,
                     pin_threads)

BENCH = os.path.dirname(os.path.abspath(__file__))

# A run has to end within 180 s, so every child gets what is left of this.
RUN_BUDGET_S = 170.0
SETUP_STARTS = 5

RMT_SAMPLES = 500
RMT_SIZE = 30
RMT_RUNS = (("SOeven", "0.9"), ("SOodd", "0.9"), ("USp", "0.45,0.45"),
            ("U", "0.9"))
FAMILY_FORMS = 100000
FAMILY_PRIMES = (2, 3, 5)
DENSITY_GRID = 41

# `rmt` and `family` gate their outputs at |z| < 3, on 1 and on 22
# z-scores, so some seeds fail by pure chance.  Of seeds 0..47 at the
# commit that added this benchmark, `family` failed on 2, 4, 26, 41 and
# 45 and `rmt` U on 15, with z-scores unbiased (mean within 0.3 of 0, sd
# near 1) in every group and moment.  --seed N selects
# PROGRAM_SEEDS[N % len], all of which passed every gate, so a failure
# means the numbers changed.
PROGRAM_SEEDS = tuple(s for s in range(48)
                      if s not in (2, 4, 15, 26, 41, 45))

WHY = {
    "ensemble": "rmt at N=30 for SOeven, SOodd, USp D2 and U: rng normals, "
                "Haar QR/polar, eigen-extraction and the n-level statistic "
                "work; U is the control for SO/USp changes",
    "family": "README density, moments, family --csv and dims: measures, "
              "quadrature, rejection sampling, hecke, family and CSV/JSON "
              "export work while rmt and kernels idle",
    "predict": "criterion 4 in one process, n=1..3 both routes and n=4..8 "
               "combinatorial: the determinant route's box quadrature "
               "against the combinatorial route's partition loops",
}

# n = 4..8 combinatorial values at beta 0.1, recorded at the commit that
# added this benchmark; a new value must lie within its own reported
# error of these.
WIDE_REFERENCE = {
    (4, 1): 0.5178595831427191, (4, -1): 0.33350624982591887,
    (5, 1): 0.2990882974853277, (5, -1): 0.17028600590156773,
    (6, 1): 0.14643295671149906, (6, -1): 0.0736430406469254,
    (7, 1): 0.06087166613407866, (7, -1): 0.027113255186668295,
    (8, 1): 0.021633970087572636, (8, -1): 0.008583334562066676,
}
AGREEMENT_TOL = 1e-6  # criterion 4, determinant against combinatorial


class OutOfTime(Exception):
    pass


class PaceSampler:
    """Background thread timing a fixed pure-Python loop in CPU seconds.

    On a shared 2-core VM the host's speed swung by up to 2x for seconds
    at a time (other tenants), on the core the program runs on; no
    repetition within a run averages that away.  This thread shares that
    core and times the loop every PERIOD_S, so any interval's time can be
    scaled by REF_PACE_S over the loop's mean CPU time inside it: it
    reads as seconds at the pace where the loop takes REF_PACE_S.
    Measured there on identical `rmt` runs, this cut the spread from 14%
    to 4%; scaling by one sample before and one after each process only
    reached 8%, and added noise to the 25 s calls.  The loop takes about
    2% of the core.
    """

    ITERS = 15000
    PERIOD_S = 0.05
    REF_PACE_S = 0.001

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def _run(self):
        while not self._stop.wait(self.PERIOD_S):
            start, cpu = time.perf_counter(), time.thread_time()
            total = 0
            for i in range(self.ITERS):
                total += i * i
            self.samples.append((start, time.thread_time() - cpu))

    def at_pace(self, start, end):
        """Seconds from start to end (perf_counter, any process) at the
        reference pace; a short interval borrows the samples next to it."""
        paces = [cpu for t, cpu in self.samples
                 if start - self.PERIOD_S <= t <= end + self.PERIOD_S]
        if not paces:
            return end - start
        return (end - start) * self.REF_PACE_S / statistics.mean(paces)


class Bench:
    """One run: the checkout, the child environment and the span record."""

    def __init__(self, root, workload, program_seed, sampler):
        self.root = root
        self.sampler = sampler
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".bench_work", workload)
        self.workload = workload
        self.program_seed = program_seed
        self.env = dict(os.environ, PYTHONPATH=self.src)
        pin_threads(self.env)
        self.tracer = Tracer()
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        os.makedirs(self.work, exist_ok=True)

    def child(self, argv):
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise OutOfTime()
        try:
            return subprocess.run([sys.executable] + argv, cwd=self.work,
                                  env=self.env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired:
            raise OutOfTime()

    def path(self, name):
        return os.path.join(self.work, name)

    def timed(self, name, run, **attrs):
        """run() in a span; returns the result, its seconds at the
        reference pace and its raw seconds."""
        with self.tracer.span(name, **attrs) as span:
            result = run()
        return (result, self.sampler.at_pace(span["start"], span["end"]),
                duration(span))


# ---------------------------------------------------------------------------
# operations


def _digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _lines(path):
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _rmt_check(bench, doc):
    rep = doc["report"]
    if rep["samples"] != RMT_SAMPLES or rep["N"] != RMT_SIZE:
        return "report is for N=%s, %s samples" % (rep["N"], rep["samples"])


def _density_check(bench, doc):
    if _lines(bench.path("density.csv")) != DENSITY_GRID ** 2 + 1:
        return "density.csv does not hold the %d^2 grid" % DENSITY_GRID


def _moments_check(bench, doc):
    if len(doc["rows"]) != 3 * 6:
        return "moments has %d rows, not 18" % len(doc["rows"])


def _family_check(bench, doc):
    want = FAMILY_FORMS * len(FAMILY_PRIMES) + 1
    if _lines(bench.path("family.csv")) != want:
        return "family.csv does not hold %d lines" % want


def _dims_check(bench, doc):
    if doc["rows"] != 4 or _lines(bench.path("dims.csv")) != 5:
        return "dims table does not hold 2 weights x 2 levels"


class Command:
    """One CLI command of a workload: an operation in its own process."""

    def __init__(self, name, part, argv, outputs, sidecar, check):
        self.name, self.part, self.argv = name, part, argv
        self.outputs, self.sidecar, self.check = outputs, sidecar, check

    def run(self, bench, traced, spans_path):
        if traced:
            argv = [os.path.join(BENCH, "traced_cli.py"), spans_path]
        else:
            argv = ["-m", "lowlying"]
        proc, wall, raw = bench.timed(
            "command", lambda: bench.child(argv + self.argv),
            command=self.name)
        timing = (wall, raw, {self.part: wall})
        if proc.returncode != 0:
            return [(self.name, "exit %d: %s" % (
                proc.returncode, proc.stderr.strip()[-300:]), None)], timing
        with open(bench.path(self.sidecar)) as fh:
            doc = json.load(fh)
        if doc.get("pass") is not True:
            return [(self.name, '"pass" is not true', None)], timing
        digest = _digest(bench.path(o) for o in self.outputs)
        return [(self.name, self.check(bench, doc), digest)], timing


class PredictProcess:
    """The `predict` library calls, one operation per call."""

    name = "predict"
    outputs = ("predict.json",)

    def run(self, bench, traced, spans_path):
        argv = [os.path.join(BENCH, "predict.py"), "--out", "predict.json",
                "--spans", spans_path] + (["--trace"] if traced else [])
        proc, wall, raw = bench.timed("command", lambda: bench.child(argv),
                                      command=self.name)
        if proc.returncode != 0:
            why = "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-300:])
            return [("predict", why, None)], (wall, raw, {})
        parts = {"main": 0.0, "rest": 0.0}
        for s in load_spans(spans_path):
            if s["name"].startswith("predict."):
                part = "main" if s["name"] == "predict.determinant" \
                    else "rest"
                parts[part] += bench.sampler.at_pace(s["start"], s["end"])
        with open(bench.path("predict.json")) as fh:
            calls = json.load(fh)["calls"]
        return _check_predict(calls), (wall, raw, parts)


def _check_predict(calls):
    ops = []
    det = {(len(c["betas"]), c["sign"]): c for c in calls
           if c["route"] == "determinant"}
    for c in calls:
        n, sign = len(c["betas"]), c["sign"]
        name = "%s.n%d.%+d" % (c["route"], n, sign)
        why = None
        if c["route"] == "combinatorial" and (n, sign) in det:
            gap = abs(c["value"] - det[n, sign]["value"])
            if not gap < AGREEMENT_TOL:
                why = "routes differ by %.3g" % gap
        elif c["route"] == "combinatorial":
            gap = abs(c["value"] - WIDE_REFERENCE[n, sign])
            if not gap <= c["error"]:
                why = "off the reference by %.3g > error %.3g" % (
                    gap, c["error"])
        ops.append((name, why,
                    hashlib.sha256(json.dumps(c, sort_keys=True).encode()
                                   ).hexdigest()))
    if len(det) != 6 or len(ops) != items_per_pass("predict"):
        ops.append(("predict", "expected %d calls, got %d"
                    % (items_per_pass("predict"), len(ops)), None))
    return ops


def workload_ops(workload, seed):
    if workload == "predict":
        return [PredictProcess()]
    if workload == "ensemble":
        return [Command("rmt.%s" % g, "rest" if g == "U" else "main",
                        ["rmt", "--group", g, "--size", str(RMT_SIZE),
                         "--samples", str(RMT_SAMPLES), "--beta", b,
                         "--seed", str(seed), "--out", "rmt_%s.json" % g],
                        ["rmt_%s.json" % g], "rmt_%s.json" % g, _rmt_check)
                for g, b in RMT_RUNS]
    primes = ",".join(str(p) for p in FAMILY_PRIMES)
    return [
        Command("density", "rest",
                ["density", "--p", "2", "--grid", str(DENSITY_GRID),
                 "--out", "density.csv"],
                ["density.csv", "density.csv.json"], "density.csv.json",
                _density_check),
        Command("moments", "rest",
                ["moments", "--primes", primes, "--nmax", "6",
                 "--out", "moments.json"],
                ["moments.json"], "moments.json", _moments_check),
        Command("family", "main",
                ["family", "--primes", primes, "--forms", str(FAMILY_FORMS),
                 "--seed", str(seed), "--m", "1,2,4,9,12,36",
                 "--csv", "family.csv", "--out", "family.json"],
                ["family.csv", "family.json"], "family.json", _family_check),
        Command("dims", "rest",
                ["dims", "--weights", "4,4;5,4", "--levels", "1,2",
                 "--out", "dims.csv"],
                ["dims.csv", "dims.csv.json"], "dims.csv.json", _dims_check),
    ]


def items_per_pass(workload):
    if workload == "ensemble":
        return len(RMT_RUNS) * RMT_SAMPLES
    if workload == "family":
        return FAMILY_FORMS * len(FAMILY_PRIMES)
    return 2 * 2 * 3 + len(WIDE_REFERENCE)


# ---------------------------------------------------------------------------
# passes


def run_pass(bench, ops, traced, label):
    """One pass over the workload: figures, op results and span files.

    Figures are at the reference pace; "raw_wall_s" is the unscaled wall
    time of the pass's processes."""
    results, span_files = [], []
    fig = {"wall_s": 0.0, "main_s": 0.0, "rest_s": 0.0, "raw_wall_s": 0.0}
    with bench.tracer.span("pass", label=label):
        for k, op in enumerate(ops):
            span_files.append(bench.path("spans_%s_%d.jsonl" % (label, k)))
            got, (wall, raw, parts) = op.run(bench, traced, span_files[-1])
            results.extend(got)
            fig["wall_s"] += wall
            fig["raw_wall_s"] += raw
            for part, seconds in parts.items():
                fig[part + "_s"] += seconds
    base = fig["main_s"] if bench.workload == "family" \
        else fig["main_s"] + fig["rest_s"]
    fig["items_per_s"] = items_per_pass(bench.workload) / base if base else 0.0
    return fig, results, span_files


def compare(reference, results, failures, what):
    """Count a failure for each op whose digest differs from the reference."""
    ref = {name: digest for name, _, digest in reference}
    for name, why, digest in results:
        if why is None and digest is not None and ref.get(name) not in (
                None, digest):
            failures.append((name, "output differs from %s" % what))


def measure_setup(bench):
    mods = sorted(os.path.basename(p)[:-3] for p in
                  glob.glob(os.path.join(bench.src, "lowlying", "*.py")))
    code = "import " + ", ".join(
        "lowlying" if m == "__init__" else "lowlying." + m
        for m in mods if m != "__main__")
    times = []
    for _ in range(SETUP_STARTS):
        proc, seconds, _ = bench.timed("setup",
                                       lambda: bench.child(["-c", code]))
        if proc.returncode != 0:
            raise RuntimeError("importing lowlying failed: %s"
                               % proc.stderr.strip()[-300:])
        times.append(seconds)
    return times


# ---------------------------------------------------------------------------
# per-layer metrics of a traced pass


def _layer_metrics():
    """(name, unit, function of (SpanIndex, extras)) for every metric."""
    m = []

    def add(name, unit, fn):
        m.append((name, unit, fn))

    def calls(span):
        add(span + ".calls", "count", lambda ix, x: ix.calls(span))

    def self_s(span):
        add(span + ".self_s", "s", lambda ix, x: ix.self_time(span))

    def total(span, metric=None, where=None):
        add(metric or span + ".s", "s", lambda ix, x: ix.total(span, where))

    def attr(span, key, metric):
        add(metric, "count", lambda ix, x: ix.attr(span, key))

    for span in ("rng.normals", "rng.uniforms"):
        calls(span)
        attr(span, "values", span + ".values")
        self_s(span)
    for span in ("rmt.scaled_spectrum", "rmt.d_n_statistic"):
        calls(span)
        self_s(span)
    total("rmt.prediction_for")
    self_s("rmt.ensemble_average")
    for g, _ in RMT_RUNS:
        total("rmt.ensemble_average", "rmt.ensemble_average.%s.s" % g,
              lambda s, g=g: s["attrs"]["group"] == g)
    for n in (1, 2, 3):
        total("kernels.determinant.n%d" % n)
    for n in range(1, 9):
        total("kernels.combinatorial.n%d" % n)
    calls("quadrature.adaptive_tensor")
    attr("quadrature.adaptive_tensor", "panels",
         "quadrature.adaptive_tensor.panels")
    self_s("quadrature.adaptive_tensor")
    calls("quadrature.panel_grid")
    self_s("quadrature.panel_grid")
    total("measures.vertical_measure")
    calls("measures.integrate")
    total("measures.integrate")
    calls("measures.density_mu_p")
    self_s("measures.density_mu_p")

    def attempts(ix):
        return ix.attr("rng.uniforms", "addresses",
                       ix.within("measures.sample_array"))

    def accepted(ix):
        return ix.attr("measures.sample_array", "accepted")

    self_s("measures.sample_array")
    add("measures.sample_array.attempts", "count",
        lambda ix, x: attempts(ix))
    add("measures.sample_array.accepted", "count",
        lambda ix, x: accepted(ix))
    add("measures.sample_array.acceptance", "ratio",
        lambda ix, x: accepted(ix) / attempts(ix) if attempts(ix) else 0.0)
    for span in ("hecke.spin_coeff_grid", "hecke.std_coeff_grid"):
        calls(span)
        self_s(span)
    total("family.generate_family")
    for f in ("average_coefficient", "joint_sato_tate_test",
              "plus_minus_split_test", "write_family_csv"):
        self_s("family." + f)
    add("export.csv_bytes", "B", lambda ix, x: x["csv_bytes"])
    calls("paramodular.dimension_report")
    self_s("paramodular.dimension_report")
    for cmd in ("density", "moments", "rmt", "family", "dims"):
        total("cli." + cmd)
    add("cli.self_s", "s", lambda ix, x: sum(
        ix.self_time("cli." + c)
        for c in ("density", "moments", "rmt", "family", "dims")))
    add("export.json_bytes", "B", lambda ix, x: x["json_bytes"])
    add("trace.overhead_s", "s", lambda ix, x: x["overhead_s"])
    return m


LAYER_METRICS = _layer_metrics()
E2E_UNITS = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
             ("main_s", "s"), ("rest_s", "s"), ("items_per_s", "1/s"))


# ---------------------------------------------------------------------------
# a run


def host_record(bench, seed, seconds):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    source = hashlib.sha256()
    for p in sorted(glob.glob(os.path.join(bench.src, "lowlying", "*.py"))):
        with open(p, "rb") as fh:
            source.update(fh.read())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "threads": {v: bench.env[v] for v in THREAD_VARS},
            "commit": commit, "source_sha256": source.hexdigest(),
            "seed": seed, "program_seed": bench.program_seed,
            "seconds": seconds}


def measure_traced(bench, ops, failures):
    """An untraced and a traced pass: per-layer metrics, op count."""
    plain, ref, _ = run_pass(bench, ops, False, "untraced")
    traced, results, span_files = run_pass(bench, ops, True, "traced")
    failures += [(n, why) for n, why, _ in ref + results if why]
    compare(ref, results, failures, "the untraced pass")
    extras = {"overhead_s": traced["wall_s"] - plain["wall_s"],
              "csv_bytes": 0, "json_bytes": 0}
    for op in ops:
        for out in op.outputs:
            kind = "csv_bytes" if out.endswith(".csv") else "json_bytes"
            extras[kind] += os.path.getsize(bench.path(out))
    index = SpanIndex(load_spans(p) for p in span_files)
    metrics = {name: {"value": fn(index, extras), "unit": unit}
               for name, unit, fn in LAYER_METRICS}
    return metrics, len(ref) + len(results)


def measure_plain(bench, ops, seconds, failures):
    """Passes until `seconds` is used up: end-to-end metrics, op count."""
    setup = measure_setup(bench)
    figures, first, attempted = [], None, 0
    min_passes = 1 if bench.workload == "predict" else 2
    start = time.perf_counter()
    while True:
        fig, results, _ = run_pass(bench, ops, False, "p%d" % len(figures))
        attempted += len(results)
        failures += [(n, why) for n, why, _ in results if why]
        if first is None:
            first = results
        else:
            compare(first, results, failures, "the first pass")
        figures.append(fig)
        walls = [f["wall_s"] for f in figures]
        if len(figures) >= min_passes and (time.perf_counter() - start
                                           + statistics.median(walls)
                                           > seconds):
            break
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    series = {name: [f[name] for f in figures] for name in figures[0]}
    series["setup_s"] = setup
    series["peak_rss_mb"] = [rss / 1024.0]
    metrics = {}
    for name, unit in E2E_UNITS + (("raw_wall_s", "s"),):
        values = series[name]
        print("%-12s median %.6g  range %.6g..%.6g  n=%d  %s"
              % (name, statistics.median(values), min(values), max(values),
                 len(values), unit))
        if name != "raw_wall_s":
            metrics[name] = {"value": statistics.median(values),
                             "unit": unit}
    return metrics, attempted


def run_workload(root, workload, seed, seconds, trace):
    program_seed = PROGRAM_SEEDS[seed % len(PROGRAM_SEEDS)]
    # the pace sampler and the program share one core, so the sampler
    # sees the pace the program gets; children inherit the affinity
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    failures, metrics, attempted = [], {}, 0
    with PaceSampler() as sampler:
        bench = Bench(root, workload, program_seed, sampler)
        host = host_record(bench, seed, seconds)
        print("workload %s: %s" % (workload, WHY[workload]))
        print("host %s" % json.dumps(host, sort_keys=True))
        ops = workload_ops(workload, program_seed)
        try:
            if trace:
                metrics, attempted = measure_traced(bench, ops, failures)
            else:
                metrics, attempted = measure_plain(bench, ops, seconds,
                                                   failures)
        except OutOfTime:
            failures.append(("run", "over the %g s budget" % RUN_BUDGET_S))
            metrics = {}
    attempted = max(attempted, 1)
    for name, why in failures:
        print("FAILED %s: %s" % (name, why))
    print("ops %d failed_ops %d" % (attempted, len(failures)))
    result = {"correct": not failures, "attempted": attempted,
              "failed": min(len(failures), attempted), "metrics": metrics}
    with open(os.path.join(bench.work, "result.json"), "w") as fh:
        json.dump(dict(result, host=host, workload=workload), fh,
                  indent=1, sort_keys=True)
    bench.tracer.dump(os.path.join(bench.work, "spans.jsonl"))
    print(json.dumps(result, sort_keys=True))
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lowlying", "cli.py")):
        print("error: run from a checkout root holding src/lowlying",
              file=sys.stderr)
        return 2
    if args.workload:
        return run_workload(root, args.workload, args.seed, args.seconds,
                            args.trace)
    # each workload in its own process, so peak RSS and affinity are its own
    codes = [subprocess.run([sys.executable, os.path.abspath(__file__),
                             "--workload", w, "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", str(args.trace)]).returncode
             for w in sorted(WHY)]
    return max(codes)

if __name__ == "__main__":
    sys.exit(main())
