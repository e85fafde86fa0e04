"""rigidkit benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload grid2d-loops --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics"; the line before it holds
the details (environment, input files, the named metrics of each
workload, repeatable counts and any failures).  ``--smoke`` runs every
workload on tiny inputs, traced and untraced, in about 15 seconds.

Workloads (all inputs are generated here, see inputs.py and kit.py):

grid2d-loops    ``rigidkit slam IN OUT`` on grid2d-2025 (3,960 edges, sparse
                path): normal-equation assembly and LM retries dominate
sphere3d-chain  ``rigidkit slam IN OUT`` on sphere3d-1500: every edge goes
                through the SE(3) kernel; 23 accepted steps
small-graphs    in-process read_g2o -> optimize -> format_g2o over 16
                graphs below the dense-solve limit: per-graph fixed costs
scalar-kit      ``rigidkit jacobian-check --samples 100`` plus a mix of
                single-pose calls; the solver does no work here

End-to-end metrics (``--trace 0``), on every workload:

setup_s       fresh interpreter until ``import rigidkit`` is done and the
              inputs are parsed; median of at least five, after a warm-up
task_s        wall time of the workload's task, the fastest in the run: the
              slam process, one pass over the 16 graphs, or the
              jacobian-check process
peak_rss_mb   median peak resident memory of the task's process

Setup probes and task samples alternate until --seconds have passed.
On a shared 2-CPU machine the speed of the same code drifts by up to 2x
over seconds to minutes; the fastest sample of a run is the steadiest
estimate of the program's cost, so task_s uses it.  The details line
also gives graphs_per_s (small-graphs) and kit_calls_per_s (scalar-kit:
correct calls per second in the mix, at the 90th percentile of its
~40 ms rounds).  They are not gated metrics: across runs they spread
more than any allowed bound, with the machine's drift.

A traced run (``--trace 1``) times the same layers from outside, with a
span around each call into the library, and reports per-layer metrics.
Its spans go to .perfbench/trace-WORKLOAD-seedSEED.jsonl.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# One BLAS thread in this process and in every process it starts, so that
# timings do not depend on how BLAS threads share the two CPUs.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import kit  # noqa: E402
import tracing  # noqa: E402

NOISE_SEED = 1
MAX_ITERS = 50
SETUP_PROBES = 5
MIX_CHUNK_S = 1.0
DEADLINE_S = 170
# A solver may stop earlier only if it ends this close to today's optimum.
CHI2_REL_TOL = 1e-6

SMALL_GRAPHS = ([("circle2d", n, s) for n in (60, 120, 240, 480) for s in (1, 2)]
                + [("sphere3d", n, s) for n in (60, 120, 180, 240) for s in (1, 2)])

# chi2 of today's solver on each workload; equal for every seed, because
# the seed does not change the arithmetic (see inputs.py).
REF_CHI2 = {
    "grid2d-loops": [5809.2382526136817],
    "sphere3d-chain": [5.8329174966610],
    "small-graphs": [7.7255515268918264, 6.867718898453476, 11.179988809071842,
                     3.157579916800554, 15.11116459826014, 2.8208833028313633,
                     14.372034152456637, 7.382161399586266, 4.542586801232436,
                     2.2351261047331596, 10.056595143757166, 5.693194057739324,
                     12.636691723121052, 5.034328309628297, 10.12654569039737,
                     7.201187675509295],
}

# Counts of today's solver.  They repeat exactly on every run and seed; a
# difference is reported under "counts_changed" (a solver change moves
# them on purpose), not as a failure.
BASELINE_COUNTS = {
    "grid2d-loops": {"graphslam.steps": 8, "graphslam.lm_rejected": 2,
                     "graphslam.h_nnz": 73624, "graphslam.chi2_final": 5809.238252613682},
    "sphere3d-chain": {"graphslam.steps": 23, "graphslam.lm_rejected": 0,
                       "graphslam.h_nnz": 134856, "graphslam.chi2_final": 5.832917496660934},
    "small-graphs": {"graphslam.steps": 99, "graphslam.lm_rejected": 30,
                     "graphslam.h_nnz": 147952, "graphslam.chi2_final": 126.14333811047017},
    "scalar-kit": {"numcheck.ops_passed": 48},
}

WORKLOADS = {
    "grid2d-loops": {"graphs": [("grid2d", 2025, NOISE_SEED)], "task": "slam"},
    "sphere3d-chain": {"graphs": [("sphere3d", 1500, NOISE_SEED)], "task": "slam"},
    "small-graphs": {"graphs": SMALL_GRAPHS, "task": "batch"},
    "scalar-kit": {"graphs": [], "task": "catalog", "samples": 100, "cases": kit.PER_RUN},
}

SMOKE = {
    "grid2d-loops": {"graphs": [("grid2d", 100, 1)], "task": "slam"},
    "sphere3d-chain": {"graphs": [("sphere3d", 40, 1)], "task": "slam"},
    "small-graphs": {"graphs": [("circle2d", 30, 1), ("sphere3d", 20, 2)], "task": "batch"},
    "scalar-kit": {"graphs": [], "task": "catalog", "samples": 2, "cases": 8},
}

PER_LAYER = [
    "graphslam.build_s", "graphslam.chi2_s", "graphslam.step_s", "graphslam.optimize_s",
    "graphslam.steps", "graphslam.lm_rejected", "graphslam.coords", "graphslam.h_nnz",
    "graphslam.chi2_final", "manifold_jac.edge_error_us", "lie.pseudo_exp_us",
    "lie.so3_log_us", "core.pose_ctor_us", "core.convert_gaussian_us",
    "geometry.compose_pose_quat_us", "geometry.propagate_binary_us",
    "matderiv.inverse_rt_us", "vision.project_pose_point_us", "g2o.read_s",
    "g2o.format_s", "g2o.bytes", "numcheck.check_catalog_s", "numcheck.ops_passed",
    "cli.overhead_s", "trace.overhead_s", "trace.spans",
] + ["%s.self_s" % layer for layer in (
    "cli", "g2o", "graphslam", "numcheck", "core", "geometry", "lie",
    "manifold_jac", "matderiv", "vision")]

UNITS = {"per_s": "1/s", "_s": "s", "_us": "us", "_mb": "MB", ".bytes": "bytes",
         "chi2_final": "chi2"}

_SLAM_LINE = re.compile(r"chi2 (\S+) -> (\S+) in (\d+) accepted steps")


class BenchError(Exception):
    """The benchmark itself cannot go on (missing program, timeout)."""


def _unit(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Child:
    """Wall time, peak memory and output of one finished process."""

    def __init__(self, start, end, peak_rss_mb, code, out, err):
        self.start = start
        self.wall_s = end - start
        self.peak_rss_mb = peak_rss_mb
        self.code, self.out, self.err = code, out, err


class Run:
    """One benchmark run: scratch directory, child processes, tallies."""

    def __init__(self, name, spec, seed, seconds, trace, smoke):
        self.name, self.spec = name, spec
        self.seed, self.seconds, self.trace, self.smoke = seed, seconds, trace, smoke
        self.begin = time.perf_counter()
        OUT_DIR.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
        self.env = dict(os.environ, **BLAS_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.attempted = self.failed = 0
        self.failures = []
        self.children = 0
        self.tracer = tracing.Tracer("r") if trace else None
        self.spans = []
        self.details = {"workload": name, "seed": seed, "trace": trace, "inputs": [],
                        "metrics": {}, "counts": {}}

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def tally(self, attempted, failed, what):
        """Count operations; record what went wrong if any failed."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(what)

    def check(self, problem):
        """Count one operation, failed when problem is a message."""
        self.tally(1, problem is not None, problem)
        return problem is None

    def write_input(self, name, text):
        path = self.tmp / name
        path.write_text(text, encoding="ascii")
        data = text.encode("ascii")
        self.details["inputs"].append({"name": name, "bytes": len(data),
                                       "sha256": hashlib.sha256(data).hexdigest()})
        return path

    def spawn(self, argv, span=None):
        """Run a child to completion; its peak memory comes from wait4."""
        self.children += 1
        out_path = self.tmp / ("child-%d.out" % self.children)
        err_path = self.tmp / ("child-%d.err" % self.children)
        left = DEADLINE_S - (time.perf_counter() - self.begin)
        if left <= 0:
            raise BenchError("out of time before starting %s" % argv[1:3])
        rec = self.tracer.start(span) if (self.tracer and span) else None
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(left, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if rec:
            self.tracer.end(rec)
        if proc.returncode < 0:
            raise BenchError("%s was killed (signal %d)" % (argv[1:3], -proc.returncode))
        return Child(start, end, usage.ru_maxrss / 1024.0, proc.returncode,
                     out_path.read_text(), err_path.read_text())

    def worker(self, job):
        """Run worker.py on a job; returns (Child, result dict)."""
        self.children += 1
        job = dict(job, out=str(self.tmp / ("result-%d.json" % self.children)))
        job_path = self.tmp / ("job-%d.json" % self.children)
        job_path.write_text(json.dumps(job), encoding="ascii")
        child = self.spawn([sys.executable, str(HERE / "worker.py"), str(job_path)])
        if child.code != 0:
            raise BenchError("worker %s exited %d: %s"
                             % (job["mode"], child.code, child.err.strip()[-500:]))
        with open(job["out"], encoding="ascii") as fh:
            result = json.load(fh)
        if Path(result["rigidkit_file"]).resolve().parent != (SRC / "rigidkit").resolve():
            raise BenchError("imported rigidkit from %s, not from this checkout"
                             % result["rigidkit_file"])
        return child, result

    def setup_probe(self, job):
        """Seconds from starting a fresh interpreter to inputs parsed."""
        child, result = self.worker(dict(job, mode="setup"))
        self.check(None)
        self.details["environment"].update(numpy=result["numpy"], scipy=result["scipy"])
        return result["ready"] - child.start

    def cycles(self, job, sample):
        """Alternate a setup probe with one task sample until time is up.

        The machine's speed drifts over seconds, so both kinds of samples
        are spread over the whole run.  Returns (setup_s, samples), setup_s
        being the median of at least SETUP_PROBES probes after a warm-up.
        """
        probes = 1 if self.smoke else SETUP_PROBES
        self.setup_probe(job)
        setups, samples, took = [], [], []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            setups.append(self.setup_probe(job))
            samples.append(sample())
            took.append(time.perf_counter() - t)
            if time.perf_counter() - start + statistics.median(took) > self.seconds:
                break
        while len(setups) < probes:
            setups.append(self.setup_probe(job))
        return statistics.median(setups), samples


# ---------------------------------------------------------------------------
# workloads

def _graph_inputs(run):
    """Write the workload's g2o files; returns [(in path, out path, parsed)]."""
    files = []
    for k, (kind, n, noise_seed) in enumerate(run.spec["graphs"]):
        text = inputs.g2o_text(kind, n, noise_seed, relabel_seed=[run.seed, k])
        name = "%s-%d-%d" % (kind, n, noise_seed)
        path = run.write_input(name + ".g2o", text)
        files.append((path, run.tmp / (name + ".out.g2o"), inputs.parse_g2o(text)))
    return files


def _output_problem(run, out_path, expect, chi2_reported, ref):
    """Re-read a written graph and recompute its chi2.

    Returns (chi2, None) when the output is right, else (None, message).
    """
    try:
        got = inputs.parse_g2o(out_path.read_text(encoding="ascii"))
        chi2 = got.chi2()
    except (OSError, ValueError) as exc:
        return None, "%s: output unreadable: %s" % (out_path.name, exc)
    problems = [
        (not inputs.same_problem(expect, got), "output changed the problem"),
        (not _close(chi2, chi2_reported, 1e-7),
         "chi2 %.10g, solver reported %.10g" % (chi2, chi2_reported)),
        (chi2 > expect.chi2() * (1 + 1e-12), "chi2 rose"),
        (ref is not None and not run.smoke and chi2 > ref * (1 + CHI2_REL_TOL),
         "chi2 %.10g above today's %.10g" % (chi2, ref or 0.0)),
    ]
    for bad, what in problems:
        if bad:
            return None, "%s: %s" % (out_path.name, what)
    return chi2, None


def _slam(run, in_path, out_path, expect, ref, max_iters=MAX_ITERS):
    """One checked ``rigidkit slam`` process: (Child, (steps, chi2) or None)."""
    child = run.spawn([sys.executable, "-m", "rigidkit.cli", "slam", str(in_path),
                       str(out_path), "--max-iters", str(max_iters)], span="cli.slam")
    match = _SLAM_LINE.search(child.out)
    if child.code != 0 or match is None:
        problem = "slam exited %d: %s" % (child.code, child.err.strip()[-300:])
    elif not _close(float(match.group(1)), expect.chi2(), 1e-7):
        problem = "slam: initial chi2 %s is not the input's" % match.group(1)
    else:
        chi2, problem = _output_problem(run, out_path, expect, float(match.group(2)), ref)
    return child, None if not run.check(problem) else (int(match.group(3)), chi2)


def _refs(run):
    return REF_CHI2.get(run.name) or [None] * len(run.spec["graphs"])


def slam_workload(run):
    (in_path, out_path, expect), = files = _graph_inputs(run)
    ref, = _refs(run)
    if run.trace:
        # The command's own cost, from a run that only reads, evaluates chi2
        # once and writes: a full solve would bury it under the machine's
        # speed drift between two long measurements.
        child, _ = _slam(run, in_path, out_path, expect, None, max_iters=0)
        layers = _layers(run, files, {})
        layers["cli.overhead_s"] = child.wall_s - sum(
            layers[k] for k in ("g2o.read_s", "graphslam.chi2_s", "g2o.format_s"))
        return layers

    def solve():
        out = out_path.with_suffix(".%d.g2o" % run.children)
        child, solved = _slam(run, in_path, out, expect, ref)
        return child, solved, out.read_text() if solved else None

    setup_s, solves = run.cycles({"files": [str(in_path)]}, solve)
    good = [s for s in solves if s[1] is not None]
    run.check(None if len({(s, text) for _, s, text in good}) <= 1
              else "repeated solves of one input differ")
    if good:
        run.details["counts"] = {"graphslam.steps": good[0][1][0],
                                 "graphslam.chi2_final": good[0][1][1]}
    return {"setup_s": setup_s, "task_s": min(c.wall_s for c, _, _ in solves),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c, _, _ in solves)}


def batch_workload(run):
    files = _graph_inputs(run)
    if run.trace:
        layers = _layers(run, files, {})
        layers["cli.overhead_s"] = 0.0
        return layers
    paths = [str(p) for p, _, _ in files]
    job = {"mode": "batch", "files": paths, "outputs": [str(o) for _, o, _ in files],
           "max_iters": MAX_ITERS}
    setup_s, batches = run.cycles({"files": paths}, lambda: run.worker(job))
    first = batches[0][1]["graphs"]
    for k, (_, batch) in enumerate(batches):
        for g, g0, (_, out, expect), ref in zip(batch["graphs"], first, files, _refs(run)):
            if k == 0:
                problem = _output_problem(run, out, expect, g["chi2_final"], ref)[1]
            else:
                problem = None if g == g0 else "%s: batch %d differs from batch 0" % (out.name, k)
            batch["good"] = batch.get("good", 0) + run.check(problem)
    run.details["counts"] = {
        "graphslam.steps": sum(g["steps"] for g in first),
        "graphslam.lm_rejected": sum(g["lm_rejected"] for g in first),
        "graphslam.chi2_final": sum(g["chi2_final"] for g in first)}
    fastest = min((b for _, b in batches), key=lambda b: b["time_s"])
    return {"setup_s": setup_s, "task_s": fastest["time_s"],
            "graphs_per_s": fastest["good"] / fastest["time_s"],
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c, _ in batches)}


def _catalog(run):
    """One checked ``rigidkit jacobian-check``: (Child, operations passed)."""
    child = run.spawn([sys.executable, "-m", "rigidkit.cli", "jacobian-check",
                       "--samples", str(run.spec["samples"])], span="cli.jacobian_check")
    match = re.search(r"(\d+)/(\d+) operations passed", child.out)
    passed = int(match.group(1)) if match else 0
    ok = match is not None and child.code == 0 and passed == int(match.group(2)) == 48
    run.check(None if ok else "jacobian-check exited %d: %s"
              % (child.code, child.out.strip()[-200:]))
    return child, passed


def kit_workload(run):
    if run.trace:
        child, _ = _catalog(run)
        layers = _layers(run, [], {"catalog": run.spec["samples"], "kit_round": True})
        layers["cli.overhead_s"] = child.wall_s - layers["numcheck.check_catalog_s"]
        return layers
    kit_job = {"kit_cases": str(_kit_cases(run))}

    def catalog_and_mix():
        return _catalog(run), run.worker(dict(kit_job, mode="mix",
                                                   seconds=min(MIX_CHUNK_S, run.seconds)))[1]

    setup_s, samples = run.cycles(kit_job, catalog_and_mix)
    catalogs = [c for (c, _), _ in samples]
    run.check(None if len({c.out for c in catalogs}) == 1
              else "repeated jacobian-check runs differ")
    rounds = [r for _, mix in samples for r in mix["rounds"]]
    for r in rounds:
        run.tally(r["calls"], r["failed"], "scalar mix: %d of %d results differ from the "
                  "references" % (r["failed"], r["calls"]))
    run.details["counts"] = {"numcheck.ops_passed": samples[0][0][1]}
    rates = [(r["calls"] - r["failed"]) / r["time_s"] for r in rounds]
    return {"setup_s": setup_s, "task_s": min(c.wall_s for c in catalogs),
            "kit_calls_per_s": statistics.quantiles(rates, n=10)[-1],
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in catalogs)}


def _kit_cases(run):
    index = kit.select(run.seed, run.spec.get("cases", kit.PER_RUN))
    pool = kit.pool()
    return run.write_input("kit.json", json.dumps({"index": index,
                                                   "cases": [pool[i] for i in index]}))


def _layers(run, files, job):
    """Traced in-process pass over the files; returns the per-layer metrics."""
    layer_outs = [out.with_suffix(".layers.g2o") for _, out, _ in files]
    job = dict(job, mode="layers", files=[str(p) for p, _, _ in files],
               outputs=[str(o) for o in layer_outs], kit_cases=str(_kit_cases(run)),
               max_iters=MAX_ITERS)
    root = run.tracer.start("bench.layers")
    _, result = run.worker(dict(job, parent=root[0]))
    run.tracer.end(root)
    for out, (_, _, expect), ref, chi2 in zip(layer_outs, files, _refs(run),
                                             result["chi2_final"]):
        run.check(_output_problem(run, out, expect, chi2, ref)[1])
    run.check(None)  # the traced pass itself
    spans = run.spans = run.tracer.spans + [tuple(s) for s in result["spans"]]
    metrics = {
        "graphslam.build_s": tracing.total_s(spans, "graphslam.build_normal_equations"),
        "graphslam.chi2_s": tracing.total_s(spans, "graphslam.chi2"),
        "graphslam.step_s": tracing.total_s(spans, "graphslam.step"),
        "graphslam.optimize_s": tracing.total_s(spans, "graphslam.optimize"),
        "g2o.read_s": tracing.total_s(spans, "g2o.read_g2o"),
        "g2o.format_s": tracing.total_s(spans, "g2o.format_g2o"),
        "g2o.bytes": sum(p.stat().st_size for p, _, _ in files),
        "numcheck.check_catalog_s": tracing.total_s(spans, "numcheck.check_catalog"),
        "trace.spans": len(spans),
        # what the recorder adds: its calibrated cost per span, times the spans
        "trace.overhead_s": len(spans) * result["span_cost_s"],
    }
    metrics.update(result["counts"])
    metrics.update(result["per_call"])
    selfs = tracing.self_times(spans)
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            metrics[name] = selfs.get(name[:-len(".self_s")], 0.0)
    return metrics


TASKS = {"slam": slam_workload, "batch": batch_workload, "catalog": kit_workload}

END_TO_END = ["setup_s", "task_s", "peak_rss_mb"]
# What each workload's task_s is, by the name the metric had when the
# workloads were defined; listed under "named" in the details.
TASK_NAMES = {"slam": "slam_s", "batch": "batch_s", "catalog": "catalog_s"}


def _environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "blas": blas, "blas_threads": 1, "seed": seed}


def run_workload(name, seed, seconds, trace, smoke=False):
    """Run one workload; returns (result line dict, details dict)."""
    spec = (SMOKE if smoke else WORKLOADS)[name]
    run = Run(name, spec, seed, seconds, trace, smoke)
    run.details["environment"] = _environment(seed)
    try:
        metrics = TASKS[spec["task"]](run)
    finally:
        run.close()
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        tracing.write_jsonl(OUT_DIR / ("trace-%s-seed%d.jsonl" % (name, seed)),
                            "%s-%d" % (name, seed), run.spans)
        run.details["counts"] = {k: metrics[k] for k in (
            "graphslam.steps", "graphslam.lm_rejected", "graphslam.h_nnz",
            "numcheck.ops_passed", "graphslam.chi2_final")}
    names = PER_LAYER if trace else END_TO_END
    run.details["metrics"] = {k: {"value": metrics[k], "unit": _unit(k)} for k in names}
    run.details["failures"] = run.failures[:20]
    run.details["fail_frac"] = run.failed / max(run.attempted, 1)
    if not trace:
        named = dict(metrics, fail_frac=run.details["fail_frac"])
        named[TASK_NAMES[spec["task"]]] = named.pop("task_s")
        if "graphslam.chi2_final" in run.details["counts"]:
            named["chi2_final"] = run.details["counts"]["graphslam.chi2_final"]
        run.details["named"] = named
    base = BASELINE_COUNTS.get(name, {})
    run.details["counts_changed"] = sorted(
        k for k, v in run.details["counts"].items()
        if k in base and not (v == base[k] or (isinstance(v, float) and _close(v, base[k], 1e-9))))
    line = {"correct": not run.failed, "attempted": run.attempted,
            "failed": run.failed, "metrics": run.details["metrics"]}
    return line, run.details


def smoke():
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            start = time.perf_counter()
            line, details = run_workload(name, 1, 1, trace, smoke=True)
            ok &= line["correct"]
            print("%-15s trace=%d correct=%s attempted=%d %.1fs %s"
                  % (name, trace, line["correct"], line["attempted"],
                     time.perf_counter() - start, details["failures"][:3]))
    return 0 if ok else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "rigidkit" / "__init__.py").is_file():
        print("error: %s/rigidkit not found; run from a rigidkit checkout" % SRC,
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        line, details = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
