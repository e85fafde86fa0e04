"""In-process part of the benchmark, run in a fresh interpreter.

Usage: PYTHONPATH=src python3 perfbench/worker.py JOB.json

The job names a mode and its inputs; the result goes to the job's "out"
file as JSON.  Modes:

setup   import rigidkit and parse the inputs, then report the
        perf_counter time at which that was done
batch   read_g2o -> optimize -> format_g2o over the graph files, timed
mix     repeat the scalar-kit mix for "seconds" and check every result
layers  the traced pass: one span around each call into the library,
        plus per-call timings of single functions
"""

import hashlib
import json
import math
import statistics
import sys
import time

import kit
import tracing


def _lm_rejected(stats, lm_factor):
    """Rejected Levenberg-Marquardt trials, read off the lambda column.

    Each accepted step starts from the previous lambda divided by the
    factor (floored at 1e-12) and multiplies it by the factor once per
    rejected trial.
    """
    start, total = stats[0].lambda_, 0
    for s in stats[1:]:
        total += round(math.log(s.lambda_ / start) / math.log(lm_factor))
        start = max(s.lambda_ / lm_factor, 1e-12)
    return total


def _kit_calls(rk, job):
    with open(job["kit_cases"], encoding="ascii") as fh:
        cases = json.load(fh)
    return cases["index"], [kit.build(rk, c) for c in cases["cases"]]


def _setup(rk, job):
    parsed = [rk.read_g2o(p) for p in job.get("files", [])]
    if job.get("kit_cases"):
        parsed.append(_kit_calls(rk, job))
    return parsed


def _batch(rk, job):
    cfg = rk.SolverConfig(max_iterations=job["max_iters"])
    t = time.perf_counter()
    results = []
    for path in job["files"]:
        final, stats = rk.optimize(rk.read_g2o(path), cfg)
        results.append((rk.format_g2o(final), stats))
    took = time.perf_counter() - t
    for out, (text, _) in zip(job["outputs"], results):
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    return {"time_s": took, "graphs": [
        {"sha256": hashlib.sha256(text.encode()).hexdigest(),
         "chi2_initial": stats[0].chi2, "chi2_final": stats[-1].chi2,
         "steps": len(stats) - 1, "lm_rejected": _lm_rejected(stats, cfg.lm_factor)}
        for text, stats in results]}


def _mix(rk, job):
    index, calls = _kit_calls(rk, job)
    refs = kit.load_refs()["ops"]
    plan = [(fn, args) for case in calls for _, fn, args in case]
    expect = [refs[op][i] for i, case in zip(index, calls) for op, _, _ in case]
    rounds = []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        results = [fn(*args) for fn, args in plan]
        took = time.perf_counter() - t
        bad = sum(not kit.matches(kit.fingerprint(r), e) for r, e in zip(results, expect))
        rounds.append({"time_s": took, "calls": len(plan), "failed": bad})
        spent = time.perf_counter() - t0
        if spent + statistics.median(r["time_s"] for r in rounds) > job["seconds"]:
            return {"rounds": rounds}


def _per_call_us(fn_args, repeats=3):
    """Median over passes of one pass's time, per call, in microseconds."""
    passes = []
    for _ in range(repeats):
        t = time.perf_counter()
        for fn, args in fn_args:
            fn(*args)
        passes.append(time.perf_counter() - t)
    return 1e6 * statistics.median(passes) / len(fn_args)


def _layers(rk, job):
    tr = tracing.Tracer("w", parent=job["parent"])
    cfg = rk.SolverConfig(max_iterations=job["max_iters"])
    counts = {"graphslam.steps": 0, "graphslam.lm_rejected": 0, "graphslam.coords": 0,
              "graphslam.h_nnz": 0, "graphslam.chi2_final": 0.0, "numcheck.ops_passed": 0}
    edges, chi2_final = [], []
    for path, out in zip(job["files"], job["outputs"]):
        g = tr.call("g2o.read_g2o", rk.read_g2o, path)
        tr.call("graphslam.chi2", rk.chi2, g)
        h, b = tr.call("graphslam.build_normal_equations", rk.build_normal_equations, g)
        tr.call("graphslam.step", rk.step, g, cfg)
        final, stats = tr.call("graphslam.optimize", rk.optimize, g, cfg)
        text = tr.call("g2o.format_g2o", rk.format_g2o, final)
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
        counts["graphslam.steps"] += len(stats) - 1
        counts["graphslam.lm_rejected"] += _lm_rejected(stats, cfg.lm_factor)
        counts["graphslam.coords"] += len(b)
        counts["graphslam.h_nnz"] += int(h.count_nonzero() if hasattr(h, "tocsr")
                                         else (h != 0).sum())
        counts["graphslam.chi2_final"] += stats[-1].chi2
        chi2_final.append(stats[-1].chi2)
        err = rk.edge_error_se3 if g.kind == "se3" else rk.edge_error_se2
        edges += [(err, (e.delta, g.vertices[e.i], g.vertices[e.j])) for e in g.edges]
    if job.get("catalog"):
        reports = tr.call("numcheck.check_catalog", rk.check_catalog, 1, job["catalog"])
        counts["numcheck.ops_passed"] = sum(r.passed for r in reports)
    _, calls = _kit_calls(rk, job)
    if job.get("kit_round"):
        for case in calls:
            for op, fn, args in case:
                tr.call(op, fn, *args)
    by_op = {}
    for case in calls:
        for op, fn, args in case:
            by_op.setdefault(op, []).append((fn, args))
    if not edges:
        edges = by_op["manifold_jac.edge_error"]
    per_call = {op + "_us": _per_call_us(fn_args) for op, fn_args in by_op.items()
                if op != "manifold_jac.edge_error"}
    per_call["manifold_jac.edge_error_us"] = _per_call_us(edges)
    return {"spans": tr.spans, "counts": counts, "per_call": per_call, "chi2_final": chi2_final,
            "span_cost_s": tracing.span_cost_s()}


MODES = {"setup": _setup, "batch": _batch, "mix": _mix, "layers": _layers}


def main(job_path):
    with open(job_path, encoding="ascii") as fh:
        job = json.load(fh)
    import rigidkit as rk

    result = MODES[job["mode"]](rk, job)
    ready = time.perf_counter()
    if job["mode"] == "setup":
        import numpy
        import scipy

        result = {"ready": ready, "numpy": numpy.__version__, "scipy": scipy.__version__}
    result["rigidkit_file"] = rk.__file__
    with open(job["out"], "w", encoding="ascii") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
