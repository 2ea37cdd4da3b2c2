"""permlp benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload lp_awgn --seed 1 --seconds 10 --trace 0

Workloads: lp_awgn, ml_codebook_n9, ensemble_n10, vertex_geometry (see
perfbench/README.md).  The timed work runs in fresh worker processes, one at
a time, started until --seconds have passed; each worker pays the first-use
costs a command-line user pays, and every timing is scaled to a reference
machine speed (see calibration.py).  After the workers, the output checks run
here against independent references.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 the run repeats the workload with spans recorded at every layer
boundary and reports the per-layer metrics, plus the tracing overhead
(traced minus untraced end-to-end values).  Records and span files go to
perfbench/out/.  Exit status: 0 when every check passed, 1 when one failed,
2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibration import scaled

# threads=1: the benchmark measures one core; a threaded BLAS on a small
# shared machine would measure the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "build_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
OVERHEAD_METRICS = ("build_s", "ops_per_s", "peak_rss_mb")


def spawn(task):
    """Run one worker to completion; returns its result and its start time."""
    started = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(task)], cwd=ROOT,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s"}, started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}, started
    try:
        return json.loads(lines[-1]), started
    except json.JSONDecodeError:
        return {"error": f"worker printed no result: {lines[-1][:200]}"}, started


def run_pass(wl, args, trace, seconds):
    """Workers one after another until the pass has lasted ``seconds``.

    Before each worker a probe process measures set-up alone, so set-up
    samples spread over the whole run.  At least one worker always runs.
    """
    workers, t_start = [], time.perf_counter()
    while not workers or time.perf_counter() - t_start < seconds:
        task = {"workload": wl.name, "seed": args.seed, "worker": len(workers),
                "size": args.size, "trace": trace}
        probe, started = spawn({**task, "probe": True})
        setup = [(probe["ready"] - started) * probe["setup_speed"]] if "ready" in probe else []
        result, started = spawn(task)
        if "ready" in result:
            result["setup_samples"] = setup + [(result["ready"] - started) * result["setup_speed"]]
        workers.append(result)
    return workers


def worker_figures(w):
    """One worker's timings at reference speed, as measured, and its memory."""
    parts = [w["build"], *w["rounds"]]
    return {"setup_s": w["setup_samples"], "parts_s": [scaled(p) for p in parts],
            "parts_measured_s": [p["seconds"] for p in parts],
            "speed": [p["speed"] for p in parts],
            "ops": sum(r["ops"] for r in w["rounds"]), "peak_rss_mb": w["peak_rss_mb"]}


def end_to_end(wl, workers):
    """Set-up is a median; build time and rate are pooled over the workers.

    Every timing is at reference speed (see calibration.py), which takes out
    most of the host's slow phases; what is left is noise that pooling
    averages, together with the cost differences between the workers' seeds.
    """
    done = [worker_figures(w) for w in workers if "error" not in w]
    if not done:
        return {}
    seconds = sum(sum(f["parts_s"][1:]) for f in done)
    if wl.rate_includes_build:
        seconds += sum(f["parts_s"][0] for f in done)
    return {
        "setup_s": statistics.median(s for f in done for s in f["setup_s"]),
        "build_s": statistics.fmean(f["parts_s"][0] for f in done),
        "ops_per_s": sum(f["ops"] for f in done) / seconds,
        "peak_rss_mb": max(f["peak_rss_mb"] for f in done),
    }


def _merged_spans(workers):
    """Per-name summaries over every worker, plus per-instance enumerate times."""
    from tracing import summarize

    merged, per_instance = {}, {}
    for w in workers:
        spans = w.get("spans") or []
        for name, entry in summarize(spans).items():
            acc = merged.setdefault(name, {"durations": [], "self_s": 0.0, "attrs": {}})
            acc["durations"] += entry["durations"]
            acc["self_s"] += entry["self_s"]
            for k, v in entry["attrs"].items():
                acc["attrs"][k] = acc["attrs"].get(k, 0) + v
        for span in spans:
            if span[1] == "polytope.enumerate_vertices" and span[4] is not None:
                instance = (spans[span[4]][6] or {}).get("instance")
                per_instance[instance] = per_instance.get(instance, 0.0) + span[3] - span[2]
    return merged, per_instance


def per_layer(workers, overhead, instances):
    """Every per-layer metric; a layer the workload never calls reads 0."""
    import numpy as np

    merged, per_instance = _merged_spans(workers)

    def get(name):
        return merged.get(name, {"durations": [], "self_s": 0.0, "attrs": {}})

    def busy(name):
        return float(sum(get(name)["durations"]))

    def pct(name, q, scale):
        d = get(name)["durations"]
        return float(np.percentile(d, q)) * scale if d else 0.0

    m = {}
    m["perm.permutation_table.s"] = (busy("perm.permutation_table"), "s")
    sm = get("constraints.satisfies_mask")
    m["constraints.satisfies_mask.calls"] = (len(sm["durations"]), "count")
    m["constraints.satisfies_mask.busy_s"] = (busy("constraints.satisfies_mask"), "s")
    m["constraints.satisfies_mask.rows_scanned"] = (sm["attrs"].get("rows", 0), "count")
    m["constraints.sample_ensemble.busy_s"] = (busy("constraints.sample_ensemble"), "s")
    m["constraints.theta.busy_s"] = (busy("constraints.theta"), "s")
    m["codebook.build_code.calls"] = (len(get("codebook.build_code")["durations"]), "count")
    m["codebook.build_code.busy_s"] = (busy("codebook.build_code"), "s")
    m["codebook.build_code.s_p50"] = (pct("codebook.build_code", 50, 1.0), "s")
    m["codebook.codewords_first_s"] = (busy("codebook.codewords_first"), "s")
    for layer in ("lp.lp_decode", "lp.ml_decode_detail"):
        calls = len(get(layer)["durations"])
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.ms_p50"] = (pct(layer, 50, 1e3), "ms")
        m[f"{layer}.ms_p99"] = (pct(layer, 99, 1e3), "ms")
        m[f"{layer}.samples"] = (calls, "count")
        m[f"{layer}.busy_s"] = (busy(layer), "s")
    lp = get("lp.lp_decode")
    calls = len(lp["durations"])
    m["lp.lp_decode.integral_ratio"] = (lp["attrs"].get("integral", 0) / calls if calls else 0.0,
                                        "fraction")
    m["lp.lp_decode.errors"] = (lp["attrs"].get("error", 0), "count")
    counts = {}
    for w in workers:
        for inst in w.get("build", {}).get("instances", []):
            counts.setdefault(inst["instance"], (inst.get("integral", 0), inst.get("fractional", 0)))
    for name in instances:
        m[f"polytope.enumerate_vertices.{name}_s"] = (per_instance.get(name, 0.0), "s")
        m[f"polytope.enumerate_vertices.{name}_integral"] = (counts.get(name, (0, 0))[0], "count")
        m[f"polytope.enumerate_vertices.{name}_fractional"] = (counts.get(name, (0, 0))[1], "count")
    m["polytope.min_pseudo_distance.busy_s"] = (busy("polytope.min_pseudo_distance"), "s")
    m["bounds.lp_bound_report.busy_s"] = (busy("bounds.lp_bound_report"), "s")
    m["bounds.ml_bound_report.busy_s"] = (busy("bounds.ml_bound_report"), "s")
    terms = sum(get(f"bounds.{k}_bound_report")["attrs"].get("pair_terms", 0) for k in ("lp", "ml"))
    bound_busy = busy("bounds.lp_bound_report") + busy("bounds.ml_bound_report")
    m["bounds.pair_terms"] = (terms, "count")
    m["bounds.pair_terms_per_s"] = (terms / bound_busy if bound_busy else 0.0, "1/s")
    m["channel.simulate_bler.self_s"] = (get("channel.simulate_bler")["self_s"], "s")
    m["channel.ensemble_experiment.self_s"] = (get("channel.ensemble_experiment")["self_s"], "s")
    for name in OVERHEAD_METRICS:
        m[f"trace.overhead.{name}"] = (overhead.get(name, 0.0), END_TO_END_UNITS[name])
    return m


def run_record(args):
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "git_commit": git_commit(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu}


def git_commit():
    """HEAD of the checkout's git metadata, read without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def check_passes(wl_name, passes):
    """Run the workload's checks; a crashed worker fails its whole pass share."""
    from checks import CHECKS, Check

    cls = CHECKS[wl_name]
    crashed = [Check("worker", False, 1, w["error"]) for ws in passes for w in ws if "error" in w]
    try:
        results = cls.check(passes, cls.reference(passes))
    except Exception as exc:  # a reference that cannot be built fails the run
        results = [Check("reference", False, 1, f"{type(exc).__name__}: {exc}")]
    return crashed + results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lp_awgn", "ml_codebook_n9", "ensemble_n10", "vertex_geometry"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: the same code paths at test size")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "permlp", "__init__.py")):
        print(f"perfbench: no permlp source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS, VertexGeometry

    wl = WORKLOADS[args.workload]
    # A traced run splits its time between an untraced and a traced pass,
    # so that it costs what an untraced run costs.
    share = args.seconds / 2 if args.trace else args.seconds
    passes = [run_pass(wl, args, 0, share)]
    if args.trace:
        passes.append(run_pass(wl, args, 1, share))
    checks = check_passes(wl.name, passes)

    attempted = sum(part["ops"] for ws in passes for w in ws if "error" not in w
                    for part in [w["build"], w["sample"], *w["rounds"]])
    raised = sum(part["failed_ops"] for ws in passes for w in ws if "error" not in w
                 for part in [w["build"], w["sample"], *w["rounds"]])
    attempted = max(attempted, 1)
    failed = min(attempted, raised + sum(c.ops or 1 for c in checks if not c.ok))
    e2e = end_to_end(wl, passes[0])
    record = run_record(args)
    report = {"record": record, "end_to_end": e2e, "failed_ops": failed / attempted,
              "checks": [c.__dict__ for c in checks],
              "workers": [[worker_figures(w) if "error" not in w else w for w in ws]
                          for ws in passes]}
    if wl.name == "ensemble_n10":
        from checks import EnsembleChecks

        report["diagnostics"] = EnsembleChecks.diagnostics(passes)
    if args.trace:
        traced = end_to_end(wl, passes[1])
        overhead = {k: traced[k] - e2e[k] for k in OVERHEAD_METRICS if k in traced and k in e2e}
        layers = per_layer(passes[1], overhead, VertexGeometry.SIZES["full"]["instances"])
        report.update(traced_end_to_end=traced, overhead=overhead, per_layer=layers)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"run-{stem}.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    if args.trace:
        with open(os.path.join(OUT_DIR, f"spans-{stem}.json"), "w") as fh:
            json.dump({"record": record,
                       "workers": [{"worker": k, "spans": w.get("spans")}
                                   for k, w in enumerate(passes[1])]}, fh)

    print("run record: " + json.dumps(record))
    for name, value in e2e.items():
        print(f"end-to-end {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"end-to-end failed_ops = {failed}/{attempted} = {failed / attempted:.6g} fraction")
    if args.trace:
        for name, value in report["overhead"].items():
            print(f"tracing overhead {name} = {value:+.6g} {END_TO_END_UNITS[name]}")
    for c in checks:
        if not c.ok:
            print(f"CHECK FAILED {c.name}: {c.detail}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
