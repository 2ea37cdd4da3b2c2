"""One fresh process of a benchmark run; started by run.py, never by hand.

Usage: python3 perfbench/worker.py '<task json>'

The task names the workload, seed, worker index, size and whether to
trace.  The worker runs the build and then the workload's rounds.  With
"probe" set, the worker stops at the point where the first timed call would
start.  The last line on stdout is one JSON object; its "ready" field is the
monotonic clock at that point, which the parent compares with the moment it
started the process to get the set-up time, and "setup_speed" is the
machine's speed right after it (see calibration.py).  The build and every
round are timed with the speed sampled while they run.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(task):
    from calibration import BUFFER_BYTES, EDGE_SAMPLES, kernel_seconds, speed, timed
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[task["workload"]]
    inp = wl.inputs(task["seed"], task["worker"], task["size"])
    ready = time.perf_counter()
    setup_speed = speed([kernel_seconds() for _ in range(2 * EDGE_SAMPLES)])
    if task.get("probe"):
        return {"ready": ready, "setup_speed": setup_speed}
    tracer = Tracer() if task["trace"] else NullTracer()
    tracer.install()
    timing = {}
    with timed(timing):
        state, build = wl.build(inp, tracer)
    build.update(timing)
    rounds = []
    for k in range(inp["rounds"]):
        timing = {}
        with timed(timing):
            rec = wl.run_round(inp, state, k, tracer)
        rec.update(timing)
        rounds.append(rec)
    tracer.restore()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ready": ready,
        "setup_speed": setup_speed,
        "build": build,
        "rounds": rounds,
        "sample": wl.sample(inp, state),
        "peak_rss_mb": peak_kib / 1024.0 - BUFFER_BYTES / 2**20,
        "spans": tracer.spans if tracer.enabled else None,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
