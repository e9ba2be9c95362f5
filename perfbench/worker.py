"""One benchmark worker: a fresh interpreter that imports grig from the
checkout's ``src``, sets up one workload, runs its timed phase, checks the
outputs and prints one JSON line with what it measured.

    python3 perfbench/worker.py --workload NAME --seed N [--trace 0|1]
                                [--setup-only]

A worker times set-up and the timed phase on a ``HostClock`` (CPU time
in reference seconds, see ``hostclock.py``) started first thing in
``main``.  It reports the CPU time the process used before the clock
started, the clock's first scale and its reading just before the first
timed operation; the parent adds them up to set-up time.  A traced worker
times its spans in plain ``perf_counter`` seconds; the clock's samples
fall inside them.  Run from the root of a checkout; ``run.py`` starts it.
"""

import argparse
import json
import math
import os
import platform
import resource
import sys
from contextlib import nullcontext
from time import perf_counter, process_time

from hostclock import HostClock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def quantile(sorted_values, q):
    """Nearest-rank quantile of an already sorted list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def primitive_timings():
    """Microseconds per compose / inverse call of the selected kernel, as
    timed by ``benchmarks/bench_kernels.py``."""
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    from bench_kernels import bench_primitives

    from grig import _kernel

    compose_256, _ = bench_primitives(_kernel, 256)
    compose_2048, inverse_2048 = bench_primitives(_kernel, 2048)
    return {"kernel.compose_us.d256": compose_256 * 1e6,
            "kernel.compose_us.d2048": compose_2048 * 1e6,
            "kernel.inverse_us.d2048": inverse_2048 * 1e6}


def main(argv=None):
    clock = HostClock()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import grig
    if not os.path.abspath(grig.__file__).startswith(SRC + os.sep):
        sys.exit(f"grig imported from {grig.__file__}, not from {SRC}")
    import numpy

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    env = {"backend": grig.KERNEL_BACKEND,
           "python": platform.python_version(),
           "numpy": numpy.__version__}
    if args.trace:
        import tracing
        prims = primitive_timings()
        tracer = tracing.Tracer(run_id=f"{args.workload}:{args.seed}")
        tracing.install_grig_probes(tracer)
        t0 = perf_counter()
        with tracer.span("bench.setup"):
            wl.setup()
        setup_wall = perf_counter() - t0
        tracer.counters = {}
        # spans and latencies in wall seconds: reading the CPU clock costs
        # a system call, more than many of the spans it would time
        span, op_clock = tracer.span, perf_counter
    else:
        wl.setup()
        span, op_clock = (lambda name: nullcontext()), clock.now
    ready = clock.now()
    result = {"env": env, "clock_started": clock.started,
              "first_scale": clock.first_scale, "setup_ref_s": ready}
    if args.setup_only:
        clock.stop()
        print(json.dumps(result))
        return 0
    lat = []
    t0, r0 = perf_counter(), clock.raw()
    with span("bench.timed"):
        wl.timed(span, lat, op_clock)
    wall = perf_counter() - t0
    result.update(timed_s=clock.now() - ready, cpu_s=clock.raw() - r0)
    clock.stop()
    result["host_speed"] = clock.host_speed()
    if args.trace:
        tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = wl.check()
    lat.sort()
    result.update({
        "ops": len(lat), "failed": failed, "peak_rss_mib": peak_rss_mib,
        "op_p50_us": quantile(lat, 0.50) * 1e6,
        "op_p99_us": quantile(lat, 0.99) * 1e6,
        "digest": wl.digest(),
    })
    if args.trace:
        layers, by_name = tracing.layer_metrics(
            tracer, "bench.timed", tracer.counters, wall)
        layers.update(prims)
        layers["setup.trace.wall_s"] = setup_wall
        setup_by_name = tracer.summary("bench.setup")[0]
        result["layers"] = layers
        result["spans"] = {"run_id": tracer.run_id, "timed": by_name,
                           "setup": setup_by_name}
        result["unpatched"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
