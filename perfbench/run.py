"""grig benchmark: runs one workload in fresh worker interpreters, checks
every output and prints each metric with its unit.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload quotient-deep --seed 1 \\
        --seconds 15 --trace 0 [--out result.json]
    python3 perfbench/run.py --self-check --seed 11

Workers run one at a time (one caller, closed loop).  A run starts full
workers until their timed phases add up to ``--seconds`` of CPU time, then
set-up-only workers until it has SETUP_SAMPLES set-up samples or those
workers have used SETUP_BUDGET_S seconds, with at least MIN_SETUPS samples
in all; each metric is the median over the run's workers.  Times are CPU seconds at a
reference host speed (``hostclock.py``).  ``--trace 1`` runs the same
untraced workers plus traced ones and prints the per-layer metrics instead.
Run from the root of a checkout; grig is imported from its ``src``
directory.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from statistics import median
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("quotient-deep", "rank-gradient", "membership", "word-problem")
SETUP_SAMPLES = 25
MIN_SETUPS = 5
SETUP_BUDGET_S = 10
SPAWN_BUDGET_S = 100    # start no new worker after this much of a run
RUN_DEADLINE_S = 170    # a worker still running then is killed; the run fails

END_TO_END_UNITS = {"timed_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
                    "ops_per_s": "1/s"}


class BenchError(RuntimeError):
    pass


def worker_env():
    """A plain environment: grig on PYTHONPATH, no GRIG_* overrides, so
    the worker selects the backend a plain checkout selects.  BLAS thread
    pools are held to one thread: grig makes no BLAS calls, and the pool
    numpy starts at import otherwise competes with the worker for the
    cores and makes set-up time jump between runs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRIG_")
           and k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"  # same dict layouts in every worker
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def compile_sources():
    """Byte-compile grig and the benchmark into their ``__pycache__``
    directories, as an installed package is, so that no worker's set-up
    pays for compiling them, whether or not the caller's environment lets
    Python write bytecode."""
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q",
                           os.path.join(SRC, "grig"), HERE],
                          cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"byte-compiling failed:\n{proc.stdout}{proc.stderr}")


def spawn(workload, seed, trace=0, setup_only=False, started=None):
    """Run one worker to its end; ``started`` is the run's start time, from
    which the worker gets what is left of RUN_DEADLINE_S."""
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if started is None:
        started = monotonic()
    timeout = max(1.0, RUN_DEADLINE_S - (monotonic() - started))
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {workload} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if "clock_started" in res:
        # the worker's clock covers set-up from its first line; the CPU
        # time of interpreter start-up before it takes the first scale
        res["setup_s"] = (res["clock_started"] * res["first_scale"]
                          + res["setup_ref_s"])
    return res


def run_workers(workload, seed, seconds, trace, started):
    """Full workers until their timed phases cover ``seconds`` of CPU
    time (not reference seconds, so a slow host does not lengthen a run
    by more than its slowness)."""
    out = []
    while True:
        out.append(spawn(workload, seed, trace, started=started))
        if (sum(r["cpu_s"] for r in out) >= seconds
                or monotonic() - started > SPAWN_BUDGET_S):
            return out


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "grig")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def git_rev():
    """HEAD of the checkout, or None when it is not a git work tree.  Git
    does not search above the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workers, seed):
    envs = {json.dumps(w["env"], sort_keys=True) for w in workers}
    if len(envs) != 1:
        raise BenchError(f"workers ran on different kernels: {sorted(envs)}")
    env = dict(workers[0]["env"])
    env.update({"seed": seed, "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "machine": platform.machine(), "git_rev": git_rev(),
                "src_sha256": source_digest()})
    return env


def end_to_end(workers, setups):
    timed = [w["timed_s"] for w in workers]
    return {
        "timed_s": median(timed),
        "setup_s": median(setups),
        "peak_rss_mib": median([w["peak_rss_mib"] for w in workers]),
        "ops_per_s": sum(w["ops"] for w in workers) / sum(timed),
    }


def latency(workers):
    """Per-operation latency quantiles, median over workers (printed and
    recorded, not part of the JSON metrics: on quotient-deep and
    rank-gradient a run has only a handful of operations)."""
    return {q: median([w[q] for w in workers])
            for q in ("op_p50_us", "op_p99_us")}


def per_layer(untraced, traced):
    names = traced[0]["layers"].keys()
    out = {k: median([w["layers"][k] for w in traced]) for k in names}
    out["trace.overhead_frac"] = (
        median([w["timed_s"] for w in traced])
        / median([w["timed_s"] for w in untraced]) - 1)
    return out


def layer_unit(name):
    if name.endswith("_us") or "_us." in name:
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith(("_frac", ".yield")):
        return "ratio"
    return "count"


def bench(workload, seed, seconds, trace):
    started = monotonic()
    workers = run_workers(workload, seed, seconds, 0, started)
    setups = [w["setup_s"] for w in workers]
    traced = []
    if trace:
        traced = run_workers(workload, seed, seconds, 1, started)
    else:
        setups_started = monotonic()
        while (len(setups) < SETUP_SAMPLES
               and monotonic() - started < SPAWN_BUDGET_S
               and (len(setups) < MIN_SETUPS
                    or monotonic() - setups_started < SETUP_BUDGET_S)):
            setups.append(spawn(workload, seed, setup_only=True,
                                started=started)["setup_s"])
    env = environment(workers + traced, seed)
    if trace:
        metrics = per_layer(workers, traced)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = end_to_end(workers, setups)
        units = END_TO_END_UNITS
    runs = workers + traced
    samples = {"workers": len(workers), "traced_workers": len(traced),
               "setups": len(setups),
               "timed_s": [w["timed_s"] for w in workers],
               "cpu_s": [w["cpu_s"] for w in workers],
               "host_speed": [w["host_speed"] for w in workers],
               "setup_s": setups}
    samples.update(latency(workers))
    unpatched = sorted({u for w in traced for u in w["unpatched"]})
    return {"workload": workload, "trace": trace, "run_seconds": seconds,
            "env": env, "samples": samples, "unpatched": unpatched,
            "spans": [w["spans"] for w in traced],
            "attempted": sum(w["ops"] for w in runs),
            "failed": sum(w["failed"] for w in runs),
            "digest": runs[0]["digest"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def report(rec):
    print(f"workload {rec['workload']} (trace {rec['trace']}): "
          f"{rec['samples']['workers']} untraced + "
          f"{rec['samples']['traced_workers']} traced workers, "
          f"{rec['samples']['setups']} set-ups")
    print("env " + json.dumps(rec["env"], sort_keys=True))
    if rec["unpatched"]:
        print("trace targets not found: " + ", ".join(rec["unpatched"]))
    for name, m in rec["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name in ("op_p50_us", "op_p99_us"):
        print(f"  {name} = {rec['samples'][name]:.6g} us (not gated)")
    print(f"  cpu_s = {median(rec['samples']['cpu_s']):.6g} s "
          f"at host speed {median(rec['samples']['host_speed']):.3g} "
          f"(not gated)")
    frac = rec["failed"] / rec["attempted"]
    print(f"  failed_frac = {frac:.6g} ({rec['failed']} of "
          f"{rec['attempted']} operations)")


def self_check(seeds, workloads):
    """Every workload on two seeds: no failed operation, and identical
    orders, ranks and other seed-independent results."""
    ok = True
    for workload in workloads:
        results = [spawn(workload, seed) for seed in seeds]
        failed = [r["failed"] for r in results]
        same = all(r["digest"] == results[0]["digest"] for r in results)
        good = same and not any(failed)
        ok = ok and good
        print(f"{workload}: seeds {list(seeds)} failed {failed} "
              f"digests {'agree' if same else 'DIFFER'} -> "
              f"{'ok' if good else 'FAIL'}")
        print("  " + json.dumps(results[0]["digest"], sort_keys=True))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record as JSON")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "grig", "__init__.py")):
        print(f"no grig sources under {SRC}", file=sys.stderr)
        return 2
    try:
        compile_sources()
        if args.self_check:
            return self_check((args.seed, args.seed + 1),
                              [args.workload] if args.workload else WORKLOADS)
        if args.workload is None:
            ap.error("--workload is required")
        rec = bench(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(rec)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(rec, f, indent=1, sort_keys=True)
    correct = rec["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
