#!/usr/bin/env python3
"""Seeded benchmark of polytrack's four user workloads.

Run from the repository root:

    python3 perfbench/run.py --workload da_scan --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py): da_scan, tune_scan, calibrate, steer.  One
process runs one workload with one caller in a closed loop: each op starts
when the previous one ends.  BLAS/OpenMP threads are pinned to at most the
number of CPUs this process may use.  Every input is generated from
--seed during set-up; set-up runs at least SETUP_REPEATS times and for at
least Size.setup_seconds in total, and the median is reported as setup_s.

--trace 0 runs up to one op cycle (at most WARM_UP_S) untimed as a
warm-up, then measures whole op cycles for --seconds (and at least 100
ops) with nothing wrapped and reports the end-to-end metrics of
BENCHMARK.json.  Rates are medians over the run: the ops are cut into
windows of one op cycle each (workloads.Workload.window), each window
gives work done over time spent in its ops, and the median window is
reported.

--trace 1 runs a fixed number of ops untraced, then set-up and the same
number of ops again with every function of tracer.FUNCTIONS wrapped.  It
reports the per-layer metrics of BENCHMARK.json, prints the full
per-function table and writes all spans to
.perfbench/trace-<workload>-seed<seed>.json.  A fixed op count makes
every count repeat exactly for a given seed.

Every line before the last is human-readable: the environment, each
metric by name with its unit, and output checksums.  The last line is one
JSON object with the keys correct, attempted, failed and metrics.  An op
counts as failed if it raises or its output fails the workload's check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")
SETUP_REPEATS = 5
WARM_UP_S = 1.0
MAX_LOOP_S = 120.0  # hard stop for the timed loop, whatever --seconds says
# ops per traced run: one da_scan scan, and ~2e5 spans on the other workloads
TRACED_OPS = {"da_scan": 50, "tune_scan": 20, "calibrate": 40, "steer": 36}


def pin_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable CPU count; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def load_library() -> None:
    """Put this checkout's src/ first on the path; exit if it is not there."""
    src = ROOT / "src"
    if not (src / "polytrack" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'polytrack'} not found; run from a polytrack checkout")
    sys.path.insert(0, str(src))
    import polytrack
    if Path(polytrack.__file__).resolve().parent != src / "polytrack":
        sys.exit(f"error: imported polytrack from {polytrack.__file__}, not {src}")


def environment(nproc: int, args) -> dict:
    import importlib.util

    import numpy
    from polytrack import kernels
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": nproc, "python": platform.python_version(), "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels.USING_NUMBA": kernels.USING_NUMBA,
        "POLYTRACK_DISABLE_NUMBA": os.environ.get("POLYTRACK_DISABLE_NUMBA"),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_ops(w, seconds: float = 0.0, n_ops: int | None = None, tracer=None):
    """Closed loop; returns (op durations in s, indices of failed ops).

    Stops after `n_ops` ops if given, else at the end of the first op cycle
    that ends after `seconds` have passed and at least w.size.min_ops ops ran.
    """
    times, failed = [], set()
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if n_ops is not None:
            if i >= n_ops:
                break
        elif (i >= w.size.min_ops and elapsed >= seconds and i % w.window == 0
              or elapsed >= MAX_LOOP_S):
            break
        inputs = w.prepare(i)
        ok = False
        with tracer.root("op") if tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                out = w.op(inputs)
                ok = True
            except Exception:
                traceback.print_exc()
            times.append(time.perf_counter() - t0)
        if not ok:
            w.skip(i)
            failed.add(i)
        elif not w.record(i, inputs, out):
            failed.add(i)
        i += 1
    return times, failed


def warm_up(w) -> None:
    """Run the first ops of the cycle untimed and unrecorded, for up to WARM_UP_S."""
    start = time.perf_counter()
    for i in range(w.window):
        w.op(w.prepare(i))
        if time.perf_counter() - start >= WARM_UP_S:
            break


def quantile(times, q: int) -> float:
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def windowed_rate(times, work, window: int) -> float:
    """Median over whole windows of `window` ops of work done / time spent."""
    window = min(window, len(times))
    return statistics.median(sum(work[k:k + window]) / sum(times[k:k + window])
                             for k in range(0, len(times) - window + 1, window))


def measure(cls, seed: int, seconds: float, size) -> tuple[dict, dict, int, int]:
    setup_times = []
    # short set-ups repeat more often, for a steadier median
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < size.setup_seconds:
        t0 = time.perf_counter()
        w = cls(seed, size)
        setup_times.append(time.perf_counter() - t0)
        if not w.setup_ok:
            print("set-up check failed")
    warm_up(w)
    times, failed = run_ops(w, seconds=seconds)
    failed |= w.finish()
    n = len(times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_ms": (quantile(times, 50) * 1e3, "ms"),
        "op_p90_ms": (quantile(times, 90) * 1e3, "ms"),
        "ops_per_s": (windowed_rate(times, [1] * n, w.window), "1/s"),
        "layer_evals_per_s": (windowed_rate(times, w.op_evals, w.window), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"ops": n, "window_ops": w.window, "setup_repeats": len(setup_times),
            "failed_op_ratio": len(failed) / n,
            "checksum.setup": w.setup_checksum, "checksum.ops": w.op_checksum}
    if hasattr(w, "op_epochs"):
        info["epochs_per_s"] = windowed_rate(times, w.op_epochs, w.window)
    return metrics, info, n, len(failed) + (0 if w.setup_ok else n)


def measure_traced(cls, seed: int, size, n_ops: int, out_path: Path, env: dict):
    from tracer import FUNCTIONS, Tracer

    w = cls(seed, size)
    plain, failed = run_ops(w, n_ops=n_ops)
    failed |= w.finish()
    ok = w.setup_ok

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("setup"):
            w = cls(seed, size)
        traced, failed_t = run_ops(w, n_ops=n_ops, tracer=tracer)
    finally:
        tracer.uninstall()
    failed_t |= w.finish()
    ok = ok and w.setup_ok

    table = tracer.table()
    metrics = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = (table[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (table[name]["self_s"], "s")
        metrics[f"{name}.total_s"] = (table[name]["total_s"], "s")
    units = {"flops_computed": "flop", "bytes_computed": "B", "gflops_per_s": "GFLOP/s",
             "accept_ratio": "ratio"}
    for name, value in tracer.derived().items():
        metrics[name] = (value, units.get(name.rsplit(".", 1)[1], "count"))
    p50_plain, p50_traced = quantile(plain, 50) * 1e3, quantile(traced, 50) * 1e3
    metrics["trace.op_p50_ms_untraced"] = (p50_plain, "ms")
    metrics["trace.op_p50_ms_traced"] = (p50_traced, "ms")
    metrics["trace.overhead_ms"] = (p50_traced - p50_plain, "ms")
    info = {"ops": 2 * n_ops, "traced_ops": n_ops, "spans": len(tracer.span_name),
            "failed_op_ratio": (len(failed) + len(failed_t)) / (2 * n_ops),
            "checksum.setup": w.setup_checksum, "checksum.ops": w.op_checksum,
            "trace_file": str(out_path.relative_to(ROOT))}
    out_path.parent.mkdir(exist_ok=True)
    tracer.dump(out_path, {"env": env, "info": info,
                           "metrics": {k: v for k, (v, _) in metrics.items()}})
    n_failed = len(failed) + len(failed_t) + (0 if ok else 2 * n_ops)
    return metrics, info, 2 * n_ops, n_failed


def main(argv=None, size=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"error: {spec_path} not found")
    spec = json.loads(spec_path.read_text())
    nproc = pin_threads()
    load_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    size = size or workloads.FULL
    env = environment(nproc, args)
    print("env " + json.dumps(env))
    if args.trace:
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        n_ops = min(TRACED_OPS[args.workload], size.min_ops)
        metrics, info, attempted, failed = measure_traced(
            cls, args.seed, size, n_ops, trace_path, env)
        wanted = spec["per_layer"]
    else:
        metrics, info, attempted, failed = measure(cls, args.seed, args.seconds, size)
        wanted = spec["end_to_end"]

    for name, (value, unit) in metrics.items():
        print(f"{name} {'n/a' if value is None else repr(value)} {unit}")
    for name, value in info.items():
        print(f"{name} {value!r}")
    result = {}
    for m in wanted:
        value, unit = metrics[m["name"]]
        if unit != m["unit"] or value is None:
            raise RuntimeError(f"metric {m['name']} is {value!r} {unit}, "
                               f"BENCHMARK.json wants {m['unit']}")
        result[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
