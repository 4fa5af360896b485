#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

Run from the repository root: python3 perfbench/selftest.py

For every workload it checks that an untraced and a traced run print every
metric BENCHMARK.json names, with its unit, in the text and in the JSON
result; that every op passes on the unmodified library; that the exact
counts of two traced runs are identical; and that a deliberately perturbed
library output is counted as a failed op.  Exits 1 on the first failure.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

import run

SEED = 12345


def invoke(workload: str, trace: int) -> tuple[list[str], dict]:
    import workloads

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                         "--trace", str(trace)], size=workloads.TINY)
    lines = buf.getvalue().splitlines()
    if code != 0:
        raise AssertionError(f"{workload}: exit code {code}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    return lines[:-1], result


def check_metrics(workload: str, wanted: list, lines: list[str], result: dict) -> None:
    printed = {}
    for line in lines:
        parts = line.split(" ")
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if printed.get(name) != unit:
            raise AssertionError(f"{workload}: {name} not printed with unit {unit}")
        entry = result["metrics"].get(name)
        if not (entry and entry["unit"] == unit and isinstance(entry["value"], (int, float))):
            raise AssertionError(f"{workload}: {name} missing from the JSON result")
    if len(result["metrics"]) != len(wanted):
        raise AssertionError(f"{workload}: JSON result has extra metrics")


def exact_counts(lines: list[str]) -> dict:
    return {l.split(" ")[0]: l.split(" ")[1] for l in lines
            if l.rsplit(" ", 1)[-1] in ("count", "flop", "B", "ratio")}


def perturbations():
    """One library output per workload, changed just enough to fail its check."""
    from polytrack import analysis, correction, network, training

    def batch(net, x0s, params=None):
        out, taps = original[0](net, x0s, params)
        return out + 1e-12, taps

    def tunes(*args, **kwargs):
        result = original[1](*args, **kwargs)
        result["x"].q += 0.01
        return result

    def train(*args, **kwargs):
        net, report = original[2](*args, **kwargs)
        report.loss[-1] = 2 * report.loss[0]
        return net, report

    def correct(*args, **kwargs):
        result = original[3](*args, **kwargs)
        result.rms_after = result.rms_before
        return result

    original = (network.forward_batch, analysis.ring_tunes, training.train,
                correction.correct_orbit)
    return {"da_scan": (network, "forward_batch", batch),
            "tune_scan": (analysis, "ring_tunes", tunes),
            "calibrate": (training, "train", train),
            "steer": (correction, "correct_orbit", correct)}


def main() -> int:
    run.pin_threads()
    run.load_library()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    try:
        for workload in names:
            lines, result = invoke(workload, 0)
            check_metrics(workload, spec["end_to_end"], lines, result)
            if not (result["correct"] and result["failed"] == 0):
                raise AssertionError(f"{workload}: ops failed on the unmodified library")

            first, result = invoke(workload, 1)
            check_metrics(workload, spec["per_layer"], first, result)
            if not result["correct"]:
                raise AssertionError(f"{workload}: traced ops failed")
            second, _ = invoke(workload, 1)
            if exact_counts(first) != exact_counts(second):
                raise AssertionError(f"{workload}: counts differ between traced runs")

            module, attr, fake = perturbations()[workload]
            original = getattr(module, attr)
            setattr(module, attr, fake)
            try:
                _, result = invoke(workload, 0)
            finally:
                setattr(module, attr, original)
            if result["correct"] or result["failed"] == 0:
                raise AssertionError(f"{workload}: perturbed output was not counted as failed")
            print(f"{workload}: ok ({result['failed']}/{result['attempted']} perturbed ops failed)",
                  file=sys.stderr)
    except AssertionError as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        return 1
    print("selftest passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
