"""One workload in a fresh process: warm-up pass, timed passes, traced passes.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON
object with the raw per-pass values as the last line of stdout.  It is a
single-threaded closed loop: each operation starts when the previous one
has finished.  numpy/BLAS threads are left at their default and recorded.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import sys
import time
from pathlib import Path

import numpy as np

from metrics import EXACT
from tracer import Tracer
from workloads import WORKLOADS, Pass, SpeedSampler


def blas_info() -> dict:
    """numpy's BLAS library and its thread count, read from the loaded library."""
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = set(re.findall(r"(/\S*blas\S*\.so\S*)", fh.read()))
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                return info
    return info


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def trimmed_mean(values, cut=0.1) -> float:
    """Mean without the lowest and highest tenth.  The machine switches
    between a fast and a slow state during a pass; the mean of evenly spaced
    samples follows the share of time spent in each, the median does not."""
    vals = sorted(values)
    k = int(len(vals) * cut)
    kept = vals[k : len(vals) - k]
    return sum(kept) / len(kept)


def timed_pass(workload, sampler=None) -> Pass:
    """One pass; with a sampler, also its mean calibration sample."""
    if sampler is None:
        p = Pass()
    else:
        p = Pass(sampler.clock)
        sampler.sample()
        first = len(sampler.samples) - 1
    t0 = p.clock()
    workload.run_pass(p)
    p.wall_s = p.clock() - t0
    if sampler is not None:
        p.cal_s = trimmed_mean(sampler.samples[first:])
    return p


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--tmp", type=Path, required=True, help="directory for the inputs")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.scale, args.seed, args.tmp)
    if args.corrupt:
        workload.corrupt = True
    warmup = timed_pass(workload)  # fills lazy caches; outputs become the reference
    passes = []
    start = time.perf_counter()
    with SpeedSampler() as sampler:
        while True:
            passes.append(timed_pass(workload, sampler))
            if args.trace or time.perf_counter() - start >= args.seconds:
                break
    traced = []
    if args.trace:
        for _ in range(2):
            with Tracer() as tracer:
                p = timed_pass(workload)
            traced.append((p, tracer.metrics()))

    everything = [warmup, *passes, *(p for p, _ in traced)]
    result = {
        "env": environment(),
        "attempted": sum(p.attempted for p in everything),
        "failed": sum(len(p.failures) for p in everything),
        "failures": [f for p in everything for f in p.failures][:20],
        "passes": [p.metrics() for p in passes],
        "op_s": {
            kind: [s for p in passes for s in p.op_s[kind]] for kind in passes[0].op_s
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        first, second = traced[0][1], traced[1][1]
        result["count_mismatch"] = {
            name: [first[name], second[name]]
            for name in EXACT
            if first[name] != second[name]
        }
        result["layers"] = [m for _, m in traced]
        result["traced_wall_s"] = [p.wall_s for p, _ in traced]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
