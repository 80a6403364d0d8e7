"""Benchmark of the ``mofs`` library and CLI.

    python3 bench/run.py --workload complete-sets --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (it imports ``mofs`` from ``src``).
It times ``import mofs.cli`` + ``build_parser()`` in several fresh
processes before and after the workload, each next to a bare ``import
numpy`` (``setup_s``, scaled to a reference numpy import), and runs the
workload in one more fresh process (``worker.py``): a warm-up pass, then
timed passes until ``--seconds`` have passed.  With ``--trace 1`` it runs
one untraced and two traced passes instead and reports the per-layer
metrics.  Every end-to-end and per-layer metric is printed by name and
unit; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the metrics ``BENCHMARK.json``
lists for the trace mode).  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from metrics import COMMON, EXACT, PER_LAYER, PER_WORKLOAD, UNGATED, summary

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEADLINE_S = 175  # a run must end within 180 s
SETUP_PAIRS = 10
# Each probe pair times, in two fresh processes back to back, a bare
# ``import numpy`` and the set-up every ``mofs`` invocation pays.  Both
# slow down alike when OpenBLAS's start-up threads meet contention for the
# other vCPU, which the calibration loop of workloads.py does not see.
NUMPY_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "print(time.perf_counter() - t0)\n"
)
SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import mofs.cli\n"
    "mofs.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)
# A bare ``import numpy`` took about this long on the machine the benchmark
# was tuned on (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6) when it
# ran fastest.  setup_s is given in seconds at that speed.
NUMPY_REFERENCE_S = 0.11
WORKLOADS = tuple(PER_WORKLOAD)


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_row(name, stats, unit) -> None:
    extra = " ".join(f"{k}={fmt(v)}" for k, v in stats.items() if k != "median")
    print(f"  {name:<34} {fmt(stats['median']):>12} {unit:<10} {extra}")


def source_identity() -> dict:
    """The commit when run in a git checkout, and a digest of src/mofs."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted((SRC / "mofs").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest()}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env.pop("MOFS_MAX_ENUM", None)  # the workloads run with the default ceiling
    return env


def remaining(started: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0:
        raise subprocess.TimeoutExpired("bench", DEADLINE_S)
    return left


def probe(code, env, started) -> float:
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=remaining(started),
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(env, started, pairs) -> list:
    """(bare numpy import seconds, mofs set-up seconds) of each probe pair."""
    return [
        (probe(NUMPY_PROBE, env, started), probe(SETUP_PROBE, env, started))
        for _ in range(pairs)
    ]


def run_worker(args, env, started, tmp) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--tmp", tmp,
    ]
    if args.corrupt:
        cmd.append("--corrupt")
    done = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining(started)
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def layer_metrics(raw) -> dict:
    """Per-layer values: exact counts from the first traced pass, times as
    the median of the two; plus the tracing overhead on wall time."""
    first, second = raw["layers"]
    out = {}
    for name, _ in PER_LAYER:
        if name == "trace_overhead_s":
            continue
        out[name] = first[name] if name in EXACT else (first[name] + second[name]) / 2
    out["trace_overhead_s"] = statistics.median(raw["traced_wall_s"]) - raw["passes"][0]["wall_s"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the mofs library and CLI.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's toy inputs")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt the complete-sets inputs (self-test only)")
    args = ap.parse_args(argv)
    if args.corrupt and args.workload != "complete-sets":
        ap.error("--corrupt applies to complete-sets only")
    if not (SRC / "mofs" / "__init__.py").is_file():
        print(f"error: no mofs sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = child_env()
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    try:
        # Probes before and after the worker sample two moments of the machine.
        setup = measure_setup(env, started, SETUP_PAIRS // 2)
        with tempfile.TemporaryDirectory(prefix=args.workload, dir=ROOT / ".bench_tmp") as tmp:
            raw = run_worker(args, env, started, tmp)
        setup += measure_setup(env, started, SETUP_PAIRS - SETUP_PAIRS // 2)
    except (subprocess.SubprocessError, RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = raw["passes"]
    e2e = {
        "setup_s": summary([s / np_s * NUMPY_REFERENCE_S for np_s, s in setup]),
        "setup_raw_s": summary([s for _, s in setup]),
        "numpy_import_s": summary([np_s for np_s, _ in setup]),
        "peak_rss_mb": summary([raw["peak_rss_mb"]]),
    }
    for name in ["wall_cal", "wall_s", "cal_s", *dict(PER_WORKLOAD[args.workload])]:
        e2e[name] = summary([p[name] for p in passes])
    attempted, failed = raw["attempted"], raw["failed"]
    e2e["failed_ratio"] = {"median": failed / attempted, "n": attempted}
    units = dict(COMMON + UNGATED + PER_WORKLOAD[args.workload])
    env_record = {**source_identity(), **raw["env"]}

    print(f"mofs benchmark: workload={args.workload} seed={args.seed}"
          f" seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    print("env: " + json.dumps(env_record, sort_keys=True))
    print("end-to-end (median over timed passes):")
    for name, stats in e2e.items():
        print_row(name, stats, units[name])
    print("per-operation latency (pooled over timed passes):")
    for kind, seconds in raw["op_s"].items():
        print_row(kind, summary(seconds), "s")
    for failure in raw["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)

    correct = failed == 0
    if args.trace:
        if raw["count_mismatch"]:
            print("error: exact counts differ between two traced passes: "
                  + json.dumps(raw["count_mismatch"]), file=sys.stderr)
            return 3
        layers = layer_metrics(raw)
        print("per-layer (traced passes):")
        for name, unit in PER_LAYER:
            print_row(name, {"median": layers[name]}, unit)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name]["median"], "unit": unit} for name, unit in COMMON}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
