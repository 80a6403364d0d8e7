"""Fast self-test of the benchmark harness at toy sizes (about 30 s).

    python3 bench/selftest.py

Runs every workload at ``--scale tiny`` (``--prime-power 3 1``, F(4;2) and
F(4;1)) untraced and traced, and checks that every metric named in
``metrics.py`` is printed with its unit, that the last line carries exactly
the metrics ``BENCHMARK.json`` lists, that a corrupted input file counts
toward ``failed_ratio``, and that the benchmark refuses to run without the
``mofs`` sources.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from metrics import COMMON, PER_LAYER, PER_WORKLOAD, UNGATED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--seconds", "0.2", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def printed_units(stdout: str) -> dict:
    """{metric: unit} of the indented report lines."""
    rows = [line.split() for line in stdout.splitlines() if line.startswith("  ")]
    return {row[0]: row[2] for row in rows if len(row) >= 3}


def expect(cond, message, done=None):
    if not cond:
        detail = f"\n--- stdout\n{done.stdout}\n--- stderr\n{done.stderr}" if done else ""
        sys.exit(f"selftest FAILED: {message}{detail}")


def main() -> int:
    spec = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    expect(spec[0] == dict(COMMON), "BENCHMARK.json end_to_end != metrics.COMMON")
    expect(spec[1] == dict(PER_LAYER), "BENCHMARK.json per_layer != metrics.PER_LAYER")
    for workload, extra in PER_WORKLOAD.items():
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "7", "--trace", str(trace),
                    "--scale", "tiny"]
            done = run(args)
            expect(done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}", done)
            result = json.loads(done.stdout.splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{workload}: result keys {sorted(result)}", done)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: outputs not correct", done)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == spec[trace], f"{workload} trace={trace}: metrics {got}", done)
            want = dict(COMMON + UNGATED + extra)
            if trace:
                want.update(PER_LAYER)
            printed = printed_units(done.stdout)
            missing = {k: u for k, u in want.items() if printed.get(k) != u}
            expect(not missing, f"{workload} trace={trace}: not printed {missing}", done)

    done = run(["--workload", "complete-sets", "--seed", "7", "--trace", "0",
                "--scale", "tiny", "--corrupt"])
    expect(done.returncode == 0, "corrupt run did not finish", done)
    result = json.loads(done.stdout.splitlines()[-1])
    expect(not result["correct"] and result["failed"] > 0,
           "a corrupted input file was not counted as failed", done)
    expect(float(done.stdout.split("failed_ratio")[1].split()[0]) > 0,
           "failed_ratio stayed 0 on a corrupted input", done)

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bare-", dir=ROOT / ".bench_tmp") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run(["--workload", "enumerate", "--seed", "7", "--trace", "0"], cwd=bare)
    expect(done.returncode != 0 and not done.stdout.strip(),
           "ran without the mofs sources", done)
    print("selftest OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
