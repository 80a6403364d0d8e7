"""The benchmark's workloads: inputs made from a seed, one pass, output checks.

Each workload drives ``mofs`` only from outside: CLI commands go through
``mofs.cli.main(argv)`` in-process with stdout/stderr captured, library
calls through public functions.  A pass returns the time of every
operation and the problems its checks found; every pass must also print
exactly what the first (warm-up) pass printed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import signal
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mofs
import mofs.cli
from mofs.search import count_binary_matrices

# Inputs per workload and scale.  "full" is what the benchmark measures;
# "tiny" is the self-test's, with the same code paths at toy sizes.
SCALES = {
    "complete-sets": {
        "full": [
            ["--prime-power", "3", "3"],  # 338 x F(27;9), m = 3
            ["--prime-power", "5", "2"],  # 144 x F(25;5), m = 5
            ["--hadamard", "24"],  # 529 x F(24;12), m = 2, Paley path
        ],
        "tiny": [["--prime-power", "3", "1"]],
    },
    # (m, lam), number of start squares, the sizes a greedy set may reach.
    "greedy-maximal": {
        "full": [
            ((2, 3), 4, {1, *range(5, 16), 17}),
            ((5, 1), 20, set(range(1, 5))),
        ],
        "tiny": [
            ((2, 2), 2, set(range(1, 10))),
            ((4, 1), 2, set(range(1, 4))),
        ],
    },
    # (m, lam), max_results (None: the whole type).
    "enumerate": {
        "full": [((2, 3), None), ((5, 1), 10000)],
        "tiny": [((2, 2), None), ((4, 1), 100)],
    },
}

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass
class CliResult:
    code: int
    out: str
    err: str
    seconds: float


def run_cli(argv, clock=time.perf_counter) -> CliResult:
    """One ``mofs`` command in-process, looked up at call time so that a
    tracer's wrapper of ``mofs.cli.main`` sees it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        try:
            code = mofs.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a lost run
            code = -1
            traceback.print_exc()
        seconds = clock() - t0
    return CliResult(code, out.getvalue(), err.getvalue(), seconds)


# On a shared 2-vCPU VM each vCPU drifts between speeds about 1.5x apart, for
# seconds to minutes at a time.  A fixed loop, run every CAL_EVERY_S from a
# timer signal while the workload runs, samples the current speed, so that a
# pass's time can also be given in units of that loop.  Operations are timed
# on a clock that stops while a sample runs.  The loop is half shaped like
# ``core.inner`` (AND of packed rows, popcount, sum) and half a strided walk
# over a large list and dict: alone, the first slows down more than mofs
# under contention and the second less.
_CAL_RNG = random.Random(20260)
_CAL_A = [_CAL_RNG.getrandbits(27) for _ in range(27)]
_CAL_B = [_CAL_RNG.getrandbits(27) for _ in range(27)]
_CAL_BIG = list(range(200_000))
CAL_EVERY_S = 0.2


def calibration_loop() -> float:
    """Seconds one run of the fixed calibration loop (about 20 ms) takes now.
    The garbage collector is paused, so that the objects mofs keeps alive do
    not change the loop's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for _ in range(2_500):
            acc += sum((a & b).bit_count() for a, b in zip(_CAL_A, _CAL_B))
        seen = {}
        for i in range(0, 200_000, 10):
            acc += _CAL_BIG[(i * 7919) % 200_000]
            seen[i & 4095] = acc
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """While active, runs the calibration loop every CAL_EVERY_S seconds
    from SIGALRM and keeps the samples; ``clock()`` excludes their time."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibration_loop())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


class Pass:
    """What one pass did: per-kind operation times, rates and failures.
    ``clock`` times the operations."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op_s = defaultdict(list)
        self.rates = {}
        self.attempted = 0
        self.failures = []
        self.wall_s = 0.0
        self.cal_s = None  # mean calibration sample during the pass

    def record(self, kind: str, seconds: float, problems) -> None:
        self.attempted += 1
        self.op_s[kind].append(seconds)
        if problems:
            self.failures.append(f"{kind}: " + "; ".join(problems))

    def metrics(self) -> dict:
        """End-to-end values of this pass: wall time, the same in calibration
        units and the calibration sample when sampled, summed seconds per
        kind, rates."""
        out = {"wall_s": self.wall_s}
        if self.cal_s:
            out["wall_cal"] = self.wall_s / self.cal_s
            out["cal_s"] = self.cal_s
        out.update({f"{kind}_s": sum(v) for kind, v in self.op_s.items()})
        out.update(self.rates)
        return out


def read_grids(text: str):
    """(m, lam, grids) of a MOFS file; the benchmark's own small parser."""
    lines = text.split("\n")
    head = lines[0].split()
    m, lam = int(head[1][2:]), int(head[2][7:])
    rows = [line.split() for line in lines[1:] if line.strip()]
    n = m * lam
    grids = np.array(rows, dtype=np.int64).reshape(-1, n, n)
    return m, lam, grids


def write_grids(path: Path, m: int, lam: int, grids) -> None:
    blocks = ["\n".join(" ".join(map(str, row)) for row in g) for g in grids]
    header = f"MOFS m={m} lambda={lam} count={len(grids)}"
    path.write_text(header + "\n" + "\n\n".join(blocks) + "\n", encoding="utf-8")


def header_count(path: Path) -> int | None:
    try:
        with open(path, encoding="utf-8") as fh:
            head = fh.readline().split()
        return int(head[3][6:])
    except (OSError, IndexError, ValueError):
        return None


class Workload:
    """Base: remembers each operation's output in the first pass and
    reports any later pass that prints something else."""

    def __init__(self):
        self.reference = {}

    def same_as_first(self, op_id, output, problems) -> None:
        first = self.reference.setdefault(op_id, output)
        if output != first:
            problems.append("output differs from the first pass")

    def cli(self, p: Pass, kind: str, op_id, argv, check, output_file=None):
        """Run one command, check it and record it; returns the result."""
        res = run_cli(argv, p.clock)
        problems = []
        if res.code != 0:
            problems.append(f"exit code {res.code}: {res.err.strip()[-300:]}")
        else:
            check(res, problems)
        produced = output_file.read_bytes() if output_file and output_file.exists() else b""
        self.same_as_first(op_id, (res.code, res.out, res.err, produced), problems)
        p.record(kind, res.seconds, problems)
        return res


class CompleteSets(Workload):
    """construct -> verify -> analyze on complete sets; the verify/analyze
    inputs are the constructed files with the square order and one common
    row and column permutation shuffled from the seed."""

    def __init__(self, scale, seed, tmp: Path):
        super().__init__()
        self.sets = SCALES["complete-sets"][scale]
        self.rng = random.Random(seed)
        self.tmp = tmp
        self.corrupt = False  # the self-test sets this to see failures counted
        self.shuffled = {}

    @staticmethod
    def expected_t(args) -> int:
        if args[0] == "--hadamard":
            return (int(args[1]) - 1) ** 2
        m, h = int(args[1]), int(args[2])
        return (m**h - 1) ** 2 // (m - 1)

    def _shuffle(self, idx: int, built: Path) -> Path:
        """Write the seed-shuffled copy of a freshly constructed file."""
        m, lam, grids = read_grids(built.read_text(encoding="utf-8"))
        t, n = grids.shape[0], grids.shape[1]
        order, rows, cols = list(range(t)), list(range(n)), list(range(n))
        for perm in (order, rows, cols):
            self.rng.shuffle(perm)
        grids = grids[order][:, rows][:, :, cols]
        if self.corrupt:  # break row/column regularity of one square
            grids[0, 0, 0] = grids[0, 0, 0] % m + 1
        path = self.tmp / f"set{idx}.shuffled.mofs"
        write_grids(path, m, lam, grids)
        return path

    def run_pass(self, p: Pass) -> None:
        for idx, args in enumerate(self.sets):
            t = self.expected_t(args)
            built = self.tmp / f"set{idx}.mofs"

            def check_built(res, problems, t=t, built=built):
                if header_count(built) != t:
                    problems.append(f"{built.name} does not hold {t} squares")

            self.cli(p, "construct", ("construct", idx), ["construct", *args, "-o", str(built)],
                     check_built, built)
            if idx not in self.shuffled:
                self.shuffled[idx] = self._shuffle(idx, built)
            path = str(self.shuffled[idx])

            def check_verify(res, problems, t=t):
                for want in (f"OK: {t} mutually orthogonal squares", "complete: yes"):
                    if want not in res.out:
                        problems.append(f"verify did not print {want!r}")

            def check_analyze(res, problems, t=t):
                for want in (
                    f": {t} mutually orthogonal squares",
                    "complete: yes",
                    "completeness block structure matches: True",
                ):
                    if want not in res.out:
                        problems.append(f"analyze did not print {want!r}")

            self.cli(p, "verify", ("verify", idx), ["verify", path], check_verify)
            self.cli(p, "analyze", ("analyze", idx), ["analyze", path], check_analyze)


class GreedyMaximal(Workload):
    """extend --greedy -> analyze -> extend --exhaustive from one-square
    start files, each start square and greedy seed drawn from the seed."""

    def __init__(self, scale, seed, tmp: Path):
        super().__init__()
        rng = random.Random(seed)
        self.jobs = []
        for (m, lam), count, sizes in SCALES["greedy-maximal"][scale]:
            params = mofs.Params(m, lam)
            for i in range(count):
                start_seed, greedy_seed = rng.randrange(2**32), rng.randrange(2**32)
                square = mofs.random_fsquare(params, random.Random(start_seed))
                start = tmp / f"start-{m}-{lam}-{i}.mofs"
                write_grids(start, m, lam, [square.grid])
                force = [] if m == 2 else ["--force"]
                self.jobs.append((params, sizes, start, str(greedy_seed), force))

    def run_pass(self, p: Pass) -> None:
        for params, sizes, start, greedy_seed, force in self.jobs:
            grown = start.with_suffix(".grown.mofs")

            def check_greedy(res, problems):
                t = header_count(grown)
                if t not in sizes:
                    problems.append(f"greedy {params} set has size {t}, not in {sorted(sizes)}")
                elif f"grew from 1 to {t} squares" not in res.err:
                    problems.append("greedy did not report its size")

            def check_analyze(res, problems):
                if f"type {params}: {header_count(grown)} mutually orthogonal squares" not in res.out:
                    problems.append("analyze reports another type or size")

            def check_exhaustive(res, problems):
                for want in ("extensions: 0", "maximal: yes"):
                    if want not in res.out:
                        problems.append(f"exhaustive search did not print {want!r}")

            argv = ["extend", str(start), "--greedy", "--seed", greedy_seed, *force]
            self.cli(p, "extend_greedy", ("greedy", start.name), [*argv, "-o", str(grown)],
                     check_greedy, grown)
            self.cli(p, "analyze", ("analyze", start.name), ["analyze", str(grown)],
                     check_analyze)
            self.cli(p, "extend_exhaustive", ("exhaustive", start.name),
                     ["extend", str(grown), "--exhaustive", *force], check_exhaustive)


def square_digest(squares) -> tuple[int, str]:
    """Count and order-sensitive SHA-256 of a stream of squares (uint8 grids)."""
    h = hashlib.sha256()
    n = 0
    for sq in squares:
        n += 1
        h.update(sq.grid.astype(np.uint8).tobytes())
    return n, h.hexdigest()


class Enumerate:
    """The library's ``enumerate_fsquares`` streams; the seed is unused."""

    def __init__(self, scale, seed, tmp: Path):
        self.scale = scale
        self.streams = SCALES["enumerate"][scale]
        self.digests = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))["enumerate"]

    @staticmethod
    def key(scale, m, lam, limit) -> str:
        return f"{scale} F({m * lam};{lam}) max_results={limit}"

    def run_pass(self, p: Pass) -> None:
        for (m, lam), limit in self.streams:
            engine = "m2" if m == 2 else "generic"
            params = mofs.Params(m, lam)
            problems = []
            t0 = p.clock()
            try:
                n, digest = square_digest(
                    mofs.enumerate_fsquares(params, mofs.SearchConfig(max_results=limit))
                )
            except mofs.MofsError as exc:
                n, digest = 0, None
                problems.append(f"enumeration failed: {exc}")
            seconds = p.clock() - t0
            want_n = count_binary_matrices(params.n, lam) if limit is None else limit
            if n != want_n:
                problems.append(f"{params} streamed {n} squares, expected {want_n}")
            want = self.digests.get(self.key(self.scale, m, lam, limit))
            if digest != want:
                problems.append(f"{params} stream digest {digest} != recorded {want}")
            p.record(f"enumerate_{engine}", seconds, problems)
            p.rates[f"{engine}_squares_per_s"] = n / seconds


WORKLOADS = {
    "complete-sets": CompleteSets,
    "greedy-maximal": GreedyMaximal,
    "enumerate": Enumerate,
}
