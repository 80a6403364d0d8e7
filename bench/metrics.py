"""Names and units of every metric the benchmark reports, and their summary."""

from __future__ import annotations

import math
import statistics

# End-to-end metrics every workload reports; BENCHMARK.json gates these.
# ``wall_cal`` is the pass time in units of the calibration loop timed
# alongside it (see workloads.py), and ``setup_s`` the set-up time scaled by
# a bare numpy import timed next to it (see run.py); this cancels much of
# the drift in speed on shared machines.  The unscaled values are printed
# as well.
COMMON = [("setup_s", "s"), ("wall_cal", "cal"), ("peak_rss_mb", "MB")]
# Printed for every workload but not gated.  ``cal_s`` is the mean
# calibration loop time of a pass, so that a shift in the denominator of
# ``wall_cal`` shows.
UNGATED = [
    ("setup_raw_s", "s"),
    ("numpy_import_s", "s"),
    ("wall_s", "s"),
    ("cal_s", "s"),
    ("failed_ratio", "ratio"),
]
# Printed for the workloads that have them.
PER_WORKLOAD = {
    "complete-sets": [
        ("construct_s", "s"),
        ("verify_s", "s"),
        ("analyze_s", "s"),
    ],
    "greedy-maximal": [
        ("extend_greedy_s", "s"),
        ("analyze_s", "s"),
        ("extend_exhaustive_s", "s"),
    ],
    "enumerate": [
        ("m2_squares_per_s", "squares/s"),
        ("generic_squares_per_s", "squares/s"),
    ],
}
ENGINES = ("m2", "generic")
SEARCH_METRICS = (
    ("grow_s", "s"),
    ("grow_calls", "count"),
    ("squares_added", "count"),
    ("extensions_s", "s"),
    ("extensions_yielded", "count"),
    ("enumerate_s", "s"),
    ("squares_yielded", "count"),
)

# Every per-layer metric with its unit, in report order.
PER_LAYER = (
    [
        ("core.inner_calls", "count"),
        ("core.inner_s", "s"),
        ("core.indicator_calls", "count"),
        ("core.indicator_s", "s"),
        ("core.fsquare_calls", "count"),
        ("core.fsquare_s", "s"),
        ("verify.verify_mofs_self_s", "s"),
        ("verify.pairs_checked", "count"),
        ("verify.pairs_per_s", "1/s"),
        ("verify.completeness_s", "s"),
        ("fileformat.decode_self_s", "s"),
        ("fileformat.bytes_read", "bytes"),
        ("fileformat.decode_MB_per_s", "MB/s"),
        ("fileformat.encode_s", "s"),
        ("fileformat.bytes_written", "bytes"),
        ("construct.self_s", "s"),
        ("construct.field_build_s", "s"),
        ("construct.hadamard_s", "s"),
        ("maximality.verdict_s", "s"),
        ("maximality.parity_matrix_calls", "count"),
        ("maximality.certified_ratio", "ratio"),
    ]
    + [
        (f"search.{name}.{engine}", unit)
        for name, unit in SEARCH_METRICS
        for engine in ENGINES
    ]
    + [
        ("cli.self_s", "s"),
        ("cli.commands", "count"),
        ("trace_overhead_s", "s"),
    ]
)

# Metrics that count work exactly; two traced passes must agree on them.
_EXACT_PARTS = {
    "pairs_checked",
    "bytes_read",
    "bytes_written",
    "commands",
    "squares_added",
    "squares_yielded",
    "extensions_yielded",
}
EXACT = tuple(
    name
    for name, _ in PER_LAYER
    if "." in name
    and (
        name.split(".")[1].endswith("_calls")
        or name.split(".")[1] in _EXACT_PARTS
    )
)


def summary(values) -> dict:
    """Median, quartiles, sample count and the highest of p50/p90/p99/p99.9
    with at least ten samples beyond it (nearest rank)."""
    vals = sorted(values)
    n = len(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if n >= 2 else vals * 3
    out = {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": n}
    for pct in (99.9, 99, 90, 50):
        if n * (100 - pct) / 100 >= 10:
            out[f"p{pct:g}"] = vals[max(0, math.ceil(pct / 100 * n) - 1)]
            break
    return out


