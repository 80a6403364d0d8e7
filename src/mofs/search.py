"""Enumeration, extension search, greedy growth, and the exhaustive
maximality oracle.

Squares are generated in lexicographic grid order by one row-by-row
backtracking engine over the valid row patterns, for every m.  It keeps
per-column symbol counts and, against every member of the set being
extended, the running count of each ordered symbol pair, all packed into
two ints so that adding a row and checking every bound is a few integer
operations.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import comb, factorial

import numpy as np

from .core import FSquare, MofsError, Params
from .verify import MofsSet, _stack, verify_mofs

DEFAULT_MAX_ENUM = 10_000_000


class InfeasibleSizeGuard(MofsError):
    def __init__(self, estimate, ceiling):
        super().__init__(
            f"estimated {estimate} squares exceeds the ceiling {ceiling};"
            f" raise MOFS_MAX_ENUM or force to override"
        )
        self.estimate = estimate
        self.ceiling = ceiling


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the search operations.

    Identical seed and config give identical outcomes.  ``prefix``
    restricts the first row to start with the given symbols, which
    partitions the search space between runs; ``max_results`` caps a
    stream.  Greedy growth and the exhaustive maximality check need the
    whole space and refuse both.  ``force`` lifts the enumeration size
    guard, whose ceiling is the ``MOFS_MAX_ENUM`` environment variable.
    """

    seed: int | None = None
    max_results: int | None = None
    prefix: tuple = ()
    force: bool = False


@lru_cache(maxsize=None)
def count_binary_matrices(n: int, k: int) -> int:
    """Exact number of n x n 0/1 matrices with all row and column sums k,
    by dynamic programming over column-capacity multiplicities."""

    @lru_cache(maxsize=None)
    def rec(rows_left: int, state: tuple) -> int:
        if rows_left == 0:
            return 1 if sum(c * cnt for c, cnt in enumerate(state)) == 0 else 0
        total = 0

        def place(c: int, left: int, ways: int, taken: tuple):
            # Choose how many of this row's ones land in each capacity
            # class of the *original* state (a column takes at most one).
            nonlocal total
            if left == 0 or c == 0:
                if left:
                    return
                st = list(state)
                for cls, take in taken:
                    st[cls] -= take
                    st[cls - 1] += take
                total += ways * rec(rows_left - 1, tuple(st))
                return
            for take in range(min(state[c], left) + 1):
                place(
                    c - 1,
                    left - take,
                    ways * comb(state[c], take),
                    taken + ((c, take),) if take else taken,
                )

        place(k, k, 1, ())
        return total

    state = [0] * (k + 1)
    state[k] = n
    return rec(n, tuple(state))


def estimate_count(params: Params) -> int:
    """Estimated number of F-squares of the type: exact for m = 2,
    a row-pattern overestimate otherwise."""
    m, lam, n = params.m, params.lam, params.n
    if m == 1:
        return 1
    if m == 2:
        return count_binary_matrices(n, lam)
    patterns = factorial(n) // factorial(lam) ** m
    return patterns**n


@lru_cache(maxsize=None)
def _pattern_tables(m: int, lam: int):
    """What the engine derives from the type alone, built once per type:
    the rows with each symbol exactly lam times (the patterns, in
    lexicographic order), the counters' field dtype, the patterns'
    read-only one-hot array and their packed column increments."""
    n = m * lam
    out = []
    counts = [lam] * m

    def rec(pos: int, row: list):
        if pos == n:
            out.append(tuple(row))
            return
        for a in range(1, m + 1):
            if counts[a - 1]:
                counts[a - 1] -= 1
                row.append(a)
                rec(pos + 1, row)
                row.pop()
                counts[a - 1] += 1

    rec(0, [])
    patterns = tuple(out)
    # The narrowest unsigned field whose top bit can flag a count above lam^2.
    dtype = next(
        np.dtype(f"<u{size}")
        for size in (1, 2, 4, 8)
        if lam * lam < 1 << (8 * size - 1)
    )
    # pattern_hot[p, j, a]: pattern p holds symbol a + 1 in column j.  One-hot
    # arrays are in the field type: no count in a row exceeds lam.
    pattern_hot = (np.array(patterns)[:, :, None] == np.arange(1, m + 1)).astype(dtype)
    pattern_hot.flags.writeable = False
    hot_cols = pattern_hot.transpose(0, 2, 1).reshape(len(patterns), -1)
    col_inc = tuple(_pack(hot_cols, dtype))
    return patterns, dtype, pattern_hot, col_inc


def _guard(params: Params, config: SearchConfig) -> None:
    if config.force or config.max_results is not None:
        return
    raw = os.environ.get("MOFS_MAX_ENUM", str(DEFAULT_MAX_ENUM))
    try:
        ceiling = int(raw)
    except ValueError:
        raise MofsError(f"MOFS_MAX_ENUM must be an integer, got {raw!r}") from None
    estimate = estimate_count(params)
    if estimate > ceiling:
        raise InfeasibleSizeGuard(estimate, ceiling)


def _pack(counts: np.ndarray, dtype: np.dtype) -> list:
    """Each row of ``counts`` as one int: a field of ``dtype`` per entry,
    the first entry in the lowest bits."""
    return [int.from_bytes(row.tobytes(), "little") for row in counts.astype(dtype)]


def _engine(params, members, first_order, config):
    """Backtracking enumerator over row patterns, with packed counters,
    for squares orthogonal to every grid of the (k, n, n) ``members``.

    The state after each row is two ints of fixed-width fields, each field
    biased so that its top bit turns on exactly when its count passes its
    bound: ``cols`` has one field per (symbol, column), bounded by lam;
    ``pairs`` one per (member, symbol here, symbol in the member), the
    ordered pair count on the rows so far, bounded by lam^2.  Adding a row
    is one add per kind and testing it one AND.  The lower pair bound
    lam^2 - (n - i - 1) * lam needs no test: for one member and symbol a
    the m counts sum to (i + 1) * lam, so it follows from the upper
    bounds on the other m - 1.
    """
    m, lam, n = params.m, params.lam, params.n
    patterns, dtype, pattern_hot, col_inc = _pattern_tables(m, lam)
    n_patterns, n_pairs = len(patterns), len(members) * m * m
    top = 1 << (8 * dtype.itemsize - 1)
    # member_hot[k, i, j, b]: member k holds symbol b + 1 at cell (i, j).
    member_hot = (members[..., None] == np.arange(1, m + 1)).astype(dtype)
    pair_inc = [
        _pack(
            np.einsum("pja,kjb->pkab", pattern_hot, member_hot[:, i]).reshape(
                n_patterns, n_pairs
            ),
            dtype,
        )
        for i in range(n)
    ]

    def fields(value, count):
        return _pack(np.full((1, count), value), dtype)[0]

    col_guard, pair_guard = fields(top, m * n), fields(top, n_pairs)
    order = first_order if first_order is not None else range(n_patterns)
    row0 = [
        p for p in order if patterns[p][: len(config.prefix)] == tuple(config.prefix)
    ]
    rows = []

    def rec(i: int, cols: int, pairs: int):
        if i == n:
            yield FSquare(params, [patterns[p] for p in rows], _trusted=True)
            return
        inc = pair_inc[i]
        for p in row0 if i == 0 else range(n_patterns):
            next_cols = cols + col_inc[p]
            if next_cols & col_guard:
                continue
            next_pairs = pairs + inc[p]
            if next_pairs & pair_guard:
                continue
            rows.append(p)
            yield from rec(i + 1, next_cols, next_pairs)
            rows.pop()

    yield from rec(
        0,
        fields(top - 1 - lam, m * n),
        fields(top - 1 - lam * lam, n_pairs),
    )


def enumerate_fsquares(params: Params, config: SearchConfig = SearchConfig()):
    """Every F-square of the type exactly once, in lexicographic grid order."""
    _guard(params, config)
    members = _stack(params, ())
    yield from islice(_engine(params, members, None, config), config.max_results)


def extensions(mset: MofsSet, config: SearchConfig = SearchConfig()):
    """Every F-square orthogonal to all members of the set, with early
    pruning of partial grids on running pair counts."""
    _guard(mset.params, config)
    yield from islice(
        _engine(mset.params, mset.grids, None, config), config.max_results
    )


def count_fsquares(params: Params, config: SearchConfig = SearchConfig()) -> int:
    """Number of F-squares of the type, by full enumeration."""
    return sum(1 for _ in enumerate_fsquares(params, config))


def _require_whole_space(config: SearchConfig) -> None:
    """A maximality verdict is only sound over every candidate square."""
    if config.prefix or config.max_results is not None:
        raise MofsError(
            "maximality needs the whole search space;"
            " prefix and max_results are not allowed"
        )


def exhaustive_maximality(
    mset: MofsSet, config: SearchConfig = SearchConfig()
) -> bool:
    """Ground truth: true iff no F-square extends the set."""
    _require_whole_space(config)
    return next(extensions(mset, config), None) is None


def grow_maximal(seed_set, config: SearchConfig = SearchConfig()) -> MofsSet:
    """Greedy growth to a maximal set.

    ``seed_set`` is a MofsSet, or a Params to start from nothing.  Each
    step adds the first extension found, with the first-row pattern order
    permuted by the seed; the loop ends when no extension exists, so the
    result is maximal by construction (and re-verified).
    """
    _require_whole_space(config)
    if isinstance(seed_set, Params):
        params, squares = seed_set, []
    else:
        params, squares = seed_set.params, list(seed_set.squares)
    _guard(params, config)
    rng = random.Random(config.seed)
    n_patterns = len(_pattern_tables(params.m, params.lam)[0])
    while True:
        first_order = list(range(n_patterns))
        rng.shuffle(first_order)
        nxt = next(_engine(params, _stack(params, squares), first_order, config), None)
        if nxt is None:
            break
        squares.append(nxt)
    return verify_mofs(squares)


def random_fsquare(params: Params, rng: random.Random) -> FSquare:
    """A pseudorandom valid F-square: the cyclic square with rows, columns,
    and symbols shuffled."""
    m, lam, n = params.m, params.lam, params.n
    rows = list(range(n))
    cols = list(range(n))
    syms = list(range(1, m + 1))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rng.shuffle(syms)
    grid = [
        [syms[((rows[i] + cols[j]) % n) // lam] for j in range(n)]
        for i in range(n)
    ]
    return FSquare(params, grid, _trusted=True)
