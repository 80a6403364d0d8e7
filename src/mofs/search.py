"""Enumeration, extension search, greedy growth, and the exhaustive
maximality oracle.

Exact methods find squares, chosen by lam and D = (n-1)^2 - t(m - 1),
the paper's bound: for a set of t squares, the dimension of W, the cells
with zero row and column sums orthogonal to every member's centred
indicator squares I_a(S_k) - J/m.  An extension's indicator v of one
symbol has v - J/m in W.  A search with at least one member builds the
extensions from candidate indicators where it can.  For m >= 2 and
D <= ``_DUAL_MAX_D``, D = 0, the bound's equality case, leaves W = {0}
and so no extension, with nothing to solve.  For lam = 1 each indicator
is a permutation matrix, so the candidates are those of the type's n!
that meet every member in one cell per symbol (``verify._meets``), while
the n! fit one block (n <= 7).  Otherwise, while D <= ``_DUAL_MAX_D``,
the linear dual runs: D free cells parametrise v modulo the prime
2^21 - 9.  The smaller of two systems on the interior cells
(i, j < n - 1), which fix a point of Z (``_in_z``), is row-reduced into
W's basis: the members' t(m - 1) constraints, when they are fewer than
D, or else D seeded random interiors mapped into Z and projected into W
by the closed form of its projector (two skinny float64 products with
the members' indicator squares), a draw of lower rank replaced by the
next seed's; one assembly turns either basis into the other cells'
affine form in the free ones.
The 2^D 0/1 assignments of the free cells are met in the middle,
the halves built by one float64 product each and joined on two cells by
one sorted lookup; each candidate indicator is then checked exactly by
the orthogonality kernel that verifies sets (``verify._meets``).  It
is complete: as the prime divides none of n, lam, m, both systems keep
their rank modulo it, so every extension's v is among the points (see
:func:`_candidates`).  Either way, m pairwise disjoint candidates that
cover every cell make m! squares.  Every other search, with no members
or neither method, runs the engine below; all give the same squares in
the same order.
:func:`_search` alone calls :func:`_candidates`, the covers and the
engine: every stream, extension count, maximality check and greedy step
is decided there, under one rule: the engine is guarded, and covers never
are.

The engine generates squares in lexicographic grid order, depth first
over the valid row patterns, for every m.  It keeps per-column
symbol counts and, against every member of the set being extended, the
running count of each ordered symbol pair, all packed into two ints so
that adding a row and checking every bound is a few integer operations.
The patterns that fit the column counts depend on those counts alone, so
a per-type column-fit table, filled as the search meets new counts and
kept between searches, lists them for each node; a node tests only their
pair counts.  The last two rows are not searched node by node: the rows
that complete each column state also depend on it alone, and a per-type
table, kept like the column-fit table, lists them.  A square is
orthogonal to every member iff each pair count ends at exactly lam^2, so
a search maps the pair counts that those rows add to the rows, and one
lookup of what the counts still lack finds them.  A search without
members tests nothing there, so one lookup reads the last three rows.
Each square comes out as the joined bytes of its rows in the type's
narrow symbol type (``core._symbol_type``, as ``FSquare.grid``), its
key, and each lookup as one run, the joined keys of all it finds;
``count_fsquares`` builds none, as it reads the counting DP
(:func:`_count_arrays`).  The streams wrap keys as ``FSquare``s without
calling the validating constructor (``core._batches``): a batch of up to
256 keys (fewer when one block, ``core._tile``, is smaller) is cut from
the runs, joined and read as one narrow array, and each square's grid is
a view of it, so a square that is kept keeps its batch's bytes alive (9
KB for F(6;3)).  A C-level chain flattens the batches, so no Python code
runs per square.
"""

from __future__ import annotations

import heapq
import operator
import os
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, count, permutations
from math import comb, factorial

import numpy as np

from . import core
from .core import (
    FSquare,
    InfeasibleSizeGuard,
    MofsError,
    Params,
    _as_int,
    _batches,
    _indicator_rows,
    _tile,
)
from .verify import MofsSet, UndefinedForMOne, _meets

DEFAULT_MAX_ENUM = 10_000_000


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the search operations.

    Identical seed and config give identical outcomes; ``seed`` is None or
    an integer, and ``force`` a bool.  ``max_results`` caps a stream or a
    count; greedy growth and the exhaustive maximality check need the whole
    space and refuse it.
    ``force`` lifts the size guard: the ``MOFS_MAX_ENUM`` ceiling on the
    row patterns and on the count, exact or a lower bound.
    """

    seed: int | None = None
    max_results: int | None = None
    force: bool = False

    def __post_init__(self):
        if self.seed is not None:
            object.__setattr__(self, "seed", _as_int(self.seed, "seed"))
        if not isinstance(self.force, (bool, np.bool_)):
            raise MofsError(f"force must be a bool, got {self.force!r}")
        object.__setattr__(self, "force", bool(self.force))
        if self.max_results is not None:
            limit = _as_int(self.max_results, "max_results")
            if limit < 0:
                raise MofsError(f"max_results must be >= 0, got {limit}")
            object.__setattr__(self, "max_results", limit)


@lru_cache(maxsize=None)
def _count_arrays(quotas: tuple, bound: int | None = None) -> int:
    """The number of n x n arrays, n = sum(``quotas``), with symbol a
    ``quotas[a]`` times in every row and column; with a ``bound``, the first
    partial count above it instead, if one is.  Row by row, a layer maps
    each multiset of the columns' remaining quotas, as sorted (quotas left,
    columns) classes, to the partial arrays reaching it; a row gives k_a of a
    class's c columns symbol a in c!/(k_1! ... k_m!) ways, and the last row
    is forced.  Every partial array completes (Koenig: the rows left are the
    perfect matchings of a regular bipartite multigraph, symbol a split into
    quotas[a] nodes), so a layer's partial sums bound the count below."""
    quotas = tuple(q for q in quotas if q)
    last, layer = len(quotas) - 1, {((quotas, sum(quotas)),): 1}
    for _ in range(sum(quotas) - 1 if last else 0):
        built, total = {}, 0
        for state, ways in layer.items():
            # down[i][a]: the quotas a column of class i leaves once it takes a.
            down = [[v[:a] + (v[a] - 1,) + v[a + 1 :] for a in range(last + 1)] for v, _ in state]
            need, moved, sizes = list(quotas), [], [c for _, c in state] + [0]

            def place(i, a, cols, weight):
                # Give ``cols`` columns of class i the symbols a..last, the
                # last all that are left; True once the sum passes the bound.
                nonlocal total
                if i == len(state):
                    after = {}
                    for v, k in moved:
                        after[v] = after.get(v, 0) + k
                    after = tuple(sorted(after.items()))
                    built[after] = built.get(after, 0) + ways * weight
                    total += ways * weight
                    return bound is not None and total > bound
                left = state[i][0]
                hi = min(cols, need[a]) if left[a] else 0
                lo = max(cols - need[last] if left[last] else cols, 0) if a == last - 1 else 0
                for take in range(lo, hi + 1):
                    takes = ((a, take), (last, cols - take)) if a == last - 1 else ((a, take),)
                    for b, k in takes:
                        if k:
                            moved.append((down[i][b], k))
                            need[b] -= k
                    then = (i, a + 1, cols - take) if a < last - 1 else (i + 1, 0, sizes[i + 1])
                    stop = place(*then, weight * comb(cols, take))
                    for b, k in takes:
                        if k:
                            moved.pop()
                            need[b] += k
                    if stop:
                        return True
                return False

            if place(0, 0, sizes[0], 1):
                return total
        layer = built
    return sum(layer.values())


def count_binary_matrices(n: int, k: int) -> int:
    """Exact number of n x n 0/1 matrices with all row and column sums k."""
    return _count_arrays((n - k, k))


# Entries a type's column-fit table, or either of its tables of
# completions, holds before all three are cleared.  A fit entry takes a few
# hundred bytes; a two-row entry lists one column state's completions, at
# most 20 on F(6;3), 10 on F(6;2) and 4 on F(5;1).  Enumerating F(6;3)
# meets 902 column states and 20 greedy F(6;2) growths about 11 000, so the
# cap bounds memory on larger types without clearing on these.  A
# three-row entry lists up to 93 completions on F(6;3) and more on larger
# types, so all three are also cleared before that table would hold more
# than core._BLOCK_ENTRIES completions.
_FIT_CAP = 1 << 14
# Column states a search's tail lookup holds before it is cleared.  An
# entry maps the pair counts of one state's completions to their rows;
# a whole enumeration of F(6;2) meets 2 040 states in one search (F(6;3)
# 141).
_TAIL_CAP = 1 << 12
# The most free cells (D) for which the linear-dual search replaces the
# engine.  Greedy growth of 8 F(6;3) sets from one random square took
# 9-14, 8-11, 7-10 and 11-15 ms a set at caps of 18, 19, 20 and 21 (medians
# of 5 passes, 3 processes each), which with exhaustive counts of greedy
# prefixes peaked at 31, 32, 38 and 47 MB max RSS: at 21 the first dual
# solve costs more than the engine's first find.  The dual counts a set
# at D = 19 in 2-4 ms against the engine's 33-48, and at D = 20 or 21 in
# 4-10 ms against 27-49, so 20 would count faster for 5 MB more.
_DUAL_MAX_D = 19
# The prime the linear-dual search works modulo.  Its projector divides by
# n and n lam and its constant cells are 1/m, so p must divide none of n,
# lam, m: it cannot, as n = m lam is far below p for any type whose n^2
# cells fit in memory.  Residues below 2^21 keep a product of two in int64,
# and a float64 sum of n^2 products of a 0/1 entry and a residue exact.
_PRIME = 2**21 - 9


@lru_cache(maxsize=None)
def _pattern_tables(m: int, lam: int):
    """What the engine derives from the type alone, built once per type:
    the rows with each symbol exactly lam times (the patterns, in
    lexicographic order), the counters' field dtype, the patterns'
    read-only one-hot array, their packed column increments, their bytes
    in the type's narrow symbol type (``core._symbol_type``), and the three
    tables the engine fills as it goes: the completions of the last three
    rows and of the last two, then the column-fit table (see
    :func:`_engine`)."""
    # Each pattern after the sorted first is the next permutation of the
    # last: raise the rightmost cell that a later cell exceeds to the
    # least such later symbol, then sort the cells after it.
    n = m * lam
    row = [a for a in range(1, m + 1) for _ in range(lam)]
    out = [tuple(row)]
    while True:
        i = n - 2
        while i >= 0 and row[i] >= row[i + 1]:
            i -= 1
        if i < 0:
            break
        j = n - 1
        while row[j] <= row[i]:
            j -= 1
        row[i], row[j] = row[j], row[i]
        row[i + 1 :] = row[:i:-1]  # the cells after i were descending
        out.append(tuple(row))
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
    narrow = core._symbol_type(Params(m, lam))
    row_bytes = tuple(row.tobytes() for row in np.array(patterns, dtype=narrow))
    return patterns, dtype, pattern_hot, col_inc, row_bytes, {}, {}, {}


def _guard(params: Params, config: SearchConfig) -> None:
    if config.force:
        return
    raw = os.environ.get("MOFS_MAX_ENUM", str(DEFAULT_MAX_ENUM))
    try:
        ceiling = int(raw)
    except ValueError:
        ceiling = -1
    if ceiling < 0:
        raise MofsError(f"MOFS_MAX_ENUM must be a non-negative integer, got {raw!r}")
    m, lam, n = params.m, params.lam, params.n
    # The one square of an m = 1 type holds n^2 cells, which no count bounds.
    if m == 1 and n**2 > ceiling:
        raise InfeasibleSizeGuard(n**2, ceiling, "a square of", "cells")
    # Every search tables the P = n!/(lam!)^m row patterns of n cells (for
    # F(24;12), gigabytes), and P, the DP's first layer, bounds the count.
    # P, the product of C(n - a*lam, lam) over a < m - 1, is built a step
    # at a time: at least 2^s after s steps, so in log2(ceiling) + 1 steps.
    least = 1
    for a in range(m - 1):
        for j in range(1, lam + 1):
            least = least * (n - a * lam - j + 1) // j
            if least > ceiling:
                raise InfeasibleSizeGuard(least, ceiling, "at least")
    if least * n > ceiling:
        raise InfeasibleSizeGuard(least * n, ceiling, "a row-pattern table of", "cells")
    # Unless a cap within the ceiling stops it, a walk meets every square.
    if config.max_results is None or config.max_results > ceiling:
        least = _count_arrays((lam,) * m, ceiling)
        if least > ceiling:
            raise InfeasibleSizeGuard(least, ceiling, "at least")


def _pack(counts: np.ndarray, dtype: np.dtype) -> list:
    """Each row of ``counts`` as one int: a field of ``dtype`` per entry,
    the first entry in the lowest bits."""
    return [int.from_bytes(row.tobytes(), "little") for row in counts.astype(dtype)]


def _pair_increments(params: Params, members: np.ndarray) -> list:
    """``inc[i][p]``: the packed pair counts that pattern p adds as row i
    against the (k, n, n) ``members``, one field per (member, symbol here,
    symbol in the member), so member k's m^2 fields are contiguous."""
    m = params.m
    patterns, dtype, pattern_hot = _pattern_tables(m, params.lam)[:3]
    if not len(members):
        return [[0] * len(patterns)] * params.n
    # member_hot[j, k, i, b]: member k holds symbol b + 1 at cell (i, j).
    # One float32 product sums over j, exactly: no count exceeds n.
    n, size = params.n, len(patterns)
    member_hot = (members.transpose(2, 0, 1)[..., None] == np.arange(1, m + 1)).astype(np.float32)
    counts = pattern_hot.transpose(0, 2, 1).reshape(size * m, n) @ member_hot.reshape(n, -1)
    counts = counts.reshape(size, m, len(members), n, m).transpose(3, 0, 2, 1, 4)
    packed = _pack(counts.reshape(n * size, -1), dtype)
    return [packed[i : i + size] for i in range(0, len(packed), size)]


def _engine(params, members, first_order):
    """Depth-first enumerator over row patterns, with packed counters, for
    squares orthogonal to the (k, n, n) ``members``, whose pair increments
    (see :func:`_pair_increments`) it builds on its first ``next()``.
    Yields one run per tail lookup: the joined keys (each square's rows'
    narrow bytes, joined) of the squares it finds, in order.

    The state after each row is two ints of fixed-width fields, each field
    biased so that its top bit turns on exactly when its count passes its
    bound: ``cols`` has one field per (symbol, column), bounded by lam;
    ``pairs`` one per (member, symbol here, symbol in the member), the
    ordered pair count on the rows so far, bounded by lam^2.  Adding a row
    is one add per kind and testing it one AND.  The lower pair bound
    lam^2 - (n - i - 1) * lam needs no test: for one member and symbol a
    the m counts sum to (i + 1) * lam, so it follows from the upper
    bounds on the other m - 1.

    Which patterns fit the columns depends on ``cols`` alone, so the type's
    column-fit table maps each ``cols`` met to the ascending tuple of the
    patterns that fit it.  The first row takes ``first_order`` (or
    ascending order), all of which fit; lower rows take their node's
    tuple.  One explicit stack holds, per row, the iterator over those
    patterns and the counters above it.

    The loop places rows 0..``stop`` and looks up the rows below, so the
    first row always keeps its order.  With members, ``stop`` =
    max(n - 3, 0), leaving two rows (fewer when n < 3).  Their column
    counts force the last row, and a square is orthogonal to every member
    iff each pair field ends at exactly ``full``, its bias plus lam^2.
    Which rows complete a ``cols`` met below ``stop`` depends on the type
    alone, so the type's two-row table maps it to those rows, in
    lexicographic order, listed one row at a time from the column-fit
    table: one tuple of pattern indices per row, then each completion's
    joined bytes.  A call adds up its members' pair increments per
    completion, and its tail lookup maps each such ``cols`` to a dict from
    those sums to the ascending tuple of the completions' bytes; a
    surviving node at ``stop`` yields the hits of one lookup of
    ``full - pairs``.  The packed compare is exact: a field is at most its
    bias plus lam^2 = top - 1 before the lookup and the rows add at most
    2 lam <= lam^2 + 1 <= top to it, so no add carries and no subtract
    borrows between fields.  The sums depend on the members, so the
    lookup lives for one call, cleared when it holds ``_TAIL_CAP``
    entries.

    Without members every completion matches, so for n >= 4 the loop stops
    a row higher, ``stop`` = n - 4, and the type's three-row table maps
    each ``cols`` met to (None, row, completion) slots: each row that fits
    it, then the two-row completions of the state it leaves.  They are
    references, not new bytes; a run fills the None slots with the node's
    rows and joins once.  (With members, each search would add pair
    increments over all completions of each state it meets.)  The three
    type-wide tables outlive the call and are cleared together (see
    ``_FIT_CAP``).
    """
    m, lam, n = params.m, params.lam, params.n
    patterns, dtype, _, col_inc, row_bytes, runs_of, ends_of, fit = _pattern_tables(m, lam)
    pair_inc = _pair_increments(params, members)
    n_pairs = len(members) * m * m
    top = 1 << (8 * dtype.itemsize - 1)

    def fields(value, count):
        return int.from_bytes(value.to_bytes(dtype.itemsize, "little") * count, "little")

    col_guard, pair_guard = fields(top, m * n), fields(top, n_pairs)
    full = fields(top - 1, n_pairs)
    every = range(len(patterns))
    three = not n_pairs and n >= 4
    stop = n - 4 if three else max(n - 3, 0)
    last_inc = pair_inc[stop + 1 :]
    tail = {}
    # The completions that the three-row table holds.
    held = sum(map(len, runs_of.values())) // 3 if three else 0

    def clear():
        nonlocal held
        for table in (runs_of, ends_of, fit):
            table.clear()
        held = 0

    def keep(table, cols, found):
        if len(table) >= _FIT_CAP:
            clear()
        table[cols] = found
        return found

    def fits(cols):
        return keep(fit, cols, tuple(p for p in every if not (cols + col_inc[p]) & col_guard))

    def completions(cols):
        # (columns, patterns, bytes) of every completion of the last two
        # rows (fewer when n < 3), extended one row at a time in
        # lexicographic order.
        ends = [(cols, (), b"")]
        for _ in range(min(n - 1, 2)):
            ends = [
                (done + col_inc[p], picked + (p,), rest + row_bytes[p])
                for done, picked, rest in ends
                for p in fit.get(done) or fits(done)
            ]
        by_row = tuple(zip(*(picked for _, picked, _ in ends)))
        return keep(ends_of, cols, (by_row, tuple(rest for *_, rest in ends)))

    def three_rows(cols):
        # The three-row entry of cols: (None, row, completion) per square.
        nonlocal held
        slots = []
        for p in fit.get(cols) or fits(cols):
            below, row = cols + col_inc[p], row_bytes[p]
            for rest in (ends_of.get(below) or completions(below))[1]:
                slots += (None, row, rest)
        found = tuple(slots)
        if held + len(found) // 3 > core._BLOCK_ENTRIES:
            clear()
        keep(runs_of, cols, found)
        held += len(found) // 3
        return found

    def tail_of(cols):
        by_row, rests = ends_of.get(cols) or completions(cols)
        if n_pairs:
            found, sums = {}, [0] * len(rests)
            for inc, row in zip(last_inc, by_row):
                sums = list(map(operator.add, sums, map(inc.__getitem__, row)))
            for added, rest in zip(sums, rests):
                found[added] = found.get(added, ()) + (rest,)
        else:
            found = {0: rests}
        if len(tail) >= _TAIL_CAP:
            tail.clear()
        tail[cols] = found
        return found

    row0 = every if first_order is None else first_order
    rows = [b""] * stop
    cols0 = fields(top - 1 - lam, m * n)
    stack = [(iter(row0), cols0, fields(top - 1 - lam * lam, n_pairs))]
    while stack:
        i = len(stack) - 1
        patterns_left, cols, pairs = stack[-1]
        inc = pair_inc[i]
        if i < stop:
            for p in patterns_left:
                next_pairs = pairs + inc[p]
                if not next_pairs & pair_guard:
                    rows[i] = row_bytes[p]
                    next_cols = cols + col_inc[p]
                    below = fit.get(next_cols) or fits(next_cols)
                    stack.append((iter(below), next_cols, next_pairs))
                    break
            else:
                stack.pop()
            continue
        stack.pop()
        head = b"".join(rows)
        if three:
            for p in patterns_left:
                next_cols = cols + col_inc[p]
                slots = list(runs_of.get(next_cols) or three_rows(next_cols))
                slots[::3] = [head + row_bytes[p]] * (len(slots) // 3)
                yield b"".join(slots)
            continue
        for p in patterns_left:
            next_pairs = pairs + inc[p]
            if next_pairs & pair_guard:
                continue
            next_cols = cols + col_inc[p]
            hits = (tail.get(next_cols) or tail_of(next_cols)).get(full - next_pairs)
            if hits:
                node = head + row_bytes[p]
                yield node + node.join(hits)


def _draw(seed: int, d: int, k: int) -> np.ndarray:
    """Draw ``seed`` of the linear-dual search: d seeded pseudorandom
    (k, k) residues mod ``_PRIME``, as int64, the interiors of d points
    of Z (see :func:`_in_z`)."""
    raw = np.frombuffer(random.Random(seed).randbytes(4 * d * k * k), "<u4")
    return (raw % _PRIME).astype(np.int64).reshape(d, k, k)


def _in_z(y: np.ndarray) -> np.ndarray:
    """The (d, n*n) points of Z mod ``_PRIME`` whose interiors, the cells
    (i, j) with i, j < k = n - 1, are the (d, k, k) residues ``y``: each
    cell of the last column is minus the rest of its row, and each cell
    of the last row minus the rest of its column."""
    d, k = len(y), y.shape[1]
    z = np.zeros((d, k + 1, k + 1), np.int64)
    z[:, :k, :k] = y
    z[:, :k, k] = -y.sum(axis=2)
    z[:, k] = -z[:, :k].sum(axis=1)
    return (z % _PRIME).reshape(d, (k + 1) ** 2)


def _project(params: Params, members: np.ndarray, z: np.ndarray) -> np.ndarray:
    """P_W z mod ``_PRIME`` for the (d, n*n) points ``z`` of Z mod p, as a
    (d, n*n) int64 array.

    For z in Z, P_W z = z - (1/(n lam)) sum_{k,a} I_a(S_k) <I_a(S_k), z>
    over the members k and symbols a: the centred indicators
    I_a(S_k) - J/m lie in Z, those of different members are orthogonal,
    and a member's sum to 0 with Gram matrix n lam I - lam^2, so
    (1/(n lam)) sum_a c_a c_a^T projects onto their span.  In the reduced
    symbols 2..m of :func:`core._indicator_rows`, A, with s_k the sum of
    member k's entries of A z, the sum is A^T(A z + s_k) - J sum_k s_k: two
    float64 products against d columns per tile of squares, exact as
    n^2 p < 2^53.  For m = 1 the one row is J, which meets every point of
    Z in 0, so P_W is the identity."""
    p, n, d = _PRIME, params.n, len(z)
    r, tile = max(params.m - 1, 1), _tile(params)
    grids = members.reshape(len(members), -1)
    y = z.T.astype(np.float64)
    found, sums = np.zeros_like(y), 0
    for l0 in range(0, len(grids), tile):
        rows = _indicator_rows(grids[l0 : l0 + tile], params, np.float64)
        ay = (rows @ y % p).reshape(len(rows) // r, r, d)
        s = ay.sum(axis=1, keepdims=True) % p
        found = (found + rows.T @ ((ay + s) % p).reshape(len(rows), d)) % p
        sums = sums + s.sum(axis=0)
    found = (found.astype(np.int64) - sums.astype(np.int64)) % p
    return (z - pow(n * params.lam, -1, p) * found.T) % p


def _row_reduce(a: np.ndarray, p: int):
    """Gauss-Jordan elimination, in place, of the (d, cells) residues ``a``
    modulo the prime ``p``, one column at a time: its pivot columns, or
    None when its rank is below d."""
    pivots = []
    for j in range(a.shape[1]):
        r = len(pivots)
        if r == len(a):
            break
        if not a[r, j]:
            hit = np.flatnonzero(a[r:, j])
            if not len(hit):
                continue
            k = r + int(hit[0])
            a[[r, k]] = a[[k, r]]
        row = a[r] * pow(int(a[r, j]), -1, p) % p
        a -= a[:, j, None] * row
        a %= p
        a[r] = row
        pivots.append(j)
    return pivots if len(pivots) == len(a) else None


def _half(reduced: np.ndarray, free, p: int, start: np.ndarray) -> np.ndarray:
    """(len(reduced), 2^len(free)) int32 residues: column u is ``start``
    minus the columns ``free`` of ``reduced`` whose bits are set in u (bit
    i for ``free[i]``), mod p, as one float64 product: numpy has no BLAS
    for int64, and a half of at most ``_DUAL_MAX_D`` free cells sums at
    most 10 residues below 2^21, exactly."""
    bits = (np.arange(1 << len(free))[:, None] >> np.arange(len(free)) & 1).astype(np.float64)
    sums = (reduced[:, free].astype(np.float64) @ bits.T).astype(np.int64)
    return ((start[:, None] - sums) % p).astype(np.int32)


def _candidates(params: Params, members: np.ndarray):
    """The 0/1 indicators of one symbol of the squares orthogonal to every
    member, as a (c, n*n) uint8 array, or None where the engine searches
    instead: no members, or more than ``_DUAL_MAX_D`` free cells on a type
    with no permutation-matrix table.

    Such an indicator v has v - J/m in W, the cells of zero row and column
    sums orthogonal to every member's centred indicators, and W has
    dimension D = (n-1)^2 - t(m - 1) for a MOFS (for m = 1, W is Z and D
    is (n-1)^2).  For m >= 2 and D = 0, a complete set, W = {0} holds
    only J/m, which is no 0/1 vector: there is no candidate, and nothing
    is solved.  For lam = 1 the indicators are permutation matrices: the
    candidates are the rows of :func:`_permutation_matrices` that meet
    every member in one cell per symbol, checked by the kernel that
    verifies sets (:func:`verify._meets`), as :func:`_zero_one` ends.
    Otherwise W's basis mod p comes from the side with fewer rows to
    row-reduce, both on the interior cells mapped into Z by
    :func:`_in_z`: the members' t(m - 1) constraints
    (:func:`_reduce_constraints`), or D draws projected into W
    (:func:`_reduce_draws`), which also answer if the constraints lose
    rank.  The candidates are the 0/1 points of either (:func:`_zero_one`).
    Those of a set are the candidates of any subset that are orthogonal to
    the other members, so its covers are the subset's covers whose
    candidates all are, which :func:`grow_maximal` uses.
    """
    m, n, t = params.m, params.n, len(members)
    d = (n - 1) ** 2 - t * (m - 1)
    if not t:
        return None
    if not d and m > 1 and d <= _DUAL_MAX_D:
        # W = {0} leaves only J/m, which is no 0/1 vector.
        return np.zeros((0, n * n), np.uint8)
    table = _permutation_matrices(params)
    if table is not None:
        return table[_meets(table, members, params).all(axis=1)]
    if d > _DUAL_MAX_D:
        return None
    space = _reduce_constraints(params, members) if t * (m - 1) < d else None
    return _zero_one(params, members, *(space or _reduce_draws(params, members)))


def _permutation_matrices(params: Params):
    """For lam = 1, every 0/1 array with one 1 in each row and column: the
    n! permutation matrices, flattened, as a read-only (n!, n*n) uint8
    view of the type's one-hot patterns (:func:`_pattern_tables`).  None
    for lam > 1, or when they pass one block (``core._BLOCK_ENTRIES``), for
    n >= 8; n^2 n! is built a factor at a time, so no larger n! is."""
    if params.lam > 1:
        return None
    n = params.n
    entries = n * n
    for k in range(2, n + 1):
        entries *= k
        if entries > core._BLOCK_ENTRIES:
            return None
    return _pattern_tables(n, 1)[2].reshape(-1, n * n)


def _reduce_draws(params: Params, members: np.ndarray):
    """W's side of the linear dual: ``(free, basis)`` (see
    :func:`_zero_one`) from D seeded draws of interiors, mapped into Z
    (:func:`_in_z`), projected into W (:func:`_project`) and row-reduced
    mod p; a rank below D, of probability about D/p, means the next draw.

    A draw uniform over the interiors is uniform over Z mod p, where P_W,
    whose entries are fractions over n and n lam, has rank exactly D while
    p divides neither: its image holds v - J/m for every 0/1 solution v."""
    n, p = params.n, _PRIME
    d = (n - 1) ** 2 - len(members) * (params.m - 1)
    for seed in count():
        basis = _project(params, members, _in_z(_draw(seed, d, n - 1)))
        free = _row_reduce(basis, p)
        if free is not None:
            return free, basis


def _reduce_constraints(params: Params, members: np.ndarray):
    """The members' side of the linear dual: ``(free, basis)`` (see
    :func:`_zero_one`) from their t(m - 1) constraints, or None when those
    lose rank mod p.

    A point z of Z is fixed by its interior y (:func:`_in_z`), so
    <c, z> = 0, for the indicator c of a member's symbol 2..m, is
    C' y = 0 with c'_ij = c_ij - c_ik - c_kj + c_kk, k = n - 1.
    Row-reduced mod p, C' fixes its pivot cells P by the other D interior
    cells F, y_P = -R y_F, so the interiors with 1 at one cell of F, 0 at
    the others and -R on P, mapped into Z, are W's basis.

    The projector onto the members' centred indicators has entries over
    n lam, so mod p it is an idempotent of trace t(m - 1) < p, and so of
    that rank.  Its image is spanned by the functionals that C' writes on
    the interior, so C' keeps rank t(m - 1) and no 0/1 solution is missed."""
    m, n, p = params.m, params.n, _PRIME
    k = n - 1
    c = (members[:, None] == np.arange(2, m + 1)[:, None, None]).astype(np.int64)
    rows = (c[..., :k, :k] - c[..., :k, k:] - c[..., k:, :k] + c[..., k:, k:]) % p
    rows = rows.reshape(-1, k * k)
    pivots = _row_reduce(rows, p)
    if pivots is None:
        return None
    free = np.delete(np.arange(k * k), pivots)
    null = np.eye(k * k, dtype=np.int64)[free]
    null[:, pivots] = -rows[:, free].T
    return free // k * n + free % k, _in_z(null.reshape(len(free), k, k))


def _zero_one(params: Params, members: np.ndarray, free, basis: np.ndarray):
    """The candidates of W's (D, n*n) ``basis`` mod p, which holds the
    identity on the ascending cells ``free``: v - J/m is the sum of the
    basis rows times v - 1/m on ``free``, so row i of ``reduced`` is the
    i-th other cell as minus its basis column, then its constant
    (1 - the column's sum)/m.

    The 2^D 0/1 assignments of the free cells give every candidate.  They
    are met in the middle: each half of the free cells has a residue table
    over the other cells (:func:`_half`), the halves are joined on two
    cells (both residues must come out 0 or 1) by one sorted lookup of a
    combined key for the four pairs of 0/1 values, and the pairs that pass
    both are filtered on every cell at once when one block
    (``core._BLOCK_ENTRIES``) holds their residues, else 4 cells at a
    time, so no array outgrows 4 times those pairs.  Every survivor is
    then checked exactly: row and column sums lam, and then lam^2 against
    every indicator of every member, by the kernel that verifies sets
    (:func:`verify._meets`); the row and column sums make its reduced
    symbols enough.
    """
    lam, n, p, d = params.lam, params.n, _PRIME, len(free)
    fixed = np.delete(np.arange(n * n), free)
    on_fixed = basis[:, fixed]
    const = pow(params.m, -1, p) * (1 - on_fixed.sum(axis=0))
    reduced = (np.column_stack((-on_fixed.T, const)) % p).astype(np.int32)
    low, high = range(d // 2), range(d // 2, d)
    left = _half(reduced, low, p, reduced[:, -1])
    right = (-_half(reduced, high, p, np.zeros(len(reduced), np.int32))) % p
    # x on fixed cell i is left[i, u] - right[i, w] mod p, which must be 0
    # or 1.  The join is on two cells, keyed r0 p + r1 < 2^42: the cell
    # whose residues are the most distinct on the right half, and the one
    # that then makes the keys the most distinct.  One sorted lookup of the
    # keys of all four 0/1 pairs of differences, in order, finds the pairs
    # that pass both cells.
    def distinct(table):
        return (np.diff(np.sort(table, axis=1), axis=1) != 0).sum(axis=1)

    first = int(np.argmax(distinct(right)))
    by_pair = distinct(right[first].astype(np.int64) * p + right)
    by_pair[first] = -1
    join = [first, int(np.argmax(by_pair))]

    def keys(table, d0, d1):
        r0, r1 = (table[join].astype(np.int64) - [[d0], [d1]]) % p
        return r0 * p + r1

    ends = keys(right, 0, 0)
    by = np.argsort(ends, kind="stable")
    ends = ends[by]
    # The needles are looked up sorted, which keeps each search near the
    # last, and their results are scattered back to the needles' order.
    want = np.concatenate([keys(left, d0, d1) for d0 in (0, 1) for d1 in (0, 1)])
    sort = np.argsort(want)
    needles, lo, many = want[sort], np.empty_like(sort), np.empty_like(sort)
    lo[sort] = np.searchsorted(ends, needles)
    many[sort] = np.searchsorted(ends, needles, "right")
    many -= lo
    u = np.repeat(np.arange(len(want)) % left.shape[1], many)
    w = by[np.arange(many.sum()) + np.repeat(lo - np.cumsum(many) + many, many)]

    def residues(rows):
        # left - right lies in (-p, p), where adding p is a cheap mod p.
        diff = left[rows, u]
        diff -= right[rows, w]
        return np.add(diff, p, out=diff, where=diff < 0)

    # Filtered in one piece when one block holds it, else 4 cells at a time.
    if len(reduced) * len(u) <= core._BLOCK_ENTRIES:
        found = residues(slice(None))
        keep = (found <= 1).all(axis=0)
        u, w, found = u[keep], w[keep], found[:, keep]
    else:
        for i in range(0, len(reduced), 4):
            keep = (residues(slice(i, i + 4)) <= 1).all(axis=0)
            u, w = u[keep], w[keep]
        found = residues(slice(None))
    # Built a cell per row, then turned: a row write is the fast one.
    x = np.empty((n * n, len(u)), np.uint8)
    x[fixed] = found
    x[free[: d // 2]] = u >> np.arange(len(low))[:, None] & 1
    x[free[d // 2 :]] = w >> np.arange(len(high))[:, None] & 1
    x = np.ascontiguousarray(x.T)
    grid = x.reshape(-1, n, n)
    x = x[((grid.sum(axis=1) == lam) & (grid.sum(axis=2) == lam)).all(axis=1)]
    return x[_meets(x, members, params).all(axis=1)]


def _covers(params: Params, candidates: np.ndarray) -> np.ndarray:
    """Every set of m pairwise disjoint candidates that covers every cell,
    as a (covers, n, n) array of each cell's candidate index within the set.
    Candidates are numbered in the order their first cells appear, so the
    set's squares in lexicographic order are symbol assignments in
    ``itertools.permutations`` order."""
    n = params.n
    packed = np.packbits(candidates, axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
    # holding[cell]: the candidates that hold the cell, ascending, listed
    # for the cells the search meets.
    holding = {}
    last = {mask: k for k, mask in enumerate(masks)}
    found = []

    def cover(left, chosen):
        if len(chosen) == params.m - 1:
            # The last candidate is the cells still left, if it is one.
            if left in last:
                found.append(chosen + [last[left]])
            return
        cell = (left & -left).bit_length() - 1
        if cell not in holding:
            holding[cell] = np.flatnonzero(candidates[:, cell]).tolist()
        for k in holding[cell]:
            if masks[k] | left == left:
                cover(left & ~masks[k], chosen + [k])

    cover((1 << (n * n)) - 1, [])
    chosen = np.array(found, np.intp).reshape(-1, params.m)
    return candidates[chosen].argmax(axis=1).reshape(-1, n, n)


def _cover_keys(params: Params, covers: np.ndarray):
    """The keys of the squares of ``covers``, in lexicographic order, each a
    run of one key (see :func:`_engine`).  Each cover walks its m! symbol
    assignments lazily, in ``permutations`` order, which is its squares'
    order (see :func:`_covers`), and the covers are merged, so a stream
    builds only the keys it yields."""
    symbols, narrow = range(1, params.m + 1), core._symbol_type(params)

    def squares(labels):
        for assign in permutations(symbols):
            yield np.array(assign, narrow)[labels].tobytes()

    yield from heapq.merge(*map(squares, covers))


def _first_by_rank(params: Params, covers: np.ndarray, first_order: list):
    """The key the engine finds first when its first row takes
    ``first_order``: the square whose first row comes first in that order,
    then the lowest in grid order.  A whole first row fixes the symbol of
    every label of a cover of its shape, so each such cover gives one key,
    and the least is taken."""
    patterns = _pattern_tables(params.m, params.lam)[0]
    by_row = {}
    for labels in covers:
        by_row.setdefault(tuple(labels[0].tolist()), []).append(labels)
    for q in first_order if by_row else ():
        # A first row fits a cover iff it has one symbol per candidate: its
        # symbols renamed 0, 1, ... by first appearance are its labels.
        relabel = {}
        shape = tuple(relabel.setdefault(a, len(relabel)) for a in patterns[q])
        if shape in by_row:
            # Label c takes the c-th symbol to appear in the row.
            assign = np.array(list(relabel), core._symbol_type(params))
            return min(assign[labels].tobytes() for labels in by_row[shape])
    return None


def _search(params: Params, members: np.ndarray, config: SearchConfig, first_order=None):
    """The one place a search is decided and guarded: ``(covers, keys)`` for
    the squares orthogonal to the (k, n, n) ``members``.  ``keys`` are
    runs of their keys, lazy and uncapped.  Where there are candidates
    (:func:`_candidates`: the permutation-matrix table or the linear dual),
    ``covers`` are their covers, m! squares each, and the keys come from
    them, one key a run, in lexicographic order.  Otherwise ``covers`` is
    None, the size guard runs, and the keys come from the engine, whose
    first row takes ``first_order`` (see :func:`_engine`), ascending when
    that is None.  So the engine is guarded, and covers never are."""
    candidates = _candidates(params, members)
    if candidates is not None:
        covers = _covers(params, candidates)
        return covers, _cover_keys(params, covers)
    _guard(params, config)
    return None, _engine(params, members, first_order)


def enumerate_fsquares(params: Params, config: SearchConfig = SearchConfig()):
    """Every F-square of the type exactly once, in lexicographic grid order."""
    return chain.from_iterable(_streamed(params, _NO_MEMBERS, config))


def extensions(mset: MofsSet, config: SearchConfig = SearchConfig()):
    """Every F-square orthogonal to all members of the set, in
    lexicographic grid order."""
    return chain.from_iterable(_streamed(mset.params, mset.grids, config))


def _streamed(params: Params, members: np.ndarray, config: SearchConfig):
    # The batches of a stream (core._batches), for a C-level chain to flatten
    # so that no Python frame runs per square.  As a generator it searches,
    # and the size guard runs, on the stream's first next(), not at the call.
    runs = _search(params, members, config)[1]
    yield from _batches(params, runs, config.max_results)


def _count(params: Params, members: np.ndarray, config: SearchConfig) -> int:
    """Number of squares orthogonal to the (k, n, n) ``members``, up to
    ``config.max_results``, counted without building the squares: m! per
    cover of the candidates, else from the lengths of the runs of keys,
    none of which is read once the count reaches the limit."""
    covers, runs = _search(params, members, config)
    limit, width = config.max_results, core._symbol_type(params).itemsize * params.n**2
    if covers is not None:
        found = len(covers) * factorial(params.m)
    elif limit is None:
        found = sum(map(len, runs)) // width
    else:
        found = 0
        for run in runs if limit else ():
            found += len(run) // width
            if found >= limit:
                break
    return found if limit is None else min(found, limit)


def count_fsquares(params: Params, config: SearchConfig = SearchConfig()) -> int:
    """Number of F-squares of the type, up to ``config.max_results``, from
    the counting DP (:func:`_count_arrays`), which builds no square and
    stops at its first partial count past the cap."""
    _guard(params, config)
    limit = config.max_results
    found = _count_arrays((params.lam,) * params.m, limit)
    return found if limit is None else min(found, limit)


# The stack of no members.  Its shape does not depend on n, so a type too
# large to shape an (n, n) array still reaches the size guard.
_NO_MEMBERS = np.zeros((0, 0, 0), np.uint8)
_NO_MEMBERS.flags.writeable = False


def _require_whole_space(config: SearchConfig) -> None:
    """A maximality verdict is only sound over every candidate square."""
    if config.max_results is not None:
        raise MofsError("maximality needs the whole search space; max_results is not allowed")


def exhaustive_maximality(
    mset: MofsSet, config: SearchConfig = SearchConfig()
) -> bool:
    """Ground truth: true iff no F-square extends the set: its candidates
    have no cover, or the engine finds no key.  On a maximal set the
    engine walks the whole space, so it is guarded like an uncapped count."""
    _require_whole_space(config)
    covers, keys = _search(mset.params, mset.grids, config)
    return next(keys, None) is None if covers is None else not len(covers)


def grow_maximal(seed_set, config: SearchConfig = SearchConfig()) -> MofsSet:
    """Greedy growth to a maximal set.

    ``seed_set`` is a MofsSet, or a Params to start from nothing.  Each
    step draws the first-row pattern order by ``random.Random.shuffle``,
    from one ``random.Random(seed)`` for the whole growth, and adds the
    extension whose first row comes first in it, the lowest in grid order
    on a tie: the engine's first find, or the same square picked from the
    covers.  Steps are searched (:func:`_search`) until
    candidates are found (:func:`_candidates`); their covers are then
    kept, less at each step those whose label classes fail
    :func:`verify._meets` against the square added (a cover's m! squares
    are all orthogonal to it or none are).  Up front only the row-pattern
    table that the seeded order shuffles is guarded, as for a capped
    stream.  The loop ends when no extension exists, with no draw once
    the kept covers are empty, so the result is maximal by construction
    (and re-verified).
    For m = 1 the only square is orthogonal to itself, so growth would
    never end; it raises ``UndefinedForMOne`` instead.
    """
    _require_whole_space(config)
    if isinstance(seed_set, Params):
        params, grids = seed_set, _NO_MEMBERS
    else:
        params, grids = seed_set.params, seed_set.grids
    if params.m == 1:
        raise UndefinedForMOne(
            "greedy growth is undefined for m = 1: the only square is"
            " orthogonal to itself"
        )
    _guard(params, replace(config, max_results=0))
    rng = random.Random(config.seed)
    m, n = params.m, params.n
    size = len(_pattern_tables(m, params.lam)[0])
    covers = None
    while covers is None or len(covers):
        first_order = list(range(size))
        rng.shuffle(first_order)
        if covers is None:
            covers, keys = _search(params, grids, config, first_order)
        if covers is None:
            key = next(keys, None)
        else:
            key = _first_by_rank(params, covers, first_order)
        if key is None:
            break
        # The first key of the run.
        grid = np.frombuffer(key, core._symbol_type(params), n * n).reshape(1, n, n)
        if covers is not None:
            classes = covers.reshape(-1, 1, n * n) == np.arange(m)[:, None]
            meets = _meets(classes.reshape(-1, n * n), grid, params)
            covers = covers[meets.reshape(-1, m).all(axis=1)]
        grids = np.concatenate((grids, grid)) if len(grids) else grid
    return MofsSet(params, grids)


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
    return FSquare(params, grid)
