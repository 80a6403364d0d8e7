"""Enumeration, extension search, greedy growth, and the exhaustive
maximality oracle.

Two exact methods find squares, chosen by D, the number of free cells of
the linear system that an extension's indicator of one symbol solves.
Its unknowns are the (n-1)^2 interior cells, since the row and column
sums lam fix the last row and column, and it has one equation, lam^2,
per member and per symbol but the last; so for a set of t squares
D = (n-1)^2 - t(m - 1), the paper's bound.  A search with at least one
member and D <= ``_DUAL_MAX_D`` takes the linear-dual path: the system,
row-reduced modulo the prime 2^21 - 9 a panel of columns at a time
(float64 products whose sums stay below 2^53, so exact), leaves 2^D 0/1
assignments of its free cells, met in the middle; each candidate
indicator is then checked exactly by the orthogonality kernel that
verifies sets (``verify._meets``), and m pairwise disjoint candidates
that cover every cell make m! squares.  It is complete whatever the rank
modulo the prime: every integer 0/1 solution solves the reduced system
too, so it is among the assignments (see :func:`_candidates`).  Greedy
growth solves the system once; each later step keeps the candidates
orthogonal to the square it added.  Every other search, with no members
or a larger D, runs the engine below; both give the same squares in the
same order.

The engine generates squares in lexicographic grid order, depth first
over the valid row patterns, for every m.  It keeps per-column
symbol counts and, against every member of the set being extended, the
running count of each ordered symbol pair, all packed into two ints so
that adding a row and checking every bound is a few integer operations.
The patterns that fit the column counts depend on those counts alone, so
a per-type column-fit table, filled as the search meets new counts and
kept between searches, lists them for each node; a node tests only their
pair counts.  The last two rows are not searched node by node: a square is
orthogonal to every member iff each pair count ends at exactly lam^2, so a
per-search tail table maps the pair counts that the two rows can add,
under the column counts they complete, to those rows, and one lookup of
what the counts still lack finds them.  Each square comes out as the
joined int64 bytes of its rows; ``count_fsquares`` only counts them, and
the streams wrap each as an ``FSquare`` whose grid borrows those bytes,
without calling the validating constructor (``core._leaves``).
"""

from __future__ import annotations

import heapq
import os
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations
from math import comb, factorial

import numpy as np

from .core import FSquare, MofsError, Params, _as_int, _leaves
from .verify import MofsSet, UndefinedForMOne, _meets

DEFAULT_MAX_ENUM = 10_000_000


class InfeasibleSizeGuard(MofsError):
    def __init__(self, estimate, ceiling, kind="estimated"):
        super().__init__(
            f"{kind} {estimate} squares exceeds the ceiling {ceiling};"
            f" raise MOFS_MAX_ENUM or force (--force) to override"
        )
        self.estimate = estimate
        self.ceiling = ceiling


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the search operations.

    Identical seed and config give identical outcomes; ``seed`` is None
    or an integer, and ``force`` a bool.  ``prefix``
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
        try:
            prefix = tuple(self.prefix)
        except TypeError:
            raise MofsError(
                f"prefix must be an iterable of integers, got {self.prefix!r}"
            ) from None
        object.__setattr__(
            self, "prefix", tuple(_as_int(a, "a prefix symbol") for a in prefix)
        )


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


# Entries a type's column-fit table holds before it is cleared.  An entry
# takes a few hundred bytes.  Enumerating F(6;3) meets 902 column states
# and 20 greedy F(6;2) growths about 11 000, so the cap bounds memory on
# larger types without clearing on these.
_FIT_CAP = 1 << 14
# Column states a search's tail table holds before it is cleared.  An entry
# holds the completions of one state: at most 20 two-row completions on
# F(6;3), 10 on F(6;2) and 4 on F(5;1), whose whole enumeration meets
# 2 040 states in one search (F(6;3) 141).
_TAIL_CAP = 1 << 12
# The most free cells (D) for which the linear-dual search replaces the
# engine.  On greedy growth of F(6;3) and F(5;1) a cap of 20 ties with 18
# and takes more memory; 22 is 1.7 times slower.
_DUAL_MAX_D = 18
# The elimination's prime and the widest panel it eliminates at once.  It
# keeps residues in float64, where a sum of k products of residues is below
# k * p^2 < 2^53, so exact, while k <= 2^11: a panel has at most that many
# columns.  Of 64, 128 and 256, 128 was the fastest on F(32;16) minus 6
# squares and on federer(64) minus 3.
_PRIME = 2**21 - 9
_PANEL = 128


@lru_cache(maxsize=None)
def _pattern_tables(m: int, lam: int):
    """What the engine derives from the type alone, built once per type:
    the rows with each symbol exactly lam times (the patterns, in
    lexicographic order), the counters' field dtype, the patterns'
    read-only one-hot array, their packed column increments, their native
    int64 bytes, and the column-fit table the engine fills as it goes."""
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
    row_bytes = tuple(row.tobytes() for row in np.array(patterns, dtype=np.int64))
    return patterns, dtype, pattern_hot, col_inc, row_bytes, {}


def _guard(params: Params, config: SearchConfig) -> None:
    if config.force:
        return
    raw = os.environ.get("MOFS_MAX_ENUM", str(DEFAULT_MAX_ENUM))
    try:
        ceiling = int(raw)
    except ValueError:
        raise MofsError(f"MOFS_MAX_ENUM must be an integer, got {raw!r}") from None
    if config.max_results is not None and config.max_results <= ceiling:
        # A capped stream stops early, but the engine still tables all
        # P = n!/(lam!)^m row patterns, and P is a lower bound on the count:
        # every regular first row completes to a (circulant) square.  P is
        # the product of C(n - a*lam, lam) over a < m - 1, built one integer
        # step at a time; after s steps it is at least 2^s, so this takes at
        # most log2(ceiling) + 1 steps for any m and lam.
        least = 1
        for a in range(params.m - 1):
            left = params.n - a * params.lam
            for j in range(1, params.lam + 1):
                least = least * (left - j + 1) // j
                if least > ceiling:
                    raise InfeasibleSizeGuard(least, ceiling, "at least")
        return
    # For m >= 2 the n distinct rows of the cyclic square permute into n!
    # distinct squares.  That lower bound passes the ceiling after a few
    # factors, while the estimate below takes unbounded time as n grows.
    if params.m >= 2:
        least = 1
        for k in range(2, params.n + 1):
            least *= k
            if least > ceiling:
                raise InfeasibleSizeGuard(least, ceiling, "at least")
    estimate = estimate_count(params)
    if estimate > ceiling:
        raise InfeasibleSizeGuard(estimate, ceiling)


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
    # member_hot[k, i, j, b]: member k holds symbol b + 1 at cell (i, j).
    member_hot = (members[..., None] == np.arange(1, m + 1)).astype(dtype)
    return [
        _pack(
            np.einsum("pja,kjb->pkab", pattern_hot, member_hot[:, i]).reshape(
                len(patterns), -1
            ),
            dtype,
        )
        for i in range(params.n)
    ]


def _engine(params, pair_inc, n_members, first_order, prefix):
    """Depth-first enumerator over row patterns, with packed counters, for
    squares orthogonal to ``n_members`` members whose pair increments are
    ``pair_inc`` (see :func:`_pair_increments`).  Yields each square's key:
    its rows' native int64 bytes, joined.

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
    patterns that fit it; it outlives the call and is cleared when it holds
    ``_FIT_CAP`` entries.  The first row takes ``first_order`` (or
    ascending order) filtered by ``prefix``, all of which fit; lower rows
    take their node's tuple.  One explicit stack holds, per row, the
    iterator over those patterns and the counters above it.

    The loop places rows 0..``stop``, ``stop`` = max(n - 3, 0); the rows
    below it (two, or fewer when n < 3) are looked up, so the first row
    always keeps its order and prefix.  Their column counts force the last
    row, and a square is orthogonal to every member iff each pair field
    ends at exactly ``full``, its bias plus lam^2.  So the per-call tail
    table maps each ``cols`` met below ``stop`` to a dict from the packed
    pair counts the remaining rows add to the ascending tuple of those
    rows' bytes, and a surviving node at ``stop`` yields the hits of one
    lookup of ``full - pairs``.  The packed compare is exact: a field is
    at most its bias plus lam^2 = top - 1 before the lookup and the rows
    add at most 2 lam <= lam^2 + 1 <= top to it, so no add carries and no
    subtract borrows between fields; with no members every completion
    matches 0.  The increments depend on the members, so the table lives
    for one call, cleared when it holds ``_TAIL_CAP`` entries.
    """
    m, lam, n = params.m, params.lam, params.n
    patterns, dtype, _, col_inc, row_bytes, fit = _pattern_tables(m, lam)
    n_pairs = n_members * m * m
    top = 1 << (8 * dtype.itemsize - 1)

    def fields(value, count):
        return _pack(np.full((1, count), value), dtype)[0]

    col_guard, pair_guard = fields(top, m * n), fields(top, n_pairs)
    full = fields(top - 1, n_pairs)
    every = range(len(patterns))
    stop = max(n - 3, 0)
    tail = {}

    def fits(cols):
        found = tuple(p for p in every if not (cols + col_inc[p]) & col_guard)
        if len(fit) >= _FIT_CAP:
            fit.clear()
        fit[cols] = found
        return found

    def ends(i, cols):
        # (pair increment, bytes) of every completion of rows i..n-1.
        if i == n:
            yield 0, b""
            return
        for p in fit.get(cols) or fits(cols):
            for added, rest in ends(i + 1, cols + col_inc[p]):
                yield pair_inc[i][p] + added, row_bytes[p] + rest

    def tail_of(cols):
        found = {}
        for added, rest in ends(stop + 1, cols):
            found.setdefault(added, []).append(rest)
        if len(tail) >= _TAIL_CAP:
            tail.clear()
        tail[cols] = found = {added: tuple(rests) for added, rests in found.items()}
        return found

    order = every if first_order is None else first_order
    row0 = [p for p in order if patterns[p][: len(prefix)] == prefix]
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
        for p in patterns_left:
            next_pairs = pairs + inc[p]
            if next_pairs & pair_guard:
                continue
            next_cols = cols + col_inc[p]
            hits = (tail.get(next_cols) or tail_of(next_cols)).get(full - next_pairs)
            if hits:
                node = head + row_bytes[p]
                for rest in hits:
                    yield node + rest


def _system(params: Params, members: np.ndarray) -> np.ndarray:
    """The integer system [A | b] that the (n-1)^2 interior cells y of an
    extension's indicator x of one symbol solve, in row-major order.

    The row and column sums lam fix the border: x[i, n-1] is lam minus
    row i of y, x[n-1, j] lam minus column j, and the corner the sum of y
    minus (n - 2) lam.  With the border so written, there is a row for
    each member k and symbol b < m: <x, I_b(S_k)> = lam^2.  Symbol m's
    follows, as the I_b(S_k) sum to J and <x, J> = n lam = m lam^2."""
    m, lam, n = params.m, params.lam, params.n
    hot = members[:, None] == np.arange(1, m)[:, None, None]
    hot = hot.reshape(-1, n, n).astype(np.int8)
    a = hot[:, :-1, :-1] - hot[:, :-1, -1:] - hot[:, -1:, :-1] + hot[:, -1:, -1:]
    # lam^2 minus the border's constant part, 2 lam (lam - c) - (n - 2) lam c
    # with c the indicator's corner: its last row and column hold lam ones.
    b = n * lam * hot[:, -1, -1].astype(np.int64) - lam * lam
    return np.concatenate((a.reshape(len(hot), (n - 1) ** 2), b[:, None]), axis=1)


def _row_reduce(system: np.ndarray, p: int):
    """Gauss-Jordan elimination of ``system`` modulo the prime ``p``:
    (pivot columns, reduced rows on them), or None when the system has no
    solution mod p.

    It eliminates a panel of at most ``_PANEL`` columns at a time.  The
    column loop finds the panel's pivots on the panel alone, in int64
    (residues are below 2^21, so products fit), and ``track`` records each
    row as its value when the panel began plus a multiple of the pivot
    rows as they stood then (a pivot row drops the first term).  One
    float64 product then updates every column right of the panel; each of
    its sums has at most ``_PANEL`` terms below p^2, so it stays below
    2^53 and exact.  Rows are never swapped: ``owner`` lists each pivot's
    row."""
    a = system % p
    rows, width = a.shape
    pivots, owner, spare = [], [], np.ones(rows, bool)
    for start in range(0, width - 1, _PANEL):
        if len(owner) == rows:
            break
        stop, first = min(start + _PANEL, width - 1), len(owner)
        wide = stop - start
        track = np.zeros((rows, min(rows - first, wide)), np.int64)
        panel = np.concatenate((a[:, start:stop], track), axis=1)
        for j in range(wide):
            hit = panel[:, j].nonzero()[0]
            fresh = hit[spare[hit]]
            if not len(fresh):
                continue
            k = int(fresh[0])
            spare[k] = False
            # Row k is 0 left of column j (earlier pivots cleared it, and
            # spare rows are 0 on the panel's other earlier columns) and
            # right of its own track column.
            end = wide + len(owner) - first + 1
            panel[k, end - 1] = 1
            panel[k, j:end] = panel[k, j:end] * pow(int(panel[k, j]), -1, p) % p
            hit = hit[hit != k]
            sub = panel[hit, j:end]
            panel[hit, j:end] = (sub - sub[:, :1] * panel[k, j:end]) % p
            pivots.append(start + j)
            owner.append(k)
            if len(owner) == rows:
                break
        mine = owner[first:]
        track = panel[:, wide : wide + len(mine)].astype(np.float64)
        below = a[mine, stop:].astype(np.float64)
        a[mine, stop:] = 0
        np.add(a[:, stop:], track @ below, out=a[:, stop:], casting="unsafe")
        a[:, stop:] %= p
        a[:, start:stop] = panel[:, :wide]
    if a[spare, -1].any():
        return None
    return pivots, a[owner]


def _half(reduced: np.ndarray, free: list, p: int, start: np.ndarray) -> np.ndarray:
    """(rank, 2^len(free)) residues: column u is ``start`` minus the reduced
    columns of the free cells whose bits are set in u, mod p."""
    out = start[:, None] % p
    for j in free:
        out = np.concatenate((out, (out - reduced[:, j, None]) % p), axis=1)
    return out


def _candidates(params: Params, members: np.ndarray):
    """The 0/1 indicators of one symbol of the squares orthogonal to every
    member, as a (c, n*n) uint8 array, or None when the system leaves more
    than ``_DUAL_MAX_D`` free cells mod ``_PRIME``.

    The unknowns are the (n-1)^2 interior cells (see :func:`_system`); for
    a MOFS the system has rank t(m - 1) over the rationals, so D is
    (n-1)^2 - t(m - 1), and 0 for a complete set.  Row-reduced mod p (see
    :func:`_row_reduce`), it fixes each pivot cell as its constant minus
    the free cells' columns.  Each border cell, lam minus its interior row
    or column, takes the same form once the pivots are substituted, in one
    float64 product that is exact since its coefficients are 0, 1 or -1.  So
    the 2^D 0/1 assignments of the free cells give every candidate.  They
    are met in the middle: each half of the free cells has a residue table
    over the pivot and border cells, the halves are joined on one of those
    cells (its residue must come out 0 or 1), and the pairs are filtered
    16 cells at a time, so no array outgrows 16 times the 2^D pairs, and
    every border cell is 0 or 1.  Every survivor is then checked exactly:
    row and column sums lam (a border cell is only known mod p), and then
    lam^2 against every indicator of every member, by the kernel that
    verifies sets (:func:`verify._meets`); the row and column sums make its
    reduced symbols enough.

    Completeness does not depend on the rank mod p: an integer 0/1
    solution also solves the system mod p, so its free cells are one of
    the 2^D assignments and its pivot and border cells pass every filter.
    A rank that drops mod p only adds free cells, and so candidates; the
    exact check removes each false one.  A system with no solution mod p
    has no integer solution.  So the candidates are exactly the 0/1
    solutions, and those of a set are the candidates of any subset that
    are orthogonal to the other members, which :func:`grow_maximal` uses.
    """
    m, lam, n, t = params.m, params.lam, params.n, len(members)
    side = n - 1
    # An exact lower bound on D: the rank mod p is at most t(m - 1).
    if side * side - t * (m - 1) > _DUAL_MAX_D:
        return None
    reduced = _row_reduce(_system(params, members), _PRIME)
    if reduced is None:
        return np.zeros((0, n * n), np.uint8)
    pivots, reduced = reduced
    free = sorted(set(range(side * side)) - set(pivots))
    if len(free) > _DUAL_MAX_D:
        return None
    # Each pivot cell, then each border cell (last column, last row,
    # corner), as a constant (the last column) minus the free cells'
    # columns.  A border row starts as the interior cells it subtracts.
    p, d, inner = _PRIME, len(free), np.arange(side * side)
    border = np.concatenate(
        (
            inner // side == np.arange(side)[:, None],
            inner % side == np.arange(side)[:, None],
            np.full((1, side * side), -1),
        )
    ).astype(np.float64)
    const = [lam] * (2 * side) + [(2 - n) * lam]
    reduced = reduced[:, free + [-1]]
    substituted = border[:, pivots] @ reduced.astype(np.float64)
    border = np.column_stack((border[:, free], const)) - substituted
    reduced = np.concatenate((reduced, border % p)).astype(np.int64)
    cell = inner // side * n + inner % side
    fixed = np.concatenate((cell[pivots], n * np.arange(1, n) - 1, n * side + np.arange(n)))
    low, high = range(d // 2), range(d // 2, d)
    left = _half(reduced, low, p, reduced[:, -1])
    right = (-_half(reduced, high, p, np.zeros(len(reduced), np.int64))) % p
    # x on fixed cell i is left[i, u] - right[i, w] mod p, which must be 0
    # or 1, so each residue of one half pairs with at most two of the
    # other's.  The join is on the cell whose residues are the most
    # distinct on one half: if all are, it yields at most twice the other
    # half's size.
    def distinct(table):
        steps = np.diff(np.sort(table, axis=1), axis=1) != 0
        return (steps.sum(axis=1) + 1) / table.shape[1]

    join = int(np.argmax(np.maximum(distinct(left), distinct(right))))
    by = np.argsort(right[join], kind="stable")
    ends = right[join, by]
    u, w = [], []
    for diff in (0, 1):
        want = (left[join] - diff) % p
        lo = np.searchsorted(ends, want)
        count = np.searchsorted(ends, want, "right") - lo
        u.append(np.repeat(np.arange(len(want)), count))
        w.append(by[np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)])
    u, w = np.concatenate(u), np.concatenate(w)
    for i in range(0, len(reduced), 16):
        keep = ((left[i : i + 16, u] - right[i : i + 16, w]) % p <= 1).all(axis=0)
        u, w = u[keep], w[keep]
    x = np.zeros((len(u), n * n), np.uint8)
    x[:, fixed] = ((left[:, u] - right[:, w]) % p).T
    x[:, cell[free[: d // 2]]] = u[:, None] >> np.arange(len(low)) & 1
    x[:, cell[free[d // 2 :]]] = w[:, None] >> np.arange(len(high)) & 1
    grid = x.reshape(-1, n, n)
    x = x[((grid.sum(axis=1) == lam) & (grid.sum(axis=2) == lam)).all(axis=1)]
    return x[_meets(x, members, params).all(axis=1)]


def _covers(params: Params, candidates: np.ndarray) -> list:
    """Every set of m pairwise disjoint candidates that covers every cell,
    as the (n, n) array of each cell's candidate index within the set.
    Candidates are numbered in the order their first cells appear, so the
    set's squares in lexicographic order are symbol assignments in
    ``itertools.permutations`` order."""
    n = params.n
    packed = np.packbits(candidates, axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
    # holding[cell]: the candidates that hold the cell, ascending.
    cells, held = np.nonzero(candidates.T)
    bounds, held = np.searchsorted(cells, np.arange(n * n + 1)).tolist(), held.tolist()
    holding = [held[bounds[cell] : bounds[cell + 1]] for cell in range(n * n)]
    last = {mask: k for k, mask in enumerate(masks)}
    found = []

    def cover(left, chosen):
        if len(chosen) == params.m - 1:
            # The last candidate is the cells still left, if it is one.
            if left in last:
                chosen = chosen + [last[left]]
                found.append(candidates[chosen].argmax(axis=0).reshape(n, n))
            return
        for k in holding[(left & -left).bit_length() - 1]:
            if masks[k] | left == left:
                cover(left & ~masks[k], chosen + [k])

    cover((1 << (n * n)) - 1, [])
    return found


def _dual_covers(params: Params, members: np.ndarray):
    """The covers (see :func:`_covers`) of the extensions of ``members``,
    or None where the engine searches instead: no members, or more than
    ``_DUAL_MAX_D`` free cells."""
    if not len(members):
        return None
    candidates = _candidates(params, members)
    return None if candidates is None else _covers(params, candidates)


def _grid_order(m: int):
    """Sort key of squares' keys in lexicographic grid order: the native
    int64 bytes themselves while every symbol fits their first byte."""
    if m < 256:
        return None
    return lambda key: np.frombuffer(key, np.int64).tolist()


def _cover_keys(params: Params, covers: list, prefix: tuple):
    """The keys of the squares of ``covers``, in lexicographic order, whose
    first row starts with ``prefix``.  Each cover walks its m! symbol
    assignments lazily, so a stream builds only the keys it yields."""
    prefix = list(prefix)

    def squares(labels):
        head = labels[0, : len(prefix)].tolist()
        for assign in permutations(range(1, params.m + 1)):
            if [assign[c] for c in head] == prefix:
                yield np.array(assign, np.int64)[labels].tobytes()

    return heapq.merge(*map(squares, covers), key=_grid_order(params.m))


def _first_by_rank(params: Params, covers: list, first_order: list):
    """The key the engine finds first when its first row takes
    ``first_order``: the square whose first row comes first in that order,
    then the lowest in grid order."""
    patterns = _pattern_tables(params.m, params.lam)[0]
    by_row = {}
    for labels in covers:
        by_row.setdefault(tuple(labels[0].tolist()), []).append(labels)
    for q in first_order:
        # A first row fits a cover iff it has one symbol per candidate.
        row = patterns[q]
        relabel = {}
        shape = tuple(relabel.setdefault(a, len(relabel)) for a in row)
        if shape in by_row:
            assign = np.zeros(params.m, np.int64)
            assign[list(shape)] = row
            keys = [assign[labels].tobytes() for labels in by_row[shape]]
            return min(keys, key=_grid_order(params.m))
    return None


def _keys(params: Params, members: np.ndarray, config: SearchConfig):
    """The keys of the squares orthogonal to the (k, n, n) ``members``,
    in lexicographic order, after the size guard and the config's limits."""
    _guard(params, config)
    covers = _dual_covers(params, members)
    return islice(_stream(params, members, covers, config.prefix), config.max_results)


def _stream(params: Params, members: np.ndarray, covers, prefix: tuple):
    """The keys of :func:`_keys` before the cap: from the linear-dual
    ``covers``, or from the engine where they are None."""
    if covers is None:
        return _engine(params, _pair_increments(params, members), len(members), None, prefix)
    return _cover_keys(params, covers, prefix)


def enumerate_fsquares(params: Params, config: SearchConfig = SearchConfig()):
    """Every F-square of the type exactly once, in lexicographic grid order."""
    yield from _leaves(params, _keys(params, _NO_MEMBERS, config))


def extensions(mset: MofsSet, config: SearchConfig = SearchConfig()):
    """Every F-square orthogonal to all members of the set, in
    lexicographic grid order."""
    yield from _leaves(mset.params, _keys(mset.params, mset.grids, config))


def _count(
    params: Params, members: np.ndarray, config: SearchConfig, limit=None
) -> int:
    """Number of squares orthogonal to the (k, n, n) ``members``, up to
    ``limit`` (``config.max_results`` when None), counted without building
    the squares: m! per cover on the linear-dual path, else from the keys."""
    _guard(params, config)
    limit = config.max_results if limit is None else limit
    covers = _dual_covers(params, members)
    if covers is None or config.prefix:
        keys = _stream(params, members, covers, config.prefix)
        return sum(1 for _ in islice(keys, limit))
    found = len(covers) * factorial(params.m)
    return found if limit is None else min(found, limit)


def count_fsquares(params: Params, config: SearchConfig = SearchConfig()) -> int:
    """Number of F-squares of the type, by full enumeration without
    building the squares."""
    return _count(params, _NO_MEMBERS, config)


# The stack of no members.  Its shape does not depend on n, so a type too
# large to shape an (n, n) array still reaches the size guard.
_NO_MEMBERS = np.zeros((0, 0, 0), np.uint8)
_NO_MEMBERS.flags.writeable = False


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
    """Ground truth: true iff no F-square extends the set, decided by
    counting up to one extension."""
    _require_whole_space(config)
    return not _count(mset.params, mset.grids, config, 1)


def grow_maximal(seed_set, config: SearchConfig = SearchConfig()) -> MofsSet:
    """Greedy growth to a maximal set.

    ``seed_set`` is a MofsSet, or a Params to start from nothing.  Each
    step permutes the first-row pattern order by the seed and adds the
    extension whose first row comes first in it, the lowest in grid order
    on a tie: the engine's first find, or the same square picked from the
    linear-dual covers.  Once the linear-dual path applies, its candidates
    are solved for once: each later step keeps those orthogonal to the
    square just added, which are exactly the new set's candidates.  The
    loop ends when no extension exists, so the result is maximal by
    construction (and re-verified).  For m = 1 the only square is
    orthogonal to itself, so growth would never end; it raises
    ``UndefinedForMOne`` instead.
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
    _guard(params, config)
    rng = random.Random(config.seed)
    patterns = _pattern_tables(params.m, params.lam)[0]
    candidates = None
    while True:
        first_order = list(range(len(patterns)))
        rng.shuffle(first_order)
        if candidates is None and len(grids):
            candidates = _candidates(params, grids)
        if candidates is not None:
            key = _first_by_rank(params, _covers(params, candidates), first_order)
        else:
            pair_inc = _pair_increments(params, grids)
            key = next(_engine(params, pair_inc, len(grids), first_order, ()), None)
        if key is None:
            break
        grid = np.frombuffer(key, np.int64).reshape(1, params.n, params.n)
        if candidates is not None:
            candidates = candidates[_meets(candidates, grid, params)[:, 0]]
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
