"""Frequency squares, indicator squares, and the inner-product algebra.

A frequency square of type F(m*lam; lam) is an n x n array (n = m*lam)
over the symbols 1..m in which every symbol occurs exactly lam times in
every row and in every column.  Its indicator squares I_a(S) are the m
0/1 arrays marking where each symbol sits, so S = sum_a a * I_a(S), and
the paper's proofs become exact integer inner products of them.  A square
is stored once, as its symbol grid (``FSquare.grid``), and a set as its
stacked grids (``MofsSet.grids``), validated in bulk here.  Every grid
of a type, a square's, a set's or a search key's, is of one dtype, the
narrowest unsigned type that holds m (:func:`_symbol_type`): uint8 for
m <= 255.  Indicator squares are plain int64 arrays computed from a grid.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np


class MofsError(Exception):
    """Base class for all errors raised by this package."""


class InfeasibleSizeGuard(MofsError):
    """A search refused because it would walk more than the ceiling allows.

    Raised by ``search``; defined here so that ``cli.main`` can catch it
    without importing the search module.
    """

    def __init__(self, estimate, ceiling, kind="estimated", unit="squares"):
        super().__init__(
            f"{kind} {estimate} {unit} exceeds the ceiling {ceiling};"
            f" raise MOFS_MAX_ENUM or force (--force) to override"
        )
        self.estimate = estimate
        self.ceiling = ceiling


class DimensionMismatch(MofsError):
    pass


class SymbolOutOfRange(MofsError):
    pass


class RowRegularityViolation(MofsError):
    def __init__(self, row, symbol, count, expected):
        super().__init__(
            f"row {row}: symbol {symbol} occurs {count} times, expected {expected}"
        )
        self.row = row
        self.symbol = symbol
        self.count = count
        self.expected = expected


class ColumnRegularityViolation(MofsError):
    def __init__(self, col, symbol, count, expected):
        super().__init__(
            f"column {col}: symbol {symbol} occurs {count} times, expected {expected}"
        )
        self.col = col
        self.symbol = symbol
        self.count = count
        self.expected = expected


class OverlappingSupports(MofsError):
    pass


class UncoveredCell(MofsError):
    pass


class RegularityViolation(MofsError):
    pass


def _as_int(value, name: str) -> int:
    """``value`` as a plain int (numpy ints too, bools not), else MofsError."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise MofsError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Params:
    """Type parameters of a frequency square: m symbols, repetition lam."""

    m: int
    lam: int

    def __post_init__(self):
        for name in ("m", "lam"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if self.m < 1:
            raise MofsError(f"m must be >= 1, got {self.m}")
        if self.lam < 1:
            raise MofsError(f"lam must be >= 1, got {self.lam}")

    @property
    def n(self) -> int:
        """Side length m * lam."""
        return self.m * self.lam

    def __str__(self):
        return f"F({self.n};{self.lam})"


def _symbol_type(params: Params) -> np.dtype:
    """The one dtype of every grid of the type: the narrowest unsigned
    integer type that holds the symbols 1..m, uint8 for m <= 255 and
    uint16 above.  ``FSquare.grid``, ``MofsSet.grids`` and the search's
    keys all take it, so a square has one byte form."""
    return np.min_scalar_type(params.m)


class _ArrayValued:
    """Equality and hashing by value for a frozen dataclass with numpy array
    fields, whose generated ``==`` would compare arrays elementwise."""

    def _value(self) -> tuple:
        return tuple(
            (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            for v in (getattr(self, f.name) for f in fields(self))
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        return hash(self._value())


def _as_grid(params: Params, grid, stacked: bool = False) -> np.ndarray:
    # An integer n x n array (a (t, n, n) stack when ``stacked``), and always
    # a private copy: the value must not share a caller's memory.
    try:
        arr = np.array(grid)
    except ValueError:
        raise DimensionMismatch("grid rows have different lengths") from None
    if arr.shape[stacked:] != (params.n, params.n):
        what = "a stack of {0}x{0} grids" if stacked else "a {0}x{0} grid"
        raise DimensionMismatch(
            f"expected {what.format(params.n)}, got shape {arr.shape}"
        )
    if arr.dtype.kind not in "iu":  # floats, or ints too large for int64
        raise SymbolOutOfRange(f"entries must be int64 integers, got {arr.dtype}")
    return arr


class FSquare:
    """A validated frequency square.  Immutable after construction.

    Use :func:`make_fsquare` (or the constructor) with a symbol grid over
    1..m.  The constructor always validates, so an FSquare value cannot
    exist in an invalid state; squares that are valid by construction
    (search leaves, validated stacks) are wrapped by the private
    :func:`_wrap` instead.  Either way ``grid`` is a C-contiguous (n, n)
    array of the type's narrow symbol type (:func:`_symbol_type`, as
    ``MofsSet.grids``: uint8 for m <= 255), whose memory is an immutable
    ``bytes`` object, so it is read-only and cannot be made writeable.
    The constructor's grid views bytes of its own; a wrapped square's
    views the bytes of its stream batch or set, which it keeps alive.
    Arithmetic on ``grid`` wraps in that narrow type (uint8 ``255 + 1``
    is 0), so cast it first, as :func:`indicator` does.
    """

    __slots__ = ("params", "grid")

    def __init__(self, params: Params, grid):
        arr = _as_grid(params, grid)
        # Before the narrowing cast, so no entry outside 1..m can wrap into it.
        _validate_regularity(params, arr[None])
        narrow = _symbol_type(params)
        key = arr.astype(narrow, copy=False).tobytes()
        # The grid views immutable bytes, as a leaf's does: read-only for good.
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "grid", np.ndarray(arr.shape, narrow, key))

    def __setattr__(self, name, value):
        raise AttributeError("FSquare is immutable")

    # A square is equal to and hashed as its params and its grid's bytes.
    def __eq__(self, other):
        return (
            isinstance(other, FSquare)
            and self.params == other.params
            and self.grid.tobytes() == other.grid.tobytes()
        )

    def __hash__(self):
        return hash((self.params, self.grid.tobytes()))

    def __repr__(self):
        return f"FSquare({self.params}, {self.grid.tolist()})"


# One budget, in entries, sizes every block of squares handled at once
# (regularity checks, file I/O, set squares and the Gram kernel; stream
# batches are capped lower still, see _STREAM_BATCH): a block's reduced
# indicator rows (block * r * n^2, r = m - 1 or 1 when m = 1) and a Gram
# product of two blocks ((block * r)^2) each stay within it.  At 2^20 a
# few hundred squares of side up to 27 are one block, and federer(64)
# goes in blocks of 256, where BLAS runs near its peak; 2^21 was no faster
# there and held 13 MB more.
_BLOCK_ENTRIES = 1 << 20

# Squares per stream batch at most, below the block.  CPython starts a
# generation-0 collection after 700 net allocations of tracked objects, so
# a batch of at most 256 FSquares that the consumer drops before the next
# is read never starts one.  At one block, 1 024 squares, a full F(6;3)
# stream would trigger about 290 collections.
_STREAM_BATCH = 256


def _tile(params: Params) -> int:
    """Squares per block of this type (see ``_BLOCK_ENTRIES``)."""
    r = max(params.m - 1, 1)
    return max(1, min(_BLOCK_ENTRIES // (r * params.n**2), math.isqrt(_BLOCK_ENTRIES) // r))


def _indicator_rows(grids: np.ndarray, params: Params, dtype=None, symbols=None) -> np.ndarray:
    """The reduced indicator squares (symbols 2..m; symbol 1 when m = 1) of
    the flattened ``grids``, or those of ``symbols`` when given, one row per
    (square, symbol) with the symbols varying fastest, in ``dtype``; by
    default float32 (float64 once n^2 >= 2^24), in which every product of
    two rows is exact."""
    cells = grids.shape[1]
    if dtype is None:
        dtype = np.float32 if cells < 1 << 24 else np.float64
    if symbols is None:
        symbols = range(min(2, params.m), params.m + 1)
    hits = grids[:, None, :] == np.array(symbols, grids.dtype)[:, None]
    return hits.reshape(-1, cells).astype(dtype)


def _validate_regularity(params: Params, stack: np.ndarray):
    """Check a (t, n, n) integer stack block by block (see :func:`_tile`)
    and raise, for its first invalid square, the error of that square's
    first fault: an entry outside 1..m (first in row-major order), else the
    lowest symbol with a wrong count, its rows before its columns, lowest
    index first.

    The counts are read from the indicator squares, as the paper reads
    regularity: S is regular iff every I_a(S) has row and column sums lam.
    Those of symbols 2..m are the row and column sums of the float32
    reduced indicator rows (:func:`_indicator_rows`) viewed as (k r, n, n),
    each one product with a ones vector (a fifth of the time of numpy's
    axis sums), exact in float32: the rows take r n^2 entries per square
    for r = m - 1, which the block budgets (see :func:`_tile`).  A square
    larger than the budget is counted a budget of symbols at a time.  Once
    every entry is in 1..m, symbol 1's are n minus the rest.

    Returns the rows of a valid stack of m >= 2 that is one block, built in
    one piece, for the Gram kernel to reuse
    (:func:`verify._first_failing_pair`); None otherwise."""
    m, lam, n = params.m, params.lam, params.n
    step = _tile(params)
    ones = np.ones(n, np.float32)
    narrow = _symbol_type(params)
    whole = None
    for k0 in range(0, len(stack), step):
        block = stack[k0 : k0 + step]
        t = len(block)
        out = ((block < 1) | (block > m)).any(axis=(1, 2))
        # Only squares before the first one with an out-of-range entry are
        # counted; their entries narrow to the type of m without wrapping.
        ok = int(np.argmax(out)) if out.any() else t
        grids = block[:ok].astype(narrow, copy=False).reshape(ok, n * n)
        # counts[k, a - 1, 0 or 1, i]: symbol a in row or column i of square k.
        counts = np.empty((ok, m, 2, n), np.float32)
        per = max(1, _BLOCK_ENTRIES // (max(ok, 1) * n * n))
        for low in range(1, m, per):
            symbols = range(low + 1, min(low + per, m) + 1)
            rows = _indicator_rows(grids, params, np.float32, symbols)
            hits = rows.reshape(ok, len(symbols), n, n)
            counts[:, low : low + per, 0] = hits @ ones
            counts[:, low : low + per, 1] = ones @ hits
        counts[:, 0] = n - counts[:, 1:].sum(axis=1)
        bad = counts != lam
        if bad.any():
            # In index order: the first square, its lowest symbol, rows first.
            k, a, column, i = np.argwhere(bad)[0]
            error = ColumnRegularityViolation if column else RowRegularityViolation
            raise error(int(i), int(a) + 1, int(counts[k, a, column, i]), lam)
        if ok < t:
            arr = block[ok]
            i, j = np.argwhere((arr < 1) | (arr > m))[0]
            raise SymbolOutOfRange(f"entry ({i},{j}) = {arr[i, j]} not in 1..{m}")
        if t == len(stack) and m > 1 and per >= m - 1:
            whole = rows
    return whole


# Runs an iterator of calls for their effects, at C speed.
_drain = deque(maxlen=0).extend


def _batches(params: Params, runs, limit=None):
    """FSquares for the keys that ``runs`` join, up to ``limit`` of them,
    without validation, as one list per batch for a C-level chain to
    flatten: each key holds the cells, row by row, of one square of the
    type that is valid by construction, in its native narrow symbol type
    (:func:`_symbol_type`), itemsize n^2 bytes, and each run the
    keys of one search lookup.  Batches are cut from the runs, inside one
    or across several, joined and wrapped (:func:`_wrap`), so no Python
    code runs per square.  Batches double from one square, so a stream's
    first square costs one run, up to the lesser of one block
    (:func:`_tile`) and ``_STREAM_BATCH`` squares: 256 squares, 9 KB, on
    F(6;3).  A run is read only when a batch needs its keys.  No local
    name holds a batch's squares, so a batch the consumer has dropped is
    freed before the next is read."""
    runs, width = iter(runs), _symbol_type(params).itemsize * params.n**2
    size, cap = 1, min(_tile(params), _STREAM_BATCH)
    run, at, left = b"", 0, math.inf if limit is None else limit
    while left > 0:
        want = min(size, left)
        pieces, need = [], want * width
        while need:
            if at == len(run):
                run, at = next(runs, b""), 0
                if not run:
                    break
            take = min(need, len(run) - at)
            pieces.append(run if take == len(run) else memoryview(run)[at : at + take])
            at, need = at + take, need - take
        if not pieces:
            return
        yield _wrap(params, b"".join(pieces))
        left -= want
        size = min(2 * size, cap)


def _wrap(params: Params, chunk: bytes) -> list:
    """The squares whose cells, in the type's native narrow symbol type
    (:func:`_symbol_type`), ``chunk`` joins, unvalidated, built by C-level
    maps.  Each grid is a view of ``chunk``, read-only and never writeable,
    which lives while any of its squares does; equality and hashing match
    the constructor's."""
    grids = np.frombuffer(chunk, _symbol_type(params)).reshape(-1, params.n, params.n)
    squares = list(map(object.__new__, repeat(FSquare, len(grids))))
    _drain(map(FSquare.params.__set__, squares, repeat(params)))
    _drain(map(FSquare.grid.__set__, squares, grids))
    return squares


def make_fsquare(params: Params, grid) -> FSquare:
    """Validate a symbol grid and wrap it as an FSquare."""
    return FSquare(params, grid)


def indicator(s: FSquare, a: int) -> np.ndarray:
    """Indicator square I_a(s): the read-only 0/1 array of the cells of
    ``s`` that hold symbol ``a``."""
    a = _as_int(a, "a symbol")
    if not 1 <= a <= s.params.m:
        raise SymbolOutOfRange(f"symbol {a} not in 1..{s.params.m}")
    return _read_only(s.grid == a)


def indicators(s: FSquare) -> np.ndarray:
    """All m indicator squares of ``s`` as a read-only (m, n, n) stack,
    for symbols 1..m in order."""
    return _read_only(s.grid == np.arange(1, s.params.m + 1).reshape(-1, 1, 1))


def _read_only(mask: np.ndarray) -> np.ndarray:
    # int64 like all_ones, not the grid's narrow type, so a * I_a and sums
    # cannot wrap.
    arr = mask.astype(np.int64)
    arr.flags.writeable = False
    return arr


def reconstruct(inds) -> FSquare:
    """Rebuild the frequency square whose a-th indicator is ``inds[a-1]``.

    The m arrays are n x n with entries in {0, 1}; m fixes the type
    F(n; n/m).  They must have disjoint supports covering every cell;
    the weighted sum sum_a a * inds[a-1] is then validated as an FSquare.
    """
    try:
        stack = np.array(list(inds))
    except ValueError:
        raise DimensionMismatch("indicator squares have different shapes") from None
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:  # [] has shape (0,)
        raise DimensionMismatch(
            f"expected one or more n x n indicator squares, got shape {stack.shape}"
        )
    m, n = stack.shape[:2]
    if n % m:
        raise DimensionMismatch(f"side {n} is not a multiple of {m} indicator squares")
    if stack.dtype.kind not in "biu" or ((stack != 0) & (stack != 1)).any():
        raise SymbolOutOfRange("indicator square entries must be the integers 0 and 1")
    cover = stack.sum(axis=0)
    bad_rows = (cover != 1).any(axis=1)
    if bad_rows.any():
        # The first faulty row; in it, an overlap before an uncovered cell.
        i = int(np.argmax(bad_rows))
        if (cover[i] > 1).any():
            raise OverlappingSupports(f"row {i}: two indicators share a cell")
        j = int(np.argmax(cover[i] == 0))
        raise UncoveredCell(f"cell ({i},{j}) is covered by no indicator")
    grid = np.tensordot(np.arange(1, m + 1), stack.astype(np.int64), axes=1)
    try:
        return FSquare(Params(m, n // m), grid)
    except (RowRegularityViolation, ColumnRegularityViolation) as exc:
        raise RegularityViolation(str(exc)) from exc


def inner(a, b) -> int:
    """<a, b>: the sum of the entries of the elementwise product of two
    same-shape arrays, such as indicator squares."""
    aa, bb = _widened(a), _widened(b)
    if aa.shape != bb.shape:
        raise DimensionMismatch(f"shape mismatch: {aa.shape} vs {bb.shape}")
    return int(np.sum(aa * bb))


def _widened(x) -> np.ndarray:
    # Products of small ints or bools would wrap in their own dtype.
    arr = np.asarray(x)
    if arr.dtype.kind in "biu" and arr.dtype.itemsize < 8:
        return arr.astype(np.int64)
    return arr


def all_ones(params: Params) -> np.ndarray:
    """The all-ones array J of the side length given by ``params``."""
    return np.ones((params.n, params.n), dtype=np.int64)
