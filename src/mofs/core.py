"""Frequency squares, indicator squares, and the inner-product algebra.

A frequency square of type F(m*lam; lam) is an n x n array (n = m*lam)
over the symbols 1..m in which every symbol occurs exactly lam times in
every row and in every column.  Its indicator squares are the m binary
masks marking where each symbol sits; the whole library works with these
masks and exact integer inner products of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MofsError(Exception):
    """Base class for all errors raised by this package."""


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


@dataclass(frozen=True)
class Params:
    """Type parameters of a frequency square: m symbols, repetition lam."""

    m: int
    lam: int

    def __post_init__(self):
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


def _as_grid(params: Params, grid) -> np.ndarray:
    # Always a private copy: the square must not share a caller's memory.
    try:
        arr = np.array(grid)
    except ValueError:
        raise DimensionMismatch("grid rows have different lengths") from None
    if arr.shape != (params.n, params.n):
        raise DimensionMismatch(
            f"expected a {params.n}x{params.n} grid, got shape {arr.shape}"
        )
    if arr.dtype.kind not in "iu":  # floats, or ints too large for int64
        raise SymbolOutOfRange(f"entries must be int64 integers, got {arr.dtype}")
    return arr.astype(np.int64, copy=False)


class FSquare:
    """A validated frequency square.  Immutable after construction.

    Use :func:`make_fsquare` (or the constructor) with a symbol grid over
    1..m; validation is eager, so an FSquare value cannot exist in an
    invalid state.
    """

    __slots__ = ("params", "grid", "_key")

    def __init__(self, params: Params, grid, *, _trusted: bool = False):
        arr = _as_grid(params, grid)
        if not _trusted:
            _validate_regularity(params, arr)
        arr.flags.writeable = False
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "grid", arr)
        object.__setattr__(self, "_key", (params, arr.tobytes()))

    def __setattr__(self, name, value):
        raise AttributeError("FSquare is immutable")

    def __eq__(self, other):
        return isinstance(other, FSquare) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"FSquare({self.params}, {self.grid.tolist()})"


def _validate_regularity(params: Params, arr: np.ndarray) -> None:
    m, lam, n = params.m, params.lam, params.n
    bad = (arr < 1) | (arr > m)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise SymbolOutOfRange(f"entry ({i},{j}) = {arr[i, j]} not in 1..{m}")
    # counts[i, a - 1]: occurrences of symbol a in row (column) i.
    index = np.arange(n) * m
    sym = arr - 1
    row_counts = np.bincount((index[:, None] + sym).ravel(), minlength=n * m)
    col_counts = np.bincount((index[None, :] + sym).ravel(), minlength=n * m)
    row_counts, col_counts = row_counts.reshape(n, m), col_counts.reshape(n, m)
    bad_rows, bad_cols = row_counts != lam, col_counts != lam
    bad_symbols = bad_rows.any(axis=0) | bad_cols.any(axis=0)
    if bad_symbols.any():
        # The lowest symbol first, its rows before its columns, lowest index.
        a = int(np.argmax(bad_symbols))
        if bad_rows[:, a].any():
            i = int(np.argmax(bad_rows[:, a]))
            raise RowRegularityViolation(i, a + 1, int(row_counts[i, a]), lam)
        j = int(np.argmax(bad_cols[:, a]))
        raise ColumnRegularityViolation(j, a + 1, int(col_counts[j, a]), lam)


def make_fsquare(params: Params, grid) -> FSquare:
    """Validate a symbol grid and wrap it as an FSquare."""
    return FSquare(params, grid)


@dataclass(frozen=True)
class IndicatorSquare:
    """Binary mask of one symbol's cells, rows packed as integer bitmasks.

    Bit j of ``row_masks[i]`` is set exactly when the source square holds
    the marked symbol at cell (i, j).  Packed rows make inner products a
    word-parallel popcount of an AND.
    """

    params: Params
    row_masks: tuple

    @property
    def n(self) -> int:
        return self.params.n

    def to_array(self) -> np.ndarray:
        n = self.n
        out = np.zeros((n, n), dtype=np.int64)
        for i, mask in enumerate(self.row_masks):
            for j in range(n):
                if mask >> j & 1:
                    out[i, j] = 1
        return out

    def row_sums(self):
        return [mask.bit_count() for mask in self.row_masks]

    def col_sums(self):
        n = self.n
        return [sum(mask >> j & 1 for mask in self.row_masks) for j in range(n)]


def indicator(s: FSquare, a: int) -> IndicatorSquare:
    """Indicator square of ``s`` with respect to symbol ``a``."""
    if not 1 <= a <= s.params.m:
        raise SymbolOutOfRange(f"symbol {a} not in 1..{s.params.m}")
    masks = []
    for row in s.grid:
        mask = 0
        for j, v in enumerate(row):
            if v == a:
                mask |= 1 << j
        masks.append(mask)
    return IndicatorSquare(s.params, tuple(masks))


def indicators(s: FSquare) -> list:
    """All m indicator squares of ``s``, for symbols 1..m in order."""
    return [indicator(s, a) for a in range(1, s.params.m + 1)]


def reconstruct(inds) -> FSquare:
    """Rebuild the frequency square whose a-th indicator is ``inds[a-1]``.

    The m binary masks must have disjoint supports covering every cell;
    the weighted sum sum_a a * inds[a-1] is then validated as an FSquare.
    """
    inds = list(inds)
    if not inds:
        raise MofsError("need at least one indicator square")
    params = inds[0].params
    n = params.n
    if len(inds) != params.m:
        raise DimensionMismatch(
            f"expected {params.m} indicator squares, got {len(inds)}"
        )
    full = (1 << n) - 1
    for i in range(n):
        seen = 0
        for ind in inds:
            if ind.params != params:
                raise DimensionMismatch("indicator squares disagree on parameters")
            mask = ind.row_masks[i]
            if seen & mask:
                raise OverlappingSupports(f"row {i}: two indicators share a cell")
            seen |= mask
        if seen != full:
            j = next(j for j in range(n) if not (seen >> j & 1))
            raise UncoveredCell(f"cell ({i},{j}) is covered by no indicator")
    grid = np.zeros((n, n), dtype=np.int64)
    for a, ind in enumerate(inds, start=1):
        grid += a * ind.to_array()
    try:
        return FSquare(params, grid)
    except (RowRegularityViolation, ColumnRegularityViolation) as exc:
        raise RegularityViolation(str(exc)) from exc


def inner(a, b) -> int:
    """Sum of the entries of the elementwise product of two arrays.

    Accepts IndicatorSquares (popcount of ANDed packed rows) or any
    same-shape integer arrays.
    """
    if isinstance(a, IndicatorSquare) and isinstance(b, IndicatorSquare):
        if a.params.n != b.params.n:
            raise DimensionMismatch("indicator squares have different sizes")
        return sum((ra & rb).bit_count() for ra, rb in zip(a.row_masks, b.row_masks))
    aa = a.to_array() if isinstance(a, IndicatorSquare) else np.asarray(a)
    bb = b.to_array() if isinstance(b, IndicatorSquare) else np.asarray(b)
    if aa.shape != bb.shape:
        raise DimensionMismatch(f"shape mismatch: {aa.shape} vs {bb.shape}")
    return int(np.sum(aa * bb))


def all_ones(params: Params) -> np.ndarray:
    """The all-ones array J of the side length given by ``params``."""
    return np.ones((params.n, params.n), dtype=np.int64)
