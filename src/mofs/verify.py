"""Orthogonality testing, MOFS-set validation, and completeness structure.

A set is its stack, ``MofsSet.grids``, and its FSquares are wrapped from it
on first use.  A MofsSet is verified on construction: its constructor is
the one place pairwise orthogonality and the size bound are checked, so
every set that exists is a MOFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from . import core
from .core import (
    FSquare,
    MofsError,
    Params,
    _ArrayValued,
    _as_grid,
    _indicator_rows,
    _symbol_type,
    _tile,
    _validate_regularity,
    _wrap,
)


class ParamMismatch(MofsError):
    pass


class UndefinedForMOne(MofsError):
    pass


class NotOrthogonal(MofsError):
    """Squares k and l (1-based) fail orthogonality at symbol pair (a, b)."""

    def __init__(self, k, l, a, b, count, expected):
        super().__init__(
            f"squares {k} and {l}: symbol pair ({a},{b}) occurs {count} times,"
            f" expected {expected}"
        )
        self.k = k
        self.l = l
        self.a = a
        self.b = b
        self.count = count
        self.expected = expected


@dataclass(frozen=True, eq=False)
class MofsSet(_ArrayValued):
    """A set of mutually orthogonal frequency squares with shared
    parameters, verified on construction and stored as its stack: ``grids``
    is a read-only (t, n, n) array of the narrowest unsigned type that
    holds the symbols 1..m (``core._symbol_type``), the dtype of every
    member's ``FSquare.grid``.

    The constructor copies the stack and checks its shape, every square's
    regularity, pairwise orthogonality and the size bound, raising the
    error :func:`verify_mofs` documents; so a MofsSet value is always a
    verified MOFS.  Equality and hashing are by value.
    """

    params: Params
    grids: np.ndarray

    def __post_init__(self):
        params = self.params
        grids = _as_grid(params, self.grids, stacked=True)
        # Before the narrowing cast, so an entry above m cannot wrap into range.
        rows = _validate_regularity(params, grids)
        grids = grids.astype(_symbol_type(params), copy=False)
        grids.flags.writeable = False
        object.__setattr__(self, "grids", grids)
        t = len(grids)
        if not t:
            raise MofsError("a MOFS set needs at least one square")
        # A set larger than the bound always has a failing pair with k below
        # the bound, and the kernel stops at the first row tile holding a
        # failure, so such a set costs O(bound * t) pair checks, not O(t^2).
        pair = _first_failing_pair(grids.reshape(t, -1), params, rows)
        if pair is not None:
            k, l = pair
            target = params.lam * params.lam
            counts = _superposition(grids[k], grids[l], params.m)
            a, b = np.argwhere(counts != target)[0]
            raise NotOrthogonal(
                k + 1, l + 1, int(a) + 1, int(b) + 1, int(counts[a, b]), target
            )
        if params.m >= 2:
            bound = upper_bound(params)
            if t > bound.value:
                raise MofsError(
                    f"impossible: {t} pairwise-orthogonal squares exceeds the"
                    f" bound {bound.value}"
                )

    @property
    def t(self) -> int:
        return len(self.grids)

    @cached_property
    def squares(self) -> tuple:
        """The members as FSquares, wrapped from ``grids`` on first use:
        their grids are views of one immutable copy of the stack's bytes,
        in its own narrow type, t n^2 itemsize bytes, which any member
        keeps alive."""
        return tuple(_wrap(self.params, self.grids.tobytes()))


@dataclass(frozen=True)
class UpperBound:
    """Floor of (m*lam - 1)^2 / (m - 1), with an exact-division flag."""

    value: int
    exact: bool


@dataclass(frozen=True)
class CompletenessReport:
    t: int
    bound: UpperBound
    is_complete: bool
    t_matrix: np.ndarray
    structure_matches: bool


def superposition_counts(s: FSquare, s2: FSquare) -> np.ndarray:
    """m x m matrix whose (j, j') entry counts cells where s=j and s2=j'."""
    if s.params != s2.params:
        raise ParamMismatch(f"{s.params} vs {s2.params}")
    return _superposition(s.grid, s2.grid, s.params.m)


def _superposition(grid, grid2, m: int) -> np.ndarray:
    codes = (grid.astype(np.intp) - 1) * m + (grid2 - 1)
    return np.bincount(codes.ravel(), minlength=m * m).reshape(m, m)


def orthogonal(s: FSquare, s2: FSquare) -> bool:
    """True iff every ordered symbol pair appears exactly lam^2 times
    in the superposition of ``s`` on ``s2``."""
    lam = s.params.lam
    return bool((superposition_counts(s, s2) == lam * lam).all())


def _hits(x: np.ndarray, rows: np.ndarray, params: Params) -> np.ndarray:
    """The one product site of the orthogonality kernel: a (len(x), len(rows))
    bool array, true where flattened 0/1 row i of ``x`` meets indicator row j
    in exactly lam^2 cells, ``x @ rows.T == lam^2``.

    Both take the indicator rows' float type (:func:`_indicator_rows`), in
    which the product is exact.  When ``rows`` is ``x`` itself, BLAS
    computes the product as a symmetric one.  On indicator rows of a MOFS
    the closed form of this Gram matrix is known: every entry is lam^2
    except each square's own r x r block against itself, which holds
    n lam on its diagonal and 0 off it (for m = 1 the one indicator is J,
    and that block is n^2 = lam^2 too)."""
    return x @ rows.T == params.lam**2


def _meets(x: np.ndarray, grids: np.ndarray, params: Params) -> np.ndarray:
    """The orthogonality kernel: a (len(x), t) bool array, true where
    flattened 0/1 row i of ``x`` meets every reduced indicator of square l
    of the t ``grids`` (see :func:`_indicator_rows`) in exactly lam^2 cells.

    For a row with lam ones in each row and column of the square, such as
    an indicator square, that is orthogonality to square l: its m products
    with I_1(S_l), ..., I_m(S_l) sum to n lam = m lam^2, so the product
    with I_1 is lam^2 too.  The products are :func:`_hits` of ``x``, cast
    once to the indicator rows' float type, against one tile of squares at
    a time (:func:`_tile`).  A tile's r symbols are joined by r - 1 in-place
    ANDs of strided views, which cost a fraction of a reduction over a
    length-r axis."""
    grids = grids.reshape(len(grids), -1)
    r, tile = max(params.m - 1, 1), _tile(params)
    out = np.empty((len(x), len(grids)), bool)
    for l0 in range(0, len(grids), tile):
        rows = _indicator_rows(grids[l0 : l0 + tile], params)
        x = x.astype(rows.dtype, copy=False)
        hit = _hits(x, rows, params).reshape(len(x), len(rows) // r, r)
        block = out[:, l0 : l0 + tile]
        np.copyto(block, hit[..., 0])
        for a in range(1, r):
            block &= hit[..., a]
    return out


def _first_failing_pair(grids: np.ndarray, params: Params, built=None):
    """0-based (k, l) of the lexicographically first non-orthogonal pair of
    the flattened regular ``grids`` (one square per row), or None when the
    set is pairwise orthogonal.  ``built`` is the set's indicator rows when
    the regularity check has them (a set of one block, see
    :func:`core._validate_regularity`), so that they are not built again.

    Each strip of a tile of squares (:func:`_tile`) has its indicator rows
    built once and multiplied (:func:`_hits`) by themselves, in one
    symmetric Gram product, and then by each later tile's; a set within
    the budget is one strip and one product, and no array grows with the
    number of squares.  For regular squares the reduced counts decide
    orthogonality: the row and column sums of the superposition counts
    force those of symbol 1.

    Each Gram block's verdict is one count against its closed form: a
    block of two tiles is all lam^2; the strip's own block is too, less its
    t_strip r^2 own-square entries (n lam or 0) when m >= 2.  Only a block
    whose count falls short is searched for its failing pairs, from the
    same boolean block.

    When one square's indicator rows alone exceed the budget
    (``core._BLOCK_ENTRIES``), none are built: each pair, in (k, l) order,
    is judged by its superposition counts instead, in O(n^2) memory.
    """
    t, r, tile = len(grids), max(params.m - 1, 1), _tile(params)
    if r * grids.shape[1] > core._BLOCK_ENTRIES:
        target = params.lam**2
        for k, l in combinations(range(t), 2):
            if (_superposition(grids[k], grids[l], params.m) != target).any():
                return k, l
        return None
    for k0 in range(0, t, tile):
        strip = _indicator_rows(grids[k0 : k0 + tile], params) if built is None else built
        # Each k's first failing l, t while none is found.  The strip is
        # scanned to its end before reporting, so a failure at a lower k in a
        # later column tile wins over a higher k in an earlier one; only a
        # failure of its first square, which no pair precedes, ends it early.
        first_l = np.full(len(strip) // r, t)
        for l0 in range(k0, t, tile):
            own = l0 == k0
            rows = strip if own else _indicator_rows(grids[l0 : l0 + tile], params)
            hit = _hits(strip, rows, params)
            expected = hit.size - (len(first_l) * r * r if own and params.m >= 2 else 0)
            if np.count_nonzero(hit) == expected:
                continue
            bad = ~hit.reshape(len(first_l), r, -1, r).all(axis=(1, 3))
            bad &= np.arange(l0, l0 + bad.shape[1]) > np.arange(k0, k0 + len(first_l))[:, None]
            first_l = np.where((first_l == t) & bad.any(axis=1), l0 + bad.argmax(axis=1), first_l)
            if first_l[0] < t:
                break
        if (first_l < t).any():
            k = int(np.argmax(first_l < t))
            return k0 + k, int(first_l[k])
    return None


def verify_mofs(squares) -> MofsSet:
    """Validate a list of FSquares as a MOFS set, or raise on the first
    failing pair (1-based indices in the error).

    The failure reported is the lexicographically first pair (k, l) and,
    within it, the first symbol pair (a, b) over 1..m.
    """
    squares = tuple(squares)
    if not squares:
        raise MofsError("a MOFS set needs at least one square")
    params = squares[0].params
    for s in squares[1:]:
        if s.params != params:
            raise ParamMismatch(f"{s.params} vs {params}")
    # MofsSet stacks the grids into its one private copy.
    return MofsSet(params, [s.grid for s in squares])


def upper_bound(params: Params) -> UpperBound:
    """Maximum possible size of a MOFS set of this type."""
    if params.m < 2:
        raise UndefinedForMOne("the bound's denominator m - 1 vanishes for m = 1")
    num = (params.n - 1) ** 2
    den = params.m - 1
    return UpperBound(num // den, num % den == 0)


def completeness_structure(mset: MofsSet) -> CompletenessReport:
    """Structural test for complete sets.

    After relabeling each square so its top-left symbol is 1, forms
    T = sum_k sum_{a>1} I_a(S_k) and checks the equality-case pattern:
    corner 0, first row/column lam*(m*lam - 1), interior lam*(m*lam - 2).
    A valid complete set must match; an incomplete set need not.
    """
    params = mset.params
    if params.m < 2:
        raise UndefinedForMOne("completeness is undefined for m = 1")
    lam, n, t = params.lam, params.n, mset.t
    g = mset.grids
    # Relabeled, sum over a > 1 of I_a is J minus the top-left symbol's cells.
    t_matrix = t - (g == g[:, :1, :1]).sum(axis=0, dtype=np.int64)
    border = lam * (n - 1)
    interior = lam * (n - 2)
    matches = (
        t_matrix[0, 0] == 0
        and (t_matrix[0, 1:] == border).all()
        and (t_matrix[1:, 0] == border).all()
        and (t_matrix[1:, 1:] == interior).all()
    )
    bound = upper_bound(params)
    return CompletenessReport(
        t=t,
        bound=bound,
        is_complete=bound.exact and t == bound.value,
        t_matrix=t_matrix,
        structure_matches=bool(matches),
    )
