import random

import numpy as np
import pytest

import mofs
from mofs import core
from mofs.core import _validate_regularity

# The worked F(6;2) example used throughout the golden-vector tests.
EXAMPLE_GRID = [
    [1, 2, 3, 1, 2, 3],
    [3, 1, 2, 3, 2, 1],
    [2, 3, 1, 2, 1, 3],
    [1, 1, 2, 3, 3, 2],
    [3, 3, 1, 2, 1, 2],
    [2, 2, 3, 1, 3, 1],
]

EXAMPLE_I1 = [
    [1, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 0, 1],
    [0, 0, 1, 0, 1, 0],
    [1, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 1, 0],
    [0, 0, 0, 1, 0, 1],
]

EXAMPLE_I2 = [
    [0, 1, 0, 0, 1, 0],
    [0, 0, 1, 0, 1, 0],
    [1, 0, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 1],
    [0, 0, 0, 1, 0, 1],
    [1, 1, 0, 0, 0, 0],
]

EXAMPLE_I3 = [
    [0, 0, 1, 0, 0, 1],
    [1, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 0, 1],
    [0, 0, 0, 1, 1, 0],
    [1, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 1, 0],
]

# Three cyclic order-3 Latin squares whose symbol-1 indicators sum to the
# all-ones matrix (the constant-relation counterexample).
CYCLIC_TRIPLE = [
    [[1, 2, 3], [3, 1, 2], [2, 3, 1]],
    [[2, 3, 1], [1, 2, 3], [3, 1, 2]],
    [[3, 1, 2], [2, 3, 1], [1, 2, 3]],
]


def blocks_of(monkeypatch, params, k):
    """Shrink the one block budget until squares of this type go ``k`` to a
    block, so that small sets span several blocks of every batched pass:
    regularity, file I/O, stream batches and the orthogonality kernel."""
    r = max(params.m - 1, 1)
    budget = max(k * r * params.n**2, (k * r) ** 2)
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", budget)
    assert core._tile(params) == k


@pytest.fixture
def example_square():
    return mofs.make_fsquare(mofs.Params(3, 2), EXAMPLE_GRID)


def unverified_set(params, grids):
    """A MofsSet of a regular (t, n, n) stack that need not be pairwise
    orthogonal, made without the constructor, which would refuse it."""
    stack = np.array(grids)
    _validate_regularity(params, stack)
    stack = stack.astype(np.min_scalar_type(params.m))
    stack.flags.writeable = False
    mset = object.__new__(mofs.MofsSet)
    object.__setattr__(mset, "params", params)
    object.__setattr__(mset, "grids", stack)
    return mset


@pytest.fixture
def cyclic_triple_set():
    # Not pairwise orthogonal (the three are cyclic shifts of each other);
    # the parity machinery only needs F-squares, so skip the constructor.
    p = mofs.Params(3, 1)
    return unverified_set(p, CYCLIC_TRIPLE)


@pytest.fixture(scope="session")
def federer4():
    return mofs.construct_federer(mofs.hadamard(4))


@pytest.fixture(scope="session")
def federer64():
    """The complete set of 3969 F(64;32) squares, 16 MB of grids."""
    return mofs.construct_federer(mofs.hadamard(64))


@pytest.fixture(scope="session")
def workload_complete_sets():
    """The three complete sets of the benchmark's complete-sets workload."""
    return {
        "pp33": mofs.construct_prime_power(3, 3),  # 338 x F(27;9)
        "pp52": mofs.construct_prime_power(5, 2),  # 144 x F(25;5)
        "federer24": mofs.construct_federer(mofs.hadamard(24)),  # 529 x F(24;12)
    }


def hand_built_sets():
    """Unverified sets of random squares, built by :func:`unverified_set`, over
    several types (the last needs two bytes per symbol), as pytest params."""
    rng = random.Random(2024)
    types = [(2, 1, 3), (2, 3, 5), (3, 2, 4), (4, 1, 7), (5, 2, 2), (256, 1, 3)]
    out = []
    for m, lam, t in types:
        p = mofs.Params(m, lam)
        squares = tuple(mofs.random_fsquare(p, rng) for _ in range(t))
        grids = np.array([s.grid for s in squares])
        out.append(pytest.param(unverified_set(p, grids), id=f"{p}x{t}"))
    return out


def naive_fsquares(params):
    """Filter oracle: every n x n grid over 1..m, kept iff regular.

    Deliberately independent of the library's enumeration; only usable
    for tiny types.
    """
    from itertools import product

    m, lam, n = params.m, params.lam, params.n
    out = []
    for cells in product(range(1, m + 1), repeat=n * n):
        grid = np.array(cells, dtype=np.int64).reshape(n, n)
        ok = True
        for a in range(1, m + 1):
            mask = grid == a
            if (mask.sum(axis=0) != lam).any() or (mask.sum(axis=1) != lam).any():
                ok = False
                break
        if ok:
            out.append(grid)
    return out


def row_stack_fsquares(params):
    """Filter oracle for types beyond :func:`naive_fsquares`: every stack of
    n regular rows, in lexicographic order, kept iff its columns are
    regular.  Independent of the library; F(4;1) has 331 776 stacks."""
    from itertools import product

    m, lam, n = params.m, params.lam, params.n
    rows = np.array(
        [
            r
            for r in product(range(1, m + 1), repeat=n)
            if all(r.count(a) == lam for a in range(1, m + 1))
        ],
        dtype=np.int64,
    )
    # Row indices of every stack, the first row varying slowest.
    grids = rows[np.indices((len(rows),) * n).reshape(n, -1).T]
    ok = np.ones(len(grids), dtype=bool)
    for a in range(1, m + 1):
        ok &= ((grids == a).sum(axis=1) == lam).all(axis=1)
    return grids[ok]


def per_square_regularity_check(params, arr):
    """The per-square regularity check that the stack validator replaced,
    kept as its reference: raises the error of the square's first fault."""
    from mofs.core import (
        ColumnRegularityViolation,
        RowRegularityViolation,
        SymbolOutOfRange,
    )

    m, lam, n = params.m, params.lam, params.n
    bad = (arr < 1) | (arr > m)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise SymbolOutOfRange(f"entry ({i},{j}) = {arr[i, j]} not in 1..{m}")
    # counts[i, a - 1]: occurrences of symbol a in row (column) i.
    index = np.arange(n) * m
    sym = arr.astype(np.int64, copy=False) - 1
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


def line_regularity_oracle(params, stack):
    """The error the stack validator must raise for ``stack``, or None, by
    plain Python over its lines: in the first faulty square, its first entry
    outside 1..m in row-major order, else the lowest symbol that some row,
    then some column, holds other than lam times, the lowest such line."""
    from mofs.core import (
        ColumnRegularityViolation,
        RowRegularityViolation,
        SymbolOutOfRange,
    )

    m, lam = params.m, params.lam
    for grid in np.asarray(stack).tolist():
        for i, row in enumerate(grid):
            for j, value in enumerate(row):
                if not 1 <= value <= m:
                    return SymbolOutOfRange(f"entry ({i},{j}) = {value} not in 1..{m}")
        columns = [list(column) for column in zip(*grid)]
        for a in range(1, m + 1):
            for lines, error in (
                (grid, RowRegularityViolation),
                (columns, ColumnRegularityViolation),
            ):
                for i, line in enumerate(lines):
                    if line.count(a) != lam:
                        return error(i, a, line.count(a), lam)
    return None


def first_per_square_error(params, stack):
    """(index, error) of the first square of ``stack`` that the per-square
    check rejects, or None."""
    for k, arr in enumerate(stack):
        try:
            per_square_regularity_check(params, arr)
        except mofs.MofsError as exc:
            return k, exc
    return None


def corrupted_stacks(seed, count=12):
    """(params, stack) pairs: constructed complete sets as int64 stacks with
    one to three cells of random squares set to a random other value."""
    rng = random.Random(seed)
    sets = [
        mofs.construct_prime_power(3, 2),  # 32 x F(9;3)
        mofs.construct_prime_power(11, 1),  # 10 x F(11;1), two-digit symbols
        mofs.construct_prime_power(2, 4),  # 225 x F(16;8)
        mofs.construct_federer(mofs.hadamard(12)),  # 121 x F(12;6)
    ]
    out = []
    for _ in range(count):
        mset = rng.choice(sets)
        m, n = mset.params.m, mset.params.n
        stack = mset.grids.astype(np.int64)
        for _ in range(rng.randint(1, 3)):
            k, i, j = rng.randrange(mset.t), rng.randrange(n), rng.randrange(n)
            values = [v for v in (0, *range(1, m + 1), m + 1, -1) if v != stack[k, i, j]]
            stack[k, i, j] = rng.choice(values)
        out.append((mset.params, stack))
    return out


def naive_superposition(g1, g2, m):
    """Direct cell count of ordered symbol pairs."""
    counts = np.zeros((m, m), dtype=np.int64)
    n = len(g1)
    for i in range(n):
        for j in range(n):
            counts[g1[i][j] - 1, g2[i][j] - 1] += 1
    return counts


def brute_force_full_relation(bits):
    """Exhaustive search for the complementary 0/J block form.

    Permuting rows and columns into the block shape is the same as
    choosing the set of left columns C and top rows R; R is forced by C,
    so trying every C covers every permutation.  Returns a set of valid
    (x, y) pairs under the canonical orientation, empty if none.
    """
    bits = np.asarray(bits)
    n = bits.shape[0]
    found = set()
    for cmask in range(1 << n):
        cols = [j for j in range(n) if cmask >> j & 1]
        other = [j for j in range(n) if not (cmask >> j & 1)]
        top = []
        bottom = []
        ok = True
        for i in range(n):
            row = bits[i]
            if all(row[j] == 0 for j in cols) and all(row[j] == 1 for j in other):
                top.append(i)
            elif all(row[j] == 1 for j in cols) and all(row[j] == 0 for j in other):
                bottom.append(i)
            else:
                ok = False
                break
        if not ok or len(top) + len(bottom) != n:
            continue
        x, y = len(top), len(cols)
        if x in (0, n) and y in (0, n):
            continue
        if (x, y) > (n - x, n - y):
            x, y = n - x, n - y
        found.add((x, y))
    return found


def loop_row_reduce(system, p):
    """Oracle for ``search._row_reduce``: a column-at-a-time Gauss-Jordan
    loop on a system [A | b] that swaps up the largest residue of each
    column, where ``_row_reduce`` takes the first.  It needs at least one
    row.

    Gauss-Jordan elimination of ``system`` modulo the prime ``p``:
    (pivot columns, reduced rows on them), or None when the system has no
    solution mod p.  Residues stay below 2^31, so products fit an int64."""
    a = system % p
    pivots, r = [], 0
    for j in range(a.shape[1] - 1):
        k = r + int(a[r:, j].argmax())
        if not a[k, j]:
            continue
        a[[r, k]] = a[[k, r]]
        a[r] = a[r] * pow(int(a[r, j]), -1, p) % p
        hit = np.flatnonzero(a[:, j])
        hit = hit[hit != r]
        a[hit] = (a[hit] - a[hit, j, None] * a[r]) % p
        pivots.append(j)
        r += 1
        if r == len(a):
            break
    if a[r:, -1].any():
        return None
    return pivots, a[:r]
