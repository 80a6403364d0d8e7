import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mofs
from mofs.core import (
    ColumnRegularityViolation,
    DimensionMismatch,
    OverlappingSupports,
    RegularityViolation,
    RowRegularityViolation,
    SymbolOutOfRange,
    UncoveredCell,
)

from mofs.core import _tile, _validate_regularity

from conftest import (
    EXAMPLE_GRID,
    EXAMPLE_I1,
    EXAMPLE_I2,
    EXAMPLE_I3,
    blocks_of,
    corrupted_stacks,
    first_per_square_error,
    line_regularity_oracle,
)


def random_square(m, lam, seed):
    import random

    return mofs.random_fsquare(mofs.Params(m, lam), random.Random(seed))


def regularity_reference(params, grid):
    """First violation as (error class, row or column, symbol, count), found
    by a loop over the symbols: rows before columns, lowest index first."""
    for a in range(1, params.m + 1):
        mask = grid == a
        for error, counts in (
            (RowRegularityViolation, mask.sum(axis=1)),
            (ColumnRegularityViolation, mask.sum(axis=0)),
        ):
            for i, c in enumerate(counts):
                if c != params.lam:
                    return error, i, a, int(c)
    return None


params_strategy = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
)


class TestParams:
    def test_side_length(self):
        assert mofs.Params(3, 2).n == 6

    @pytest.mark.parametrize("m,lam", [(0, 1), (1, 0), (-2, 3)])
    def test_rejects_nonpositive(self, m, lam):
        with pytest.raises(mofs.MofsError):
            mofs.Params(m, lam)

    @pytest.mark.parametrize(
        "m,lam",
        [(2.0, 3), (2, 3.0), ("2", 1), (2, "1"), (True, 2), (2, False),
         (np.float64(2), 1), (np.True_, 1), (None, 1)],
    )
    def test_rejects_non_integers(self, m, lam):
        with pytest.raises(mofs.MofsError, match="must be an integer"):
            mofs.Params(m, lam)

    def test_numpy_integers_stored_as_int(self):
        p = mofs.Params(np.int64(2), np.uint8(3))
        assert p == mofs.Params(2, 3)
        assert hash(p) == hash(mofs.Params(2, 3))
        assert type(p.m) is int and type(p.lam) is int
        assert str(p) == "F(6;3)"


class TestMakeFSquare:
    def test_worked_example_is_valid(self, example_square):
        assert example_square.params == mofs.Params(3, 2)

    def test_order_two_latin_square(self):
        mofs.make_fsquare(mofs.Params(2, 1), [[1, 2], [2, 1]])

    def test_constant_columns_rejected(self):
        with pytest.raises(ColumnRegularityViolation) as exc:
            mofs.make_fsquare(
                mofs.Params(3, 1), [[1, 2, 3], [1, 2, 3], [1, 2, 3]]
            )
        assert exc.value.col == 0

    def test_bad_row_counts_rejected(self):
        with pytest.raises(RowRegularityViolation):
            mofs.make_fsquare(mofs.Params(2, 1), [[1, 1], [2, 2]])

    @pytest.mark.parametrize(
        "grid,error,fields",
        [
            # Symbol 1 only breaks column 1; symbol 2 breaks row 0.
            ([[2, 1, 2], [3, 1, 3], [1, 3, 3]], ColumnRegularityViolation, (1, 1, 2)),
            # Symbol 1 breaks column 0 and row 2: its rows come first.
            ([[2, 3, 1], [1, 2, 3], [1, 1, 2]], RowRegularityViolation, (2, 1, 2)),
        ],
    )
    def test_first_of_several_violations(self, grid, error, fields):
        with pytest.raises(error) as exc:
            mofs.make_fsquare(mofs.Params(3, 1), grid)
        e = exc.value
        index = e.row if error is RowRegularityViolation else e.col
        assert (index, e.symbol, e.count) == fields
        assert regularity_reference(mofs.Params(3, 1), np.array(grid)) == (
            error, *fields
        )

    @pytest.mark.parametrize("seed", range(60))
    def test_violation_matches_loop_reference(self, seed):
        import random

        rng = random.Random(seed)
        p = mofs.Params(rng.randint(2, 4), rng.randint(1, 3))
        grid = mofs.random_fsquare(p, rng).grid.copy()
        for _ in range(rng.randint(1, 4)):
            grid[rng.randrange(p.n), rng.randrange(p.n)] = rng.randint(1, p.m)
        expected = regularity_reference(p, grid)
        try:
            mofs.make_fsquare(p, grid)
        except (RowRegularityViolation, ColumnRegularityViolation) as e:
            index = e.row if isinstance(e, RowRegularityViolation) else e.col
            assert (type(e), index, e.symbol, e.count, e.expected) == (
                *expected,
                p.lam,
            )
        else:
            assert expected is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mofs.make_fsquare(mofs.Params(2, 1), [[1, 2, 1], [2, 1, 2]])

    def test_symbol_out_of_range(self):
        with pytest.raises(SymbolOutOfRange):
            mofs.make_fsquare(mofs.Params(2, 1), [[1, 3], [3, 1]])

    def test_grid_is_immutable(self, example_square):
        with pytest.raises(ValueError):
            example_square.grid[0, 0] = 2

    @pytest.mark.parametrize("name", ["grid", "params", "other"])
    def test_attributes_cannot_be_set(self, example_square, name):
        with pytest.raises(AttributeError, match="^FSquare is immutable$"):
            setattr(example_square, name, None)
        assert example_square.grid.tolist() == EXAMPLE_GRID

    def test_repr_names_params_and_grid(self):
        s = mofs.make_fsquare(mofs.Params(2, 1), [[1, 2], [2, 1]])
        assert repr(s) == "FSquare(F(2;1), [[1, 2], [2, 1]])"

    def test_caller_array_is_copied(self):
        p = mofs.Params(3, 2)
        arr = np.array(EXAMPLE_GRID, dtype=np.int64)
        s = mofs.make_fsquare(p, arr)
        key = hash(s)
        assert arr.flags.writeable
        assert not np.shares_memory(arr, s.grid)
        arr[0, 0] = 3  # the caller's array stays theirs to change
        assert s.grid.tolist() == EXAMPLE_GRID
        assert hash(s) == key
        assert s == mofs.make_fsquare(p, EXAMPLE_GRID)

    def test_fractional_entry_rejected(self):
        # Converting to int64 would truncate 1.5 to 1 and accept the grid.
        with pytest.raises(SymbolOutOfRange):
            mofs.make_fsquare(mofs.Params(2, 1), [[1, 2], [2, 1.5]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            mofs.make_fsquare(mofs.Params(2, 1), [[1, 2], [2]])

    @pytest.mark.parametrize("big", [2**63, 2**64, 99999999999999999999999])
    def test_entry_beyond_int64_rejected(self, big):
        with pytest.raises(SymbolOutOfRange):
            mofs.make_fsquare(mofs.Params(2, 1), [[1, 2], [2, big]])

    def test_huge_uint64_entry_named_unwrapped(self):
        grid = np.array([[1, 2], [2, 2**63]], dtype=np.uint64)
        with pytest.raises(SymbolOutOfRange, match=r"= 9223372036854775808 not"):
            mofs.make_fsquare(mofs.Params(2, 1), grid)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint64])
    def test_integer_dtypes_accepted(self, dtype):
        grid = np.array(EXAMPLE_GRID, dtype=dtype)
        s = mofs.make_fsquare(mofs.Params(3, 2), grid)
        # The narrowest unsigned type that holds m = 3, whatever the input.
        assert s.grid.dtype == np.uint8
        assert s.grid.tolist() == EXAMPLE_GRID


class TestStackValidator:
    @pytest.mark.parametrize("seed", range(8))
    def test_corrupted_stack_matches_per_square_check(self, seed):
        for params, stack in corrupted_stacks(seed):
            expected = first_per_square_error(params, stack)
            if expected is None:
                _validate_regularity(params, stack)
                continue
            k, error = expected
            with pytest.raises(type(error)) as exc:
                _validate_regularity(params, stack)
            assert str(exc.value) == str(error)
            # The squares before the first bad one pass on their own.
            _validate_regularity(params, stack[:k])

    @given(
        st.integers(1, 5),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(1, 3),
        st.booleans(),
        st.integers(0, 2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_line_oracle(self, m, lam, t, faults, huge, seed):
        # A corrupted cell gets another symbol, 0, m + 1, or a value no symbol
        # type holds: a negative int64, or a uint64 of 2^63 or more.  Or it
        # trades symbols with a cell of its row, which can break only columns.
        params, rng = mofs.Params(m, lam), random.Random(seed)
        stack = np.array([mofs.random_fsquare(params, rng).grid for _ in range(t)])
        stack = stack.astype(np.uint64 if huge else np.int64)
        wild = rng.randrange(2**63, 2**64) if huge else -rng.randrange(1, 2**63)
        for _ in range(faults):
            k, i, j, j2 = rng.randrange(t), *(rng.randrange(params.n) for _ in range(3))
            if rng.random() < 0.5:
                stack[k, i, [j, j2]] = stack[k, i, [j2, j]]
            else:
                stack[k, i, j] = rng.choice([*range(1, m + 1), 0, m + 1, wild])
        expected = line_regularity_oracle(params, stack)
        if expected is None:
            _validate_regularity(params, stack)
            return
        with pytest.raises(type(expected)) as exc:
            _validate_regularity(params, stack)
        assert str(exc.value) == str(expected)

    def test_later_chunk_is_checked(self, monkeypatch):
        mset = mofs.construct_prime_power(2, 4)
        params, stack = mset.params, mset.grids.copy()
        blocks_of(monkeypatch, params, 128)
        assert mset.t > _tile(params)
        stack[-1, 3, 5] = 3
        with pytest.raises(SymbolOutOfRange, match=r"entry \(3,5\) = 3 not in 1..2"):
            _validate_regularity(params, stack)

    def test_regularity_fault_before_out_of_range_square(self):
        p = mofs.Params(2, 1)
        stack = np.array([[[1, 2], [2, 1]], [[1, 1], [2, 2]], [[1, 9], [2, 1]]])
        with pytest.raises(RowRegularityViolation, match="row 0: symbol 1 occurs 2"):
            _validate_regularity(p, stack)

    @pytest.mark.parametrize("budget", [None, 32, 16])
    def test_lowest_symbol_of_several_is_reported(self, budget, monkeypatch):
        # Symbols 3 and 4 break row 0; symbol 2 breaks column 1 and row 2.
        # Symbol 1 is whole, so symbol 2's row comes first, counted with all
        # three symbols in one pass or, on a budget under one square's
        # hits, two symbols or one at a time.
        p = mofs.Params(4, 1)
        grid = np.array([[1, 2, 3, 3], [2, 3, 4, 1], [3, 2, 1, 2], [4, 1, 2, 3]])
        assert regularity_reference(p, grid) == (RowRegularityViolation, 2, 2, 2)
        if budget:
            monkeypatch.setattr(mofs.core, "_BLOCK_ENTRIES", budget)
        stack = np.array([np.roll(np.arange(1, 5), -i) for i in range(4)])[None]
        for bad in (grid[None], np.concatenate((stack, grid[None], grid[None, ::-1]))):
            with pytest.raises(RowRegularityViolation, match="row 2: symbol 2 occurs 2"):
                _validate_regularity(p, bad)

    def test_valid_stacks_pass(self):
        for mset in (mofs.construct_prime_power(2, 4), mofs.construct_prime_power(11, 1)):
            _validate_regularity(mset.params, mset.grids)
            _validate_regularity(mset.params, mset.grids[:0])


def _validation_outcome(params, stack):
    try:
        _validate_regularity(params, stack)
    except mofs.MofsError as exc:
        return type(exc), str(exc)
    return None


def _round_trip(mset):
    text = mofs.encode(mset)
    decoded = mofs.decode(text)
    squares = [sq.grid.tobytes() for sq in decoded.squares]
    return text, mofs.encode(decoded), decoded.grids.tobytes(), squares


class TestBlockBudget:
    """The block size changes no result of a batched pass: with one or
    three squares to a block, decode and encode, regularity faults, a set's
    squares and capped streams all give what the default budget gives."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_small_blocks_change_no_result(self, k, monkeypatch):
        config = mofs.SearchConfig(max_results=20)
        f42, f51 = mofs.Params(2, 2), mofs.Params(5, 1)
        start = mofs.verify_mofs([mofs.random_fsquare(f51, random.Random(0))])
        sets = [
            mofs.construct_federer(mofs.hadamard(12)),  # 121 x F(12;6)
            mofs.construct_prime_power(11, 1),  # 10 x F(11;1), two-digit symbols
        ]
        cases = [
            *((mset.params, lambda mset=mset: _round_trip(mset)) for mset in sets),
            *(
                (params, lambda params=params, stack=stack: _validation_outcome(params, stack))
                for params, stack in corrupted_stacks(7)
            ),
            (f42, lambda: [sq.grid.tobytes() for sq in mofs.enumerate_fsquares(f42, config)]),
            (f51, lambda: [sq.grid.tobytes() for sq in mofs.extensions(start, config)]),
        ]
        want = [run() for _, run in cases]
        assert any(want[len(sets) : -2]) and len(want[-1]) == 20
        for (params, run), expected in zip(cases, want):
            blocks_of(monkeypatch, params, k)
            assert run() == expected


class TestIndicator:
    def test_worked_example_indicators(self, example_square):
        stack = mofs.indicators(example_square)
        assert stack.shape == (3, 6, 6)
        expected = [EXAMPLE_I1, EXAMPLE_I2, EXAMPLE_I3]
        for a, (got, want) in enumerate(zip(stack, expected), start=1):
            assert (mofs.indicator(example_square, a) == np.array(want)).all()
            assert (got == np.array(want)).all()

    def test_read_only_int64(self, example_square):
        # Indicators are int64, so sums and a * I_a cannot wrap; the grid
        # they come from is in the narrow symbol type.
        assert example_square.grid.dtype == np.uint8
        for arr in (mofs.indicator(example_square, 1), mofs.indicators(example_square)):
            assert arr.dtype == np.int64
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1

    def test_indicators_sum_to_ones(self, example_square):
        total = sum(mofs.indicators(example_square))
        assert (total == 1).all()

    def test_weighted_sum_recovers_grid(self, example_square):
        acc = sum(a * mofs.indicator(example_square, a) for a in (1, 2, 3))
        assert (acc == example_square.grid).all()

    def test_row_and_column_sums_are_lam(self, example_square):
        ind = mofs.indicator(example_square, 2)
        assert ind.sum(axis=1).tolist() == [2] * 6
        assert ind.sum(axis=0).tolist() == [2] * 6

    def test_symbol_out_of_range(self, example_square):
        with pytest.raises(SymbolOutOfRange):
            mofs.indicator(example_square, 4)


class TestReconstruct:
    def test_worked_example_round_trip(self, example_square):
        rebuilt = mofs.reconstruct(mofs.indicators(example_square))
        assert rebuilt == example_square

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.uint64])
    def test_other_dtypes(self, example_square, dtype):
        inds = mofs.indicators(example_square).astype(dtype)
        assert mofs.reconstruct(inds) == example_square

    def test_single_symbol(self):
        p = mofs.Params(1, 3)
        square = mofs.make_fsquare(p, np.ones((3, 3), dtype=int))
        assert mofs.reconstruct(mofs.indicators(square)) == square

    def test_overlapping_supports(self, example_square):
        i1 = mofs.indicator(example_square, 1)
        with pytest.raises(OverlappingSupports):
            mofs.reconstruct([i1, i1, mofs.indicator(example_square, 3)])

    def test_uncovered_cell(self, example_square):
        i1 = mofs.indicator(example_square, 1)
        i2 = mofs.indicator(example_square, 2)
        empty = np.zeros((6, 6), dtype=np.int64)
        with pytest.raises(UncoveredCell):
            mofs.reconstruct([i1, i2, empty])

    def test_irregular_result_rejected(self):
        # Disjoint covering masks that do not form an F-square.
        p = mofs.Params(2, 1)
        a = np.array([[1, 1], [0, 0]])
        b = np.array([[0, 0], [1, 1]])
        with pytest.raises(RegularityViolation):
            mofs.reconstruct([a, b])

    def test_first_faulty_row_wins(self):
        # Row 0 leaves cell (0,1) uncovered; row 1 overlaps at (1,0).
        a = np.array([[1, 0], [1, 0]])
        b = np.array([[0, 0], [1, 1]])
        with pytest.raises(UncoveredCell, match=r"\(0,1\)"):
            mofs.reconstruct([a, b])
        # In one row an overlap is reported before an uncovered cell.
        with pytest.raises(OverlappingSupports, match="row 1"):
            mofs.reconstruct([np.array([[1, 0], [1, 0]]), np.array([[0, 1], [1, 0]])])

    @pytest.mark.parametrize(
        "inds,error",
        [
            ([], DimensionMismatch),
            ([np.ones((2, 2), int), np.ones((3, 3), int)], DimensionMismatch),
            (np.ones((2, 2, 3), int), DimensionMismatch),
            ([[0, 1], [1, 0]], DimensionMismatch),
            (np.zeros((4, 6, 6), int), DimensionMismatch),
            ([np.eye(2, dtype=int), 2 * np.eye(2, dtype=int)], SymbolOutOfRange),
            ([np.eye(2, dtype=int), -np.eye(2, dtype=int)], SymbolOutOfRange),
            ([np.eye(2), 1 - np.eye(2)], SymbolOutOfRange),
        ],
        ids=[
            "empty", "ragged", "non-square", "not-a-stack", "side-not-multiple",
            "entry-2", "entry-minus-1", "float",
        ],
    )
    def test_malformed_input_rejected(self, inds, error):
        with pytest.raises(error):
            mofs.reconstruct(inds)

    @given(params_strategy, st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, ml, seed):
        m, lam = ml
        s = random_square(m, lam, seed)
        assert mofs.reconstruct(mofs.indicators(s)) == s


class TestInner:
    def test_example_values(self, example_square):
        i1 = mofs.indicator(example_square, 1)
        i2 = mofs.indicator(example_square, 2)
        j = mofs.all_ones(example_square.params)
        assert mofs.inner(i1, j) == 12  # m * lam^2
        assert mofs.inner(i1, i1) == 12
        assert mofs.inner(i1, i2) == 0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mofs.inner(np.ones((2, 2)), np.ones((3, 3)))

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (np.array([[100, -100]], np.int8), np.array([[100, 100]], np.int8), 0),
            (np.array([[100]], np.int8), np.array([[100]], np.int8), 10_000),
            (np.array([[200]], np.uint8), np.array([[200]], np.uint8), 40_000),
            (np.ones((300, 300), bool), np.ones((300, 300), bool), 90_000),
            (np.ones((1, 2), bool), np.array([[200, 200]], np.uint8), 400),
        ],
    )
    def test_small_dtypes_do_not_wrap(self, a, b, expected):
        assert mofs.inner(a, b) == expected

    @given(params_strategy, st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_superposition_counts(self, ml, seed):
        # The paper's algebra, <I_a(S), I_b(S')>, against the kernel's counts.
        m, lam = ml
        s, s2 = random_square(m, lam, seed), random_square(m, lam, seed + 1)
        counts = mofs.superposition_counts(s, s2)
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                got = mofs.inner(mofs.indicator(s, a), mofs.indicator(s2, b))
                assert got == counts[a - 1, b - 1]

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_symmetric_and_bilinear(self, seed, c1, c2):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 5, size=(4, 4))
        b = rng.integers(0, 5, size=(4, 4))
        c = rng.integers(0, 5, size=(4, 4))
        assert mofs.inner(a, b) == mofs.inner(b, a)
        assert mofs.inner(a, c1 * b + c2 * c) == c1 * mofs.inner(
            a, b
        ) + c2 * mofs.inner(a, c)

    @given(params_strategy, st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_indicator_norm_identity(self, ml, seed):
        m, lam = ml
        s = random_square(m, lam, seed)
        j = mofs.all_ones(s.params)
        for a in range(1, m + 1):
            ind = mofs.indicator(s, a)
            assert mofs.inner(ind, ind) == m * lam * lam
            assert mofs.inner(ind, j) == m * lam * lam
