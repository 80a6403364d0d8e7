import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mofs
from mofs import core, verify
from mofs.core import DimensionMismatch, SymbolOutOfRange, _tile
from mofs.search import SearchConfig
from mofs.verify import (
    NotOrthogonal,
    ParamMismatch,
    UndefinedForMOne,
    _indicator_rows,
    _meets,
)

from conftest import blocks_of, corrupted_stacks, hand_built_sets, naive_superposition


def permute_symbols(s, perm):
    """Apply a symbol permutation (1-based tuple) to a square."""
    grid = np.array([[perm[v - 1] for v in row] for row in s.grid])
    return mofs.make_fsquare(s.params, grid)


class TestSuperpositionCounts:
    def test_self_superposition_is_diagonal(self):
        s = mofs.make_fsquare(mofs.Params(2, 1), [[1, 2], [2, 1]])
        counts = mofs.superposition_counts(s, s)
        # Diagonal m*lam^2 entries, zero off-diagonal: never all lam^2.
        assert (counts == np.array([[2, 0], [0, 2]])).all()

    def test_order3_mols_counts_all_one(self):
        mols = mofs.construct_prime_power(3, 1)
        s1, s2 = mols.squares
        # Independent oracle: direct count over the nine cells.
        oracle = naive_superposition(s1.grid, s2.grid, 3)
        assert (oracle == 1).all()
        assert (mofs.superposition_counts(s1, s2) == oracle).all()

    def test_transpose_symmetry(self):
        rng = random.Random(7)
        p = mofs.Params(3, 2)
        s1 = mofs.random_fsquare(p, rng)
        s2 = mofs.random_fsquare(p, rng)
        c12 = mofs.superposition_counts(s1, s2)
        c21 = mofs.superposition_counts(s2, s1)
        assert (c12 == c21.T).all()
        assert c12.sum() == p.n**2

    def test_param_mismatch(self):
        s1 = mofs.make_fsquare(mofs.Params(2, 1), [[1, 2], [2, 1]])
        s2 = mofs.random_fsquare(mofs.Params(2, 2), random.Random(0))
        with pytest.raises(ParamMismatch):
            mofs.superposition_counts(s1, s2)


class TestOrthogonal:
    def test_self_never_orthogonal_for_m_ge_2(self):
        s = mofs.random_fsquare(mofs.Params(3, 2), random.Random(1))
        assert not mofs.orthogonal(s, s)

    def test_mols3_pair(self):
        s1, s2 = mofs.construct_prime_power(3, 1).squares
        assert mofs.orthogonal(s1, s2)
        assert mofs.orthogonal(s2, s1)

    def test_m1_self_orthogonal(self):
        p = mofs.Params(1, 2)
        s = mofs.make_fsquare(p, np.ones((2, 2), dtype=int))
        assert mofs.orthogonal(s, s)

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.permutations(list(range(1, 4))),
        st.permutations(list(range(1, 4))),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_symbol_permutations(self, seed, perm1, perm2):
        rng = random.Random(seed)
        p = mofs.Params(3, 1)
        s1 = mofs.random_fsquare(p, rng)
        s2 = mofs.random_fsquare(p, rng)
        base = mofs.orthogonal(s1, s2)
        assert (
            mofs.orthogonal(
                permute_symbols(s1, tuple(perm1)), permute_symbols(s2, tuple(perm2))
            )
            == base
        )


class TestVerifyMofs:
    def test_federer4_is_valid(self, federer4):
        assert federer4.t == 9

    def test_singleton(self):
        s = mofs.make_fsquare(mofs.Params(2, 1), [[1, 2], [2, 1]])
        assert mofs.verify_mofs([s]).t == 1

    def test_duplicate_square_fails(self):
        s = mofs.make_fsquare(mofs.Params(2, 1), [[1, 2], [2, 1]])
        with pytest.raises(NotOrthogonal) as exc:
            mofs.verify_mofs([s, s])
        assert (exc.value.k, exc.value.l) == (1, 2)

    def test_reports_first_failing_pair(self, federer4):
        squares = list(federer4.squares)
        squares.append(squares[2])
        with pytest.raises(NotOrthogonal) as exc:
            mofs.verify_mofs(squares)
        assert (exc.value.k, exc.value.l) == (3, 10)

    def test_param_mismatch(self):
        s1 = mofs.make_fsquare(mofs.Params(2, 1), [[1, 2], [2, 1]])
        s2 = mofs.random_fsquare(mofs.Params(2, 2), random.Random(0))
        with pytest.raises(ParamMismatch):
            mofs.verify_mofs([s1, s2])

    def test_empty_rejected(self):
        with pytest.raises(mofs.MofsError):
            mofs.verify_mofs([])


class TestHostileStack:
    def test_copies_of_one_square_refused_quickly_under_a_memory_cap(self):
        # The first strip meets every later square, so its Gram blocks must
        # stay within the budget however many squares follow.
        script = textwrap.dedent(
            """
            import resource, time
            import numpy as np
            import mofs
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, hard))
            grids = np.broadcast_to(np.array([[1, 2], [2, 1]]), (100_000, 2, 2))
            start = time.perf_counter()
            try:
                mofs.MofsSet(mofs.Params(2, 1), grids)
            except mofs.NotOrthogonal as exc:
                print(time.perf_counter() - start, exc.k, exc.l)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(mofs.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        seconds, k, l = done.stdout.split()
        assert (k, l) == ("1", "2")
        assert float(seconds) < 1, seconds


def brute_force_first_failure(squares):
    """(k, l, a, b, count), 1-based, of the first failing pair by a direct
    scan over every pair's superposition counts."""
    target = squares[0].params.lam ** 2
    for k in range(len(squares)):
        for l in range(k + 1, len(squares)):
            counts = mofs.superposition_counts(squares[k], squares[l])
            bad = np.argwhere(counts != target)
            if len(bad):
                a, b = bad[0]
                return k + 1, l + 1, a + 1, b + 1, counts[a, b]
    return None


@pytest.fixture(scope="module")
def multi_tile_sets():
    """Complete sets larger than two 64-square tiles of the orthogonality
    kernel (see :func:`conftest.blocks_of`)."""
    return {
        "federer12": mofs.construct_federer(mofs.hadamard(12)).squares,  # 121, m = 2
        "pp33": mofs.construct_prime_power(3, 3).squares,  # 338, m = 3
    }


class TestKernelAgainstBruteForce:
    @pytest.mark.parametrize("name", ["federer12", "pp33"])
    def test_first_failure_over_the_whole_row_strip(self, multi_tile_sets, name, monkeypatch):
        squares = list(multi_tile_sets[name])
        blocks_of(monkeypatch, squares[0].params, 64)
        # (6, 101) fails in the second column tile; (11, 21) has a larger k
        # but sits in the first column tile.
        squares[100] = squares[5]
        squares[20] = squares[10]
        with pytest.raises(NotOrthogonal) as exc:
            mofs.verify_mofs(squares)
        e = exc.value
        assert (e.k, e.l, e.a, e.b, e.count) == brute_force_first_failure(squares)
        assert (e.k, e.l) == (6, 101)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_replacements(self, multi_tile_sets, seed):
        rng = random.Random(seed)
        squares = list(multi_tile_sets["federer12" if seed % 2 else "pp33"])
        for _ in range(3):
            squares[rng.randrange(len(squares))] = mofs.random_fsquare(
                squares[0].params, rng
            )
        expected = brute_force_first_failure(squares)
        with pytest.raises(NotOrthogonal) as exc:
            mofs.verify_mofs(squares)
        e = exc.value
        assert (e.k, e.l, e.a, e.b, e.count) == expected
        assert e.expected == squares[0].params.lam ** 2

    def test_orthogonal_matches_counts_on_random_pairs(self, multi_tile_sets):
        rng = random.Random(11)
        pairs = [
            (mofs.random_fsquare(p, rng), mofs.random_fsquare(p, rng))
            for p in (mofs.Params(m, lam) for m in (1, 2, 3, 4) for lam in (1, 2, 3))
            for _ in range(5)
        ]
        complete = multi_tile_sets["pp33"]
        pairs += [tuple(rng.sample(complete, 2)) for _ in range(10)]
        verdicts = set()
        for s1, s2 in pairs:
            expected = bool(
                (mofs.superposition_counts(s1, s2) == s1.params.lam**2).all()
            )
            verdicts.add(expected)
            assert mofs.orthogonal(s1, s2) == expected
        assert verdicts == {False, True}

    def test_whole_sets_verify(self, multi_tile_sets):
        for squares in multi_tile_sets.values():
            assert mofs.verify_mofs(squares).t == len(squares)


def relabelled(grid, m, rng):
    """``grid`` under a random non-identity permutation of its symbols: a
    square that fails orthogonality against ``grid`` and meets every square
    that ``grid`` meets."""
    identity = list(range(1, m + 1))
    perm = identity
    while perm == identity:
        perm = rng.sample(identity, m)
    return np.array(perm)[np.asarray(grid) - 1]


@pytest.fixture(scope="module")
def small_complete_sets():
    """Complete sets for r = m - 1 of 1, 2 and 3 (see :func:`_indicator_rows`)."""
    return {
        "federer8": mofs.construct_federer(mofs.hadamard(8)),  # 49 x F(8;4)
        "pp32": mofs.construct_prime_power(3, 2),  # 32 x F(9;3)
        "pp42": mofs.construct_prime_power(4, 2),  # 75 x F(16;4)
    }


def failing_pair(where, block, t):
    """0-based (k, l) of a pair in the strip's own block (``diagonal``), in
    a block of two tiles (``off-diagonal``, which at the default budget is
    the one block too), or ending at the last square."""
    if where == "diagonal":
        return (block, 2 * block - 1) if block else (1, t // 2)
    if where == "off-diagonal":
        return 1, t - 2
    return t // 2, t - 1


class TestVerdictAgainstLocator:
    """Each Gram block's verdict is one count against its closed form, and
    only a block that falls short is searched: the failure reported must
    still be the brute-force oracle's, whatever block holds it."""

    @pytest.mark.parametrize(
        "where,block",
        [
            (where, block)
            for where in ("diagonal", "off-diagonal", "last")
            for block in (None, 1, 2, 3)
            if (where, block) != ("diagonal", 1)  # a 1-square block has no pair
        ],
    )
    @pytest.mark.parametrize("name", ["federer8", "pp32", "pp42"])
    def test_the_only_failure(self, small_complete_sets, name, where, block, monkeypatch):
        mset = small_complete_sets[name]
        params, t = mset.params, mset.t
        if block:
            blocks_of(monkeypatch, params, block)
        k, l = failing_pair(where, block, t)
        squares = list(mset.squares)
        rng = random.Random(f"{name}-{where}-{block}")
        squares[l] = mofs.make_fsquare(params, relabelled(squares[k].grid, params.m, rng))
        with pytest.raises(NotOrthogonal) as exc:
            mofs.MofsSet(params, np.array([s.grid for s in squares]))
        e = exc.value
        assert (e.k, e.l, e.a, e.b, e.count) == brute_force_first_failure(squares)
        assert (e.k, e.l) == (k + 1, l + 1)

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_several_failures(self, small_complete_sets, seed, block, monkeypatch):
        rng = random.Random(seed)
        mset = small_complete_sets[rng.choice(sorted(small_complete_sets))]
        params = mset.params
        blocks_of(monkeypatch, params, block)
        squares = list(mset.squares)
        for _ in range(2):
            k, l = sorted(rng.sample(range(mset.t), 2))
            squares[l] = mofs.make_fsquare(params, relabelled(squares[k].grid, params.m, rng))
        with pytest.raises(NotOrthogonal) as exc:
            mofs.MofsSet(params, np.array([s.grid for s in squares]))
        e = exc.value
        assert (e.k, e.l, e.a, e.b, e.count) == brute_force_first_failure(squares)

    @pytest.mark.parametrize("name", ["federer8", "pp32", "pp42"])
    def test_gram_matrix_has_the_closed_form(self, small_complete_sets, name):
        # lam^2 everywhere but each square's own r x r block: n lam on its
        # diagonal, 0 off it.
        mset = small_complete_sets[name]
        p, t, r = mset.params, mset.t, mset.params.m - 1
        rows = _indicator_rows(mset.grids.reshape(t, -1), p)
        gram = (rows @ rows.T).reshape(t, r, t, r)
        own = np.eye(t, dtype=bool)[:, None, :, None]
        want = np.where(own, p.n * p.lam * np.eye(r)[None, :, None, :], p.lam**2)
        assert np.array_equal(gram, want)
        assert np.count_nonzero(verify._hits(rows, rows, p)) == (t * r) ** 2 - t * r * r

    @pytest.mark.parametrize("block", [None, 1, 2, 3])
    @pytest.mark.parametrize("name", ["federer8", "pp32", "pp42"])
    def test_passing_set_multiplies_each_block_once(
        self, small_complete_sets, name, block, monkeypatch
    ):
        mset = small_complete_sets[name]
        if block:
            blocks_of(monkeypatch, mset.params, block)
        blocks = -(-mset.t // _tile(mset.params))
        calls, hits = [], verify._hits
        monkeypatch.setattr(
            verify, "_hits", lambda x, rows, params: calls.append(1) or hits(x, rows, params)
        )
        assert mofs.MofsSet(mset.params, mset.grids).t == mset.t
        assert len(calls) == blocks * (blocks + 1) // 2

    @pytest.mark.parametrize("block", [None, 1, 2, 3])
    def test_copies_of_the_one_m1_square_verify(self, block, monkeypatch):
        # The one F(3;3) square meets itself in n^2 = lam^2 cells, so every
        # entry of every Gram block, its own included, is lam^2.
        params = mofs.Params(1, 3)
        if block:
            blocks_of(monkeypatch, params, block)
        assert mofs.MofsSet(params, np.ones((7, 3, 3), int)).t == 7


def below_one_square(monkeypatch, params):
    """Shrink the block budget below one square's reduced indicator rows
    (see :func:`conftest.blocks_of`), so that verification judges each pair
    by its superposition counts and never builds indicator rows."""
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", max(params.m - 1, 1) * params.n**2 - 1)

    def refuse(*args):
        raise AssertionError("indicator rows built for a square over the budget")

    monkeypatch.setattr(verify, "_indicator_rows", refuse)


class TestSquaresOverTheBudget:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", ["federer8", "pp32", "pp42"])
    def test_corrupted_sets_fail_like_the_oracle(
        self, small_complete_sets, name, seed, monkeypatch
    ):
        mset = small_complete_sets[name]
        params, rng = mset.params, random.Random(f"{name}-{seed}")
        squares = list(mset.squares)
        for _ in range(2):
            k, l = sorted(rng.sample(range(mset.t), 2))
            squares[l] = mofs.make_fsquare(params, relabelled(squares[k].grid, params.m, rng))
        squares[rng.randrange(mset.t)] = mofs.random_fsquare(params, rng)
        below_one_square(monkeypatch, params)
        with pytest.raises(NotOrthogonal) as exc:
            mofs.verify_mofs(squares)
        e = exc.value
        assert (e.k, e.l, e.a, e.b, e.count) == brute_force_first_failure(squares)
        assert e.expected == params.lam**2

    def test_passing_sets_verify(self, small_complete_sets, monkeypatch):
        for mset in small_complete_sets.values():
            with monkeypatch.context() as patch:
                below_one_square(patch, mset.params)
                assert mofs.MofsSet(mset.params, mset.grids).t == mset.t
        params = mofs.Params(1, 3)
        below_one_square(monkeypatch, params)
        assert mofs.MofsSet(params, np.ones((7, 3, 3), int)).t == 7

    def test_two_large_squares_verify_in_bounded_memory(self):
        # One F(257;1) square's indicator rows (256 x 257^2 float32, 64 MiB)
        # exceed the budget; two of them once took 210 MiB.
        n = 257
        i, j = np.indices((n, n))
        grids = np.array([(a * i + j) % n + 1 for a in (1, 2)])
        tracemalloc.start()
        try:
            assert mofs.MofsSet(mofs.Params(n, 1), grids).t == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, f"{peak / 2**20:.0f} MiB"

    def test_verify_mofs_copies_the_stack_once(self, federer64):
        # MofsSet stacks the members' grids into its one private copy, 16 MB
        # for 3969 squares of 64^2 cells; a second copy would pass the bound.
        squares = federer64.squares
        tracemalloc.start()
        try:
            mset = mofs.verify_mofs(squares)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mset == federer64
        assert peak < 32 * 2**20, f"{peak / 2**20:.1f} MiB"


class TestMeets:
    """The one orthogonality kernel against cell-by-cell superposition
    counts, on stacks that are not pairwise orthogonal: row (k, a) of the
    kernel's input is I_a(S_k), and it meets S_l iff symbol a of S_k meets
    every symbol of S_l in exactly lam^2 cells."""

    @staticmethod
    def check(params, grids, symbols):
        t, target = len(grids), params.lam**2
        x = np.stack([grids[k].ravel() == a for k in range(t) for a in symbols])
        got = _meets(x.astype(np.uint8), grids, params)
        lists = [g.tolist() for g in grids]
        counts = [
            [naive_superposition(lists[k], lists[l], params.m) for l in range(t)]
            for k in range(t)
        ]
        want = [
            [bool((counts[k][l][a - 1] == target).all()) for l in range(t)]
            for k in range(t)
            for a in symbols
        ]
        assert got.tolist() == want
        return got

    @pytest.mark.parametrize("mset", hand_built_sets())
    def test_hand_built_sets(self, mset):
        m = mset.params.m
        # For m = 256 a few symbols are enough.
        symbols = range(1, m + 1) if m <= 8 else (1, 2, m // 2, m)
        self.check(mset.params, mset.grids, symbols)

    @pytest.mark.parametrize("m,lam,t", [(2, 2, 150), (3, 1, 130), (1, 3, 140)])
    def test_stacks_over_several_tiles(self, m, lam, t, monkeypatch):
        params, rng = mofs.Params(m, lam), random.Random(t)
        blocks_of(monkeypatch, params, 64)
        grids = np.array([mofs.random_fsquare(params, rng).grid for _ in range(t)])
        tile = _tile(params)
        assert t > 2 * tile
        got = self.check(params, grids, range(1, m + 1))
        assert m == 1 or set(got.ravel()) == {False, True}


class TestUpperBound:
    @pytest.mark.parametrize(
        "m,lam,value,exact",
        [
            (2, 3, 25, True),
            (2, 1, 1, True),
            (3, 3, 32, True),  # F(9;3), the (m,h)=(3,2) parameters
            (3, 2, 12, False),  # 25/2 floors to 12
            (2, 2, 9, True),
        ],
    )
    def test_values(self, m, lam, value, exact):
        b = mofs.upper_bound(mofs.Params(m, lam))
        assert (b.value, b.exact) == (value, exact)

    def test_m1_undefined(self):
        with pytest.raises(UndefinedForMOne):
            mofs.upper_bound(mofs.Params(1, 4))


class TestCompletenessStructure:
    def test_federer4_matches(self, federer4):
        rep = mofs.completeness_structure(federer4)
        assert rep.is_complete and rep.structure_matches
        t_mat = rep.t_matrix
        assert t_mat[0, 0] == 0
        assert (t_mat[0, 1:] == 6).all() and (t_mat[1:, 0] == 6).all()
        assert (t_mat[1:, 1:] == 4).all()

    def test_singleton_incomplete(self):
        s = mofs.random_fsquare(mofs.Params(2, 2), random.Random(5))
        rep = mofs.completeness_structure(mofs.verify_mofs([s]))
        assert not rep.is_complete

    def test_entry_sum_identity(self):
        # sum of T = t (m-1) m lam^2 for any valid set, complete or not.
        p = mofs.Params(2, 2)
        first = next(mofs.enumerate_fsquares(p))
        second = next(mofs.extensions(mofs.verify_mofs([first])))
        mset = mofs.verify_mofs([first, second])
        rep = mofs.completeness_structure(mset)
        assert rep.t_matrix.sum() == mset.t * (p.m - 1) * p.m * p.lam**2

    def test_first_row_and_column_sums(self, federer4):
        rep = mofs.completeness_structure(federer4)
        t, m, lam = 9, 2, 2
        assert rep.t_matrix[1:, 0].sum() == t * (m - 1) * lam
        assert rep.t_matrix[0, 1:].sum() == t * (m - 1) * lam

    def test_square_sum_identity(self, federer4):
        rep = mofs.completeness_structure(federer4)
        t, m, lam = 9, 2, 2
        expected = t * (m - 1) * lam * lam * (t * (m - 1) + 1)
        assert (rep.t_matrix**2).sum() == expected


def completeness_reference(mset):
    """T by a loop over the squares: relabel each so its top-left symbol is
    1, then count the cells of the other symbols."""
    n = mset.params.n
    ones_count = np.zeros((n, n), dtype=np.int64)
    for s in mset.squares:
        c = int(s.grid[0, 0])
        grid = s.grid.copy()
        grid[s.grid == 1] = c
        grid[s.grid == c] = 1
        ones_count += grid == 1
    return mset.t - ones_count


class TestCompletenessAgainstLoop:
    @pytest.mark.parametrize("name", ["pp33", "pp52", "federer24"])
    def test_complete_sets(self, workload_complete_sets, name):
        mset = workload_complete_sets[name]
        rep = mofs.completeness_structure(mset)
        assert rep.t_matrix.dtype == np.int64
        assert (rep.t_matrix == completeness_reference(mset)).all()
        assert rep.is_complete and rep.structure_matches

    @pytest.mark.parametrize("mset", hand_built_sets())
    def test_hand_built_sets(self, mset):
        rep = mofs.completeness_structure(mset)
        assert rep.t_matrix.dtype == np.int64
        assert (rep.t_matrix == completeness_reference(mset)).all()


class TestGrids:
    @pytest.mark.parametrize("mset", hand_built_sets())
    def test_hand_built_sets(self, mset):
        grids = mset.grids
        assert grids is mset.grids
        assert not grids.flags.writeable
        assert grids.dtype == np.min_scalar_type(mset.params.m)
        assert np.array_equal(grids, np.stack([s.grid for s in mset.squares]))

    def test_verified_set(self, workload_complete_sets):
        mset = workload_complete_sets["federer24"]
        assert mset.grids is mset.grids
        assert np.array_equal(mset.grids, np.stack([s.grid for s in mset.squares]))
        with pytest.raises(ValueError):
            mset.grids[0, 0, 0] = 2


class TestDirectConstruction:
    """``MofsSet(params, grids)`` checks the stack and verifies the set."""

    @pytest.mark.parametrize(
        "grids",
        [
            pytest.param(np.ones((2, 2)), id="no-stack-axis"),
            pytest.param(np.ones((1, 2, 3), int), id="not-square"),
            pytest.param(np.ones((1, 4, 4), int), id="other-side"),
            pytest.param([[[1, 2], [2, 1]], [[1, 2]]], id="ragged"),
        ],
    )
    def test_bad_shape(self, grids):
        with pytest.raises(DimensionMismatch):
            mofs.MofsSet(mofs.Params(2, 1), grids)

    def test_squares_are_not_a_stack(self):
        p = mofs.Params(2, 1)
        squares = tuple(mofs.enumerate_fsquares(p))
        with pytest.raises(DimensionMismatch):
            mofs.MofsSet(p, squares)

    def test_float_entries(self):
        with pytest.raises(SymbolOutOfRange, match="entries must be"):
            mofs.MofsSet(mofs.Params(2, 1), np.array([[[1.0, 2.0], [2.0, 1.0]]]))

    def test_out_of_range_entry_does_not_wrap(self):
        # 257 would read as 1 in the set's uint8 stack.
        grids = np.array([[[1, 2], [2, 1]], [[1, 2], [2, 257]]])
        with pytest.raises(SymbolOutOfRange, match=r"entry \(1,1\) = 257 not in 1..2"):
            mofs.MofsSet(mofs.Params(2, 1), grids)

    @pytest.mark.parametrize("params,stack", corrupted_stacks(11, count=8))
    def test_first_bad_square_raises_its_fsquare_error(self, params, stack):
        k = next(k for k, grid in enumerate(stack) if not _valid(params, grid))
        with pytest.raises(mofs.MofsError) as want:
            mofs.FSquare(params, stack[k])
        with pytest.raises(type(want.value)) as got:
            mofs.MofsSet(params, stack)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("mset", hand_built_sets())
    def test_not_orthogonal_raises_what_verify_mofs_raises(self, mset):
        p, grids = mset.params, mset.grids
        with pytest.raises(NotOrthogonal) as want:
            mofs.verify_mofs(mset.squares)
        with pytest.raises(NotOrthogonal) as got:
            mofs.MofsSet(p, grids)
        assert vars(got.value) == vars(want.value)
        assert str(got.value) == str(want.value)
        # The lexicographically first failing pair and symbol pair, counted
        # cell by cell.
        target = p.lam * p.lam
        k, l, counts = next(
            (k, l, counts)
            for k in range(mset.t)
            for l in range(k + 1, mset.t)
            for counts in [naive_superposition(grids[k], grids[l], p.m)]
            if (counts != target).any()
        )
        a, b = np.argwhere(counts != target)[0]
        err = got.value
        assert (err.k, err.l, err.a, err.b) == (k + 1, l + 1, a + 1, b + 1)
        assert (err.count, err.expected) == (counts[a, b], target)

    def test_empty_stack_is_refused(self):
        with pytest.raises(mofs.MofsError) as want:
            mofs.verify_mofs([])
        with pytest.raises(type(want.value), match="needs at least one square") as got:
            mofs.MofsSet(mofs.Params(2, 1), np.zeros((0, 2, 2), np.int64))
        assert str(got.value) == str(want.value)

    def test_stack_over_the_bound_is_refused(self):
        # 530 squares of F(24;12), whose bound is 529: the last repeats the
        # first, and the failing pair's k is below the bound.
        mset = mofs.construct_federer(mofs.hadamard(24))
        grids = np.concatenate((mset.grids, mset.grids[:1]))
        assert len(grids) > mofs.upper_bound(mset.params).value
        with pytest.raises(NotOrthogonal) as got:
            mofs.MofsSet(mset.params, grids)
        assert (got.value.k, got.value.l) == (1, 530)
        squares = mset.squares + mset.squares[:1]
        with pytest.raises(NotOrthogonal) as want:
            mofs.verify_mofs(squares)
        assert str(got.value) == str(want.value)

    def test_copies_the_callers_array(self):
        p = mofs.Params(2, 2)
        # Three members of a verified F(4;2) set, as a writeable int64 stack.
        grids = mofs.construct_federer(mofs.hadamard(4)).grids[:3].astype(np.int64)
        mset = mofs.MofsSet(p, grids)
        grids[0] = 3 - grids[0]
        assert not np.shares_memory(mset.grids, grids)
        assert not (mset.grids[0] == grids[0]).any()
        assert mset.grids.dtype == np.uint8 and not mset.grids.flags.writeable
        # A read-only stack of the set's own dtype is copied too.
        again = mofs.MofsSet(p, mset.grids)
        assert not np.shares_memory(again.grids, mset.grids)

    def test_equality_and_hash_by_value(self):
        mset = mofs.construct_prime_power(3, 1)
        wide = mofs.MofsSet(mset.params, mset.grids.astype(np.int64))
        assert wide == mset and hash(wide) == hash(mset)
        assert {wide, mset} == {mset}
        assert mset != mofs.MofsSet(mset.params, mset.grids[::-1])
        assert mset != mofs.MofsSet(mset.params, mset.grids[:1])
        assert mset != mset.squares and mset != "a set"

    def test_squares_wrap_the_stack(self):
        mset = mofs.construct_prime_power(3, 2)
        assert "squares" not in vars(mset)
        squares = mset.squares
        assert squares is mset.squares and len(squares) == mset.t
        assert all(isinstance(sq, mofs.FSquare) for sq in squares)
        assert np.array_equal(np.stack([sq.grid for sq in squares]), mset.grids)


def _valid(params, grid):
    try:
        mofs.FSquare(params, grid)
    except mofs.MofsError:
        return False
    return True


class TestNoSquaresBuilt:
    """Decoding, building and growing a set keep it as its stack alone."""

    def test_decode(self, federer4):
        assert "squares" not in vars(mofs.decode(mofs.encode(federer4)))
        # The per-line parser too (a comment sends the file there).
        text = mofs.encode(federer4).replace("\n", "\n# c\n", 1)
        assert "squares" not in vars(mofs.decode(text))

    def test_construct(self):
        for mset in (
            mofs.construct_prime_power(2, 3),
            mofs.construct_federer(mofs.hadamard(8)),
        ):
            assert "squares" not in vars(mset)

    def test_grow_maximal(self, federer4):
        start = mofs.verify_mofs([federer4.squares[0]])
        grown = mofs.grow_maximal(start, SearchConfig(seed=3))
        assert grown.t > 1 and "squares" not in vars(grown)
        assert "squares" not in vars(mofs.grow_maximal(mofs.Params(2, 2), SearchConfig(seed=3)))


class TestIndicatorRowsBuiltOnce:
    """A set of one block builds its reduced indicator rows once, for the
    regularity check, and the Gram kernel reuses them; a set of several
    blocks builds them per block for each."""

    @staticmethod
    def rows_built(monkeypatch, mset):
        built, build = [], core._indicator_rows

        def counted(grids, params, *args):
            built.append(len(grids))
            return build(grids, params, *args)

        monkeypatch.setattr(core, "_indicator_rows", counted)
        monkeypatch.setattr(verify, "_indicator_rows", counted)
        assert mofs.MofsSet(mset.params, mset.grids) == mset
        return built

    @pytest.mark.parametrize("m,h", [(2, 3), (3, 2), (5, 1)])
    def test_one_block(self, monkeypatch, m, h):
        mset = mofs.construct_prime_power(m, h)
        assert mset.t <= _tile(mset.params)
        assert self.rows_built(monkeypatch, mset) == [mset.t]

    def test_several_blocks(self, monkeypatch):
        mset = mofs.construct_prime_power(2, 3)
        blocks_of(monkeypatch, mset.params, 16)
        regularity = [16, 16, 16, 1]
        # Each strip, then each later tile against it.
        gram = [16, 16, 16, 1] + [16, 16, 1] + [16, 1] + [1]
        assert self.rows_built(monkeypatch, mset) == regularity + gram
