import dataclasses
import gc
import hashlib
import operator
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from functools import lru_cache
from itertools import combinations, islice, permutations, product
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import mofs
from mofs import core, search
from mofs.cli import main
from mofs.construct import prime_power_decomposition
from mofs.core import DimensionMismatch, RowRegularityViolation
from mofs.search import InfeasibleSizeGuard, SearchConfig, count_binary_matrices
from mofs.verify import UndefinedForMOne

from conftest import blocks_of, loop_row_reduce, naive_fsquares, row_stack_fsquares


def grids(stream):
    return [tuple(map(tuple, s.grid.tolist())) for s in stream]


def set_digest(mset):
    return stream_digest(mset.squares)[1]


def stream_digest(squares):
    h = hashlib.sha256()
    n = 0
    for s in squares:
        n += 1
        h.update(s.grid.astype(np.int64).tobytes())
    return n, h.hexdigest()


def orthogonal_to_all(members, candidates):
    return sorted(
        grids(c for c in candidates if all(mofs.orthogonal(s, c) for s in members))
    )


@pytest.fixture(scope="module")
def filtered_squares():
    """Every square of the types the engine is checked against the
    generate-and-filter oracle on."""
    return {
        (m, lam): [
            mofs.make_fsquare(mofs.Params(m, lam), g)
            for g in naive_fsquares(mofs.Params(m, lam))
        ]
        for m, lam in [(3, 1), (2, 2)]
    }


class TestCountBinaryMatrices:
    @pytest.mark.parametrize(
        "n,k,expected",
        [
            # (2k, k): the published counts of OEIS A058527.
            (2, 1, 2),
            (3, 1, 6),  # permutation matrices
            (4, 2, 90),
            (6, 3, 297200),
            (8, 4, 116963796250),
            (10, 5, 6736218287430460752),
        ],
    )
    def test_known_values(self, n, k, expected):
        assert count_binary_matrices(n, k) == expected


class TestEnumerate:
    @pytest.mark.parametrize(
        "m,lam,expected", [(2, 1, 2), (3, 1, 12), (2, 2, 90)]
    )
    def test_counts(self, m, lam, expected):
        p = mofs.Params(m, lam)
        assert mofs.count_fsquares(p) == expected

    @pytest.mark.parametrize("n,expected", [(4, 576), (5, 161280)])
    def test_latin_square_counts(self, n, expected):
        # L(4) and L(5), the published numbers of Latin squares (OEIS
        # A002860).  Both are under the size guard's default ceiling.
        assert mofs.count_fsquares(mofs.Params(n, 1)) == expected

    @pytest.mark.parametrize("m,lam", [(2, 1), (3, 1), (2, 2)])
    def test_matches_naive_filter_oracle(self, m, lam):
        p = mofs.Params(m, lam)
        ours = grids(mofs.enumerate_fsquares(p))
        oracle = [tuple(map(tuple, g.tolist())) for g in naive_fsquares(p)]
        assert sorted(ours) == sorted(oracle)
        assert len(set(ours)) == len(ours)  # no duplicates

    def test_lexicographic_order(self):
        p = mofs.Params(2, 2)
        out = grids(mofs.enumerate_fsquares(p))
        flat = [sum(g, ()) for g in out]
        assert flat == sorted(flat)

    @pytest.mark.parametrize(
        "m,lam", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (4, 1)]
    )
    def test_small_types_stream_every_square_in_order(self, m, lam):
        # n <= 4 leaves the loop at most the first row above its lookups.
        p = mofs.Params(m, lam)
        flat = [sum(g, ()) for g in grids(mofs.enumerate_fsquares(p))]
        assert flat and len(flat) == mofs.count_fsquares(p)
        assert all(map(operator.lt, flat, flat[1:]))

    def test_max_results_cap(self):
        p = mofs.Params(2, 2)
        capped = list(mofs.enumerate_fsquares(p, SearchConfig(max_results=7)))
        assert len(capped) == 7

    def test_infeasible_guard(self):
        # The call only makes the generator; its first next() is refused.
        stream = mofs.enumerate_fsquares(mofs.Params(2, 4))
        with pytest.raises(InfeasibleSizeGuard) as exc:
            next(stream)
        # The counting DP stops at its first partial count past the ceiling,
        # short of the 116 963 796 250 squares.
        assert str(exc.value).startswith("at least 10129980 squares ")
        assert exc.value.estimate == 10129980

    def test_guard_override_by_config(self):
        p = mofs.Params(2, 3)
        gen = mofs.enumerate_fsquares(p, SearchConfig(force=True))
        assert next(gen) is not None

    def test_guard_env_override(self, monkeypatch):
        monkeypatch.setenv("MOFS_MAX_ENUM", "10")
        with pytest.raises(InfeasibleSizeGuard):
            next(mofs.enumerate_fsquares(mofs.Params(2, 2)))
        monkeypatch.setenv("MOFS_MAX_ENUM", "1000")
        assert len(list(mofs.enumerate_fsquares(mofs.Params(2, 2)))) == 90

    def test_streams_are_lazy(self, monkeypatch):
        # The search and its guard wait for the first next(), not the call.
        monkeypatch.setenv("MOFS_MAX_ENUM", "10")
        start = mofs.verify_mofs([mofs.random_fsquare(F63, random.Random(0))])
        streams = (mofs.enumerate_fsquares(mofs.Params(2, 2)), mofs.extensions(start))
        for stream in streams:
            with pytest.raises(InfeasibleSizeGuard):
                next(stream)

    @pytest.mark.parametrize("lam", [1, 2, 3, 4, 5])
    def test_m1_count_matches_the_engine(self, lam):
        p = mofs.Params(1, lam)
        only = mofs.make_fsquare(p, np.ones((lam, lam), int))
        for members in (search._NO_MEMBERS, mofs.verify_mofs([only]).grids):
            runs = search._engine(p, members, None)
            # One uint8 byte a cell.
            engine = sum(map(len, runs)) // p.n**2
            for limit in (None, 0, 1, 2):
                config = SearchConfig(max_results=limit)
                want = engine if limit is None else min(engine, limit)
                assert search._count(p, members, config) == want

    def test_m1_count_builds_no_square(self):
        tracemalloc.start()
        try:
            assert mofs.count_fsquares(mofs.Params(1, 1000)) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The square alone would take 8 MB.
        assert peak < 1 << 20

    def test_long_m1_square_is_counted(self):
        # n = 1200 rows once overflowed a recursive pattern builder.
        p = mofs.Params(1, 1200)
        assert mofs.count_fsquares(p) == 1
        (only,) = mofs.enumerate_fsquares(p)
        assert only.grid.shape == (1200, 1200) and (only.grid == 1).all()

    def test_m1_square_over_the_ceiling_is_refused(self, monkeypatch):
        # The one square is the whole count, but its n^2 cells are guarded.
        p = mofs.Params(1, 100)
        monkeypatch.setenv("MOFS_MAX_ENUM", "9999")
        for config in (SearchConfig(), SearchConfig(max_results=1)):
            with pytest.raises(InfeasibleSizeGuard, match="^a square of 10000 cells "):
                mofs.count_fsquares(p, config)
        monkeypatch.setenv("MOFS_MAX_ENUM", "10000")
        assert mofs.count_fsquares(p) == 1

    @pytest.mark.parametrize("m,lam", [(1, 4), (2, 3), (3, 2), (4, 1), (5, 1), (3, 3)])
    def test_patterns_are_every_regular_row_in_order(self, m, lam):
        row = [a for a in range(1, m + 1) for _ in range(lam)]
        assert search._pattern_tables(m, lam)[0] == tuple(sorted(set(permutations(row))))

    def test_bad_env_ceiling(self, monkeypatch):
        for raw in ("abc", "-5"):
            monkeypatch.setenv("MOFS_MAX_ENUM", raw)
            with pytest.raises(mofs.MofsError, match="MOFS_MAX_ENUM must be a non-neg"):
                next(mofs.enumerate_fsquares(mofs.Params(2, 2)))

    def test_bad_env_ceiling_cli(self, monkeypatch, capsys):
        for raw in ("abc", "-5"):
            monkeypatch.setenv("MOFS_MAX_ENUM", raw)
            assert main(["count", "2", "2"]) == 1
            err = capsys.readouterr().err
            assert err == f"error: MOFS_MAX_ENUM must be a non-negative integer, got {raw!r}\n"


class TestSearchConfig:
    # Ids are fixed by hand: cases 4-9 were the removed ``prefix`` field's.
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param(kwargs, id=f"kwargs{i}")
            for i, kwargs in [
                (0, {"max_results": -1}),
                (1, {"max_results": 2.5}),
                (2, {"max_results": True}),
                (3, {"max_results": "3"}),
                (10, {"seed": [1]}),
                (11, {"seed": {"a": 1}}),
                (12, {"seed": 1.5}),
                (13, {"seed": "1"}),
                (14, {"seed": b"1"}),
                (15, {"seed": True}),
                (16, {"force": "no"}),
                (17, {"force": 0.5}),
                (18, {"force": 0}),
                (19, {"force": None}),
            ]
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        (name,) = kwargs
        with pytest.raises(mofs.MofsError, match=name):
            SearchConfig(**kwargs)

    def test_values_stored_as_plain_ints(self):
        config = SearchConfig(max_results=np.int64(3))
        assert config.max_results == 3 and type(config.max_results) is int
        assert SearchConfig(max_results=0).max_results == 0
        config = SearchConfig(seed=np.int32(7), force=np.True_)
        assert config.seed == 7 and type(config.seed) is int
        assert config.force is True
        assert SearchConfig().seed is None and SearchConfig().force is False

    def test_fields_are_seed_cap_and_force(self):
        # Every search covers the whole space: there is no first-row prefix.
        assert [f.name for f in dataclasses.fields(SearchConfig)] == [
            "seed",
            "max_results",
            "force",
        ]
        with pytest.raises(TypeError):
            SearchConfig(prefix=(1,))


class TestEstimateCount:
    # The counting DP that sizes the guard is exact for every m.
    def test_exact_for_two_symbols(self):
        assert search._count_arrays((3, 3)) == 297200

    def test_overestimates_generic(self):
        assert search._count_arrays((1, 1, 1)) == 12


class TestCountingDP:
    """The one counter (streams and the m = 2 counts are checked above)."""

    def test_latin_square_count_over_the_ceiling(self):
        # L(6) of OEIS A002860; L(4) and L(5) are counted unforced above.
        assert search._count_arrays((1,) * 6) == 812851200

    @pytest.mark.parametrize("quotas", [(3, 3), (4, 4), (2, 2, 2), (1,) * 5, (2, 1)])
    def test_a_bound_stops_it_between_the_bound_and_the_count(self, quotas):
        exact = search._count_arrays(quotas)
        for bound in (0, 1, exact // 3, exact - 1):
            assert bound < search._count_arrays(quotas, bound) <= exact
        assert search._count_arrays(quotas, exact) == exact

    def test_counts_walk_no_key(self, monkeypatch):
        def walked(*args):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(search, "_engine", walked)
        for config in (SearchConfig(), SearchConfig(max_results=7)):
            mofs.count_fsquares(mofs.Params(2, 3), config)
        assert mofs.count_fsquares(mofs.Params(3, 2), SearchConfig(max_results=10**6)) == 10**6


class TestExtensions:
    def test_complete_set_has_none(self, federer4):
        assert list(mofs.extensions(federer4)) == []

    def test_complete_f24_set_has_none_without_the_guard(self):
        # The linear-dual path finds no cover at once, so nothing is walked
        # and the size guard, which refuses a walk of F(24;12), stays out.
        full = mofs.construct_federer(mofs.hadamard(24))
        assert list(mofs.extensions(full)) == []
        with pytest.raises(InfeasibleSizeGuard):
            next(mofs.extensions(mofs.verify_mofs(full.squares[:1])))

    def test_f21_singleton_has_none(self):
        s = mofs.make_fsquare(mofs.Params(2, 1), [[1, 2], [2, 1]])
        assert list(mofs.extensions(mofs.verify_mofs([s]))) == []

    def test_matches_filter_oracle(self):
        p = mofs.Params(2, 2)
        rng = random.Random(42)
        s = mofs.random_fsquare(p, rng)
        mset = mofs.verify_mofs([s])
        ours = grids(mofs.extensions(mset))
        oracle = [
            tuple(map(tuple, g.tolist()))
            for g in naive_fsquares(p)
            if mofs.orthogonal(s, mofs.make_fsquare(p, g))
        ]
        assert sorted(ours) == sorted(oracle)

    def test_every_extension_is_orthogonal_to_all(self):
        p = mofs.Params(2, 2)
        first = next(mofs.enumerate_fsquares(p))
        second = next(mofs.extensions(mofs.verify_mofs([first])))
        mset = mofs.verify_mofs([first, second])
        for ext in mofs.extensions(mset):
            for member in mset.squares:
                assert mofs.orthogonal(member, ext)

    def test_generic_m_extensions(self):
        # The two order-3 MOLS admit no third (bound is 2).
        mols = mofs.construct_prime_power(3, 1)
        assert list(mofs.extensions(mols)) == []
        singleton = mofs.verify_mofs([mols.squares[0]])
        exts = grids(mofs.extensions(singleton))
        oracle = [
            tuple(map(tuple, g.tolist()))
            for g in naive_fsquares(mofs.Params(3, 1))
            if mofs.orthogonal(
                mols.squares[0], mofs.make_fsquare(mofs.Params(3, 1), g)
            )
        ]
        assert sorted(exts) == sorted(oracle)


class TestEngineOracle:
    """Extension search against generate-and-filter, member counts 1-3."""

    def test_m3_one_member(self, filtered_squares):
        every = filtered_squares[(3, 1)]
        for s in every:
            ours = sorted(grids(mofs.extensions(mofs.verify_mofs([s]))))
            assert ours == orthogonal_to_all([s], every)

    def test_m3_two_members(self, filtered_squares):
        every = filtered_squares[(3, 1)]
        pairs = [(a, b) for a, b in combinations(every, 2) if mofs.orthogonal(a, b)]
        assert pairs
        for pair in pairs:
            ours = sorted(grids(mofs.extensions(mofs.verify_mofs(pair))))
            assert ours == orthogonal_to_all(pair, every)

    def test_m2_two_members(self, filtered_squares):
        every = filtered_squares[(2, 2)]
        rng = random.Random(11)
        found = 0
        for first in rng.sample(every, 6):
            mates = [s for s in every if mofs.orthogonal(first, s)]
            for second in rng.sample(mates, 3):
                pair = (first, second)
                ours = sorted(grids(mofs.extensions(mofs.verify_mofs(pair))))
                assert ours == orthogonal_to_all(pair, every)
                found += len(ours)
        assert found  # some pairs extend, so the filter is exercised both ways

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_m4_subsets_of_mols(self, size):
        # The oracle here filters the library's own enumeration, which the
        # generate-and-filter tests above check on smaller types.
        p = mofs.Params(4, 1)
        every = list(mofs.enumerate_fsquares(p))
        mols = mofs.construct_prime_power(4, 1).squares
        for members in combinations(mols, size):
            ours = sorted(grids(mofs.extensions(mofs.verify_mofs(members))))
            assert ours == orthogonal_to_all(members, every)

    @pytest.mark.parametrize("lam", [11, 12])
    def test_pair_count_at_field_limit(self, lam):
        # For m = 1 the one pair count reaches lam^2 exactly; lam = 12 is
        # the first type whose counters need fields wider than a byte.
        p = mofs.Params(1, lam)
        only = next(mofs.enumerate_fsquares(p))
        assert list(mofs.extensions(mofs.verify_mofs([only]))) == [only]


# The types whose tail starts below the first row (n = 3) or covers fewer
# than two rows (n < 3), and F(4;1), the first with a row between.
EDGE_TYPES = [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (4, 1)]


def orthogonal_mask(p, members, stack):
    """Which grids of the (k, n, n) ``stack`` are orthogonal to every one of
    the ``members`` grids, by counting each ordered symbol pair directly."""
    ok = np.ones(len(stack), dtype=bool)
    for member in members:
        pair = ((stack - 1) * p.m + (np.asarray(member) - 1)).reshape(len(stack), -1)
        counts = (pair[:, :, None] == np.arange(p.m * p.m)).sum(axis=1)
        ok &= (counts == p.lam**2).all(axis=1)
    return ok


def as_tuples(grids):
    return [tuple(map(tuple, g)) for g in np.asarray(grids).tolist()]


@pytest.fixture(scope="module")
def edge_squares():
    """Every square of each edge type, in lexicographic order, from the
    row-stack filter oracle."""
    return {t: row_stack_fsquares(mofs.Params(*t)) for t in EDGE_TYPES}


class TestEdgeTypes:
    """The engine on the smallest types, against generate-and-filter."""

    @pytest.mark.parametrize("m,lam", EDGE_TYPES)
    def test_extensions_match_oracle_in_order(self, m, lam, edge_squares):
        p = mofs.Params(m, lam)
        every = edge_squares[(m, lam)]
        assert grids(mofs.enumerate_fsquares(p)) == as_tuples(every)
        subsets = [(k,) for k in range(len(every))]
        pairs = [
            (k, l)
            for k in range(len(every))
            for l in np.flatnonzero(orthogonal_mask(p, every[k : k + 1], every))
            if k < l
        ]
        assert bool(pairs) == (m > 2)
        # F(4;1) has 3 456 orthogonal pairs; a seeded sample of them is kept.
        subsets += random.Random(m).sample(pairs, min(len(pairs), 150))
        for subset in subsets:
            members = every[list(subset)]
            mset = mofs.verify_mofs([mofs.make_fsquare(p, g) for g in members])
            oracle = as_tuples(every[orthogonal_mask(p, members, every)])
            assert grids(mofs.extensions(mset)) == oracle

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_greedy_follows_first_row_order(self, m, seed, edge_squares):
        # Each step adds the orthogonal square whose first row comes first
        # in that step's shuffled pattern order, lowest square first on a tie.
        p = mofs.Params(m, 1)
        every = edge_squares[(m, 1)]
        patterns = search._pattern_tables(m, 1)[0]
        with_mates = (g for g in every if orthogonal_mask(p, [g], every).any())
        start = next(islice(with_mates, seed, None))
        rng = random.Random(seed)
        expected = [start]
        while True:
            order = list(range(len(patterns)))
            rng.shuffle(order)
            rank = {patterns[q]: r for r, q in enumerate(order)}
            mates = every[orthogonal_mask(p, expected, every)]
            if not len(mates):
                break
            expected.append(min(mates, key=lambda g: rank[tuple(g[0])]))
        start_set = mofs.verify_mofs([mofs.make_fsquare(p, start)])
        grown = mofs.grow_maximal(start_set, SearchConfig(seed=seed))
        assert grids(grown.squares) == as_tuples(expected)
        assert grown.t >= 2


def assert_pinned_streams():
    """Two streams' digests, recorded with the engine before it had a
    column-fit table: F(6;2) capped, and every F(5;1) square whose first
    row starts 3, 1, from the engine with those first rows alone."""
    f62 = mofs.enumerate_fsquares(
        mofs.Params(3, 2), SearchConfig(force=True, max_results=20000)
    )
    assert stream_digest(f62) == (
        20000,
        "2f5b5ac92573290e714a659a0c8d043796df45cbd4509a9e4a0b8c72f8d35a92",
    )
    p = mofs.Params(5, 1)
    patterns = search._pattern_tables(5, 1)[0]
    first = [q for q, row in enumerate(patterns) if row[:2] == (3, 1)]
    keys = b"".join(search._engine(p, search._NO_MEMBERS, first))
    # The digest is of the int64 grids, one after another.
    f51 = np.frombuffer(keys, np.uint8).astype(np.int64)
    assert (len(keys) // p.n**2, hashlib.sha256(f51.tobytes()).hexdigest()) == (
        8064,
        "e7dc4c02c360e60584811d7cabc13a57fdeed6f1a11fc42e6f571a55e68a6ce9",
    )


def walk_from_random_rows(p, rng, keys):
    """Run the engine without members, its first row in a random order,
    until it has found ``keys`` squares, filling the type-wide tables."""
    order = list(range(len(search._pattern_tables(p.m, p.lam)[0])))
    rng.shuffle(order)
    found = 0
    for run in search._engine(p, search._NO_MEMBERS, order):
        found += len(run) // p.n**2  # one uint8 byte a cell
        if found >= keys:
            break


def column_counts(p, cols):
    """A column-fit table key decoded: counts[a - 1, j] is the number of
    symbol a in column j on the rows so far."""
    dtype = search._pattern_tables(p.m, p.lam)[1]
    raw = np.frombuffer(cols.to_bytes(p.m * p.n * dtype.itemsize, "little"), dtype)
    bias = (1 << (8 * dtype.itemsize - 1)) - 1 - p.lam
    return (raw.astype(np.int64) - bias).reshape(p.m, p.n)


def root_buffer(grid):
    """The object at the end of a grid's chain of bases: the memory it holds."""
    while isinstance(grid, np.ndarray):
        grid = grid.base
    return grid


class TestEngineTables:
    @pytest.mark.parametrize("m,lam", [(2, 2), (3, 1), (3, 2)])
    def test_leaves_are_plain_squares(self, m, lam, monkeypatch):
        p = mofs.Params(m, lam)
        # Two squares to a block, so that streams and sets span several.
        blocks_of(monkeypatch, p, 2)
        start = mofs.verify_mofs([mofs.random_fsquare(p, random.Random(m))])
        config = SearchConfig(max_results=600)
        streamed = [*mofs.enumerate_fsquares(p, config), *mofs.extensions(start, config)]
        sets = [
            mofs.grow_maximal(start, SearchConfig(seed=1, force=True)),
            mofs.decode(mofs.encode(start)),
            mofs.construct_prime_power(3, 1),
        ]
        for sq in streamed + [sq for mset in sets for sq in mset.squares]:
            n = sq.params.n
            again = mofs.make_fsquare(sq.params, sq.grid.tolist())
            assert sq == again and hash(sq) == hash(again)
            assert sq.grid.dtype == np.uint8 and sq.grid.shape == (n, n)
            assert sq.grid.flags.c_contiguous
            assert not sq.grid.flags.writeable
            with pytest.raises(ValueError):
                sq.grid.flags.writeable = True
            # The grid is a view of immutable bytes, which nothing can
            # make writeable either.
            assert type(root_buffer(sq.grid)) is bytes
        # A streamed square keeps alive at most one batch of squares, and a
        # set's squares share one uint8 copy of its whole stack.
        for sq in streamed:
            cells = sq.params.n**2
            assert len(root_buffer(sq.grid)) <= core._tile(sq.params) * cells
        for mset in sets:
            roots = [root_buffer(sq.grid) for sq in mset.squares]
            assert all(root is roots[0] for root in roots)
            assert len(roots[0]) == mset.grids.size

    def test_constructor_always_validates(self):
        p = mofs.Params(2, 2)
        key = next(mofs.enumerate_fsquares(p)).grid.tobytes()
        with pytest.raises(DimensionMismatch):
            mofs.FSquare(p, key)
        with pytest.raises(RowRegularityViolation):
            mofs.FSquare(p, [[1, 1, 1, 2], [2, 2, 2, 1], [1, 1, 2, 2], [2, 2, 1, 1]])

    @pytest.mark.parametrize("m,lam", [(1, 3), (2, 3), (3, 2), (4, 1), (5, 1)])
    def test_fit_table_matches_brute_force(self, m, lam):
        p = mofs.Params(m, lam)
        patterns, *_, fit = search._pattern_tables(m, lam)
        for table in search._pattern_tables(m, lam)[-3:]:
            table.clear()
        rng = random.Random(100 * m + lam)
        for _ in range(4):
            start = mofs.verify_mofs([mofs.random_fsquare(p, rng)])
            list(mofs.extensions(start, SearchConfig(max_results=100)))
            walk_from_random_rows(p, rng, 100)
        assert len(fit) >= p.n - 1
        for cols, fits in fit.items():
            counts = column_counts(p, cols)
            depth = counts.sum(axis=0)
            assert (counts >= 0).all() and (depth == depth[0]).all()
            assert 1 <= depth[0] < p.n
            assert fits == tuple(
                q
                for q, row in enumerate(patterns)
                if all(counts[a - 1, j] < lam for j, a in enumerate(row))
            )

    def test_fit_table_overflow_keeps_streams(self, monkeypatch):
        monkeypatch.setattr(search, "_FIT_CAP", 3)
        for m, lam in [(3, 2), (5, 1)]:
            search._pattern_tables(m, lam)[-1].clear()
        assert_pinned_streams()
        p = mofs.Params(5, 1)
        start = mofs.verify_mofs([mofs.random_fsquare(p, random.Random(0))])
        grown = mofs.grow_maximal(start, SearchConfig(seed=0, force=True))
        assert (grown.t, set_digest(grown)) == GROW_PINS[(5, 1, 0)]
        for m, lam in [(3, 2), (5, 1)]:
            assert len(search._pattern_tables(m, lam)[-1]) <= 3

    def test_tail_table_overflow_keeps_results(self, monkeypatch):
        mset = mofs.verify_mofs(pinned_growth(2, 3, 1).squares[:-1])
        count = search._count(mset.params, mset.grids, SearchConfig())
        # Every new column state below the loop now clears the table first.
        monkeypatch.setattr(search, "_TAIL_CAP", 1)
        assert_pinned_streams()
        grown = pinned_growth(2, 3, 1)
        assert (grown.t, set_digest(grown)) == GROW_PINS[(2, 3, 1)]
        assert search._count(mset.params, mset.grids, SearchConfig()) == count >= 1

    @pytest.mark.parametrize("m,lam", [(2, 3), (3, 2), (4, 1), (5, 1)])
    def test_completion_table_matches_brute_force(self, m, lam):
        # Every cached entry lists the two rows that complete its column
        # counts, in lexicographic order, with their joined bytes.
        p = mofs.Params(m, lam)
        _, _, pattern_hot, _, row_bytes, _, ends_of, _ = search._pattern_tables(m, lam)
        for table in search._pattern_tables(m, lam)[-3:]:
            table.clear()
        rng = random.Random(10 * m + lam)
        for _ in range(3):
            start = mofs.verify_mofs([mofs.random_fsquare(p, rng)])
            next(search._engine(p, start.grids, None), None)
            walk_from_random_rows(p, rng, 100)
        assert ends_of
        hot = pattern_hot.transpose(0, 2, 1).astype(np.int64)
        two_rows = hot[:, None] + hot[None, :]
        for cols, (picked, rests) in ends_of.items():
            counts = column_counts(p, cols)
            assert (counts.sum(axis=0) == p.n - 2).all()
            pairs = [tuple(q) for q in np.argwhere((two_rows == lam - counts).all(axis=(2, 3)))]
            assert pairs and list(zip(*picked)) == pairs
            assert rests == tuple(row_bytes[q1] + row_bytes[q2] for q1, q2 in pairs)

    @pytest.mark.parametrize("m,lam", [(2, 2), (2, 3), (3, 2), (4, 1), (5, 1)])
    def test_three_row_table_matches_brute_force(self, m, lam):
        # Every cached entry of a search without members lists the three
        # rows that complete its column counts, in lexicographic order:
        # the third-last row's bytes, then the last two rows' bytes, after
        # an empty slot for the rows above.
        p = mofs.Params(m, lam)
        patterns, _, pattern_hot, _, row_bytes, runs_of, _, _ = search._pattern_tables(m, lam)
        for table in search._pattern_tables(m, lam)[-3:]:
            table.clear()
        rng = random.Random(20 * m + lam)
        for _ in range(3):
            walk_from_random_rows(p, rng, 300)
        assert runs_of
        hot = pattern_hot.transpose(0, 2, 1).astype(np.int64)
        pairs = {}
        for q2, q3 in product(range(len(patterns)), repeat=2):
            pairs.setdefault((hot[q2] + hot[q3]).tobytes(), []).append((q2, q3))
        for cols, slots in runs_of.items():
            counts = column_counts(p, cols)
            assert (counts.sum(axis=0) == p.n - 3).all()
            triples = [
                (q1, q2, q3)
                for q1 in range(len(patterns))
                for q2, q3 in pairs.get((lam - counts - hot[q1]).tobytes(), [])
            ]
            assert triples and len(slots) == 3 * len(triples)
            assert slots[::3] == (None,) * len(triples)
            assert slots[1::3] == tuple(row_bytes[q1] for q1, _, _ in triples)
            assert slots[2::3] == tuple(row_bytes[q2] + row_bytes[q3] for _, q2, q3 in triples)

    def test_three_row_table_is_bounded_in_completions(self, monkeypatch):
        # The three-row table is cleared, with the others, before it would
        # hold more than one block of completions; no F(6;3) entry alone
        # holds more than 93.
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", 200)
        runs_of = search._pattern_tables(2, 3)[-3]
        for table in search._pattern_tables(2, 3)[-3:]:
            table.clear()
        keys, held = 0, []
        for run in search._engine(F63, search._NO_MEMBERS, None):
            keys += len(run) // F63.n**2  # one uint8 byte a cell
            held.append(sum(map(len, runs_of.values())) // 3)
        assert keys == 297200
        assert max(held) <= 200
        assert any(map(operator.gt, held, held[1:]))
        assert_pinned_streams()

    def test_completion_table_overflow_keeps_results(self, monkeypatch):
        members = pinned_growth(2, 3, 1).grids[:4]
        count = search._count(F63, members, SearchConfig())
        # Every new entry of either type-wide table now clears both first.
        monkeypatch.setattr(search, "_FIT_CAP", 1)
        for m, lam in [(2, 3), (3, 2), (5, 1)]:
            for table in search._pattern_tables(m, lam)[-3:]:
                table.clear()
        assert_pinned_streams()
        for key in [(2, 3, 0), (2, 3, 1), (2, 3, 2), (5, 1, 0)]:
            grown = pinned_growth(*key)
            assert (grown.t, set_digest(grown)) == GROW_PINS[key]
        assert search._count(F63, members, SearchConfig()) == count >= 1
        for m, lam in [(2, 3), (3, 2), (5, 1)]:
            assert all(len(table) <= 1 for table in search._pattern_tables(m, lam)[-3:])

    @pytest.mark.parametrize("m,lam", [(2, 2), (2, 3), (5, 1), (3, 2)])
    def test_pair_increments_match_a_row_at_a_time(self, m, lam):
        # One product over every row, sliced per row, against the product
        # per row, for no members, one, and a whole greedy set.
        p = mofs.Params(m, lam)
        patterns, dtype, pattern_hot = search._pattern_tables(m, lam)[:3]
        grown = mofs.grow_maximal(p, SearchConfig(seed=0, force=True))
        for members in (grown.grids[:0], grown.grids[:1], grown.grids):
            hot = (members[..., None] == np.arange(1, m + 1)).astype(dtype)
            want = [
                search._pack(
                    np.einsum("pja,kjb->pkab", pattern_hot, hot[:, i]).reshape(len(patterns), -1),
                    dtype,
                )
                for i in range(p.n)
            ]
            assert search._pair_increments(p, members) == want

    # Ids are fixed by hand: cases 2, 7 and 8 were F(6;2) first-row
    # prefixes, now test_each_first_row_starts_its_share.
    @pytest.mark.parametrize(
        "m,lam",
        [
            pytest.param(3, 1, id="3-1-config0"),
            pytest.param(2, 2, id="2-2-config1"),
            pytest.param(2, 1, id="2-1-config3"),
            pytest.param(4, 1, id="4-1-config4"),
            pytest.param(2, 3, id="2-3-config5"),
            pytest.param(5, 1, id="5-1-config6"),
        ],
    )
    def test_count_matches_enumeration(self, m, lam):
        p = mofs.Params(m, lam)
        streamed = sum(1 for _ in mofs.enumerate_fsquares(p))
        assert mofs.count_fsquares(p) == streamed > 0

    @pytest.mark.parametrize("row", [(1, 2, 3, 3, 2, 1), (3, 1, 1, 2, 3, 2), (3, 3, 2, 2, 1, 1)])
    def test_each_first_row_starts_its_share(self, row):
        # Every first row leaves the same column state, so each of the 90
        # F(6;2) rows starts 35 599 500 / 90 = 395 550 squares.
        p = mofs.Params(3, 2)
        patterns = search._pattern_tables(3, 2)[0]
        keys = b"".join(search._engine(p, search._NO_MEMBERS, [patterns.index(row)]))
        width = p.n**2  # one uint8 byte a cell
        squares = [keys[i : i + width] for i in range(0, len(keys), width)]
        share = mofs.count_fsquares(p, SearchConfig(force=True)) // len(patterns)
        assert len(squares) == share == 395550
        assert all(map(operator.lt, squares, squares[1:]))
        assert {key[: p.n] for key in squares} == {bytes(row)}


# SHA-256 of the int64 grids of grow_maximal's sets, in set order, recorded
# before the search engines were merged.
GROW_PINS = {
    (2, 3, 0): (8, "f1750bf04ddb414151ed928613b57d37e8095abf3e7a2eec274e6d4c5e4a6eb5"),
    (2, 3, 1): (9, "80dab5358e4a5c9dc719d5a507b869fba9aa6ca9e704f2cf24cbc238756c9821"),
    (2, 3, 2): (7, "c300fa383a2eba88a39fe0dbecc0222abc335597d626e732466de45a3bf36e1f"),
    (5, 1, 0): (4, "ed5bf5484ecbd94c2c1713cab8d763678874cd0fad97e413e5417077c5698c96"),
    (5, 1, 1): (4, "df48808967163c7530deb207ff1c3e818d1fcbd40814ac70c70536de129adb3c"),
    (5, 1, 2): (4, "2e27fadd1de36b9833654fe29955d2e39804bd1350487b18a18fafee990dc50b"),
    (5, 1, 3): (4, "865b1878f331091fb9ee5ea2bca1613260fb4616a605ae192fc4f41698db238c"),
}


# The batch cap that TestLeafBatches gives each stream (see blocks_of).
LEAF_BATCH = 256
F63 = mofs.Params(2, 3)


@lru_cache(maxsize=None)
def f51_singleton():
    """A one-square F(5;1) set with 360 extensions, found by the
    linear-dual path."""
    return mofs.verify_mofs([mofs.random_fsquare(mofs.Params(5, 1), random.Random(0))])


class TestLeafBatches:
    """Streams wrap keys in batches that double from one key up to one
    block (``core._tile``); a capped stream ends at any point of a batch."""

    @pytest.mark.parametrize(
        "limit", [0, 1, 2, 3, 4, 7, 8, 37, 38, LEAF_BATCH - 1, LEAF_BATCH, LEAF_BATCH + 1]
    )
    def test_capped_streams_are_prefixes(self, limit, monkeypatch):
        config = SearchConfig(max_results=limit)
        blocks_of(monkeypatch, F63, LEAF_BATCH)
        capped = list(mofs.enumerate_fsquares(F63, config))
        assert len(capped) == limit
        assert capped == list(islice(mofs.enumerate_fsquares(F63), limit))
        blocks_of(monkeypatch, f51_singleton().params, LEAF_BATCH)
        capped = list(mofs.extensions(f51_singleton(), config))
        assert len(capped) == limit
        assert capped == list(islice(mofs.extensions(f51_singleton()), limit))

    @pytest.mark.parametrize(
        "stream",
        [lambda: mofs.enumerate_fsquares(F63), lambda: mofs.extensions(f51_singleton())],
    )
    def test_first_square_costs_one_key(self, stream, monkeypatch):
        pulled = []
        found = search._search

        def counted(*args):
            covers, keys = found(*args)

            def walked():
                for key in keys:
                    pulled.append(key)
                    yield key

            return covers, walked()

        monkeypatch.setattr(search, "_search", counted)
        squares = stream()
        assert not pulled
        first = next(squares)
        width = len(first.grid.tobytes())
        assert len(pulled) == 1 and pulled[0][:width] == first.grid.tobytes()
        # Then batches of 2 and 4 squares, 3, 3 and 7 squares in all after
        # each next(): each batch reads runs only until they hold its keys.
        keys = [first.grid.tobytes()]
        for want in [3, 3, 7]:
            keys.append(next(squares).grid.tobytes())
            held = sum(map(len, pulled))
            assert held - len(pulled[-1]) < want * width <= held
        keys += [sq.grid.tobytes() for sq in squares]
        assert b"".join(pulled) == b"".join(keys)

    @pytest.mark.parametrize("limit", [0, 1, 2, 4, 5, 37, 38, 256, 10**6])
    def test_capped_count_reads_no_run_past_the_cap(self, limit, monkeypatch):
        pulled = []
        found = search._search

        def counted(*args):
            covers, runs = found(*args)
            return covers, (pulled.append(len(run)) or run for run in runs)

        monkeypatch.setattr(search, "_search", counted)
        start = mofs.verify_mofs([mofs.random_fsquare(F63, random.Random(0))])
        assert not uses_dual(start)
        width = F63.n**2  # one uint8 byte a cell
        for members, total in [(search._NO_MEMBERS, 297200), (start.grids, 64864)]:
            pulled.clear()
            count = search._count(F63, members, SearchConfig(max_results=limit))
            assert count == min(limit, total)
            if limit > total:
                assert sum(pulled) == total * width
            elif limit:
                assert sum(pulled) - pulled[-1] < limit * width <= sum(pulled)
            else:
                assert not pulled

    def test_full_stream_starts_no_collection(self):
        # Batches of at most 256 squares, each dropped before the next is
        # read, stay below the 700 allocations that start a gen-0 collection.
        started = []

        def counted(phase, info):
            if phase == "start":
                started.append(info["generation"])

        thresholds = gc.get_threshold()
        gc.set_threshold(700, 10, 10)
        enabled = gc.isenabled()
        gc.enable()
        try:
            roots = {len(root_buffer(sq.grid)) for sq in mofs.enumerate_fsquares(F63)}
            gc.callbacks.append(counted)
            try:
                for _ in mofs.enumerate_fsquares(F63):
                    pass
            finally:
                gc.callbacks.remove(counted)
        finally:
            gc.set_threshold(*thresholds)
            if not enabled:
                gc.disable()
        assert len(started) <= 2, started
        # 256 squares of one uint8 byte a cell: 9 216 bytes.
        assert max(roots) == 256 * F63.n**2 == 9216


class TestGridType:
    """Every grid of a type is in one dtype, its set's (``core._symbol_type``):
    the narrowest unsigned type that holds m."""

    @pytest.mark.parametrize("p", [F63, mofs.Params(5, 1)])
    def test_every_grid_source_has_the_sets_type(self, p, monkeypatch):
        # Greedy growth's member stack stays narrow from step to step.
        stacks, found = [], search._search

        def recorded(params, members, *args):
            stacks.append(members.dtype)
            return found(params, members, *args)

        monkeypatch.setattr(search, "_search", recorded)
        grown = mofs.grow_maximal(p, SearchConfig(seed=3, force=True))
        start = mofs.verify_mofs([mofs.random_fsquare(p, random.Random(p.n))])
        want = start.grids.dtype
        assert want == np.uint8
        grid = start.grids[0].tolist()
        capped = SearchConfig(max_results=300)
        inds = mofs.indicators(start.squares[0])
        sets = [
            start,
            grown,
            mofs.grow_maximal(start, SearchConfig(seed=0, force=True)),
            mofs.decode(mofs.encode(start)),
            mofs.construct_prime_power(2, 3) if p.m == 2 else mofs.construct_prime_power(5, 1),
            mofs.construct_federer(mofs.hadamard(8)),
        ]
        sources = [
            mofs.make_fsquare(p, np.array(grid, np.int64)),
            mofs.make_fsquare(p, np.array(grid, np.uint64)),
            *mofs.enumerate_fsquares(p, capped),
            *mofs.extensions(start, capped),
            mofs.reconstruct(inds),
            *(sq for mset in sets for sq in mset.squares),
        ]
        assert all(mset.grids.dtype == want for mset in sets)
        assert {sq.grid.dtype for sq in sources} == {want}
        assert len(stacks) >= 3 and set(stacks) == {want}

    def test_f256_square_is_uint16(self):
        p = mofs.Params(256, 1)
        sq = mofs.random_fsquare(p, random.Random(0))
        mset = mofs.verify_mofs([sq])
        assert sq.grid.dtype == mset.grids.dtype == mset.squares[0].grid.dtype == np.uint16
        assert mset.squares[0] == sq
        assert core._wrap(p, sq.grid.tobytes()) == [sq]

    def test_multi_block_set_shares_one_narrow_buffer(self, monkeypatch):
        p = mofs.Params(2, 4)
        blocks_of(monkeypatch, p, 4)
        full = mofs.construct_prime_power(2, 3)
        assert full.t == 49 > core._tile(p)
        roots = [root_buffer(sq.grid) for sq in full.squares]
        assert type(roots[0]) is bytes and all(root is roots[0] for root in roots)
        # t n^2 cells of one uint8 byte each.
        assert len(roots[0]) == full.t * p.n**2 * np.dtype(np.uint8).itemsize == 3136
        assert roots[0] == full.grids.tobytes()


def pinned_growth(m, lam, seed):
    """The greedy set that GROW_PINS pins for (m, lam, seed)."""
    p = mofs.Params(m, lam)
    if m == 2:
        return mofs.grow_maximal(p, SearchConfig(seed=seed))
    # Latin types grow from one random square.
    start = mofs.verify_mofs([mofs.random_fsquare(p, random.Random(seed))])
    return mofs.grow_maximal(start, SearchConfig(seed=seed, force=True))


class TestGrowMaximal:
    @pytest.mark.parametrize("m,lam,seed", sorted(GROW_PINS))
    def test_pinned_sets(self, m, lam, seed):
        grown = pinned_growth(m, lam, seed)
        assert (grown.t, set_digest(grown)) == GROW_PINS[(m, lam, seed)]

    @pytest.mark.parametrize("lam", [1, 2, 3])
    def test_m1_refused(self, lam):
        # The only F(lam;lam) square is orthogonal to itself, so greedy
        # growth would append it forever.
        p = mofs.Params(1, lam)
        only = next(mofs.enumerate_fsquares(p))
        for seed_set in (p, mofs.verify_mofs([only])):
            with pytest.raises(UndefinedForMOne):
                mofs.grow_maximal(seed_set, SearchConfig(seed=0))

    @pytest.mark.parametrize(
        "config", [SearchConfig(seed=0, max_results=10**9), SearchConfig(seed=0, max_results=0)]
    )
    def test_rejects_restricted_search(self, config):
        # A capped search can stop before the set is maximal: any cap is
        # refused, even one above every count.
        with pytest.raises(mofs.MofsError, match="whole search space"):
            mofs.grow_maximal(mofs.Params(2, 3), config)

    def test_already_maximal_unchanged(self, federer4):
        grown = mofs.grow_maximal(federer4, SearchConfig(seed=0))
        assert grown.squares == federer4.squares

    def test_deterministic(self):
        p = mofs.Params(2, 2)
        a = mofs.grow_maximal(p, SearchConfig(seed=123))
        b = mofs.grow_maximal(p, SearchConfig(seed=123))
        assert a.squares == b.squares

    def test_result_is_maximal(self):
        p = mofs.Params(2, 2)
        grown = mofs.grow_maximal(p, SearchConfig(seed=5))
        assert mofs.exhaustive_maximality(grown)

    def test_respects_bound(self):
        p = mofs.Params(2, 2)
        grown = mofs.grow_maximal(p, SearchConfig(seed=9))
        assert grown.t <= mofs.upper_bound(p).value


class TestCountExtensions:
    @pytest.mark.parametrize("m,lam,seed", [(2, 3, 0), (2, 3, 1), (5, 1, 0), (5, 1, 1)])
    def test_matches_extension_stream(self, m, lam, seed, tmp_path, capsys):
        grown = pinned_growth(m, lam, seed)
        mset = mofs.verify_mofs(grown.squares[:-1])
        config = SearchConfig(force=True)
        expected = len(list(mofs.extensions(mset, config)))
        assert search._count(mset.params, mset.grids, config) == expected >= 1
        path = tmp_path / "set.mofs"
        path.write_text(mofs.encode(mset))
        assert main(["extend", str(path), "--exhaustive", "--force"]) == 0
        out = capsys.readouterr().out
        assert out == f"extensions: {expected}\nmaximal: no (exhaustive search)\n"


class TestExhaustiveMaximality:
    def test_complete_set_true(self, federer4):
        assert mofs.exhaustive_maximality(federer4)

    def test_f63_singleton_false(self):
        p = mofs.Params(2, 3)
        rng = random.Random(0)
        mset = mofs.verify_mofs([mofs.random_fsquare(p, rng)])
        assert not mofs.exhaustive_maximality(mset)

    @pytest.mark.parametrize(
        "config", [SearchConfig(max_results=10**9), SearchConfig(max_results=0)]
    )
    def test_rejects_restricted_search(self, config):
        p = mofs.Params(2, 2)
        first = next(mofs.enumerate_fsquares(p))
        second = next(mofs.extensions(mofs.verify_mofs([first])))
        mset = mofs.verify_mofs([first, second])
        assert not mofs.exhaustive_maximality(mset)
        with pytest.raises(mofs.MofsError, match="whole search space"):
            mofs.exhaustive_maximality(mset, config)

    def test_guard_applies(self):
        p = mofs.Params(2, 4)
        s = mofs.random_fsquare(p, random.Random(1))
        with pytest.raises(InfeasibleSizeGuard):
            mofs.exhaustive_maximality(mofs.verify_mofs([s]))


class TestGuardRule:
    """One rule: the size guard runs exactly where the engine runs, and
    never where covers answer (counted, streamed or picked from)."""

    @pytest.fixture
    def guarded(self, monkeypatch):
        calls, guard = [], search._guard

        def recorded(params, config):
            calls.append(params)
            return guard(params, config)

        monkeypatch.setattr(search, "_guard", recorded)
        return calls

    def test_enumeration_is_guarded(self, guarded):
        p = mofs.Params(2, 2)
        next(mofs.enumerate_fsquares(p))
        mofs.count_fsquares(p)
        assert guarded == [p, p]

    @pytest.mark.parametrize(
        "config", [SearchConfig(force=True), SearchConfig(force=True, max_results=3)]
    )
    def test_dual_path_is_never_guarded(self, config, guarded):
        mset = f51_singleton()
        assert uses_dual(mset)
        assert list(mofs.extensions(mset, config))
        assert search._count(mset.params, mset.grids, config)
        assert not guarded

    def test_maximality_is_guarded_on_the_engine(self, guarded):
        assert not mofs.exhaustive_maximality(f51_singleton())
        assert not guarded
        p = mofs.Params(2, 3)
        mset = mofs.verify_mofs([mofs.random_fsquare(p, random.Random(0))])
        assert not uses_dual(mset)
        assert not mofs.exhaustive_maximality(mset)
        assert guarded == [p]

    def test_growth_is_guarded(self, guarded, monkeypatch):
        # Up front only the row-pattern table that the seeded order
        # shuffles; then each engine step, like any walk.  A one-square
        # F(5;1) set starts on the linear dual, so its table is all.
        steps, engine = [], search._engine

        def counted(*args):
            steps.append(args[0])
            return engine(*args)

        monkeypatch.setattr(search, "_engine", counted)
        mset, p = f51_singleton(), mofs.Params(2, 2)
        assert uses_dual(mset)
        mofs.grow_maximal(mset, SearchConfig(seed=0))
        assert guarded == [mset.params] and not steps
        guarded.clear()
        mofs.grow_maximal(p, SearchConfig(seed=0))
        assert steps and guarded == [p] * (1 + len(steps))


class TestRandomFSquare:
    def test_always_valid(self):
        rng = random.Random(3)
        for m, lam in [(2, 1), (2, 3), (3, 2), (4, 1), (4, 3)]:
            p = mofs.Params(m, lam)
            for _ in range(5):
                s = mofs.random_fsquare(p, rng)
                mofs.make_fsquare(p, s.grid)  # revalidate from scratch


# Greedy sets beyond GROW_PINS that the linear-dual path is checked on.
DUAL_SOURCES = sorted(GROW_PINS) + [(2, 3, 3), (2, 3, 4), (5, 1, 4), (5, 1, 5)]
DUAL_SOURCES += [(m, 1, seed) for m in (3, 4) for seed in range(4)]


@lru_cache(maxsize=None)
def dual_inputs(m, lam, seed):
    """A greedy set and its subsets with the last 1-3 members dropped."""
    grown = pinned_growth(m, lam, seed)
    return [grown] + [
        mofs.verify_mofs(grown.squares[:-drop]) for drop in (1, 2, 3) if drop < grown.t
    ]


def search_outcomes(mset):
    """What every search entry point makes of ``mset``: greedy growth under
    three seeds picks by three first-row orders."""
    config = SearchConfig(force=True)
    return (
        search._count(mset.params, mset.grids, config),
        grids(mofs.extensions(mset, config)),
        grids(mofs.extensions(mset, SearchConfig(force=True, max_results=3))),
        mofs.exhaustive_maximality(mset, config),
        *(
            grids(mofs.grow_maximal(mset, SearchConfig(seed=seed, force=True)).squares)
            for seed in (7, 8, 9)
        ),
    )


def uses_dual(mset):
    return search._candidates(mset.params, mset.grids) is not None


def without_table(monkeypatch):
    """Send Latin types to the meet in the middle, as every other type."""
    monkeypatch.setattr(search, "_permutation_matrices", lambda params: None)


def free_cells(mset):
    """D, the paper's bound less the set's size: the dimension of W."""
    return (mset.params.n - 1) ** 2 - mset.t * (mset.params.m - 1)


def constrained(mset):
    """Whether the linear dual row-reduces the members' constraints: they
    are fewer than D <= ``_DUAL_MAX_D``."""
    return mset.t * (mset.params.m - 1) < free_cells(mset) <= search._DUAL_MAX_D


def both_sides(mset):
    """The candidates of each side of the linear dual, constraints first,
    as sorted bytes."""
    p, g = mset.params, mset.grids
    return [
        sorted(map(bytes, search._zero_one(p, g, *side(p, g))))
        for side in (search._reduce_constraints, search._reduce_draws)
    ]


@lru_cache(maxsize=None)
def near_complete_sets():
    """Complete F(8;4) and F(9;3) sets less their last 1 or 5 squares."""
    return [
        mofs.verify_mofs(full.squares[:-removed])
        for full in (mofs.construct_prime_power(2, 3), mofs.construct_prime_power(3, 2))
        for removed in (1, 5)
    ]


class TestWideSymbolSets:
    """Extension streams of m = 11 sets walk the 11! symbol assignments of a
    cover lazily, and the maximality check counts covers instead; both stay
    well inside a 2 GB address space (11! x 11 int64 alone is 3.5 GB)."""

    def test_complete_f11_set_under_a_memory_cap(self):
        script = textwrap.dedent(
            """
            import resource, time
            import mofs
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, hard))
            full = mofs.construct_prime_power(11, 1)
            config = mofs.SearchConfig(force=True)
            for mset, maximal in ((full, True), (mofs.verify_mofs(full.squares[:-1]), False)):
                start = time.perf_counter()
                assert mofs.exhaustive_maximality(mset, config) is maximal
                middle = time.perf_counter()
                assert (next(mofs.extensions(mset, config), None) is None) is maximal
                print(middle - start, time.perf_counter() - middle)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(mofs.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        seconds = [float(word) for word in done.stdout.split()]
        assert len(seconds) == 4 and max(seconds) < 1, seconds


class TestLinearDual:
    """The linear-dual search against the engine, which runs wherever the
    cap on free cells is below every D."""

    @pytest.mark.parametrize("m,lam,seed", DUAL_SOURCES)
    def test_matches_the_engine(self, m, lam, seed, monkeypatch):
        # Three sides for Latin types: the permutation-matrix table, the
        # meet in the middle, and the engine; two for the others.
        sets = dual_inputs(m, lam, seed)
        table = [search_outcomes(mset) for mset in sets]
        assert (search._permutation_matrices(sets[0].params) is None) == (lam > 1)
        without_table(monkeypatch)
        dual = [search_outcomes(mset) for mset in sets]
        assert any(map(uses_dual, sets))
        monkeypatch.setattr(search, "_DUAL_MAX_D", -1)
        assert not any(map(uses_dual, sets))
        assert [search_outcomes(mset) for mset in sets] == dual == table

    @pytest.mark.parametrize(
        "m,lam,seed,t,found", [(2, 3, 0, 6, 20), (2, 3, 1, 6, 36), (2, 3, 2, 6, 20), (3, 2, 1, 3, 30)]
    )
    def test_nineteen_free_cells_match_the_engine_in_order(self, m, lam, seed, t, found):
        # The first t members of a greedy F(6;3) or F(6;2) set leave
        # D = 19, the most free cells the linear dual takes.
        p = mofs.Params(m, lam)
        grown = mofs.grow_maximal(p, SearchConfig(seed=seed, force=True))
        members = grown.grids[:t]
        assert (p.n - 1) ** 2 - t * (m - 1) == search._DUAL_MAX_D == 19
        covers, runs = search._search(p, members, SearchConfig(force=True))
        assert covers is not None
        runs = list(runs)
        # The covers give one key a run; keys all have one width, so the
        # joined runs are equal exactly when the keys are.
        assert len(runs) == found
        assert b"".join(runs) == b"".join(search._engine(p, members, None))

    @pytest.mark.parametrize("k", range(10))
    def test_half_matches_the_doubling_loop(self, k):
        # Column u subtracts free[i] for each bit i set in u, the order in
        # which doubling the table one free cell at a time lists them.
        rng, p = np.random.default_rng(k), search._PRIME
        reduced = rng.integers(0, p, (7, 12)).astype(np.int32)
        free = rng.permutation(12)[:k].tolist()
        start = rng.integers(0, p, 7).astype(np.int32)
        want = start[:, None] % p
        for j in free:
            want = np.concatenate((want, (want - reduced[:, j, None]) % p), axis=1)
        got = search._half(reduced, free, p, start)
        assert got.dtype == np.int32 and np.array_equal(got, want)

    def test_half_is_exact_at_its_largest_sums(self):
        # Ten free cells, the most a half of D <= 19 has, each p - 1 (p - 2
        # in one row, whose odd sums pass 2^24): every float64 sum of the
        # product is exact.
        p = search._PRIME
        reduced = np.full((3, 12), p - 1, np.int32)
        reduced[1] = p - 2
        free = [11, 0, 5, 2, 9, 1, 7, 3, 10, 4]
        want = np.zeros((3, 1), np.int64)
        for j in free:
            want = np.concatenate((want, (want - reduced[:, j, None]) % p), axis=1)
        got = search._half(reduced, free, p, np.zeros(3, np.int32))
        assert got.dtype == np.int32 and np.array_equal(got, want)

    def test_complete_sets_are_answered_without_a_solve(self, monkeypatch):
        # D = 0 leaves W = {0}, whose one point J/m is no 0/1 vector: no
        # draw, projection or elimination is needed to find no extension.
        sets = complete_sets(9)
        assert len(sets) == 12

        def refuse(*args):
            raise AssertionError("a complete set needs no solve")

        for name in ("_draw", "_project", "_row_reduce"):
            monkeypatch.setattr(search, name, refuse)
        config = SearchConfig(force=True)
        for mset in sets:
            assert (mset.params.n - 1) ** 2 == mset.t * (mset.params.m - 1)
            assert search._count(mset.params, mset.grids, config) == 0
            assert mofs.exhaustive_maximality(mset, config)
            assert next(mofs.extensions(mset, config), None) is None

    def test_rank_drop_is_retried(self, monkeypatch):
        # A first draw with two equal vectors has rank below D, so the
        # search must draw again and find the same candidates.  Draws are
        # made where the members have at least D constraints.
        without_table(monkeypatch)
        sets = [
            mset
            for mset in dual_inputs(5, 1, 0) + dual_inputs(5, 1, 4)
            if 2 <= free_cells(mset) <= search._DUAL_MAX_D
            and mset.t * (mset.params.m - 1) >= free_cells(mset)
        ]
        assert len(sets) >= 3
        want = [search._candidates(mset.params, mset.grids) for mset in sets]
        draw, seeds = search._draw, []

        def dependent(seed, d, n):
            seeds.append(seed)
            x = draw(seed, d, n)
            if seed == 0:
                x[-1] = x[0]
            return x

        monkeypatch.setattr(search, "_draw", dependent)
        for mset, expected in zip(sets, want):
            seeds.clear()
            got = search._candidates(mset.params, mset.grids)
            assert seeds == [0, 1]
            assert sorted(map(bytes, got)) == sorted(map(bytes, expected))

    @pytest.mark.parametrize("p", [3, 5])
    def test_small_prime_keeps_every_result(self, p, monkeypatch):
        # The projector needs a prime dividing none of n, lam, m, which
        # leaves mod 3 the F(5;1) and F(8;4) sets and mod 5 the F(8;4) and
        # F(9;3) ones, all with at least D constraints, so drawn.  So small
        # a prime drops the rank of some first draw, and lets many false
        # 0/1 residues through, which the redraw and the exact check must
        # absorb.
        without_table(monkeypatch)
        sets = [
            mset
            for mset in dual_inputs(5, 1, 0) + dual_inputs(5, 1, 4) + near_complete_sets()
            if uses_dual(mset)
            and mset.t * (mset.params.m - 1) >= free_cells(mset)
            and all(k % p for k in (mset.params.n, mset.params.lam, mset.params.m))
        ]
        assert len(sets) >= 2
        expected = [search_outcomes(mset) for mset in sets]
        want = [search._candidates(mset.params, mset.grids) for mset in sets]
        monkeypatch.setattr(search, "_PRIME", p)
        draw, seeds = search._draw, []

        def counted(seed, d, n):
            seeds.append(seed)
            return draw(seed, d, n)

        monkeypatch.setattr(search, "_draw", counted)
        redrawn = 0
        for mset, wanted in zip(sets, want):
            seeds.clear()
            got = search._candidates(mset.params, mset.grids)
            redrawn += len(seeds) > 1
            assert sorted(map(bytes, got)) == sorted(map(bytes, wanted))
        assert redrawn
        assert [search_outcomes(mset) for mset in sets] == expected

    @pytest.mark.parametrize("p", [3, 5])
    def test_small_prime_keeps_every_constraint_result(self, p, monkeypatch):
        # The twin of the test above where the members have fewer than D
        # constraints: mod 3 the one-square F(5;1) sets, mod 5 the F(6;3)
        # ones.  The reduced constraints then let many false 0/1 residues
        # through, which the exact check must absorb.
        without_table(monkeypatch)
        sets = [
            mset
            for mset in dual_inputs(2, 3, 3) + dual_inputs(5, 1, 0) + dual_inputs(5, 1, 4)
            if constrained(mset)
            and all(k % p for k in (mset.params.n, mset.params.lam, mset.params.m))
        ]
        assert len(sets) >= 2
        expected = [search_outcomes(mset) for mset in sets]
        want = [search._candidates(mset.params, mset.grids) for mset in sets]
        monkeypatch.setattr(search, "_PRIME", p)
        draw, seeds = search._draw, []

        def counted(seed, d, n):
            seeds.append(seed)
            return draw(seed, d, n)

        monkeypatch.setattr(search, "_draw", counted)
        undrawn = 0
        for mset, wanted in zip(sets, want):
            seeds.clear()
            got = search._candidates(mset.params, mset.grids)
            undrawn += not seeds
            assert sorted(map(bytes, got)) == sorted(map(bytes, wanted))
        assert undrawn
        assert [search_outcomes(mset) for mset in sets] == expected

    def test_constraint_rank_drop_falls_back_to_draws(self, monkeypatch):
        # Were the constraints to lose rank mod p, as only a test prime can
        # make them, the draws must answer instead, with the same candidates.
        without_table(monkeypatch)
        sets = [mset for mset in dual_inputs(2, 3, 0) + dual_inputs(5, 1, 0) if constrained(mset)]
        assert len(sets) >= 3
        want = [search._candidates(mset.params, mset.grids) for mset in sets]
        row_reduce, draw, seeds = search._row_reduce, search._draw, []

        def lost_rank(a, p):
            # The constraints are reduced before anything is drawn.
            return row_reduce(a, p) if seeds else None

        def counted(seed, d, n):
            seeds.append(seed)
            return draw(seed, d, n)

        monkeypatch.setattr(search, "_row_reduce", lost_rank)
        monkeypatch.setattr(search, "_draw", counted)
        for mset, expected in zip(sets, want):
            seeds.clear()
            got = search._candidates(mset.params, mset.grids)
            assert seeds == [0]
            assert sorted(map(bytes, got)) == sorted(map(bytes, expected))

    def test_constraint_side_needs_no_draw(self, monkeypatch):
        # The twin of test_complete_sets_are_answered_without_a_solve: where
        # the members have fewer than D constraints, they are row-reduced
        # themselves, and nothing is drawn or projected.
        without_table(monkeypatch)
        sets = [
            mset
            for source in [(2, 3, 0), (2, 3, 4), (5, 1, 0), (5, 1, 4)]
            for mset in dual_inputs(*source)
            if constrained(mset)
        ]
        assert len(sets) >= 8
        expected = [search_outcomes(mset) for mset in sets]

        def refuse(*args):
            raise AssertionError("fewer constraints than free cells need no draw")

        for name in ("_draw", "_project"):
            monkeypatch.setattr(search, name, refuse)
        assert [search_outcomes(mset) for mset in sets] == expected

    @pytest.mark.parametrize("m,lam,seed", DUAL_SOURCES)
    def test_both_sides_agree_on_greedy_prefixes(self, m, lam, seed):
        sets = [mset for mset in dual_inputs(m, lam, seed) if 0 < free_cells(mset) <= search._DUAL_MAX_D]
        assert sets
        for mset in sets:
            found = search._candidates(mset.params, mset.grids)
            assert both_sides(mset) == [sorted(map(bytes, found))] * 2

    @pytest.mark.parametrize("m,h,removed", [(2, 3, 1), (2, 3, 5), (3, 2, 3), (2, 4, 2)])
    def test_both_sides_agree_near_complete(self, m, h, removed):
        # F(8;4), F(9;3) and F(16;8) minus a few squares: the members have far
        # more constraints than free cells, so today only the draws run.
        complete = mofs.construct_prime_power(m, h)
        mset = mofs.verify_mofs(complete.squares[:-removed])
        by_constraints, by_draws = both_sides(mset)
        assert by_constraints == by_draws
        n = complete.params.n
        removed_hot = complete.grids[-removed:].reshape(-1, 1, n * n) == np.arange(1, m + 1)[:, None]
        assert set(map(bytes, removed_hot.reshape(-1, n * n).astype(np.uint8))) <= set(by_draws)

    @pytest.mark.parametrize("lam", [1, 2, 3, 4, 5])
    def test_one_symbol_sets_keep_their_one_candidate(self, lam):
        # For m = 1, W is all of Z and J is the one square: D is (n - 1)^2,
        # and 0 for F(1;1).
        p = mofs.Params(1, lam)
        mset = mofs.verify_mofs([mofs.make_fsquare(p, np.ones((lam, lam), int))])
        assert search._candidates(p, mset.grids).tolist() == [[1] * lam * lam]
        assert search._count(p, mset.grids, SearchConfig(force=True)) == 1
        assert not mofs.exhaustive_maximality(mset, SearchConfig(force=True))
        assert grids(mofs.extensions(mset)) == grids(mset.squares)

    @pytest.mark.parametrize("removed,count", [(1, 2), (6, 36), (12, 1296)])
    def test_near_complete_f32_counts(self, removed, count):
        full = mofs.construct_prime_power(2, 5)
        assert search._count(full.params, full.grids[:-removed], SearchConfig(force=True)) == count

    @pytest.mark.parametrize("m,h", [(2, 3), (3, 2)])
    @pytest.mark.parametrize("removed", [1, 2, 3])
    def test_recovers_removed_squares(self, m, h, removed):
        complete = mofs.construct_prime_power(m, h)
        members = mofs.verify_mofs(complete.squares[:-removed])
        assert uses_dual(members)
        found = list(mofs.extensions(members, SearchConfig(force=True)))
        assert set(complete.squares[-removed:]) <= set(found)
        assert grids(found) == sorted(grids(found))
        for square in found:
            mofs.verify_mofs([*members.squares, square])
        assert search._count(members.params, members.grids, SearchConfig(force=True)) == len(
            found
        )

    @pytest.mark.parametrize("m,lam", [(5, 1), (2, 3)])
    def test_greedy_solves_once(self, m, lam, monkeypatch):
        # After the first full solve each step filters the last step's
        # covers by the square it added.
        calls, covered = [], []

        def counted(params, members):
            found = candidates(params, members)
            if found is not None:
                calls.append(len(members))
            return found

        def counted_covers(params, found):
            covered.append(len(found))
            return covers(params, found)

        candidates, covers = search._candidates, search._covers
        monkeypatch.setattr(search, "_candidates", counted)
        monkeypatch.setattr(search, "_covers", counted_covers)
        p = mofs.Params(m, lam)
        for seed in range(3):
            start = mofs.verify_mofs([mofs.random_fsquare(p, random.Random(seed))])
            calls.clear()
            covered.clear()
            grown = mofs.grow_maximal(start, SearchConfig(seed=seed, force=True))
            assert len(calls) == len(covered) == 1 and grown.t > 2
            assert mofs.exhaustive_maximality(grown, SearchConfig(force=True))

    @pytest.mark.parametrize("m,h,removed", [(2, 3, 2), (2, 4, 3)])
    def test_greedy_regrows_near_complete_sets_unforced(self, m, h, removed):
        # The linear dual answers at once, so growth is guarded only for the
        # row-pattern table, which fits for F(8;4) and F(16;8).
        complete = mofs.construct_prime_power(m, h)
        members = mofs.verify_mofs(complete.squares[:-removed])
        grown = mofs.grow_maximal(members, SearchConfig(seed=0))
        assert grown.t == complete.t
        assert grown == mofs.grow_maximal(members, SearchConfig(seed=0, force=True))
        assert mofs.exhaustive_maximality(grown)


def cyclic_square(n):
    """The one-square set of the Cayley table of Z_n, symbols 1..n."""
    i, j = np.indices((n, n))
    return mofs.verify_mofs([mofs.make_fsquare(mofs.Params(n, 1), (i + j) % n + 1)])


def mates_by_exact_cover(grid):
    """The Latin squares orthogonal to ``grid``, counted apart from the
    library: its transversals by brute force over the n! permutations,
    then every partition of the cells into n of them by bitmask exact
    cover, each one n! squares (one symbol per transversal)."""
    n = len(grid)
    found = [
        sum(1 << (i * n + s[i]) for i in range(n))
        for s in permutations(range(n))
        if len({grid[i][s[i]] for i in range(n)}) == n
    ]

    def covers(left):
        if not left:
            return 1
        low = left & -left
        return sum(covers(left & ~t) for t in found if t & low and t & left == t)

    return len(found), covers((1 << n * n) - 1) * factorial(n)


class TestPermutationTable:
    """For lam = 1 a candidate indicator is a permutation matrix, so a search
    with members takes its candidates from the type's n! of them, checked
    against every member."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_the_table_is_every_permutation_matrix(self, n):
        table = search._permutation_matrices(mofs.Params(n, 1))
        if n >= 8:
            # 8^2 8! passes the block budget of 2^20 entries.
            assert table is None
            return
        assert table.dtype == np.uint8 and not table.flags.writeable
        want = sorted(np.eye(n, dtype=np.uint8)[list(s)].tobytes() for s in permutations(range(n)))
        assert sorted(map(bytes, table)) == want

    @pytest.mark.parametrize("m,lam", [(2, 2), (2, 3), (3, 2), (1, 2)])
    def test_only_latin_types_have_a_table(self, m, lam):
        assert search._permutation_matrices(mofs.Params(m, lam)) is None

    def test_the_rule_computes_no_large_factorial(self):
        # n^2 n! passes the budget after one factor, at once even for a
        # type whose n! has tens of millions of digits.
        assert search._permutation_matrices(mofs.Params(10**7, 1)) is None

    @pytest.mark.parametrize("n,count", [(2, 0), (3, 3), (4, 0), (5, 15), (6, 0), (7, 133)])
    def test_cyclic_transversals_match_oeis(self, n, count):
        # OEIS A006717: Z_n has 3, 15, 133 transversals for n = 3, 5, 7,
        # and an even n none.
        mset = cyclic_square(n)
        assert len(search._candidates(mset.params, mset.grids)) == count

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_cyclic_mates_match_an_exact_cover(self, n):
        mset = cyclic_square(n)
        transversals, mates = mates_by_exact_cover(mset.grids[0].tolist())
        assert len(search._candidates(mset.params, mset.grids)) == transversals
        assert search._count(mset.params, mset.grids, SearchConfig()) == mates
        assert not mofs.exhaustive_maximality(mset)

    def test_tarry_first_lexicographic_latin_squares_of_order_6(self):
        # Tarry: no Latin square of order 6 has an orthogonal mate.  Most
        # of the first 200 have transversals, so their covers are searched.
        p = mofs.Params(6, 1)
        squares = list(mofs.enumerate_fsquares(p, SearchConfig(max_results=200)))
        assert len(squares) == 200
        with_transversals = 0
        for square in squares:
            mset = mofs.verify_mofs([square])
            with_transversals += len(search._candidates(p, mset.grids)) > 0
            assert search._count(p, mset.grids, SearchConfig()) == 0
            assert mofs.exhaustive_maximality(mset)
            assert mofs.grow_maximal(mset).t == 1
        assert with_transversals > 100


def complete_sets(most):
    """Every complete set the library constructs with n <= ``most``."""
    sets = []
    for m in range(2, most + 1):
        if prime_power_decomposition(m) is None:
            continue
        h = 1
        while m**h <= most:
            sets.append(mofs.construct_prime_power(m, h))
            h += 1
    for order in (4, 8, 12, 16):
        if order <= most:
            sets.append(mofs.construct_federer(mofs.hadamard(order)))
    return sets


def random_systems(count, seed):
    """Integer systems [A | b] of many shapes, with dependent rows, zero
    columns and inconsistent right-hand sides among them."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        rows, cols = (int(x) for x in rng.integers(1, 30, 2))
        system = rng.integers(-3, 4, (rows, cols + 1))
        if k % 2:
            # Rank at most 3, so most right-hand sides are inconsistent.
            system[:, :-1] = rng.integers(-3, 4, (rows, 3)) @ rng.integers(-3, 4, (3, cols))
        if k % 3 == 0 and rows > 2:
            system[-1] = system[0] + 2 * system[1]
        if k % 5 == 0:
            system[:, rng.integers(0, cols)] = 0
        yield system


def in_w(mset, basis):
    """Whether every row of ``basis`` lies in W mod p: zero row and column
    sums, and orthogonal to every indicator of every member."""
    p, n, m = search._PRIME, mset.params.n, mset.params.m
    cells = basis.reshape(-1, n, n)
    hot = mset.grids.reshape(mset.t, 1, -1) == np.arange(1, m + 1)[:, None]
    products = hot.reshape(-1, n * n).astype(np.int64) @ basis.T % p
    sums = np.concatenate((cells.sum(axis=1), cells.sum(axis=2))) % p
    return not sums.any() and not products.any()


class TestElimination:
    """The column loop that row-reduces the projected draws, and the
    projector onto W that they are drawn through."""

    @pytest.mark.parametrize("seed", [1, 3, 7, 128])
    def test_random_systems_match_the_loop(self, seed):
        # Reduced echelon form is unique, so the loop oracle, which swaps in
        # the largest residue, reaches the same rows when the rank is full.
        outcomes = set()
        for system in random_systems(300, seed):
            want = loop_row_reduce(np.column_stack((system, 0 * system[:, 0])), search._PRIME)
            got = system % search._PRIME
            pivots = search._row_reduce(got, search._PRIME)
            full = len(want[0]) == len(system)
            assert pivots == (want[0] if full else None)
            if full:
                assert np.array_equal(got, want[1][:, :-1])
            outcomes.add(full)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "system",
        [
            # A zero leading entry with a nonzero one below it: a swap.
            [[0, 2, 1, 5], [3, 1, 4, 1], [1, 0, 0, 2]],
            # Every leading entry nonzero: row r is always the pivot row.
            [[2, 1, 5, 1], [1, 3, 7, 2], [4, 1, 1, 3]],
        ],
    )
    def test_pivot_rows_match_the_loop(self, system):
        p = search._PRIME
        system = np.array(system, np.int64)
        want = loop_row_reduce(np.column_stack((system, 0 * system[:, 0])), p)
        got = system % p
        assert search._row_reduce(got, p) == want[0] == [0, 1, 2]
        assert np.array_equal(got, want[1][:, :-1])

    @pytest.mark.parametrize("d,k", [(0, 0), (0, 4), (1, 0), (3, 1), (5, 4)])
    def test_interiors_map_into_z(self, d, k):
        # The given interior is kept, and the last row and column complete
        # zero row and column sums mod p, for any count of points.
        p, n = search._PRIME, k + 1
        y = search._draw(d + k, d, k)
        z = search._in_z(y)
        assert z.shape == (d, n * n) and z.dtype == np.int64
        assert ((0 <= z) & (z < p)).all()
        cells = z.reshape(d, n, n)
        assert np.array_equal(cells[:, :k, :k], y)
        assert not (cells.sum(axis=1) % p).any() and not (cells.sum(axis=2) % p).any()

    def test_a_point_of_z_is_its_interior(self):
        # The centred indicators I_a(S) - J/m lie in Z, so their interiors
        # map back to them.
        p, params = search._PRIME, mofs.Params(3, 2)
        square = mofs.random_fsquare(params, random.Random(5))
        hot = square.grid.reshape(1, -1) == np.arange(1, 4)[:, None]
        centred = (hot - pow(3, -1, p)) % p
        interiors = centred.reshape(3, 6, 6)[:, :5, :5]
        assert np.array_equal(search._in_z(interiors), centred)

    @pytest.mark.parametrize("m,h,removed", [(2, 4, 1), (2, 4, 3), (3, 3, 2)])
    def test_near_complete_projections_span_w(self, m, h, removed):
        # F(16;8) and F(27;9): the projected draws lie in W, have rank D,
        # and span the centred indicators of the removed squares.
        complete = mofs.construct_prime_power(m, h)
        p, n = search._PRIME, complete.params.n
        members = mofs.verify_mofs(complete.squares[:-removed])
        d = removed * (m - 1)
        z = search._in_z(search._draw(0, d, n - 1))
        basis = search._project(complete.params, members.grids, z)
        assert in_w(members, basis)
        free = search._row_reduce(basis, p)
        assert len(free) == d and in_w(members, basis)
        hot = complete.grids[-removed:].reshape(removed, 1, -1) == np.arange(1, m + 1)[:, None]
        centred = (hot.reshape(-1, n * n) - pow(m, -1, p)) % p
        assert np.array_equal(centred[:, free] @ basis % p, centred)

    def test_complete_sets_leave_no_free_cell(self):
        # For a complete set W is 0: the projector sends every draw to 0,
        # D = 0, and the one point J/m is no indicator.
        sets = complete_sets(16)
        assert len(sets) == 19
        for mset in sets:
            n = mset.params.n
            z = search._in_z(search._draw(0, 3, n - 1))
            assert not search._project(mset.params, mset.grids, z).any()
            assert search._candidates(mset.params, mset.grids).shape == (0, n * n)


@pytest.mark.parametrize(
    "call",
    [
        mofs.count_fsquares,
        lambda params: next(mofs.enumerate_fsquares(params)),
        mofs.grow_maximal,
    ],
)
def test_guard_runs_before_any_n_by_n_array(call):
    # n = 10^21 cannot shape an (n, n) array.
    with pytest.raises(InfeasibleSizeGuard):
        call(mofs.Params(10**9, 10**12))
