import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mofs
from mofs import maximality
from mofs.core import SymbolOutOfRange
from mofs.maximality import LengthMismatch

from conftest import blocks_of, brute_force_full_relation, hand_built_sets


def pm_from_bits(bits, t=1, choice=None):
    bits = np.asarray(bits, dtype=np.int64)
    n = bits.shape[0]
    params = mofs.Params(2, n // 2) if n % 2 == 0 else mofs.Params(n, 1)
    return mofs.ParityMatrix(params, t, choice or (1,) * t, bits)


@pytest.fixture(scope="module")
def latin3():
    """A one-square F(3;1) set."""
    return mofs.verify_mofs([mofs.random_fsquare(mofs.Params(3, 1), random.Random(0))])


SYMBOL_CALLS = {
    "indicator": lambda mset, a: mofs.indicator(mset.squares[0], a),
    "parity_matrix": lambda mset, a: mofs.parity_matrix(mset, [a]),
    "extra_choices": lambda mset, a: mofs.maximality_verdict(mset, [(a,)]),
}


@pytest.mark.parametrize("call", SYMBOL_CALLS)
@pytest.mark.parametrize("bad", [1.5, np.float64(1.0), True, "1", None])
def test_non_integer_symbols_are_refused(latin3, call, bad):
    with pytest.raises(mofs.MofsError, match="a symbol must be an integer"):
        SYMBOL_CALLS[call](latin3, bad)


@pytest.mark.parametrize(
    "extra,error",
    [(("x",), mofs.MofsError), ((99,), SymbolOutOfRange), ((1, 1), LengthMismatch)],
)
def test_bad_extra_choice_is_refused_after_a_certificate(extra, error):
    # Seed 8 grows a one-square F(6;3) set that a uniform choice certifies,
    # so the extra choice is never needed, but is still checked.
    mset = mofs.grow_maximal(mofs.Params(2, 3), mofs.SearchConfig(seed=8))
    assert mofs.maximality_verdict(mset).certified
    with pytest.raises(error):
        mofs.maximality_verdict(mset, [extra])


def test_numpy_integer_symbols_are_symbols(latin3):
    indicator = SYMBOL_CALLS["indicator"]
    assert np.array_equal(indicator(latin3, np.int64(2)), indicator(latin3, 2))
    pm, want = mofs.parity_matrix(latin3, [np.int64(2)]), mofs.parity_matrix(latin3, [2])
    assert pm.symbol_choice == want.symbol_choice and np.array_equal(pm.bits, want.bits)


class TestParityMatrix:
    def test_cyclic_triple_sums_to_ones(self, cyclic_triple_set):
        pm = mofs.parity_matrix(cyclic_triple_set, (1, 1, 1))
        assert (pm.bits == 1).all()

    def test_singleton_is_indicator(self, example_square):
        mset = mofs.verify_mofs([example_square])
        pm = mofs.parity_matrix(mset, (1,))
        assert (pm.bits == mofs.indicator(example_square, 1)).all()

    def test_m1_constant(self):
        p = mofs.Params(1, 2)
        s = mofs.make_fsquare(p, np.ones((2, 2), dtype=int))
        mset = mofs.MofsSet(p, np.stack([s.grid] * 3))
        pm = mofs.parity_matrix(mset, (1, 1, 1))
        assert (pm.bits == 1).all()  # t odd, every indicator is J

    def test_bad_choice_length(self, cyclic_triple_set):
        with pytest.raises(LengthMismatch):
            mofs.parity_matrix(cyclic_triple_set, (1, 1))

    def test_bad_symbol(self, cyclic_triple_set):
        with pytest.raises(SymbolOutOfRange):
            mofs.parity_matrix(cyclic_triple_set, (1, 4, 1))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_row_col_sums_mod2(self, seed):
        rng = random.Random(seed)
        p = mofs.Params(2, 2)
        squares = [mofs.random_fsquare(p, rng)]
        while True:
            mset = mofs.verify_mofs(squares)
            pm = mofs.parity_matrix(mset, (1,) * mset.t)
            parity = (mset.t * p.lam) % 2
            assert all(s % 2 == parity for s in pm.bits.sum(axis=1))
            assert all(s % 2 == parity for s in pm.bits.sum(axis=0))
            if mset.t >= 3:
                break
            nxt = next(mofs.extensions(mset), None)
            if nxt is None:
                break
            squares.append(nxt)


def parity_reference(mset, choice):
    """Parity bits by a loop over the squares."""
    n = mset.params.n
    acc = np.zeros((n, n), dtype=np.int64)
    for s, a in zip(mset.squares, choice):
        acc += s.grid == a
    return acc & 1


def random_choices(mset, rng, count):
    m = mset.params.m
    uniform = [(a,) * mset.t for a in (1, m)]
    drawn = [tuple(rng.randint(1, m) for _ in range(mset.t)) for _ in range(count)]
    return uniform + drawn


class TestParityAgainstLoop:
    @pytest.mark.parametrize("name", ["pp33", "pp52", "federer24"])
    def test_complete_sets(self, workload_complete_sets, name):
        mset = workload_complete_sets[name]
        for choice in random_choices(mset, random.Random(name), 4):
            pm = mofs.parity_matrix(mset, choice)
            assert pm.bits.dtype == np.int64
            assert (pm.bits == parity_reference(mset, choice)).all()

    @pytest.mark.parametrize("mset", hand_built_sets())
    def test_hand_built_sets(self, mset):
        for choice in random_choices(mset, random.Random(mset.t), 10):
            pm = mofs.parity_matrix(mset, choice)
            assert pm.bits.dtype == np.int64
            assert (pm.bits == parity_reference(mset, choice)).all()

    def test_first_bad_symbol_in_choice_order(self, cyclic_triple_set):
        with pytest.raises(SymbolOutOfRange, match="symbol 0 not"):
            mofs.parity_matrix(cyclic_triple_set, (2, 0, 4))

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: mofs.construct_prime_power(2, 5), id="pp25"),
            pytest.param(lambda: mofs.construct_federer(mofs.hadamard(12)), id="federer12"),
        ],
    )
    def test_xor_against_the_sum(self, build):
        # 961 squares of F(32;16): more hits per cell than a uint8 count holds.
        mset = build()
        m = mset.params.m
        uniform = [(a,) * mset.t for a in range(1, m + 1)]
        for choice in uniform + random_choices(mset, random.Random(mset.t), 4):
            pm = mofs.parity_matrix(mset, choice)
            assert pm.bits.dtype == np.int64
            assert np.array_equal(pm.bits, parity_reference(mset, choice))

    def test_plain_and_numpy_ints_mix(self, cyclic_triple_set):
        pm = mofs.parity_matrix(cyclic_triple_set, (1, np.int64(2), 3))
        assert pm.symbol_choice == (1, 2, 3)
        assert {type(a) for a in pm.symbol_choice} == {int}

    @pytest.mark.parametrize("bad", [True, 1.0, "1", None])
    def test_one_non_integer_among_plain_ints(self, cyclic_triple_set, bad):
        with pytest.raises(mofs.MofsError, match="a symbol must be an integer"):
            mofs.parity_matrix(cyclic_triple_set, (1, bad, 2))

    @pytest.mark.parametrize("choice,bad", [((1, 2, 4), 4), ((0, 2, 4), 0), ((3, -1, 9), -1)])
    def test_first_plain_int_out_of_range(self, cyclic_triple_set, choice, bad):
        with pytest.raises(SymbolOutOfRange, match=f"^symbol {bad} not in 1..3$"):
            mofs.parity_matrix(cyclic_triple_set, choice)


class TestDetectFullRelation:
    def test_cyclic_triple_constant_matrix(self, cyclic_triple_set):
        pm = mofs.parity_matrix(cyclic_triple_set, (1, 1, 1))
        assert mofs.detect_full_relation(pm) is None

    def test_explicit_block_matrix(self):
        bits = [[0] * 3 + [1] * 3] * 3 + [[1] * 3 + [0] * 3] * 3
        cert = mofs.detect_full_relation(pm_from_bits(bits))
        assert cert is not None
        assert (cert.x, cert.y) == (3, 3)
        assert cert.row_partition == frozenset({0, 1, 2})
        assert cert.col_partition == frozenset({0, 1, 2})

    def test_three_distinct_patterns(self):
        bits = [
            [0, 0, 1, 1],
            [1, 1, 0, 0],
            [0, 1, 0, 1],
            [1, 0, 1, 0],
        ]
        assert mofs.detect_full_relation(pm_from_bits(bits)) is None

    def test_all_rows_equal_nonconstant(self):
        bits = [[0, 1, 1, 0]] * 4
        cert = mofs.detect_full_relation(pm_from_bits(bits))
        assert cert is not None
        # Canonical orientation folds (4, 2) onto (0, 2).
        assert (cert.x, cert.y) == (0, 2)

    def test_all_zero_and_all_one(self):
        assert mofs.detect_full_relation(pm_from_bits([[0, 0], [0, 0]])) is None
        assert mofs.detect_full_relation(pm_from_bits([[1, 1], [1, 1]])) is None

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.permutations(list(range(6))),
        st.permutations(list(range(6))),
    )
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_permutations(self, seed, rperm, cperm):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(6, 6))
        base = mofs.detect_full_relation(pm_from_bits(bits))
        permuted = bits[np.array(rperm)][:, np.array(cperm)]
        moved = mofs.detect_full_relation(pm_from_bits(permuted))
        if base is None:
            assert moved is None
        else:
            assert moved is not None
            assert (moved.x, moved.y) == (base.x, base.y)

    def test_invariant_under_complement(self):
        bits = np.array([[0] * 4 + [1] * 2] * 1 + [[1] * 4 + [0] * 2] * 5)
        a = mofs.detect_full_relation(pm_from_bits(bits))
        b = mofs.detect_full_relation(pm_from_bits(1 - bits))
        assert a is not None and b is not None
        # Complementing swaps the roles of the column classes.
        assert (b.x, b.y) == (a.x, 6 - a.y)

    def test_agrees_with_brute_force_small(self):
        for n in (2, 3):
            for code in range(1 << (n * n)):
                bits = np.array(
                    [[code >> (i * n + j) & 1 for j in range(n)] for i in range(n)]
                )
                cert = mofs.detect_full_relation(pm_from_bits(bits))
                oracle = brute_force_full_relation(bits)
                if cert is None:
                    assert not oracle
                else:
                    assert (cert.x, cert.y) in oracle


class TestParityReport:
    def test_published_maximal_parameters(self):
        # m=2, lam=3, t=17, (x, y) = (3, 3): every congruence holds.
        cert = mofs.FullRelationCertificate(
            3, 3, frozenset({0, 1, 2}), frozenset({0, 1, 2}), (1,) * 17
        )
        rep = mofs.parity_report(cert, mofs.Params(2, 3), 17)
        assert rep.all_hold

    def test_m2_cor10_is_t_1_mod_4(self):
        cert = mofs.FullRelationCertificate(
            1, 1, frozenset({0}), frozenset({0}), (1,) * 5
        )
        for t in (1, 5, 9, 13):
            assert mofs.parity_report(cert, mofs.Params(2, 1), t).cor10
        for t in (3, 7, 11):
            assert not mofs.parity_report(cert, mofs.Params(2, 1), t).cor10

    def test_odd_m_flags_impossibility(self):
        cert = mofs.FullRelationCertificate(
            1, 1, frozenset({0}), frozenset({0}), (1,) * 3
        )
        rep = mofs.parity_report(cert, mofs.Params(3, 1), 3)
        assert not rep.lemma6_ii

    def test_prop9_orientation_invariant(self):
        # Swapping (x, y) for (n-x, n-y) never changes the verdict when
        # m is even and x + y is even.
        params = mofs.Params(2, 3)
        n = params.n
        for t in (5, 9, 13, 17):
            for x in range(n + 1):
                for y in range(n + 1):
                    if (x + y) % 2:
                        continue
                    c1 = mofs.FullRelationCertificate(
                        x, y, frozenset(), frozenset(), (1,) * t
                    )
                    c2 = mofs.FullRelationCertificate(
                        n - x, n - y, frozenset(), frozenset(), (1,) * t
                    )
                    assert (
                        mofs.parity_report(c1, params, t).prop9
                        == mofs.parity_report(c2, params, t).prop9
                    )


class TestMaximalityVerdict:
    def test_even_lam_no_certificate(self, federer4):
        assert not mofs.maximality_verdict(federer4).certified

    def test_cyclic_triple_no_certificate(self, cyclic_triple_set):
        assert not mofs.maximality_verdict(cyclic_triple_set).certified

    def test_certified_set_cross_validated(self):
        # Hunt a certified-maximal F(6;3) set by seeded greedy growth,
        # then confirm with the exhaustive oracle.
        p = mofs.Params(2, 3)
        for seed in range(40):
            mset = mofs.grow_maximal(p, mofs.SearchConfig(seed=seed))
            verdict = mofs.maximality_verdict(mset)
            if verdict.certified:
                assert mofs.exhaustive_maximality(mset)
                rep = mofs.parity_report(verdict.certificate, p, mset.t)
                assert rep.all_hold
                return
        pytest.fail("no certified maximal set found in 40 seeds")

    @pytest.mark.parametrize("budget", [None, 1, 2])
    def test_uniform_certificates_match_one_choice_at_a_time(self, monkeypatch, budget):
        # parity_matrix against the XOR of the members' indicator squares,
        # with the squares 1 or 2 to a block, or as many as one default block
        # holds; _certificates against detect_full_relation per choice, the
        # uniform choices in symbol order, then the extra ones.
        p = mofs.Params(2, 3)
        sets = [mofs.grow_maximal(p, mofs.SearchConfig(seed=seed)) for seed in (0, 8, 9)]
        sets += [mofs.construct_prime_power(5, 1), mofs.construct_prime_power(3, 1)]
        for mset in sets:
            n, t, m = mset.params.n, mset.t, mset.params.m
            rng = random.Random(t)
            extra = [tuple(rng.randint(1, m) for _ in range(t)) for _ in range(3)]
            choices = [(a,) * t for a in range(1, m + 1)] + extra
            with monkeypatch.context() as patch:
                if budget:
                    blocks_of(patch, mset.params, budget)
                pms = [mofs.parity_matrix(mset, choice) for choice in choices]
                got = list(maximality._certificates(mset, extra))
            for pm, choice in zip(pms, choices):
                want = np.zeros((n, n), np.int64)
                for s, a in zip(mset.squares, choice):
                    want ^= mofs.indicator(s, a)
                assert pm.symbol_choice == choice
                assert pm.bits.dtype == np.int64 and np.array_equal(pm.bits, want)
            assert got == [mofs.detect_full_relation(pm) for pm in pms]
        # Seed 8's one square is certified, so the choices meet a certificate.
        assert any(maximality._certificates(sets[1]))

    def test_parity_matrix_builds_one_block_at_a_time(self, federer64):
        # 3969 squares of 64^2 cells: the whole stack's hits would take
        # 16 MB, one block (256 squares) 1 MB.
        tracemalloc.start()
        try:
            pm = mofs.parity_matrix(federer64, (1,) * federer64.t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pm.bits.shape == (64, 64)
        assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_user_supplied_choice(self, cyclic_triple_set):
        verdict = mofs.maximality_verdict(
            cyclic_triple_set, extra_choices=[(1, 2, 3)]
        )
        # Whatever the outcome, supplying choices must not crash; the
        # cyclic triple stays uncertified for every uniform choice.
        assert isinstance(verdict, mofs.MaximalityVerdict)
