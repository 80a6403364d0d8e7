import time

import numpy as np
import pytest

import mofs
from mofs.construct import (
    NotNormalized,
    NotPrime,
    NotPrimePower,
    UnsupportedOrder,
    UnsupportedSize,
    field_build,
    prime_power_decomposition,
)


class TestFieldBuild:
    def test_gf3_is_mod_arithmetic(self):
        f = field_build(3, 1)
        for a in range(3):
            for b in range(3):
                assert f.add(a, b) == (a + b) % 3
                assert f.mul(a, b) == (a * b) % 3

    def test_gf4_product(self):
        # Elements index by polynomial coefficients: 2 is x, 3 is x + 1.
        # x (x + 1) = x^2 + x = 1 modulo x^2 + x + 1.
        f = field_build(2, 2)
        assert f.mul(2, 3) == 1

    def test_gf4_oracle_polynomial_multiplication(self):
        # Independent oracle: multiply coefficient polynomials over GF(2)
        # and reduce by x^2 + x + 1 symbolically.
        f = field_build(2, 2)

        def mul_poly(a, b):
            a0, a1 = a & 1, a >> 1
            b0, b1 = b & 1, b >> 1
            c0 = a0 * b0
            c1 = a0 * b1 + a1 * b0
            c2 = a1 * b1
            # x^2 == x + 1
            return ((c0 + c2) % 2) | (((c1 + c2) % 2) << 1)

        for a in range(4):
            for b in range(4):
                assert f.mul(a, b) == mul_poly(a, b)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            field_build(4, 1)

    def test_too_large(self):
        with pytest.raises(UnsupportedSize):
            field_build(2, 6)

    @pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2), (3, 3), (2, 5)])
    def test_inverses(self, p, k):
        f = field_build(p, k)
        for a in range(1, f.q):
            assert f.mul(a, f.inv(a)) == 1

    def test_indices_zero_and_one(self):
        f = field_build(3, 2)
        for a in range(f.q):
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a


class TestPrimePowerDecomposition:
    @pytest.mark.parametrize(
        "n,expected",
        [(2, (2, 1)), (8, (2, 3)), (9, (3, 2)), (27, (3, 3)), (6, None), (1, None)],
    )
    def test_cases(self, n, expected):
        assert prime_power_decomposition(n) == expected


class TestConstructPrimePower:
    @pytest.mark.parametrize(
        "m,h,count",
        [
            (2, 1, 1),
            (3, 1, 2),
            (2, 2, 9),
            (5, 1, 4),  # (5 - 1)^2 / (5 - 1): the classical 4 MOLS of order 5
            (2, 3, 49),
            (3, 2, 32),
            (4, 1, 3),
        ],
    )
    def test_complete_set_sizes(self, m, h, count):
        mset = mofs.construct_prime_power(m, h)
        assert mset.t == count
        assert mset.params == mofs.Params(m, m ** (h - 1))
        bound = mofs.upper_bound(mset.params)
        assert bound.exact and mset.t == bound.value

    def test_mols3_grids_orthogonal_by_oracle(self):
        from conftest import naive_superposition

        s1, s2 = mofs.construct_prime_power(3, 1).squares
        assert (naive_superposition(s1.grid, s2.grid, 3) == 1).all()

    def test_structure_matches(self):
        rep = mofs.completeness_structure(mofs.construct_prime_power(3, 2))
        assert rep.is_complete and rep.structure_matches

    def test_not_prime_power(self):
        with pytest.raises(NotPrimePower):
            mofs.construct_prime_power(6, 1)

    def test_too_large(self):
        with pytest.raises(UnsupportedSize):
            mofs.construct_prime_power(2, 6)

    def test_gf32_set_builds_and_verifies_quickly(self):
        start = time.perf_counter()
        mset = mofs.construct_prime_power(2, 5)
        mofs.verify_mofs(mset.squares)
        elapsed = time.perf_counter() - start
        assert mset.t == 961 and mset.params == mofs.Params(2, 16)
        assert elapsed < 5

    def test_deterministic(self):
        a = mofs.construct_prime_power(2, 2)
        b = mofs.construct_prime_power(2, 2)
        assert a.squares == b.squares


class TestHadamard:
    @pytest.mark.parametrize("order", [1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 64])
    def test_orthogonal_rows(self, order):
        h = mofs.hadamard(order)
        ent = h.entries
        assert set(np.unique(ent)) <= {-1, 1}
        # Oracle: all pairwise row dot products vanish.
        gram = ent @ ent.T
        assert (gram == order * np.eye(order, dtype=int)).all()

    def test_normalized(self):
        h = mofs.hadamard(12)
        assert (h.entries[0] == 1).all() and (h.entries[:, 0] == 1).all()

    def test_order4_is_sylvester(self):
        h = mofs.hadamard(4)
        expected = np.array(
            [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        )
        assert (h.entries == expected).all()

    @pytest.mark.parametrize("order", [3, 6, 36, 52, 128])
    def test_unsupported_orders(self, order):
        with pytest.raises(UnsupportedOrder):
            mofs.hadamard(order)


class TestConstructFederer:
    @pytest.mark.parametrize(
        "order,count,lam", [(4, 9, 2), (8, 49, 4), (12, 121, 6)]
    )
    def test_complete_sets(self, order, count, lam):
        mset = mofs.construct_federer(mofs.hadamard(order))
        assert mset.t == count
        assert mset.params == mofs.Params(2, lam)
        rep = mofs.completeness_structure(mset)
        assert rep.is_complete and rep.structure_matches

    def test_rejects_unnormalized(self):
        h = mofs.hadamard(4)
        flipped = mofs.HadamardMatrix(4, -h.entries, False)
        with pytest.raises(NotNormalized):
            mofs.construct_federer(flipped)

    def test_rejects_order_two(self):
        with pytest.raises(UnsupportedOrder):
            mofs.construct_federer(mofs.HadamardMatrix(2, np.array([[1, 1], [1, -1]]), True))
