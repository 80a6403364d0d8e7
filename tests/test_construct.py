import dataclasses
import hashlib
import itertools
import random
import time

import numpy as np
import pytest

import mofs
from mofs.construct import (
    ConstructionSelfCheckFailed,
    NotNormalized,
    NotPrime,
    NotPrimePower,
    UnsupportedOrder,
    UnsupportedSize,
    _self_check_field,
    field_build,
    is_prime,
    prime_power_decomposition,
)
from mofs.fileformat import encode

# SHA-256 digests recorded before the field tables became numpy arrays.
# encode(construct_prime_power(m, h)) for every supported m^h <= 32.
PRIME_POWER_PINS = {
    (2, 1): "61b389df61c9d9ca9af1c45bfbf4932b12ff3d2fb499a699e2ba4cb435711c78",
    (2, 2): "e7cd1973118d6b9a92be056b3e9ced95c832bfc928a98e42a53e391cd08bee7c",
    (2, 3): "cfa78f018349e46da6d6464b204d7608a128c5c97ebfe27ba97555edd4731f17",
    (2, 4): "331945e023592db3fe6984ac07919cca7629e65b4028a5a0dac6e275247676b5",
    (2, 5): "268541248a07e17eebc25b835e812643d3248eb765b6888aa90264744debede4",
    (3, 1): "cff45fe6cf4feb29b177975239a7a9291f1eecc560e121ca28236899d9d42ac1",
    (3, 2): "b0a74cfc86a9a16f4b12b8d9c0b5c82ffdad9092b148b31a8afaa6731ede01d3",
    (3, 3): "c3b233a5c91a653d0dde129662450a70c341207a532b3f104a0756e0a3253ce2",
    (4, 1): "0d1c5b5a2a8573405ef09941e97cbfad6082a2cd4bbaa7b3bc092adfc43011c6",
    (4, 2): "77527874e918611d46486da58d7ce6f22ab30c6839b4fea31122a7b4811be551",
    (5, 1): "cca373a01945ca6dc41e44e3ee754361834fd410d8048dfcecbb5d446c7edec5",
    (5, 2): "25b5f48806dbc6eb0a32a511b2a07acdb3d98497171ad57546a3c54b307265da",
    (7, 1): "3b07f0810d8986880e42aacd9bb4b4631859d999a8f1030b45f0b6eb4be80830",
    (8, 1): "defa94e50a59bdce8bc37c49228e96fb038449753b7ad606fab7f2849f13015d",
    (9, 1): "47acc950ea243c86c4622a4b6917ea2185052eda8fdc3c90485ddf3121ef0adf",
    (11, 1): "b4028868e18bbf9954c0ba2a93595c521d98ee52bb95ab279fd1b8c5d73c6831",
    (13, 1): "f04c829808f59b49ceeaa54215f9e5d97ff972e64e6e1be6d6c48a58e93d4fb1",
    (16, 1): "0d734d6e57931bae0d8a43f003e1d692693de79b9e894836eff62dc8a55507af",
    (17, 1): "46d7570e084e2bf4d7cfc1c127ef23be4eaa8247de0ab8764389de5443ecedfa",
    (19, 1): "bbb22ad7846607d44eba20de056e474b2346e5e9c1e5697c2a3be6c5924d449e",
    (23, 1): "f599c4a7261d0bbded738be8ba95ab209c9b1595fe3f6403e33d57194a7e2d58",
    (25, 1): "0faab1dfd20f913e1c8048f8d383f56da29a3b5a632c27404feb59509ced0f3f",
    (27, 1): "14c0db12238662d6a7ff194f3f58b424696c214b864398deeff21a707fbdc050",
    (29, 1): "2dcbe132f88d73df80eec0dd959050cf4a89bc0c800a44e1e8e1d5f96d889a9c",
    (31, 1): "487321c1bedd08400cdcea2efeb8ac89b3d29678eb840dfd61136de484b6335e",
    (32, 1): "62b23fa4237a2e6668179d67c9a4b22230780fc7afbd5c3fdab601424e3bf16a",
}
# encode(construct_federer(hadamard(order))) for the Paley orders.
FEDERER_PINS = {
    12: "4179540d064f51b41d99f274c4bc2a86cbd6f8c387e4cc59465274c28b8a137a",
    20: "0c59989482acc1064007f37bc8602f7bb9591b44bd9a61dadb4ea13c39b06328",
    24: "39c19f3e8c8b1cd0584898ae1d9a3dd532f02a66b5e572d6a3e62e9154163eb1",
    28: "e92946c08d28540066a94a37a13576c0fed46825db6524d26d81c367be7248e0",
}
# hadamard(order).entries as little-endian int64 bytes.
HADAMARD_PINS = {
    44: "a15032676944894b5cff9982705639f64898628a465f500c8998ce7ebdb5cb3d",
    60: "9652b597fdc984b01f99bf107200f5c85fedbbf1b80fed1dff0fdd3d9f1f6240",
}
# (add_table, mul_table) of field_build(p, k) as little-endian int64 bytes.
FIELD_PINS = {
    (2, 1): (
        "db7f8e2aa97f8d230fc0a6c6d68184ecfee02f4bd2e94dcb331c0d3d54ca5fe8",
        "013f21dd7052786e2c338b57f23ec2c7feb0c12f7b3b28fbb5affaca27103f51",
    ),
    (2, 2): (
        "cd18db5001222f5aa2e67a2e1ec7bedb6c97259bc407ac0536383a96da99ee0d",
        "474cf06ceecdd9b03e3393a168cc7647d618e70ce2198a12bd3fc725fbf43a97",
    ),
    (2, 3): (
        "0c36cc322607a32c2601840aee7d820a15923b3392136668df7c8d17e989bd1d",
        "b4c2ddaec51f537d05ddb97b8c98d34fd459015c2542bd52d75be6cb17333385",
    ),
    (2, 4): (
        "c23e73c80b6902c1670d2df346cd510da5d240bd407974e24df4a5817441102f",
        "b046715b8028e85995ded1d0c46fda22cb437f4139bac09ae950c835e1cb211b",
    ),
    (2, 5): (
        "5f7df29d5dcb6897b8b0815a90cdbb8a57ec6f4400c1b065c85cc434ec3f4766",
        "9db49a981e72f1d950c2f4f07c8e5d12eea08444efbe3c13db3e8bcb3ebc05f8",
    ),
    (3, 1): (
        "39b5a26cf03bff464965d7ec144cb47b82d08f2515fd002d90938db9c0bce396",
        "700c6daf40792c6cfe05bb5f47b8baf925f68a582bcb1213ee0f6ccfab6ed101",
    ),
    (3, 2): (
        "86ac843ff1f14f5e253c6a868c1e724d099bd0dead8bc4ba455b694640caacfa",
        "570c990a2f2314c268389c708e4b5a936a9c166f15e7c8db6ce137e164484d5c",
    ),
    (3, 3): (
        "8a032eac974c725cbf23aacc99f03c332755dea9bc057d60e3d354e91c1d4011",
        "a1a7d8805ba20f94455139e4ce0c8eae5129d81e53dc63ad07519f93f453e8d5",
    ),
    (5, 1): (
        "6542d32fd342e7404d46814798e1298a1b62ae33fae40b1f8687c0d3b5e4b515",
        "ffb2bb9fe974ea5c79f3679f44d9714a10e5103c6d39c07135a3c9f09dcc7ec3",
    ),
    (5, 2): (
        "35ca85530c66b2ee7b5fd560bb93d1c67c150f676411d637d0683fd41fa1f3d8",
        "1f48e17724f49906873dfb15428c9e9eee07443230fd7e2f67702d66818aab62",
    ),
    (7, 1): (
        "4f3ec518c1dfcfa28a7b0ab20620f40ac4afe010cb1afbced380587bab956a28",
        "9152747bdc6c526df8d068505ea79c2955e9708df163c7fe29d304334a5cbb22",
    ),
    (11, 1): (
        "16316db26e0e6e1a7637adeebc4b9d03efbe49dca05867ad27cd9a2d1492d462",
        "974bba06bdd3d707356a50fc136986db73333828f56d4533c18e10a01f1c7bf5",
    ),
    (13, 1): (
        "7cf6f5a6ca4df23c599e9280e75100f0ab24f26f9db0200c803bc83484d12deb",
        "2e949bc4fccbfb950c86be1110adcdd8838bc2ec1a337ea8d3b1f52eae4c3437",
    ),
    (17, 1): (
        "1ec5bd98caea9d44cedd5012b44cb041be3b1b39cbe2b85fcc8b5ac55ee5dde4",
        "1c7e38a33850e88c85a0f12fcdd41657e86258c9c30a4f83e12828e889772580",
    ),
    (19, 1): (
        "818f8069068fc5488ad63e7d8ed5603bf663d44c61c930488db99dcd97a9cdc1",
        "468f70d9f0d611f6091dbfca4957e22d3624f2526e18e37181301fc60942577b",
    ),
    (23, 1): (
        "6850011df6613b8decc5232719c25deba31565bf62184a913b3f4a9db1546550",
        "80c833cdb6d3f589d6974ecfcecbb2d5b79e8f39b5a1670bf0d1741a097b16de",
    ),
    (29, 1): (
        "92b30b09219057de33fe2d04c94a797d9d1a0ef8496e15bcd59d63dda6336fdd",
        "5989fb71f98f8307dbff24359d06aa29eda44001f59ecdbcfb43fb99a8c371fd",
    ),
    (31, 1): (
        "2ca7ce459adc5db9c3e9f9d4d00ceb983bcc0cbd891e18e747c9ceb0c38c3478",
        "0f5bc0439b4d5b05cf615fa82e4e6778267c809f484e7618f0de80d5b29c11f0",
    ),
    (37, 1): (
        "42a0fab736ebd6b1cec1ca364c464afca3670edea51470136eb206e6e1225697",
        "771681a7a8876c0333087f1e733e7e04c39750503b51e20f32f27fa9ecf7b3ac",
    ),
    (41, 1): (
        "8d33a79f91988e6661e3b9cef8341986b6dc7a714cf266a88fe0b9eb632ef2f3",
        "4a8162abd99f62cdf8c589bce9c0ef130007d50127aa87c2b652840a47c43d74",
    ),
    (43, 1): (
        "f15a28bfff9889146a6d9015fd5b1cbfd5a12ca19a8c863b4a3a136e75a7c8bd",
        "3baf563d59efba1b63e1cc45e8ef70ebeb031f8dc7ba426e43b91df1d2f0594d",
    ),
    (47, 1): (
        "2b210923d95883a094d0ecdf8666de623338303bdcc88ecf8fe1ac5b603d0fc8",
        "914c51df01e7c7604a53780217b7d6b463eb36eb5dbcf5494a743559e52244be",
    ),
    (53, 1): (
        "f109063bb06069b02537fc45685ea64755b2eba2f9e026c5d576ff8bdd88fb22",
        "41168bc5f8c7be98001e3aef11fe27c6022653cc762eef83913fe4bee19e69ed",
    ),
    (59, 1): (
        "50643f5eff2da494c6e8167d6b6b93b4c7bf70610340a070fe90a38f043eb28d",
        "60d6ebbacf4e4e501b5fdd8ac5d459e2e4ef939df8105b67fd80a81b119df093",
    ),
}

# The moduli once tabled for the seven extension fields up to GF(32), low
# coefficient first with the leading 1: an oracle for field_build's rule.
TABLED_MODULI = {
    (2, 2): (1, 1, 1),  # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),  # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1
    (3, 2): (1, 0, 1),  # x^2 + 1
    (3, 3): (1, 2, 0, 1),  # x^3 + 2x + 1
    (5, 2): (1, 1, 1),  # x^2 + x + 1
}


def reducible(poly, p: int) -> bool:
    """Whether the monic ``poly`` over GF(p), low coefficient first, has a
    monic factor of degree 1 .. deg/2, by trial division."""
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            rest = list(poly)
            for shift in range(k - d, -1, -1):
                lead = rest[shift + d]
                for j, c in enumerate((*low, 1)):
                    rest[shift + j] = (rest[shift + j] - lead * c) % p
            if not any(rest[:d]):
                return True
    return False


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def table_digest(table) -> str:
    return sha256(np.ascontiguousarray(table, dtype="<i8").tobytes())


class TestFieldBuild:
    def test_gf3_is_mod_arithmetic(self):
        f = field_build(3, 1)
        x = np.arange(3)
        assert (f.add_table == (x[:, None] + x) % 3).all()
        assert (f.mul_table == (x[:, None] * x) % 3).all()

    def test_gf4_product(self):
        # Elements index by polynomial coefficients: 2 is x, 3 is x + 1.
        # x (x + 1) = x^2 + x = 1 modulo x^2 + x + 1.
        f = field_build(2, 2)
        assert f.mul_table[2, 3] == 1

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
                assert f.mul_table[a, b] == mul_poly(a, b)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            field_build(4, 1)

    def test_too_large(self):
        with pytest.raises(UnsupportedSize):
            field_build(2, 6)

    @pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2), (3, 3), (2, 5)])
    def test_inverses(self, p, k):
        f = field_build(p, k)
        x = np.arange(1, f.q)
        # a^(q-2), by repeated table lookups, is the inverse of a ...
        inv = np.ones_like(x)
        for _ in range(f.q - 2):
            inv = f.mul_table[inv, x]
        assert (f.mul_table[x, inv] == 1).all()
        # ... and every nonzero row of the product table holds exactly one 1.
        assert ((f.mul_table[1:] == 1).sum(axis=1) == 1).all()

    def test_indices_zero_and_one(self):
        f = field_build(3, 2)
        x = np.arange(f.q)
        assert (f.add_table[:, 0] == x).all()
        assert (f.mul_table[:, 1] == x).all()

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 5), (3, 3), (59, 1)])
    def test_tables_are_read_only_int64(self, p, k):
        f = field_build(p, k, max_q=59)
        for table in (f.add_table, f.mul_table):
            assert table.dtype == np.int64 and table.shape == (f.q, f.q)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1

    @pytest.mark.parametrize("p,k", sorted(FIELD_PINS))
    def test_tables_match_pins(self, p, k):
        f = field_build(p, k, max_q=59)
        assert (table_digest(f.add_table), table_digest(f.mul_table)) == FIELD_PINS[p, k]

    def test_pins_cover_every_supported_field(self):
        primes = {(p, 1) for p in range(2, 60) if is_prime(p)}
        assert set(FIELD_PINS) == set(TABLED_MODULI) | primes

    @pytest.mark.parametrize("p,k", sorted(TABLED_MODULI))
    def test_modulus_is_the_first_irreducible_with_constant_term_1(self, p, k):
        # Coefficient-value order: the low coefficients are the base-p
        # digits of 1, 1 + p, 1 + 2p, ..., the lowest digit first.
        lows = (tuple(i // p**j % p for j in range(k)) for i in range(1, p**k, p))
        first = next(low for low in lows if not reducible((*low, 1), p))
        assert (*first, 1) == TABLED_MODULI[p, k]
        # In the field, x is element p, and x^k is -low(x).
        f, power = field_build(p, k), 1
        for _ in range(k):
            power = f.mul_table[power, p]
        assert [power // p**j % p for j in range(k)] == [-c % p for c in first]

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (5, 1), (2, 3)])
    def test_self_check_catches_every_single_entry_change(self, p, k):
        f = field_build(p, k)
        for name in ("add_table", "mul_table"):
            table = getattr(f, name)
            for (a, b), value in np.ndenumerate(table):
                for other in range(f.q):
                    if other == value:
                        continue
                    bad = table.copy()
                    bad[a, b] = other
                    with pytest.raises(ConstructionSelfCheckFailed):
                        _self_check_field(dataclasses.replace(f, **{name: bad}))

    @pytest.mark.parametrize("p,k", [(3, 3), (2, 5), (43, 1)])
    def test_self_check_catches_sampled_entry_changes(self, p, k):
        f = field_build(p, k, max_q=43)
        rng = random.Random(p * k)
        for _ in range(40):
            name = rng.choice(("add_table", "mul_table"))
            bad = getattr(f, name).copy()
            a, b = rng.randrange(f.q), rng.randrange(f.q)
            bad[a, b] = (bad[a, b] + rng.randrange(1, f.q)) % f.q
            with pytest.raises(ConstructionSelfCheckFailed):
                _self_check_field(dataclasses.replace(f, **{name: bad}))

    @pytest.mark.parametrize("value", [-1, 4])
    def test_self_check_rejects_entries_outside_the_field(self, value):
        f = field_build(2, 2)
        bad = f.mul_table.copy()
        bad[3, 3] = value
        with pytest.raises(ConstructionSelfCheckFailed):
            _self_check_field(dataclasses.replace(f, mul_table=bad))


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


class TestOutputPins:
    def test_prime_power_pins_cover_every_supported_size(self):
        sizes = {
            (m, h)
            for m in range(2, 33)
            for h in range(1, 6)
            if m**h <= 32 and prime_power_decomposition(m)
        }
        assert set(PRIME_POWER_PINS) == sizes

    @pytest.mark.parametrize("m,h", sorted(PRIME_POWER_PINS))
    def test_prime_power_sets(self, m, h):
        text = encode(mofs.construct_prime_power(m, h))
        assert sha256(text.encode()) == PRIME_POWER_PINS[m, h]

    @pytest.mark.parametrize("order", sorted(FEDERER_PINS))
    def test_federer_sets(self, order):
        text = encode(mofs.construct_federer(mofs.hadamard(order)))
        assert sha256(text.encode()) == FEDERER_PINS[order]

    @pytest.mark.parametrize("order", sorted(HADAMARD_PINS))
    def test_paley_hadamard_entries(self, order):
        assert table_digest(mofs.hadamard(order).entries) == HADAMARD_PINS[order]


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


class TestValueEquality:
    def test_equal_builds_compare_and_hash_equal(self):
        for a, b in [
            (mofs.hadamard(4), mofs.hadamard(4)),
            (mofs.hadamard(12), mofs.hadamard(12)),
            (field_build(2, 2), field_build(2, 2)),
            (field_build(5, 1), field_build(5, 1)),
        ]:
            assert a is not b
            assert a == b and not a != b
            assert hash(a) == hash(b)

    def test_different_values_compare_unequal(self):
        h4 = mofs.hadamard(4)
        flipped = dataclasses.replace(h4, normalized=False)
        assert h4 != mofs.hadamard(8)
        assert h4 != flipped
        assert h4 != dataclasses.replace(h4, entries=-h4.entries)
        assert field_build(2, 2) != field_build(2, 3)
        assert field_build(2, 2) != field_build(3, 1)
        f = field_build(3, 1)
        assert f != dataclasses.replace(f, mul_table=f.add_table)
        # Same bytes, other shape or dtype.
        assert h4 != dataclasses.replace(h4, entries=h4.entries.reshape(2, 8))
        assert h4 != dataclasses.replace(h4, entries=h4.entries.view(np.uint64))
        assert h4 != "not a matrix" and field_build(2, 2) != h4

    def test_usable_in_sets(self):
        hs = {mofs.hadamard(o) for o in (4, 8, 4, 12, 8)}
        assert hs == {mofs.hadamard(4), mofs.hadamard(8), mofs.hadamard(12)}
        fields = {field_build(p, k) for p, k in [(2, 2), (3, 1), (2, 2), (3, 1)]}
        assert len(fields) == 2 and field_build(2, 2) in fields


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

    def test_rejects_a_flagged_matrix_that_is_not_normalized(self):
        entries = mofs.hadamard(8).entries.copy()
        entries[:, 3] *= -1
        with pytest.raises(NotNormalized):
            mofs.construct_federer(mofs.HadamardMatrix(8, entries, True))

    def test_rejects_entries_of_another_shape(self):
        with pytest.raises(UnsupportedOrder, match=r"expected shape \(8, 8\), got \(8, 4\)"):
            mofs.construct_federer(mofs.HadamardMatrix(8, np.ones((8, 4)), True))

    def test_rejects_order_two(self):
        with pytest.raises(UnsupportedOrder):
            mofs.construct_federer(mofs.HadamardMatrix(2, np.array([[1, 1], [1, -1]]), True))
