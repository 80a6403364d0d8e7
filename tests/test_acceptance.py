"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they pass.
"""

import random
import time

import numpy as np
import pytest

import mofs
from mofs.search import SearchConfig, count_binary_matrices

from conftest import (
    CYCLIC_TRIPLE,
    EXAMPLE_GRID,
    EXAMPLE_I1,
    EXAMPLE_I2,
    EXAMPLE_I3,
    brute_force_full_relation,
    naive_fsquares,
    unverified_set,
)

GREEDY_SEEDS = list(range(20))


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def greedy_runs():
    """Twenty seeded greedy growths on F(6;3), shared by criteria 8 and 9."""
    p = mofs.Params(2, 3)
    return [
        mofs.grow_maximal(p, SearchConfig(seed=seed)) for seed in GREEDY_SEEDS
    ]


def test_criterion_1_golden_vectors():
    start = time.perf_counter()
    s = mofs.make_fsquare(mofs.Params(3, 2), EXAMPLE_GRID)
    for a, expected in [(1, EXAMPLE_I1), (2, EXAMPLE_I2), (3, EXAMPLE_I3)]:
        assert (mofs.indicator(s, a) == np.array(expected)).all()
    assert mofs.reconstruct(mofs.indicators(s)) == s
    elapsed = time.perf_counter() - start
    assert elapsed < 0.05
    report(1, f"worked-example indicators and reconstruction ({elapsed*1e3:.2f} ms)")


def test_criterion_2_inner_product_invariants():
    rng = random.Random(20260824)
    combos = [(m, lam) for m in (2, 3, 4) for lam in (1, 2, 3)]
    total = 0
    prev = {}
    while total < 1000:
        for m, lam in combos:
            p = mofs.Params(m, lam)
            s = mofs.random_fsquare(p, rng)
            total += 1
            j = mofs.all_ones(p)
            for a in range(1, m + 1):
                ind = mofs.indicator(s, a)
                assert mofs.inner(ind, ind) == m * lam * lam
                assert mofs.inner(ind, j) == m * lam * lam
            if p in prev:
                other = prev[p]
                counts = mofs.superposition_counts(s, other)
                assert mofs.orthogonal(s, other) == bool(
                    (counts == lam * lam).all()
                )
            prev[p] = s
    report(2, f"{total} random squares, zero discrepancies")


def test_criterion_3_prime_power_complete_sets():
    start = time.perf_counter()
    # Sizes follow (m^h - 1)^2 / (m - 1); for (5, 1) that is 4 (the
    # classical complete set of 4 MOLS of order 5).
    cases = [
        (2, 1, 1),
        (3, 1, 2),
        (2, 2, 9),
        (5, 1, 4),
        (2, 3, 49),
        (3, 2, 32),
        (4, 1, 3),
    ]
    for m, h, count in cases:
        mset = mofs.construct_prime_power(m, h)
        assert mset.t == count == (m**h - 1) ** 2 // (m - 1)
        mofs.verify_mofs(mset.squares)
        bound = mofs.upper_bound(mset.params)
        assert bound.exact and mset.t == bound.value
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    report(3, f"7 prime-power complete sets ({elapsed:.1f} s)")


@pytest.fixture(scope="module")
def federer_sets():
    return {
        order: mofs.construct_federer(mofs.hadamard(order))
        for order in (4, 8, 12)
    }


def test_criterion_4_federer_sets(federer_sets):
    start = time.perf_counter()
    for order, count in [(4, 9), (8, 49), (12, 121)]:
        mset = federer_sets[order]
        assert mset.t == count
        assert mset.params == mofs.Params(2, order // 2)
        mofs.verify_mofs(mset.squares)
        bound = mofs.upper_bound(mset.params)
        assert bound.exact and mset.t == bound.value
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    report(4, f"Hadamard-derived complete sets of 9/49/121 ({elapsed:.1f} s)")


def test_criterion_5_structure_identities(federer_sets):
    sets = [mofs.construct_prime_power(m, h) for m, h in
            [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (4, 1)]]
    sets += list(federer_sets.values())
    for mset in sets:
        m, lam, n = mset.params.m, mset.params.lam, mset.params.n
        t = mset.t
        rep = mofs.completeness_structure(mset)
        t_mat = rep.t_matrix
        assert rep.structure_matches
        assert t_mat[0, 0] == 0
        assert (t_mat[0, 1:] == lam * (n - 1)).all()
        assert (t_mat[1:, 0] == lam * (n - 1)).all()
        assert (t_mat[1:, 1:] == lam * (n - 2)).all()
        assert t_mat.sum() == t * (m - 1) * m * lam * lam
        assert (t_mat**2).sum() == t * (m - 1) * lam * lam * (t * (m - 1) + 1)
    report(5, f"structure matrix and entry-sum identities on {len(sets)} sets")


def test_criterion_6_enumeration_counts():
    start = time.perf_counter()
    assert mofs.count_fsquares(mofs.Params(2, 1)) == 2
    assert mofs.count_fsquares(mofs.Params(3, 1)) == len(
        naive_fsquares(mofs.Params(3, 1))
    ) == 12
    assert mofs.count_fsquares(mofs.Params(2, 2)) == len(
        naive_fsquares(mofs.Params(2, 2))
    ) == 90
    big = mofs.count_fsquares(mofs.Params(2, 3), SearchConfig(force=True))
    assert big == 297200
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(6, f"counts 2/12/90/297200 ({elapsed:.1f} s)")


def test_criterion_7_constant_parity_guard():
    p = mofs.Params(3, 1)
    mset = unverified_set(p, CYCLIC_TRIPLE)
    pm = mofs.parity_matrix(mset, (1, 1, 1))
    assert (pm.bits == 1).all()
    assert mofs.detect_full_relation(pm) is None
    report(7, "all-ones parity matrix yields no certificate")


def test_criterion_8_certificate_cross_validation(greedy_runs):
    p = mofs.Params(2, 3)
    certified = 0
    for mset in greedy_runs:
        verdict = mofs.maximality_verdict(mset)
        if verdict.certified:
            certified += 1
            start = time.perf_counter()
            assert mofs.exhaustive_maximality(mset)
            assert time.perf_counter() - start < 120
            rep = mofs.parity_report(verdict.certificate, p, mset.t)
            assert rep.lemma6_i and rep.lemma6_ii and rep.lemma7_t_odd
            assert rep.prop9 and rep.cor10
    report(
        8,
        f"{len(greedy_runs)} greedy runs, {certified} certificates, all"
        f" confirmed by exhaustive search",
    )


def test_criterion_9_size_spectrum(greedy_runs):
    allowed = {1, 17} | set(range(5, 16))
    sizes = sorted(mset.t for mset in greedy_runs)
    assert all(size in allowed for size in sizes), sizes
    assert max(sizes) <= 17
    assert all(size < 25 for size in sizes)
    report(9, f"greedy maximal sizes {sizes} within the published spectrum")


def test_criterion_10_detector_equivalence():
    start = time.perf_counter()
    checked = 0

    def check(bits):
        nonlocal checked
        checked += 1
        n = bits.shape[0]
        params = mofs.Params(2, n // 2) if n % 2 == 0 else mofs.Params(n, 1)
        pm = mofs.ParityMatrix(params, 1, (1,), bits)
        cert = mofs.detect_full_relation(pm)
        oracle = brute_force_full_relation(bits)
        if cert is None:
            assert not oracle, bits
        else:
            assert (cert.x, cert.y) in oracle, bits

    for n in (1, 2, 3, 4):
        for code in range(1 << (n * n)):
            check(
                np.array(
                    [[code >> (i * n + j) & 1 for j in range(n)] for i in range(n)]
                )
            )
    rng = np.random.default_rng(20260824)
    for _ in range(500):
        check(rng.integers(0, 2, size=(6, 6)))
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(10, f"{checked} matrices, zero disagreements ({elapsed:.1f} s)")


def test_criterion_11_file_round_trip(tmp_path, federer_sets, capsys):
    from mofs.cli import main
    from mofs.fileformat import decode, encode

    sets = [mofs.construct_prime_power(m, h) for m, h in
            [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (4, 1)]]
    sets += list(federer_sets.values())
    for mset in sets:
        text = encode(mset)
        assert decode(text).squares == mset.squares
        assert encode(decode(text)) == text
    good = tmp_path / "good.mofs"
    good.write_text(encode(federer_sets[4]))
    assert main(["verify", str(good)]) == 0
    bad = tmp_path / "bad.mofs"
    bad.write_text("MOFS m=2 lambda=1 count=1\n1 1\n2 2\n")
    assert main(["verify", str(bad)]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    capsys.readouterr()
    report(11, f"encode/decode identity on {len(sets)} sets, exit codes 0/1/2")
