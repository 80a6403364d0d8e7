"""Maximal (non-extendable) sets and parity certificates.

A set of mutually orthogonal frequency squares is maximal when no further
square is orthogonal to all of its members — it may still be far below
the completeness bound.  For odd lam there is a cheap sufficient
condition: reduce each square's symbols mod 2, stack one row of parity
bits per square, and look for a specific complementary block pattern.
If it appears (and is not constant), the set is provably maximal with no
search at all.
"""

import mofs
from mofs.search import SearchConfig

p = mofs.Params(m=2, lam=3)  # F(6;3)
print(f"growing random maximal sets of F({p.n};{p.lam})")
print(f"completeness bound: {mofs.upper_bound(p).value}\n")

grown = []
for seed in range(16):
    mset = mofs.grow_maximal(p, SearchConfig(seed=seed))
    verdict = mofs.maximality_verdict(mset)
    grown.append((mset, verdict))
    if verdict.certified:
        cert = verdict.certificate
        note = f"parity certificate (x={cert.x}, y={cert.y})"
    else:
        note = "no certificate (greedy dead end only)"
    print(f"  seed {seed}: t = {mset.t:2d}  {note}")

# Cross-check one certified run against brute force: a certificate claims
# no extension exists, and exhaustive search over all 297200 candidate
# squares must agree.
for seed, (mset, verdict) in enumerate(grown):
    if verdict.certified:
        agrees = mofs.exhaustive_maximality(mset)
        print(f"\nseed {seed}: exhaustive search confirms maximality: {agrees}")
        rep = mofs.parity_report(verdict.certificate, p, mset.t)
        print(f"all parity congruences hold: {rep.all_hold}")
        break

# The certificate must be non-constant: an all-ones parity matrix (three
# cyclic order-3 Latin squares, each contributing an all-ones parity row
# pattern) proves nothing, and the detector returns None.  The three are
# not mutually orthogonal, so no MofsSet holds them; their parity matrix is
# built here from their symbol-1 indicator squares.
p3 = mofs.Params(3, 1)
cyclic = [
    [[1, 2, 3], [3, 1, 2], [2, 3, 1]],
    [[2, 3, 1], [1, 2, 3], [3, 1, 2]],
    [[3, 1, 2], [2, 3, 1], [1, 2, 3]],
]
bits = sum(mofs.indicator(mofs.make_fsquare(p3, grid), 1) for grid in cyclic) % 2
pm = mofs.ParityMatrix(p3, 3, (1, 1, 1), bits)
print(f"\nconstant parity matrix -> certificate: {mofs.detect_full_relation(pm)}")
