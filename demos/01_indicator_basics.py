"""Frequency squares as sums of 0/1 indicator squares.

A frequency square F(n; lam) over m = n/lam symbols has every symbol
exactly lam times in each row and column.  Splitting it into one 0/1
array per symbol, S = sum_a a * I_a(S), turns combinatorial statements
about squares into integer inner products between those arrays.
"""

import numpy as np

import mofs

p = mofs.Params(m=3, lam=2)
grid = [
    [1, 2, 3, 1, 2, 3],
    [3, 1, 2, 3, 2, 1],
    [2, 3, 1, 2, 1, 3],
    [1, 1, 2, 3, 3, 2],
    [3, 3, 1, 2, 1, 2],
    [2, 2, 3, 1, 3, 1],
]
s = mofs.make_fsquare(p, grid)
print(f"an F({p.n};{p.lam}) square over {p.m} symbols:\n{s.grid}\n")

for a in range(1, p.m + 1):
    ind = mofs.indicator(s, a)
    print(f"indicator of symbol {a} (row sums {ind.sum(axis=1).tolist()}):")
    print(ind, end="\n\n")

# The indicators partition the cells, so sum_a a * I_a recovers the square.
assert mofs.reconstruct(mofs.indicators(s)) == s
print("reconstruct(indicators(s)) == s")

# Two invariants every indicator satisfies: its inner product with itself
# and with the all-ones matrix both equal m * lam^2.
j = mofs.all_ones(p)
i1 = mofs.indicator(s, 1)
print(f"inner(I1, I1) = {mofs.inner(i1, i1)}  (m*lam^2 = {p.m * p.lam**2})")
print(f"inner(I1, J)  = {mofs.inner(i1, j)}")

# Orthogonality of two squares means every ordered symbol pair appears
# lam^2 times when they are superposed.  A square is never orthogonal to
# itself (for m >= 2): the off-diagonal pair counts are zero.
print(f"\nsuperposition_counts(s, s) =\n{mofs.superposition_counts(s, s)}")
print(f"orthogonal(s, s) = {mofs.orthogonal(s, s)}")
