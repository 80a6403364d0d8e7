"""Builders for complete MOFS sets.

Two families: a finite-field linear-form construction giving
(m^h - 1)^2 / (m - 1) squares of type F(m^h; m^{h-1}) for prime-power m,
and the Hadamard-based construction giving (4n - 1)^2 squares of type
F(4n; 2n).  Builders never trust their own algebra: every result is
re-verified (pairwise orthogonality plus the completeness structure)
before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import FSquare, MofsError, Params
from .verify import MofsSet, completeness_structure, verify_mofs


class NotPrime(MofsError):
    pass


class NotPrimePower(MofsError):
    pass


class UnsupportedSize(MofsError):
    pass


class UnsupportedOrder(MofsError):
    pass


class NotNormalized(MofsError):
    pass


class ConstructionSelfCheckFailed(MofsError):
    pass


MAX_FIELD_SIZE = 32
MAX_HADAMARD_ORDER = 64

# Irreducible polynomials over GF(p), low coefficient first (degree k monic,
# leading 1 implicit in the list of length k+1).
_IRREDUCIBLE = {
    (2, 2): (1, 1, 1),  # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),  # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1
    (3, 2): (1, 0, 1),  # x^2 + 1
    (3, 3): (1, 2, 0, 1),  # x^3 + 2x + 1
    (5, 2): (1, 1, 1),  # x^2 + x + 1
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power_decomposition(n: int):
    """(p, e) with n = p^e and p prime, or None."""
    if n < 2:
        return None
    for p in range(2, n + 1):
        if n % p == 0:
            e = 0
            q = n
            while q % p == 0:
                q //= p
                e += 1
            return (p, e) if q == 1 and is_prime(p) else None
    return None


@dataclass(frozen=True)
class FieldTable:
    """Lookup-table arithmetic for GF(p^k).

    Element i has polynomial-basis coefficient vector given by the base-p
    digits of i, so index 0 is zero and index 1 is one.
    """

    p: int
    k: int
    q: int
    add_table: tuple
    mul_table: tuple

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def pow(self, a: int, e: int) -> int:
        acc = 1
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.pow(a, self.q - 2)


def _digits(i: int, p: int, k: int):
    out = []
    for _ in range(k):
        out.append(i % p)
        i //= p
    return out


def _undigits(ds, p: int) -> int:
    out = 0
    for d in reversed(ds):
        out = out * p + d
    return out


def field_build(p: int, k: int, *, max_q: int | None = None) -> FieldTable:
    """Arithmetic tables for GF(p^k) with a fixed irreducible polynomial.

    Field axioms are self-checked on construction: exhaustively for
    q <= 32, on a random sample beyond.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise UnsupportedSize(f"extension degree must be >= 1, got {k}")
    q = p**k
    limit = MAX_FIELD_SIZE if max_q is None else max_q
    if q > limit:
        raise UnsupportedSize(f"GF({q}) exceeds the configured maximum {limit}")
    if k > 1 and (p, k) not in _IRREDUCIBLE:
        raise UnsupportedSize(f"no built-in irreducible polynomial for GF({q})")

    add_rows = []
    for a in range(q):
        da = _digits(a, p, k)
        row = []
        for b in range(q):
            db = _digits(b, p, k)
            row.append(_undigits([(x + y) % p for x, y in zip(da, db)], p))
        add_rows.append(tuple(row))

    if k == 1:
        mul_rows = [tuple((a * b) % p for b in range(q)) for a in range(q)]
    else:
        poly = _IRREDUCIBLE[(p, k)]
        mul_rows = []
        for a in range(q):
            da = _digits(a, p, k)
            row = []
            for b in range(q):
                db = _digits(b, p, k)
                prod = [0] * (2 * k - 1)
                for i, x in enumerate(da):
                    if x:
                        for j, y in enumerate(db):
                            prod[i + j] = (prod[i + j] + x * y) % p
                for deg in range(2 * k - 2, k - 1, -1):
                    c = prod[deg]
                    if c:
                        prod[deg] = 0
                        for j in range(k):
                            prod[deg - k + j] = (prod[deg - k + j] - c * poly[j]) % p
                row.append(_undigits(prod[:k], p))
            mul_rows.append(tuple(row))

    field = FieldTable(p, k, q, tuple(add_rows), tuple(mul_rows))
    _self_check_field(field)
    return field


def _self_check_field(f: FieldTable) -> None:
    q = f.q
    for a in range(q):
        if f.add(a, 0) != a or f.mul(a, 1) != a:
            raise ConstructionSelfCheckFailed(f"identity axiom fails at {a}")
        if a and f.mul(a, f.inv(a)) != 1:
            raise ConstructionSelfCheckFailed(f"no inverse for {a}")
    if q <= MAX_FIELD_SIZE:
        triples = product(range(q), repeat=3)
    else:
        import random

        rng = random.Random(0)
        triples = (
            tuple(rng.randrange(q) for _ in range(3)) for _ in range(2000)
        )
    for a, b, c in triples:
        if f.add(a, b) != f.add(b, a) or f.mul(a, b) != f.mul(b, a):
            raise ConstructionSelfCheckFailed("commutativity fails")
        if f.add(f.add(a, b), c) != f.add(a, f.add(b, c)):
            raise ConstructionSelfCheckFailed("additive associativity fails")
        if f.mul(f.mul(a, b), c) != f.mul(a, f.mul(b, c)):
            raise ConstructionSelfCheckFailed("multiplicative associativity fails")
        if f.mul(a, f.add(b, c)) != f.add(f.mul(a, b), f.mul(a, c)):
            raise ConstructionSelfCheckFailed("distributivity fails")


def construct_prime_power(m: int, h: int) -> MofsSet:
    """Complete set of (m^h - 1)^2 / (m - 1) MOFS of type F(m^h; m^{h-1}).

    Rows and columns are indexed by GF(m^h); the squares are
    S_{a,b}[x][y] = L(a x + b y) for nonzero a, b taken up to scalar
    multiples from the subfield GF(m), where L is the relative trace
    down to GF(m) (a surjective GF(m)-linear map).  The result is
    re-verified before being returned.
    """
    decomp = prime_power_decomposition(m)
    if decomp is None:
        raise NotPrimePower(f"{m} is not a prime power")
    if h < 1:
        raise UnsupportedSize(f"h must be >= 1, got {h}")
    p, e = decomp
    q = m**h
    if q > MAX_FIELD_SIZE:
        raise UnsupportedSize(f"m^h = {q} exceeds the configured maximum")
    f = field_build(p, e * h)

    subfield = [x for x in range(q) if f.pow(x, m) == x]
    if len(subfield) != m:
        raise ConstructionSelfCheckFailed("subfield extraction failed")
    # Symbol labeling by element index order: zero -> 1, one -> 2, ...
    symbol_of = {x: i + 1 for i, x in enumerate(sorted(subfield))}

    def trace(x: int) -> int:
        acc = 0
        for i in range(h):
            acc = f.add(acc, f.pow(x, m**i))
        return acc

    trace_symbol = [symbol_of[trace(x)] for x in range(q)]

    # Transversal of the nonzero elements modulo subfield scalars: keep the
    # lowest-index element of each orbit.
    seen = set()
    reps = []
    sub_nonzero = [s for s in subfield if s != 0]
    for a in range(1, q):
        if a in seen:
            continue
        reps.append(a)
        for s in sub_nonzero:
            seen.add(f.mul(s, a))

    params = Params(m, m ** (h - 1))
    add = np.array(f.add_table, dtype=np.int64)
    mul = np.array(f.mul_table, dtype=np.int64)
    symbols = np.array(trace_symbol, dtype=np.int64)
    # grids[i, b - 1][x, y] = trace_symbol[a x + b y] with a = reps[i].
    ax = mul[reps][:, None, :, None]
    by = mul[1:][None, :, None, :]
    grids = symbols[add[ax, by]].reshape(-1, q, q)
    squares = [FSquare(params, grid) for grid in grids]
    return _checked(squares, (q - 1) ** 2 // (m - 1))


@dataclass(frozen=True)
class HadamardMatrix:
    order: int
    entries: np.ndarray
    normalized: bool


def _paley_core(q: int) -> np.ndarray:
    """Hadamard matrix of order q + 1 from quadratic residues of GF(q),
    for prime powers q = 3 (mod 4)."""
    decomp = prime_power_decomposition(q)
    p, e = decomp
    f = field_build(p, e, max_q=q)
    nonzero_squares = {f.mul(x, x) for x in range(1, q)}

    def chi(z: int) -> int:
        if z == 0:
            return 0
        return 1 if z in nonzero_squares else -1

    neg = {x: next(y for y in range(q) if f.add(x, y) == 0) for x in range(q)}
    n = q + 1
    s = np.zeros((n, n), dtype=np.int64)
    s[0, 1:] = 1
    s[1:, 0] = -1
    for i in range(q):
        for j in range(q):
            if i != j:
                s[i + 1, j + 1] = chi(f.add(i, neg[j]))
    return np.eye(n, dtype=np.int64) + s


def _build_hadamard(order: int) -> np.ndarray:
    if order == 1:
        return np.array([[1]], dtype=np.int64)
    if order == 2:
        return np.array([[1, 1], [1, -1]], dtype=np.int64)
    if order % 4 != 0:
        raise UnsupportedOrder(f"no Hadamard matrix of order {order}")
    half = order // 2
    try:
        h_half = _build_hadamard(half)
    except UnsupportedOrder:
        h_half = None
    if h_half is not None:
        h2 = np.array([[1, 1], [1, -1]], dtype=np.int64)
        return np.kron(h2, h_half)
    decomp = prime_power_decomposition(order - 1)
    if decomp is not None and (order - 1) % 4 == 3:
        return _paley_core(order - 1)
    raise UnsupportedOrder(
        f"order {order} is not reachable by Sylvester doubling or the"
        f" quadratic-residue construction"
    )


def hadamard(order: int, *, max_order: int | None = None) -> HadamardMatrix:
    """Normalized Hadamard matrix of the given order, self-checked."""
    limit = MAX_HADAMARD_ORDER if max_order is None else max_order
    if order < 1 or order > limit:
        raise UnsupportedOrder(f"order {order} outside 1..{limit}")
    h = _build_hadamard(order)
    # Normalize: flip rows then columns whose border entry is -1.
    h = h * np.where(h[:, [0]] < 0, -1, 1)
    h = h * np.where(h[[0], :] < 0, -1, 1)
    if (h @ h.T != order * np.eye(order, dtype=np.int64)).any():
        raise ConstructionSelfCheckFailed(f"order {order}: rows not orthogonal")
    h.flags.writeable = False
    return HadamardMatrix(order, h, True)


def construct_federer(h: HadamardMatrix) -> MofsSet:
    """Complete set of (4n - 1)^2 MOFS of type F(4n; 2n) from a normalized
    Hadamard matrix of order 4n.

    Square S_{r,c} (for non-initial rows r, c) holds symbol 1 where
    h[r][x] * h[c][y] = +1 and symbol 2 elsewhere.  Re-verified before
    being returned.
    """
    if not h.normalized:
        raise NotNormalized("the Hadamard matrix must be normalized")
    order = h.order
    if order < 4 or order % 4 != 0:
        raise UnsupportedOrder(f"need order 4n >= 4, got {order}")
    params = Params(2, order // 2)
    squares = []
    for r in range(1, order):
        for c in range(1, order):
            grid = np.where(np.outer(h.entries[r], h.entries[c]) > 0, 1, 2)
            squares.append(FSquare(params, grid))
    return _checked(squares, (order - 1) ** 2)


def _checked(squares, expected: int) -> MofsSet:
    """Oracle check: the set must verify pairwise and be complete."""
    try:
        mset = verify_mofs(squares)
    except MofsError as exc:
        raise ConstructionSelfCheckFailed(str(exc)) from exc
    if mset.params.m >= 2:
        report = completeness_structure(mset)
        if not (report.is_complete and report.structure_matches):
            raise ConstructionSelfCheckFailed(
                f"set of {mset.t} squares is not a verified complete set"
            )
    if mset.t != expected:
        raise ConstructionSelfCheckFailed(
            f"built {mset.t} squares, expected {expected}"
        )
    return mset
