"""Builders for complete MOFS sets.

Two families: a finite-field linear-form construction giving
(m^h - 1)^2 / (m - 1) squares of type F(m^h; m^{h-1}) for prime-power m,
and the Hadamard-based construction giving (4n - 1)^2 squares of type
F(4n; 2n).  A finite field is its two read-only numpy tables
(``FieldTable``); every field-level step indexes them, and every field
axiom is checked on every triple of elements when a field is built.
Builders never trust their own algebra: every result is re-verified
(pairwise orthogonality plus the completeness structure) before it is
returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MofsError, Params, _ArrayValued, _symbol_type
from .verify import MofsSet, completeness_structure


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
    # The least divisor p >= 2 of n is prime.
    for p in range(2, n + 1):
        if n % p == 0:
            e = 0
            q = n
            while q % p == 0:
                q //= p
                e += 1
            return (p, e) if q == 1 else None
    return None


@dataclass(frozen=True, eq=False)
class FieldTable(_ArrayValued):
    """GF(p^k) as its two read-only q x q int64 tables.

    Element i has polynomial-basis coefficient vector given by the base-p
    digits of i, so index 0 is zero and index 1 is one.  ``add_table[a, b]``
    and ``mul_table[a, b]`` are the indices of a + b and a * b; all field
    arithmetic is indexing into them.
    """

    p: int
    k: int
    q: int
    add_table: np.ndarray
    mul_table: np.ndarray


def field_build(p: int, k: int, *, max_q: int | None = None) -> FieldTable:
    """Arithmetic tables for GF(p^k) modulo the first monic degree-k
    polynomial with constant term 1, in coefficient-value order, whose
    products have no zero divisors.

    The field axioms are self-checked exhaustively on construction.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise UnsupportedSize(f"extension degree must be >= 1, got {k}")
    q = p**k
    limit = MAX_FIELD_SIZE if max_q is None else max_q
    if q > limit:
        raise UnsupportedSize(f"GF({q}) exceeds the configured maximum {limit}")

    # digits[i, j]: the coefficient of x^j in element i.
    place = p ** np.arange(k)
    digits = np.arange(q)[:, None] // place % p
    add = ((digits[:, None] + digits[None, :]) % p) @ place
    # The modulus x^k + low(x) takes its low coefficients from the digits of
    # the elements 1, 1 + p, 1 + 2p, ... in turn.  Products with no zero
    # divisors make a finite ring a field, so the modulus is irreducible;
    # if none passes, the self-check refuses the last.
    for low in digits[1::p]:
        # power[d]: the digits of x^d modulo x^k + low(x), d < 2k - 1.
        power = np.eye(2 * k - 1, k, dtype=np.int64)
        for d in range(k, 2 * k - 1):
            # x^d = x * x^(d-1), with x^k = -low(x).
            power[d, 1:] = power[d - 1, :-1]
            power[d] = (power[d] - power[d - 1, -1] * low) % p
        # The digit convolution sum a_i b_j x^(i+j), reduced term by term.
        reduced = power[np.add.outer(np.arange(k), np.arange(k))]
        mul = (np.einsum("ai,bj,ijd->abd", digits, digits, reduced) % p) @ place
        if mul[1:, 1:].all():
            break
    for table in (add, mul):
        table.flags.writeable = False
    field = FieldTable(p, k, q, add, mul)
    _self_check_field(field)
    return field


def _self_check_field(f: FieldTable) -> None:
    """Every field axiom on every element, pair and triple of the tables."""
    add, mul, q = f.add_table, f.mul_table, f.q
    x = np.arange(q)
    a = x[:, None, None]
    for table in (add, mul):
        if table.shape != (q, q) or table.min() < 0 or table.max() >= q:
            raise ConstructionSelfCheckFailed("a table entry is not a field element")
    # In the narrowest type that holds every element, the (q, q, q)
    # intermediates take q^3 bytes, not 8 q^3.
    small = np.min_scalar_type(q - 1)
    add, mul = add.astype(small), mul.astype(small)
    bad = np.flatnonzero((add[:, 0] != x) | (mul[:, 1] != x))
    if bad.size:
        raise ConstructionSelfCheckFailed(f"identity axiom fails at {bad[0]}")
    bad = np.flatnonzero((add == 0).sum(axis=1) != 1)
    if bad.size:
        raise ConstructionSelfCheckFailed(f"no additive inverse for {bad[0]}")
    bad = np.flatnonzero((mul[1:] == 1).sum(axis=1) != 1)
    if bad.size:
        raise ConstructionSelfCheckFailed(f"no inverse for {bad[0] + 1}")
    if (add != add.T).any() or (mul != mul.T).any():
        raise ConstructionSelfCheckFailed("commutativity fails")
    # t[t[a, b], c] against t[a, t[b, c]], indexed [a, b, c].
    if (add[add[:, :, None], x] != add[a, add]).any():
        raise ConstructionSelfCheckFailed("additive associativity fails")
    if (mul[mul[:, :, None], x] != mul[a, mul]).any():
        raise ConstructionSelfCheckFailed("multiplicative associativity fails")
    if (mul[a, add] != add[mul[:, :, None], mul[:, None, :]]).any():
        raise ConstructionSelfCheckFailed("distributivity fails")


def construct_prime_power(m: int, h: int) -> MofsSet:
    """Complete set of (m^h - 1)^2 / (m - 1) MOFS of type F(m^h; m^{h-1}).

    Rows and columns are indexed by GF(m^h); the squares are
    S_{a,b}[x][y] = L(a x + b y) for nonzero a, b taken up to scalar
    multiples from the subfield GF(m), where L is the relative trace
    down to GF(m) (a surjective GF(m)-linear map).  The result is
    re-verified before being returned.
    """
    if h < 1:
        raise UnsupportedSize(f"h must be >= 1, got {h}")
    # The size is checked before m is factored, a factor at a time, so that
    # neither a large m nor a large h takes long to refuse.
    q = m
    for _ in range(h - 1):
        if not 1 < q <= MAX_FIELD_SIZE:
            break
        q *= m
    if q > MAX_FIELD_SIZE:
        # The power itself only while it stays short enough to print: below
        # 2^(MAX_FIELD_SIZE^2), or m itself.
        short = h == 1 or (h <= MAX_FIELD_SIZE and m.bit_length() <= MAX_FIELD_SIZE)
        size = m**h if short else f"{m}^{h}"
        raise UnsupportedSize(f"m^h = {size} exceeds the configured maximum")
    decomp = prime_power_decomposition(m)
    if decomp is None:
        raise NotPrimePower(f"{m} is not a prime power")
    p, e = decomp
    f = field_build(p, e * h)
    add, mul = f.add_table, f.mul_table
    x = np.arange(q)

    # frobenius[x] = x^m, whose fixed points are the subfield GF(m).
    frobenius = x
    for _ in range(m - 1):
        frobenius = mul[frobenius, x]
    subfield = np.flatnonzero(frobenius == x)
    if len(subfield) != m:
        raise ConstructionSelfCheckFailed("subfield extraction failed")
    # L(x) = x + x^m + ... + x^(m^(h-1)).
    trace, conjugate = np.zeros(q, dtype=np.int64), x
    for _ in range(h):
        trace, conjugate = add[trace, conjugate], frobenius[conjugate]
    params = Params(m, m ** (h - 1))
    # Symbol labeling by element index order: zero -> 1, one -> 2, ...
    symbol_of = np.zeros(q, dtype=_symbol_type(params))
    symbol_of[subfield] = np.arange(1, m + 1)

    # Transversal of the nonzero elements modulo subfield scalars: keep the
    # lowest-index element of each orbit.
    reps = np.flatnonzero(mul[subfield[1:]].min(axis=0) == x)[1:]

    # grids[i, b - 1][x, y] = symbol of L(a x + b y) with a = reps[i], read
    # from one (q, q) table of the symbol of L(u + v), in the set's narrow
    # type, so the stack is gathered once and never held as int64.
    symbols = symbol_of[trace[add]]
    ax = mul[reps][:, None, :, None]
    by = mul[1:][None, :, None, :]
    grids = symbols[ax, by].reshape(-1, q, q)
    return _checked(params, grids, (q - 1) ** 2 // (m - 1))


@dataclass(frozen=True, eq=False)
class HadamardMatrix(_ArrayValued):
    order: int
    entries: np.ndarray
    normalized: bool


def _paley_core(q: int) -> np.ndarray:
    """Hadamard matrix of order q + 1 from quadratic residues of GF(q),
    for prime powers q = 3 (mod 4)."""
    p, e = prime_power_decomposition(q)
    f = field_build(p, e, max_q=q)
    # chi[z]: 0 at zero, 1 on the nonzero squares, -1 elsewhere.
    chi = np.full(q, -1, dtype=np.int64)
    chi[np.diagonal(f.mul_table)] = 1
    chi[0] = 0
    neg = np.argmax(f.add_table == 0, axis=1)
    n = q + 1
    s = np.zeros((n, n), dtype=np.int64)
    s[0, 1:] = 1
    s[1:, 0] = -1
    s[1:, 1:] = chi[f.add_table[:, neg]]  # chi(i - j)
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


def hadamard(order: int) -> HadamardMatrix:
    """Normalized Hadamard matrix of the given order, self-checked."""
    if order < 1 or order > MAX_HADAMARD_ORDER:
        raise UnsupportedOrder(f"order {order} outside 1..{MAX_HADAMARD_ORDER}")
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
    order, entries = h.order, np.asarray(h.entries)
    if order < 4 or order % 4 != 0:
        raise UnsupportedOrder(f"need order 4n >= 4, got {order}")
    if entries.shape != (order, order):
        raise UnsupportedOrder(f"expected shape ({order}, {order}), got {entries.shape}")
    if (entries[0] != 1).any() or (entries[:, 0] != 1).any():
        raise NotNormalized("a normalized matrix has +1 in its first row and column")
    # grids[r - 1, c - 1][x, y]: 1 where h[r][x] == h[c][y], else 2.
    plus = entries[1:] > 0
    same = plus[:, None, :, None] == plus[None, :, None, :]
    grids = np.where(same, np.uint8(1), np.uint8(2)).reshape(-1, order, order)
    return _checked(Params(2, order // 2), grids, (order - 1) ** 2)


def _checked(params: Params, grids: np.ndarray, expected: int) -> MofsSet:
    """Oracle check: the (t, n, n) stack must be a MOFS set, and complete."""
    try:
        mset = MofsSet(params, grids)
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
