"""Parity-based maximality certificates for MOFS sets.

The certificate rests on the mod-2 sum of one indicator square per
member.  When that parity matrix has, up to row/column permutation, a
complementary 0/J block structure (a non-constant full relation) and the
repetition number is odd, the set admits no further orthogonal square.

What "no certificate" covers: :func:`maximality_verdict`, which ``mofs
analyze`` prints, tries the m uniform choices (a,) * t.  For m = 2 these
cover every choice: I_2(S) = J - I_1(S), so changing one square's symbol
changes the parity matrix by J, and any choice's matrix is a uniform one's
or its complement, which has a full relation exactly when it does.  For
m >= 4 they do not: a square's indicators satisfy only
I_1 + ... + I_m = J, so a mixed choice's matrix is in general neither,
and the absence of a uniform certificate says nothing of the other
choices; test one with
``detect_full_relation(parity_matrix(mset, choice))``.  For m = 3 and
lam odd no choice has one: a full relation needs m lam even (Lemma
6(ii), one of the five congruences).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MofsError, Params, SymbolOutOfRange, _as_int, _tile
from .verify import MofsSet


class LengthMismatch(MofsError):
    pass


@dataclass(frozen=True)
class ParityMatrix:
    """(sum_k I_{a_k}(S_k)) mod 2 for recorded per-square symbol choices."""

    params: Params
    t: int
    symbol_choice: tuple
    bits: np.ndarray


@dataclass(frozen=True)
class FullRelationCertificate:
    """Witness of the complementary block structure.

    ``row_partition`` holds the rows of the top block (size x) and
    ``col_partition`` the columns of the left block (size y); permuting
    rows and columns accordingly exposes the 0/J pattern.  Canonical
    orientation: x <= n - x, and y <= n - y on ties.
    """

    x: int
    y: int
    row_partition: frozenset
    col_partition: frozenset
    symbol_choice: tuple


@dataclass(frozen=True)
class ParityReport:
    """The five congruences a genuine certificate must satisfy."""

    lemma6_i: bool  # x = y = t*lam (mod 2)
    lemma6_ii: bool  # m*lam even
    lemma7_t_odd: bool  # t odd
    prop9: bool  # t = m(x+y) - (m+1) (mod 8)
    cor10: bool  # t = m - 1 (mod 4)

    @property
    def all_hold(self) -> bool:
        return (
            self.lemma6_i
            and self.lemma6_ii
            and self.lemma7_t_odd
            and self.prop9
            and self.cor10
        )


@dataclass(frozen=True)
class MaximalityVerdict:
    """CertifiedMaximal when ``certificate`` is set, NoCertificate otherwise.

    ``uniform`` holds the full-relation certificate, or None, of each
    uniform symbol choice (a,) * t for a = 1..m in order.  ``certificate``
    is the first of them that is not None when lam is odd, and None when
    lam is even.  A certificate proves maximality; its absence proves
    nothing (the parity criterion is sufficient, not necessary).
    """

    certificate: FullRelationCertificate | None
    uniform: tuple

    @property
    def certified(self) -> bool:
        return self.certificate is not None


def _symbol_choice(mset: MofsSet, symbol_choice) -> tuple:
    """``symbol_choice`` as a tuple of one integer symbol in 1..m per square
    of the set, or a MofsError."""
    choice, m = tuple(symbol_choice), mset.params.m
    if len(choice) != mset.t:
        raise LengthMismatch(f"expected {mset.t} symbols, got {len(choice)}")
    # Plain ints in range are checked at C speed; anything else, one at a time.
    if set(map(type, choice)) <= {int} and 1 <= min(choice) and max(choice) <= m:
        return choice
    choice = tuple(_as_int(a, "a symbol") for a in choice)
    bad = next((a for a in choice if not 1 <= a <= m), None)
    if bad is not None:
        raise SymbolOutOfRange(f"symbol {bad} not in 1..{m}")
    return choice


def parity_matrix(mset: MofsSet, symbol_choice) -> ParityMatrix:
    """Mod-2 sum of I_{a_k}(S_k) over the set, one chosen symbol per square.

    Only the parity of each cell's count is needed, so the t indicator
    squares are XOR-reduced as booleans, (sum_k I_{a_k}(S_k)) mod 2 =
    I_{a_1}(S_1) xor ... xor I_{a_t}(S_t), a block of squares
    (:func:`core._tile`) at a time, and no count is summed; the bits are
    returned as an int64 0/1 array."""
    choice = _symbol_choice(mset, symbol_choice)
    grids, n = mset.grids, mset.params.n
    # Symbols in 1..m fit the stack's narrow type, so no side is widened.
    hot = np.asarray(choice, grids.dtype).reshape(-1, 1, 1)
    bits = np.zeros((n, n), bool)
    step = _tile(mset.params)
    for k0 in range(0, mset.t, step):
        bits ^= np.logical_xor.reduce(grids[k0 : k0 + step] == hot[k0 : k0 + step], axis=0)
    return ParityMatrix(mset.params, mset.t, choice, bits.astype(np.int64))


def detect_full_relation(pm: ParityMatrix) -> FullRelationCertificate | None:
    """Find the block structure of a non-constant full relation, if any.

    The matrix has the permuted 0/J block form exactly when every row
    equals either the first row or its complement and the matrix is not
    constant; x counts the rows of the top pattern (zeros on the left
    block) and y the zero-columns of that pattern.
    """
    bits = pm.bits
    n = bits.shape[0]
    top = (bits == bits[0]).all(axis=1)
    if not (top | (bits != bits[0]).all(axis=1)).all():
        return None
    if not bits.any() or bits.all():
        return None  # constant matrix: excluded by definition
    rows = frozenset(np.flatnonzero(top).tolist())
    cols = frozenset(np.flatnonzero(bits[0] == 0).tolist())
    x, y = len(rows), len(cols)
    # Two orientations: the first-row pattern on top, or its complement.
    if (x, y) > (n - x, n - y):
        everything = frozenset(range(n))
        x, y, rows, cols = n - x, n - y, everything - rows, everything - cols
    return FullRelationCertificate(x, y, rows, cols, pm.symbol_choice)


def parity_report(
    cert: FullRelationCertificate, params: Params, t: int
) -> ParityReport:
    """Evaluate the five congruences for a certificate of a size-t set."""
    m, lam = params.m, params.lam
    x, y = cert.x, cert.y
    return ParityReport(
        lemma6_i=x % 2 == y % 2 == (t * lam) % 2,
        lemma6_ii=(m * lam) % 2 == 0,
        lemma7_t_odd=t % 2 == 1,
        prop9=(t - (m * (x + y) - (m + 1))) % 8 == 0,
        cor10=(t - (m - 1)) % 4 == 0,
    )


def maximality_verdict(mset: MofsSet) -> MaximalityVerdict:
    """The parity verdict of ``mset``: :func:`detect_full_relation` of the
    :func:`parity_matrix` of each uniform choice, built for every lam, and
    for odd lam the first certificate among them, which keeps the outcome
    deterministic."""
    uniform = tuple(
        detect_full_relation(parity_matrix(mset, (a,) * mset.t))
        for a in range(1, mset.params.m + 1)
    )
    first = next((c for c in uniform if c is not None), None)
    return MaximalityVerdict(first if mset.params.lam % 2 else None, uniform)
