"""Plain-text serialization of MOFS sets.

Format: a header line ``MOFS m=<m> lambda=<lam> count=<t>``, then each
square as n lines of n space-separated symbols, consecutive squares
separated by exactly one blank line.  Lines starting with ``#`` are
comments and are ignored on decode.  Files end with a newline.

Both directions work on the (t, n, n) stack in chunks of squares (at most
``core._CHUNK_CELLS`` cells each), in one of two bulk layouts:

- When every symbol 1..m is one digit (m <= 9), a square and the blank
  line after it are exactly 2 n^2 + 1 bytes: digits in the even slots,
  a space or a row's newline in the odd ones, and the blank line's newline
  last.  ``encode`` fills a chunk as one (t, 2 n^2 + 1) byte buffer and
  ``decode`` reads one as a strided view of the file at an offset computed
  from its first square, comparing the separator slots with one pattern
  and range-checking the digits.  The last square has no blank line, so
  only a body of exactly count * (2 n^2 + 1) - 1 bytes has this layout.
- With wider symbols, ``encode`` writes a chunk through a per-symbol digit
  table, and ``decode`` finds each square's blank line and each cell's
  separator by scanning and reads the 1..width digits before it.

``decode`` takes the bulk path for a file laid out exactly as ``encode``
writes it (header on the first line, ``count`` blocks of n lines, single
spaces, one blank line between blocks, ASCII digits only), which fills one
stack that is validated once.  Any other file, and any file with a square
that is not regular, goes to the per-line parser, which is the only path
that reports a malformed file; so every ``ParseError`` and its ``line_no``
come from the same line-by-line rules.
"""

from __future__ import annotations

import re

import numpy as np

from .core import (
    ColumnRegularityViolation,
    MofsError,
    Params,
    RowRegularityViolation,
    SymbolOutOfRange,
    _as_grid,
    _chunk_squares,
    _validate_regularity,
)
from .verify import MofsSet


class ParseError(MofsError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_HEADER_RE = re.compile(r"^MOFS m=(\d+) lambda=(\d+) count=(\d+)$")

_NEWLINE, _SPACE, _ZERO = ord("\n"), ord(" "), ord("0")


def encode(mset: MofsSet) -> str:
    params = mset.params
    header = f"MOFS m={params.m} lambda={params.lam} count={mset.t}\n"
    write = _encode_fixed if params.m <= 9 else _encode_tabled
    return "".join([header, *write(mset)])


def _encode_fixed(mset: MofsSet):
    """The body of a set of one-digit symbols, a chunk of squares at a time.
    A square and its blank line are the 2 n^2 + 1 bytes of one row of a
    buffer: digits in the even slots, separators in the odd ones, and the
    blank line last, which the last square does not have."""
    n, step = mset.params.n, _chunk_squares(mset.params)
    seps = _separators(n)
    for k0 in range(0, mset.t, step):
        chunk = mset.grids[k0 : k0 + step]
        cells = np.empty((len(chunk), 2 * n * n + 1), np.uint8)
        np.add(chunk.reshape(len(chunk), -1), _ZERO, out=cells[:, :-1:2])
        cells[:, 1::2] = seps
        cells[:, -1] = _NEWLINE
        last = None if k0 + step < mset.t else -1
        yield cells.reshape(-1)[:last].tobytes().decode("ascii")


def _encode_tabled(mset: MofsSet):
    """The body of a set of any symbols, a chunk of squares at a time,
    through a per-symbol digit table."""
    m = mset.params.m
    # A cell is written as up to three parts: slot 0 the blank line before
    # every square but the first, slot 1 the separator before the cell (a
    # newline at a row start, else a space), then the decimal digits of its
    # symbol.  table[a] holds those bytes for symbol a, keep[a] which of them
    # are written.
    digits = [str(a).encode("ascii") for a in range(m + 1)]
    width = len(digits[-1])
    table = np.zeros((m + 1, width + 2), np.uint8)
    keep = np.zeros((m + 1, width + 2), bool)
    table[:, :2] = (_NEWLINE, _SPACE)
    for a, d in enumerate(digits):
        table[a, 2 : 2 + len(d)] = np.frombuffer(d, np.uint8)
        keep[a, 1 : 2 + len(d)] = True
    step = _chunk_squares(mset.params)
    for k0 in range(0, mset.t, step):
        chunk = mset.grids[k0 : k0 + step]
        cells, written = table.take(chunk, axis=0), keep.take(chunk, axis=0)
        cells[:, :, 0, 1] = _NEWLINE
        written[:, 0, 0, 0] = True
        if k0 == 0:
            # The header's newline starts the first row.
            written[0, 0, 0, :2] = False
        yield cells[written].tobytes().decode("ascii")
    yield "\n"


def _separators(n: int) -> np.ndarray:
    """The n * n bytes that end the cells of one square, row by row: a
    space after each cell but a row's last, which ends in a newline."""
    seps = np.full((n, n), _SPACE, np.uint8)
    seps[:, -1] = _NEWLINE
    return seps.reshape(-1)


def decode(text: str) -> MofsSet:
    """Parse and fully validate (regularity and pairwise orthogonality)."""
    mset = _decode_bulk(text)
    return _decode_lines(text) if mset is None else mset


def _decode_bulk(text: str):
    """The set of a file laid out exactly as ``encode`` writes it, or None
    for any other file and for any square that is not regular.  A file of
    regular squares that do not form a MOFS set raises the constructor's
    error here, since the per-line parser would read the same squares."""
    end = text.find("\n")
    match = _HEADER_RE.match(text[:end]) if end >= 0 else None
    if match is None:
        return None
    m, lam, count = (int(g) for g in match.groups())
    if m < 1 or lam < 1 or count < 1:
        return None
    params = Params(m, lam)
    n = params.n
    # Each square is n rows of n one-digit-or-wider cells, each cell ending
    # in a space or a newline, then a blank line, apart from the last's blank
    # line.  The length check bounds every allocation below by the size of
    # the file, before anything of size n * n is built.  With one-digit
    # symbols only the shortest such body is laid out as encode writes it.
    body = len(text) - end - 1
    shortest = count * (2 * n * n + 1) - 1
    if body < shortest or (m <= 9 and body != shortest):
        return None
    read = _read_fixed if m <= 9 else _read_scanned
    stack = read(text, end + 1, params, count)
    if stack is None:
        return None
    try:
        return MofsSet(params, stack)
    except (SymbolOutOfRange, RowRegularityViolation, ColumnRegularityViolation):
        return None


def _read_fixed(text: str, pos: int, params: Params, count: int):
    """The (count, n, n) stack of the body from ``pos`` on, in which every
    square and its blank line are 2 n^2 + 1 bytes, or None where a byte is
    not the one the layout puts there: a digit 1..m in each even slot, the
    separators in the odd ones, a newline last."""
    m, n = params.m, params.n
    size = 2 * n * n + 1
    seps = _separators(n)
    stack = np.empty((count, n, n), np.uint8)
    step = _chunk_squares(params)
    for k0 in range(0, count, step):
        t = min(step, count - k0)
        block = text[pos + k0 * size : pos + (k0 + t) * size]
        if k0 + t == count:
            block += "\n"  # the last square's blank line
        try:
            raw = np.frombuffer(block.encode("ascii"), np.uint8).reshape(t, size)
        except UnicodeEncodeError:
            return None
        if (raw[:, 1::2] != seps).any() or (raw[:, -1] != _NEWLINE).any():
            return None
        # A byte below "0" wraps above 9, so only the digits 1..m pass.
        values = stack[k0 : k0 + t].reshape(t, -1)
        np.subtract(raw[:, :-1:2], _ZERO, out=values)
        if values.min() < 1 or values.max() > m:
            return None
    return stack


def _read_scanned(text: str, pos: int, params: Params, count: int):
    """The (count, n, n) stack of the body from ``pos`` on, whose cells may
    be several digits wide, found by scanning for the separators, or None
    where the body is not laid out as ``encode`` writes it."""
    m, n = params.m, params.n
    if text.count("\n", pos) != count * (n + 1) - 1:
        return None
    width = len(str(m))
    # The non-digit bytes of one square and its blank line, in order.
    square_seps = np.append(_separators(n), np.uint8(_NEWLINE))

    stack = np.empty((count, n, n), np.min_scalar_type(m))
    step = _chunk_squares(params)
    for k0 in range(0, count, step):
        t = min(step, count - k0)
        start = pos
        for k in range(k0, k0 + t):
            if k == count - 1:
                pos = len(text)
            else:
                pos = text.find("\n\n", pos) + 2
                if pos == 1:
                    return None
        # The last square gets its blank line here, so every chunk is t
        # repetitions of n rows and a blank line.
        block = text[start:pos] if pos < len(text) else text[start:] + "\n"
        try:
            raw = np.frombuffer(block.encode("ascii"), np.uint8)
        except UnicodeEncodeError:
            return None
        seps = np.flatnonzero((raw - _ZERO) > 9).astype(np.int32)
        expected = np.tile(square_seps, t)
        if len(seps) != len(expected) or (raw[seps] != expected).any():
            return None
        # lengths[k, c]: digits before separator c of square k.  A cell has
        # 1..width digits before its separator, a blank line none.
        lengths = np.diff(seps, prepend=np.int32(-1)).reshape(t, -1) - 1
        blank, lengths = lengths[:, -1], lengths[:, :-1]
        if blank.any() or lengths.min() < 1 or lengths.max() > width:
            return None
        ends = seps.reshape(t, -1)[:, :-1]
        values = (raw[ends - 1] - _ZERO).astype(np.int64)
        for k in range(2, width + 1):
            more = (raw[ends - k] - _ZERO).astype(np.int64) * 10 ** (k - 1)
            values += np.where(lengths >= k, more, 0)
        # Range-checked before the narrowing cast, so no entry wraps.
        if values.min() < 1 or values.max() > m:
            return None
        stack[k0 : k0 + t] = values.reshape(t, n, n)
    return stack


def _parse_rows(block, n: int) -> list:
    """Parse numbered lines one by one, raising at the first bad line."""
    rows = []
    for line_no, line in block:
        try:
            row = [int(v) for v in line.split()]
        except ValueError as exc:
            raise ParseError(line_no, f"non-integer entry: {line!r}") from exc
        if len(row) != n:
            raise ParseError(line_no, f"expected {n} entries, got {len(row)}")
        rows.append(row)
    return rows


def _decode_lines(text: str) -> MofsSet:
    """Parse a file line by line into a set, raising at the first fault in
    file order."""
    numbered = [
        (i + 1, line)
        for i, line in enumerate(text.split("\n"))
        if not line.startswith("#")
    ]
    # Drop the artifact of the trailing newline.
    if numbered and numbered[-1][1] == "":
        numbered.pop()

    pos = 0
    while pos < len(numbered) and numbered[pos][1] == "":
        pos += 1
    if pos == len(numbered):
        raise ParseError(1, "empty file")
    line_no, header = numbered[pos]
    match = _HEADER_RE.match(header)
    if match is None:
        raise ParseError(line_no, f"bad header: {header!r}")
    m, lam, count = (int(g) for g in match.groups())
    try:
        params = Params(m, lam)
    except MofsError as exc:
        raise ParseError(line_no, str(exc)) from exc
    n = params.n
    pos += 1

    grids = []
    for _ in range(count):
        while pos < len(numbered) and numbered[pos][1] == "":
            pos += 1
        block = []
        while len(block) < n and pos < len(numbered) and numbered[pos][1] != "":
            block.append(numbered[pos])
            pos += 1
        if len(block) < n:
            _parse_rows(block, n)  # a bad line before the gap is reported first
            raise ParseError(
                numbered[pos][0] if pos < len(numbered) else numbered[-1][0],
                f"square {len(grids) + 1} is truncated",
            )
        rows = _parse_rows(block, n)
        try:
            grid = _as_grid(params, rows)
            _validate_regularity(params, grid[None])
        except MofsError as exc:
            raise ParseError(block[0][0], str(exc)) from exc
        grids.append(grid)

    while pos < len(numbered) and numbered[pos][1] == "":
        pos += 1
    if pos < len(numbered):
        raise ParseError(numbered[pos][0], "trailing content after the last square")
    if not count:
        # MofsSet's refusal, before a (0, n, n) stack that a huge n cannot shape.
        raise MofsError("a MOFS set needs at least one square")
    return MofsSet(params, np.array(grids, np.int64))
