"""Plain-text serialization of MOFS sets.

Format: a header line ``MOFS m=<m> lambda=<lam> count=<t>``, then each
square as n lines of n space-separated symbols, consecutive squares
separated by exactly one blank line.  Lines starting with ``#`` are
comments and are ignored on decode.  Files end with a newline.

A row of a regular square holds each symbol 1..m exactly lam times, so as
``encode`` writes it, it is lam * (the digits of 1..m) + n bytes for any m,
and a square and the blank line after it are a record of fixed size: each
cell's digits then its separator (a space, or a newline ending a row), and
the blank line's newline.  The last square has no blank line, so the body
is count * size - 1 bytes.  Both directions view a block of squares (as
many as ``core._tile`` gives) as a (t, size) byte array, cut at the
offset of its first record.  With one-digit symbols (m <= 9) digits and
separators take alternate slots, filled and compared by strided views;
wider symbols are written from a per-symbol digit table and read by
scanning a block for its separators and the 1..width digits before each.

``decode`` takes this bulk path only for a file laid out exactly as
``encode`` writes it (header on the first line, ``count`` records, single
spaces, ASCII digits), which fills one stack that is validated once.  Any
other file, and any file with a square that is not regular, goes to the
per-line parser, which is the only path that reports a malformed file; so
every ``ParseError`` and its ``line_no`` come from the same line-by-line
rules.
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
    _tile,
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
    return "".join([header, *_encode_records(mset)])


def _encode_records(mset: MofsSet):
    """The body, a block of squares at a time.  Each square is a record of
    n * n cells of width + 1 bytes, its digits and then its separator, and
    a final newline; digit slots that a symbol leaves empty hold zero
    bytes, which are dropped, and so is the last record's newline."""
    m, n = mset.params.m, mset.params.n
    width = len(str(m))
    table = "".join(str(a).ljust(width, "\0") for a in range(m + 1))
    table = np.frombuffer(table.encode("ascii"), np.uint8).reshape(m + 1, width)
    seps, step = _separators(n), _tile(mset.params)
    for k0 in range(0, mset.t, step):
        block = mset.grids[k0 : k0 + step].reshape(-1, n * n)
        records = np.empty((len(block), n * n * (width + 1) + 1), np.uint8)
        if width == 1:
            np.add(block, _ZERO, out=records[:, :-1:2])
        else:
            for j in range(width):
                records[:, j : -1 : width + 1] = table[block, j]
        records[:, width : -1 : width + 1] = seps
        records[:, -1] = _NEWLINE
        body = records.reshape(-1)[: None if k0 + step < mset.t else -1]
        if width > 1:
            body = body[body != 0]
        yield body.tobytes().decode("ascii")


def _separators(n: int) -> np.ndarray:
    """The n * n bytes that end the cells of one square, row by row: a
    space after each cell but a row's last, which ends in a newline."""
    seps = np.full((n, n), _SPACE, np.uint8)
    seps[:, -1] = _NEWLINE
    return seps.reshape(-1)


def _record_size(params: Params) -> int:
    """Bytes of a square and its blank line as ``encode`` writes them,
    with the digits of 1..m summed per decimal width, so that a huge m in
    a header costs a few steps."""
    m, digits = params.m, 0
    for w in range(1, len(str(m)) + 1):
        digits += w * (min(m, 10**w - 1) - 10 ** (w - 1) + 1)
    return params.n * (params.lam * digits + params.n) + 1


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
    # Only a body of count records, less the last newline, is laid out as
    # encode writes it.  Checked first, this bounds every allocation below
    # by the size of the file, before anything of size n * n is built.
    size = _record_size(params)
    if len(text) - end - 1 != count * size - 1:
        return None
    stack = _read_records(text, end + 1, params, count, size)
    if stack is None:
        return None
    try:
        return MofsSet(params, stack)
    except (SymbolOutOfRange, RowRegularityViolation, ColumnRegularityViolation):
        return None


def _read_records(text: str, pos: int, params: Params, count: int, size: int):
    """The (count, n, n) stack of the ``count`` records of ``size`` bytes
    from ``pos`` on, or None where a record is not laid out as ``encode``
    writes it: a newline last, the separators in order before it, and a
    symbol 1..m of 1..width digits before each separator."""
    m, n = params.m, params.n
    width = len(str(m))
    seps = _separators(n)
    record_seps = np.append(seps, np.uint8(_NEWLINE))
    stack = np.empty((count, n, n), np.min_scalar_type(m))
    step = _tile(params)
    for k0 in range(0, count, step):
        t = min(step, count - k0)
        block = text[pos + k0 * size : pos + (k0 + t) * size]
        if k0 + t == count:
            block += "\n"  # the last square's blank line
        try:
            raw = np.frombuffer(block.encode("ascii"), np.uint8).reshape(t, size)
        except UnicodeEncodeError:
            return None
        if (raw[:, -1] != _NEWLINE).any():
            return None
        values = stack[k0 : k0 + t].reshape(t, -1)
        if width == 1:
            # Digits in the even slots, separators in the odd ones; a byte
            # below "0" wraps above 9, so only the digits 1..m pass.
            if (raw[:, 1::2] != seps).any():
                return None
            np.subtract(raw[:, :-1:2], _ZERO, out=values)
            if values.min() < 1 or values.max() > m:
                return None
            continue
        flat, expected = raw.reshape(-1), np.tile(record_seps, t)
        found = np.flatnonzero((flat - _ZERO) > 9).astype(np.int32)
        if len(found) != len(expected) or (flat[found] != expected).any():
            return None
        # lengths[k, c]: digits before separator c of record k.  A cell has
        # 1..width digits before its separator, the blank line none.
        lengths = np.diff(found, prepend=np.int32(-1)).reshape(t, -1) - 1
        blank, lengths = lengths[:, -1], lengths[:, :-1]
        if blank.any() or lengths.min() < 1 or lengths.max() > width:
            return None
        ends = found.reshape(t, -1)[:, :-1]
        parsed = (flat[ends - 1] - _ZERO).astype(np.int64)
        for k in range(2, width + 1):
            more = (flat[ends - k] - _ZERO).astype(np.int64) * 10 ** (k - 1)
            parsed += np.where(lengths >= k, more, 0)
        # Range-checked before the narrowing cast, so no entry wraps.
        if parsed.min() < 1 or parsed.max() > m:
            return None
        values[...] = parsed
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
