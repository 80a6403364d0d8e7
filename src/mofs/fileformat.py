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
is count * size - 1 bytes.  ``encode`` views a block of squares (as many
as ``core._tile`` gives) as a (t, size) byte array: with one-digit
symbols (m <= 9) digits and separators take alternate slots, filled by
strided views; wider symbols are written from a per-symbol digit table.

``decode`` reads a block the same way, by strided views, only for a file
with one-digit symbols laid out exactly as ``encode`` writes it (header on
the first line, ``count`` records, single spaces, ASCII digits), which
fills one stack that is validated once.  Any other file, every file with
m >= 10 among them, and any file with a square that is not regular, goes
to the per-line parser, which is the only path that reports a malformed
file; so every ``ParseError`` and its ``line_no`` come from the same
line-by-line rules.
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


def decode(text: str) -> MofsSet:
    """Parse and fully validate (regularity and pairwise orthogonality)."""
    mset = _decode_bulk(text)
    return _decode_lines(text) if mset is None else mset


def _decode_bulk(text: str):
    """The set of a file with one-digit symbols (m <= 9) laid out exactly
    as ``encode`` writes it, or None for any other file and for any square
    with a cell outside 1..m or that is not regular.  A file of regular
    squares that do not form a MOFS set raises the constructor's error
    here, since the per-line parser would read the same squares."""
    end = text.find("\n")
    match = _HEADER_RE.match(text[:end]) if end >= 0 else None
    if match is None:
        return None
    m, lam, count = (int(g) for g in match.groups())
    if not 1 <= m <= 9 or lam < 1 or count < 1:
        return None
    params = Params(m, lam)
    # Only a body of count records, less the last newline, is laid out as
    # encode writes it.  Checked first, this bounds every allocation below
    # by the size of the file, before anything of size n * n is built.
    size = 2 * params.n**2 + 1
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
    """The (count, n, n) stack of the ``count`` one-digit records of
    ``size`` bytes from ``pos`` on, or None where a record is not laid out
    as ``encode`` writes it: a byte and its separator for each cell, then a
    newline.  Each cell is its byte less "0", so a byte below "0" wraps
    above 9; ``MofsSet`` refuses any cell outside 1..m."""
    n = params.n
    seps = _separators(n)
    stack = np.empty((count, n, n), np.uint8)
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
        if (raw[:, -1] != _NEWLINE).any() or (raw[:, 1::2] != seps).any():
            return None
        np.subtract(raw[:, :-1:2], _ZERO, out=stack[k0 : k0 + t].reshape(t, -1))
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
    file order.  Regularity is checked once, on the stack of the squares
    read: by ``MofsSet``, or on those before a later fault
    (:func:`_checked`)."""
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

    grids, firsts = [], []
    try:
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
                grids.append(_as_grid(params, rows))
            except MofsError as exc:
                raise ParseError(block[0][0], str(exc)) from exc
            firsts.append(block[0][0])

        while pos < len(numbered) and numbered[pos][1] == "":
            pos += 1
        if pos < len(numbered):
            raise ParseError(numbered[pos][0], "trailing content after the last square")
    except ParseError:
        if grids:
            _checked(_validate_regularity, params, grids, firsts)
        raise
    if not count:
        # MofsSet's refusal, before a (0, n, n) stack that a huge n cannot shape.
        raise MofsError("a MOFS set needs at least one square")
    return _checked(MofsSet, params, grids, firsts)


def _checked(check, params: Params, grids: list, firsts: list):
    """``check(params, stack)`` on the parsed ``grids``; a square that is
    not regular is found again and raises its own check's error as a
    ``ParseError`` at its first line, from ``firsts``."""
    try:
        return check(params, np.array(grids, np.int64))
    except (SymbolOutOfRange, RowRegularityViolation, ColumnRegularityViolation):
        for grid, line_no in zip(grids, firsts):
            try:
                _validate_regularity(params, grid[None])
            except MofsError as exc:
                raise ParseError(line_no, str(exc)) from exc
        raise
