"""Plain-text serialization of MOFS sets.

Format: a header line ``MOFS m=<m> lambda=<lam> count=<t>``, then each
square as n lines of n space-separated symbols, consecutive squares
separated by exactly one blank line.  Lines starting with ``#`` are
comments and are ignored on decode.  Files end with a newline.
"""

from __future__ import annotations

import re

import numpy as np

from .core import FSquare, MofsError, Params
from .verify import MofsSet, verify_mofs


class ParseError(MofsError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class HeaderMismatch(MofsError):
    pass


_HEADER_RE = re.compile(r"^MOFS m=(\d+) lambda=(\d+) count=(\d+)$")


def encode(mset: MofsSet) -> str:
    params = mset.params
    lines = [f"MOFS m={params.m} lambda={params.lam} count={mset.t}"]
    for idx, grid in enumerate(mset.grids):
        if idx:
            lines.append("")
        lines.extend(" ".join(map(str, row)) for row in grid.tolist())
    return "\n".join(lines) + "\n"


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


def decode(text: str) -> MofsSet:
    """Parse and fully validate (regularity and pairwise orthogonality)."""
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

    squares = []
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
                f"square {len(squares) + 1} is truncated",
            )
        try:
            grid = np.array([line.split() for _, line in block], dtype=np.int64)
        except (ValueError, OverflowError):
            grid = None
        if grid is None or grid.shape != (n, n):
            grid = _parse_rows(block, n)
        try:
            squares.append(FSquare(params, grid))
        except MofsError as exc:
            raise ParseError(block[0][0], str(exc)) from exc

    while pos < len(numbered) and numbered[pos][1] == "":
        pos += 1
    if pos < len(numbered):
        raise ParseError(numbered[pos][0], "trailing content after the last square")
    if len(squares) != count:
        raise HeaderMismatch(f"header says {count} squares, found {len(squares)}")
    return verify_mofs(squares)
