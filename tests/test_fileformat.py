"""Decode fuzzing: a mutated file gives a set or a MofsError, nothing else,
and the same outcome as the line-by-line reference decoder."""

import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mofs
import mofs.fileformat
from mofs.cli import main
from mofs.core import FSquare, MofsError, Params, _tile
from mofs.fileformat import ParseError, decode, encode
from mofs.verify import NotOrthogonal, verify_mofs

from conftest import blocks_of, corrupted_stacks, first_per_square_error, hand_built_sets


def _comments_and_no_gaps(text):
    """The same set with comment lines and no blank lines between squares."""
    lines = [line for line in text.split("\n") if line]
    lines.insert(0, "# leading comment")
    lines.insert(3, "#")
    lines.insert(len(lines) // 2, "# between rows")
    return "\n".join(lines) + "\n# trailing comment\n"


FEDERER16 = mofs.construct_federer(mofs.hadamard(16))  # 225 x F(16;8)
PP5_2 = mofs.construct_prime_power(5, 2)  # 144 x F(25;5)
ONES = mofs.FSquare(Params(1, 3), np.ones((3, 3), np.int64))

VALID_FILES = [
    encode(mofs.construct_federer(mofs.hadamard(4))),  # 9 x F(4;2)
    encode(mofs.construct_prime_power(3, 1)),  # 2 x F(3;1)
    # 225 squares: at 128 squares to a block (see the chunk-cases test), two
    # blocks, and not a multiple of the block.
    encode(FEDERER16),
    encode(mofs.construct_prime_power(11, 1)),  # 10 x F(11;1), two-digit symbols
    _comments_and_no_gaps(encode(mofs.construct_prime_power(3, 2))),
]
VALID_IDS = ["federer4", "pp3-1", "federer16", "pp11-1", "comments-no-gaps"]

BAD_TOKENS = ["99999999999999999999999", "1.5", "-1", "0", "x", ""]
HEADER_VALUES = ["0", "1", "2", "3", "9", "1000000000000", "99999999999999999999999"]

index = st.integers(min_value=0, max_value=10**6)
mutation = st.one_of(
    st.tuples(st.just("token"), index, index, st.sampled_from(BAD_TOKENS)),
    st.tuples(st.just("delete"), index),
    st.tuples(st.just("duplicate"), index),
    st.tuples(
        st.just("header"),
        st.sampled_from(["m", "lambda", "count"]),
        st.sampled_from(HEADER_VALUES + BAD_TOKENS),
    ),
)


def mutate(text, mutations):
    lines = text.split("\n")
    for op, *args in mutations:
        if op == "token":
            i, j, token = args
            i %= len(lines)
            tokens = lines[i].split(" ")
            tokens[j % len(tokens)] = token
            lines[i] = " ".join(tokens)
        elif op == "delete":
            del lines[args[0] % len(lines)]
        elif op == "duplicate":
            i = args[0] % len(lines)
            lines.insert(i, lines[i])
        else:
            field, value = args
            lines[0] = re.sub(rf"\b{field}=\S*", f"{field}={value}", lines[0])
        if not lines:
            lines = [""]
    return "\n".join(lines)


# The line-by-line decoder as it was before the bulk path, kept verbatim as
# the reference that every decode outcome is compared with.
_HEADER_RE = re.compile(r"^MOFS m=(\d+) lambda=(\d+) count=(\d+)$")


class HeaderMismatch(MofsError):
    """The reference decoder's count check, which its loop never lets fail."""


def _reference_parse_rows(block, n: int) -> list:
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


def reference_decode(text: str):
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
            _reference_parse_rows(block, n)  # a bad line before the gap is reported first
            raise ParseError(
                numbered[pos][0] if pos < len(numbered) else numbered[-1][0],
                f"square {len(squares) + 1} is truncated",
            )
        try:
            grid = np.array([line.split() for _, line in block], dtype=np.int64)
        except (ValueError, OverflowError):
            grid = None
        if grid is None or grid.shape != (n, n):
            grid = _reference_parse_rows(block, n)
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


# Edits of an F(16;8) file (m = 2) that keep its length.
SAME_LENGTH_EDITS = [
    pytest.param(lambda s: s.replace("\n\n", "1\n", 1), id="digit-in-gap"),
    pytest.param(lambda s: s.replace("\n\n", "\n1", 1), id="digit-in-blank-line"),
    pytest.param(lambda s: s.replace("\n1 ", "\n0 ", 1), id="symbol-0"),
    pytest.param(lambda s: s.replace("\n1 ", "\n3 ", 1), id="symbol-above-m"),
    pytest.param(lambda s: s.replace("\n1 ", "\n/ ", 1), id="byte-below-0"),
    pytest.param(lambda s: s.replace("\n1 ", "\n: ", 1), id="byte-above-9"),
]


def _move_line_break(text):
    """Break the first row after its first symbol and join the rest of it to
    the second row: the same bytes but one, in other places."""
    header, row, rest = text.split("\n", 2)
    return header + "\n" + row.replace(" ", "\n", 1) + " " + rest


def _zero_for_a_digit(text, far=False):
    """Drop the leading digit of the first 10 and pad a 5 with a zero: the
    first 5 after it, or the file's last 5, so the records in between move
    by one byte."""
    i = text.index(" 10 ")
    text = text[:i] + " 1 " + text[i + 4 :]
    j = text.rindex(" 5 ") if far else text.index(" 5 ", i)
    return text[:j] + " 05 " + text[j + 3 :]


# Edits of an F(11;1) file (one- and two-digit symbols) that keep its length.
WIDE_SAME_LENGTH_EDITS = [
    *SAME_LENGTH_EDITS,
    pytest.param(lambda s: s.replace("\n1 2 ", "\n12  ", 1), id="space-digit-swap"),
    pytest.param(lambda s: s.replace(" 10 11\n", " 1011 \n", 1), id="space-to-row-end"),
    pytest.param(lambda s: s.replace(" 11\n2 ", " 1\n12 ", 1), id="digit-across-row-break"),
    pytest.param(lambda s: s.replace(" 9 10 ", " 10 9 ", 1), id="cells-of-two-widths-swapped"),
    pytest.param(lambda s: s.replace(" 10 ", " 01 ", 1), id="digits-swapped"),
    pytest.param(_zero_for_a_digit, id="leading-zero-for-a-dropped-digit"),
    pytest.param(lambda s: _zero_for_a_digit(s, far=True), id="zero-and-digit-squares-apart"),
    pytest.param(lambda s: s.replace("\n2 ", "\n\uff12 ", 1), id="non-ascii-digit"),
    pytest.param(lambda s: s.replace(" ", "\t", 1), id="tab-for-space"),
    pytest.param(_move_line_break, id="moved-line-break"),
]


def reference_encode(params, grids) -> str:
    """The row-by-row encoder that the chunked one replaced, on a (possibly
    invalid) stack of grids."""
    lines = [f"MOFS m={params.m} lambda={params.lam} count={len(grids)}"]
    for idx, grid in enumerate(grids):
        if idx:
            lines.append("")
        lines.extend(" ".join(map(str, row)) for row in grid.tolist())
    return "\n".join(lines) + "\n"


def outcome(decoder, text):
    """The set a decoder returns, or its error's type, message and line."""
    try:
        return decoder(text)
    except MofsError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


class TestDecodeFuzz:
    @given(
        st.sampled_from(VALID_FILES),
        st.lists(mutation, min_size=1, max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_file_raises_only_mofs_errors(self, text, mutations):
        mutated = mutate(text, mutations)
        got = outcome(decode, mutated)
        assert isinstance(got, mofs.MofsSet) or issubclass(got[0], MofsError)
        assert got == outcome(reference_decode, mutated)

    @pytest.mark.parametrize("text", ["", "\n", "\n\n\n", "# only a comment\n#\n"])
    def test_file_without_a_header_is_empty(self, text):
        expected = (ParseError, "line 1: empty file", 1)
        assert outcome(decode, text) == expected
        assert outcome(reference_decode, text) == expected

    def test_huge_header_fails_fast(self):
        text = "MOFS m=1000000000000 lambda=1000000000000 count=1000000000000\n"
        start = time.perf_counter()
        with pytest.raises(ParseError):
            decode(text + "1 2\n2 1\n")
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "header",
        [
            "MOFS m=1000000000000 lambda=1000000000000 count=0",
            "MOFS m=3000000000 lambda=1 count=0",
        ],
    )
    def test_empty_set_of_a_huge_type_is_refused(self, header, tmp_path, capsys):
        # Refused before a (0, n, n) stack, which numpy cannot shape here.
        with pytest.raises(MofsError, match="at least one square"):
            decode(header + "\n")
        path = tmp_path / "empty.mofs"
        path.write_text(header + "\n")
        assert main(["verify", str(path)]) == 1
        assert capsys.readouterr().err == "error: a MOFS set needs at least one square\n"

    def test_blank_body_of_a_huge_square_fails_fast(self):
        # As many newlines as the header's one square needs, but no cells:
        # n * n bytes of cells must not be asked for on n bytes of file.
        text = "MOFS m=1 lambda=100000 count=1\n" + "\n" * 100000
        start = time.perf_counter()
        expected = (ParseError, "line 100001: square 1 is truncated", 100001)
        assert outcome(decode, text) == expected
        assert outcome(reference_decode, text) == expected
        assert time.perf_counter() - start < 1


class TestBulkPath:
    def test_valid_files_span_the_chunk_cases(self, monkeypatch):
        # With F(16;8) 128 squares to a block, the 225 squares are two
        # blocks, and not a multiple of the block; PP5_2 spans several too.
        p, t = FEDERER16.params, FEDERER16.t
        blocks_of(monkeypatch, p, 128)
        assert t > _tile(p)
        assert t % _tile(p) != 0
        assert "count=10" in VALID_FILES[3] and " 10 " in VALID_FILES[3]
        p, t = PP5_2.params, PP5_2.t
        assert t > _tile(p) and t % _tile(p) != 0
        for text in VALID_FILES[:4]:
            assert encode(decode(text)) == text
        text = encode(PP5_2)
        assert decode(text) == PP5_2 and encode(decode(text)) == text

    @pytest.mark.parametrize(
        "mset",
        [
            *hand_built_sets(),
            FEDERER16,
            pytest.param(PP5_2, id="pp5-2"),
            pytest.param(mofs.verify_mofs([ONES, ONES]), id="m1"),
        ],
    )
    def test_encode_matches_the_reference(self, mset):
        # The hand-built sets are not orthogonal; their symbols take up to
        # three digits.
        text = encode(mset)
        assert text == reference_encode(mset.params, mset.grids)
        assert outcome(decode, text) == outcome(reference_decode, text)

    @pytest.mark.parametrize("text", VALID_FILES, ids=VALID_IDS)
    def test_valid_files_decode_like_the_reference(self, text):
        assert decode(text) == reference_decode(text)

    @pytest.mark.parametrize("text", VALID_FILES[:4], ids=VALID_IDS[:4])
    def test_encoded_files_never_use_the_line_parser(self, text, monkeypatch):
        def refuse(text):
            raise AssertionError("the per-line parser ran on an encoded file")

        if int(_HEADER_RE.match(text.partition("\n")[0]).group(1)) >= 10:
            # Files with m >= 10 are read line by line only.
            assert outcome(decode, text) == outcome(reference_decode, text)
            return
        monkeypatch.setattr(mofs.fileformat, "_decode_lines", refuse)
        assert encode(decode(text)) == text

    @pytest.mark.parametrize("mset", hand_built_sets())
    def test_regular_non_mofs_file_is_refused_by_the_bulk_path(self, mset, monkeypatch):
        def refuse(text):
            raise AssertionError("the per-line parser ran on an encoded file")

        with pytest.raises(NotOrthogonal) as want:
            verify_mofs(mset.squares)
        text = encode(mset)
        if mset.params.m >= 10:
            # Read line by line only, like the reference.
            assert outcome(decode, text) == outcome(reference_decode, text)
        else:
            monkeypatch.setattr(mofs.fileformat, "_decode_lines", refuse)
        with pytest.raises(NotOrthogonal) as got:
            decode(text)
        assert vars(got.value) == vars(want.value)

    @pytest.mark.parametrize(
        "edit",
        [
            *SAME_LENGTH_EDITS,
            pytest.param(lambda s: s.replace("\n", "\r\n"), id="crlf"),
            pytest.param(lambda s: s.replace(" ", "  ", 1), id="double-space"),
            pytest.param(lambda s: s.replace("\n1 ", "\n01 ", 1), id="leading-zero"),
            pytest.param(lambda s: s.replace("\n1 ", "\n21 ", 1), id="wide-symbol"),
            pytest.param(lambda s: s.replace("\n\n", "\n1\n", 1), id="token-in-gap"),
            pytest.param(_move_line_break, id="moved-line-break"),
            pytest.param(lambda s: s.replace("\n2", "\n\uff12", 1), id="non-ascii-digit"),
            pytest.param(lambda s: s[:-1], id="no-final-newline"),
            pytest.param(lambda s: s + "\n", id="trailing-blank-line"),
            pytest.param(lambda s: "\n" + s, id="blank-line-before-header"),
            pytest.param(lambda s: s.replace("\n\n", "\n\n\n", 1), id="two-blank-lines"),
            pytest.param(lambda s: s.replace("\n\n", "\n", 1), id="no-blank-line"),
            pytest.param(lambda s: s.replace("\n", "\n# c\n", 1), id="comment"),
            pytest.param(lambda s: s.replace("count=225", "count=224"), id="count-low"),
            pytest.param(lambda s: s.replace("count=225", "count=226"), id="count-high"),
        ],
    )
    def test_non_canonical_layouts_agree_with_the_reference(self, edit):
        text = edit(encode(FEDERER16))
        assert outcome(decode, text) == outcome(reference_decode, text)

    @pytest.mark.parametrize("edit", SAME_LENGTH_EDITS)
    def test_fixed_layout_refuses_a_wrong_byte(self, edit):
        # The length is that of the encoded file, so the bytes themselves
        # must be checked.
        text = encode(FEDERER16)
        assert len(edit(text)) == len(text)
        assert mofs.fileformat._decode_bulk(edit(text)) is None

    @pytest.mark.parametrize("edit", WIDE_SAME_LENGTH_EDITS)
    def test_wide_symbol_edits_agree_with_the_reference(self, edit):
        text = VALID_FILES[3]
        edited = edit(text)
        assert len(edited) == len(text) and edited != text
        assert outcome(decode, edited) == outcome(reference_decode, edited)

    @pytest.mark.parametrize("m,lam,count", [(12, 1, 600), (10, 2, 200), (101, 1, 8)])
    def test_wide_stack_over_several_chunks(self, m, lam, count, monkeypatch):
        # A regular stack, not a MOFS set, laid out as encode writes it: the
        # bulk path declines it before reading a record, and the line
        # parser decodes it like the reference.
        # Just under half the stack to a block: two full blocks and a part.
        params = Params(m, lam)
        blocks_of(monkeypatch, params, count // 2 - 1)
        step = _tile(params)
        assert count > 2 * step and count % step != 0
        rng = random.Random(m)
        stack = np.array([mofs.random_fsquare(params, rng).grid for _ in range(count)])
        text = reference_encode(params, stack)

        def refuse(*args):
            raise AssertionError("the bulk path read a file with m >= 10")

        with monkeypatch.context() as patch:
            patch.setattr(mofs.fileformat, "_read_records", refuse)
            patch.setattr(mofs.fileformat, "MofsSet", refuse)
            assert mofs.fileformat._decode_bulk(text) is None
        assert outcome(decode, text) == outcome(reference_decode, text)

    def test_one_digit_body_under_a_wide_header_is_read_line_by_line(self, monkeypatch):
        # Ten rows of ten one-digit cells: as long as a one-digit record,
        # but m = 10, so the record reader must not see it.
        row = " ".join(str(j % 9 + 1) for j in range(10))
        text = "MOFS m=10 lambda=1 count=1\n" + "\n".join([row] * 10) + "\n"
        want = outcome(reference_decode, text)

        def refuse(*args):
            raise AssertionError("the bulk path read a file with m >= 10")

        monkeypatch.setattr(mofs.fileformat, "_read_records", refuse)
        assert mofs.fileformat._decode_bulk(text) is None
        assert outcome(decode, text) == want

    @pytest.mark.parametrize("seed", range(4))
    def test_first_bad_square_reported_at_its_first_line(self, seed):
        for params, stack in corrupted_stacks(seed, count=6):
            text = reference_encode(params, stack)
            expected = first_per_square_error(params, stack)
            if expected is None:
                continue
            k, error = expected
            line_no = 2 + k * (params.n + 1)
            with pytest.raises(ParseError) as exc:
                decode(text)
            assert exc.value.line_no == line_no
            assert str(exc.value) == f"line {line_no}: {error}"
            assert outcome(reference_decode, text) == (
                ParseError, str(exc.value), line_no
            )

    def test_commented_file_checks_each_square_once(self, monkeypatch):
        # A comment sends the file to the line parser, which checks the
        # regularity of its 225 squares once, on their stack.
        text = "# a comment\n" + encode(FEDERER16)
        checked, check = [], mofs.core._validate_regularity

        def counted(params, stack):
            checked.append(len(stack))
            return check(params, stack)

        for module in (mofs.fileformat, mofs.verify):
            monkeypatch.setattr(module, "_validate_regularity", counted)
        assert decode(text) == FEDERER16
        assert sum(checked) == 225

    def test_bad_square_in_a_commented_file_is_named_by_its_first_line(self):
        # Square 3 has a row with nine 1s, and square 6 a token that is no
        # integer: the earlier fault is the one raised, at square 3's first
        # line, line 3 + 2 * 17 after the comment and the header.
        lines = ("# a comment\n" + encode(FEDERER16)).split("\n")
        lines[36] = lines[36].replace("2", "1", 1)
        lines[3 + 5 * 17] = lines[3 + 5 * 17].replace("2", "x", 1)
        with pytest.raises(ParseError) as exc:
            decode("\n".join(lines))
        assert exc.value.line_no == 37
        assert str(exc.value) == "line 37: row 0: symbol 1 occurs 9 times, expected 8"

    def test_wide_token_does_not_wrap_into_range(self):
        # In an m = 255 file a cell is one byte; 999 would wrap to 231, the
        # value it replaces, and the square would pass as valid.
        p = Params(255, 1)
        cyclic = (np.arange(255)[:, None] + np.arange(255)) % 255 + 1
        text = encode(verify_mofs([FSquare(p, cyclic)]))
        bad = text.replace(" 231 ", " 999 ", 1)
        with pytest.raises(ParseError, match=r"line 2: entry \(0,230\) = 999 not in 1..255"):
            decode(bad)
