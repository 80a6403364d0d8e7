import argparse
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import mofs
from mofs import cli, maximality
from mofs.cli import main
from mofs.fileformat import ParseError, decode, encode
from mofs.verify import NotOrthogonal

from conftest import EXAMPLE_GRID


@pytest.fixture
def example_file(example_square):
    return encode(mofs.verify_mofs([example_square]))


class TestEncode:
    def test_example_singleton(self, example_file):
        lines = example_file.split("\n")
        assert lines[0] == "MOFS m=3 lambda=2 count=1"
        assert lines[1] == "1 2 3 1 2 3"
        assert len(lines) == 8 and lines[-1] == ""

    def test_federer_file(self, federer4):
        text = encode(federer4)
        assert text.startswith("MOFS m=2 lambda=2 count=9\n")
        assert text.endswith("\n")
        # nine 4x4 blocks separated by blank lines
        assert text.count("\n\n") == 8


class TestDecode:
    def test_round_trip_set(self, federer4):
        assert decode(encode(federer4)).squares == federer4.squares

    def test_round_trip_canonical_text(self, example_file):
        assert encode(decode(example_file)) == example_file

    def test_comments_ignored(self, example_file):
        lines = example_file.split("\n")
        text = "\n".join(["# a comment", lines[0], "# another"] + lines[1:])
        assert decode(text).squares == decode(example_file).squares

    def test_duplicate_square_not_orthogonal(self, example_file):
        body = example_file.split("\n", 1)[1]
        text = "MOFS m=3 lambda=2 count=2\n" + body + "\n" + body
        with pytest.raises(NotOrthogonal) as exc:
            decode(text)
        assert (exc.value.k, exc.value.l) == (1, 2)

    def test_bad_row_length_reports_line(self, example_file):
        lines = example_file.rstrip("\n").split("\n")
        lines[3] = lines[3] + " 1"
        with pytest.raises(ParseError) as exc:
            decode("\n".join(lines) + "\n")
        assert exc.value.line_no == 4

    def test_non_integer_in_second_square_reports_its_line(self, federer4):
        lines = encode(federer4).split("\n")
        # Line 1 is the header, lines 2-5 the first square, line 6 blank.
        lines[7] = lines[7].replace("1", "x", 1)
        with pytest.raises(ParseError) as exc:
            decode("\n".join(lines))
        assert exc.value.line_no == 8
        assert "non-integer entry" in str(exc.value)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            decode("MOLS m=2 lambda=1 count=1\n1 2\n2 1\n")

    def test_truncated_square(self):
        with pytest.raises(ParseError):
            decode("MOFS m=2 lambda=1 count=1\n1 2\n")

    def test_irregular_square_rejected(self):
        with pytest.raises(ParseError):
            decode("MOFS m=2 lambda=1 count=1\n1 1\n2 2\n")


# The whole `mofs analyze` output of the complete sets built from the
# prime powers 3, 5 and 8 (`construct --prime-power` arguments in
# PRIME_POWERS), of the complete F(8;4) set minus its last 2 squares
# ("8-2", which extends: lam is even, so its full relations certify
# nothing), and of the F(6;3) sets that greedy growth from nothing stops at
# with seed 8 (one certified square) and seed 0 (8 uncertified squares).
PRIME_POWERS = {"3": ("3", "1"), "5": ("5", "1"), "8": ("2", "3")}
ANALYZE_PINS = {
    "3": (
        "type F(3;1): 2 mutually orthogonal squares\n"
        "upper bound: 2 (exact)\n"
        "complete: yes\n"
        "completeness block structure matches: True\n"
        "symbol 1: parity matrix has no full-relation block form\n"
        "symbol 2: parity matrix has no full-relation block form\n"
        "symbol 3: parity matrix has no full-relation block form\n"
        "maximal: yes (the bound is met)\n"
    ),
    "5": (
        "type F(5;1): 4 mutually orthogonal squares\n"
        "upper bound: 4 (exact)\n"
        "complete: yes\n"
        "completeness block structure matches: True\n"
        "symbol 1: parity matrix has no full-relation block form\n"
        "symbol 2: parity matrix has no full-relation block form\n"
        "symbol 3: parity matrix has no full-relation block form\n"
        "symbol 4: parity matrix has no full-relation block form\n"
        "symbol 5: parity matrix has no full-relation block form\n"
        "maximal: yes (the bound is met)\n"
    ),
    "8": (
        "type F(8;4): 49 mutually orthogonal squares\n"
        "upper bound: 49 (exact)\n"
        "complete: yes\n"
        "completeness block structure matches: True\n"
        "symbol 1: parity matrix has no full-relation block form\n"
        "symbol 2: parity matrix has no full-relation block form\n"
        "maximal: yes (the bound is met)\n"
    ),
    "seed-8": (
        "type F(6;3): 1 mutually orthogonal squares\n"
        "upper bound: 25 (exact)\n"
        "complete: no\n"
        "completeness block structure matches: False\n"
        "symbol 1: full relation with x=3 y=3 (canonical orientation)\n"
        "  x = y = t*lambda (mod 2): pass\n"
        "  m*lambda even: pass\n"
        "  t odd: pass\n"
        "  t = m(x+y) - (m+1) (mod 8): pass\n"
        "  t = m - 1 (mod 4): pass\n"
        "symbol 2: full relation with x=3 y=3 (canonical orientation)\n"
        "  x = y = t*lambda (mod 2): pass\n"
        "  m*lambda even: pass\n"
        "  t odd: pass\n"
        "  t = m(x+y) - (m+1) (mod 8): pass\n"
        "  t = m - 1 (mod 4): pass\n"
        "maximal: yes (parity certificate, symbols 1, x=3, y=3)\n"
    ),
    "8-2": (
        "type F(8;4): 47 mutually orthogonal squares\n"
        "upper bound: 49 (exact)\n"
        "complete: no\n"
        "completeness block structure matches: False\n"
        "symbol 1: full relation with x=0 y=4 (canonical orientation)\n"
        "  x = y = t*lambda (mod 2): pass\n"
        "  m*lambda even: pass\n"
        "  t odd: pass\n"
        "  t = m(x+y) - (m+1) (mod 8): FAIL\n"
        "  t = m - 1 (mod 4): FAIL\n"
        "symbol 2: full relation with x=0 y=4 (canonical orientation)\n"
        "  x = y = t*lambda (mod 2): pass\n"
        "  m*lambda even: pass\n"
        "  t odd: pass\n"
        "  t = m(x+y) - (m+1) (mod 8): FAIL\n"
        "  t = m - 1 (mod 4): FAIL\n"
        "maximal: undetermined (no parity certificate; not a claim)\n"
    ),
    "seed-0": (
        "type F(6;3): 8 mutually orthogonal squares\n"
        "upper bound: 25 (exact)\n"
        "complete: no\n"
        "completeness block structure matches: False\n"
        "symbol 1: parity matrix has no full-relation block form\n"
        "symbol 2: parity matrix has no full-relation block form\n"
        "maximal: undetermined (no parity certificate; not a claim)\n"
    ),
}


class TestCli:
    def test_bound(self, capsys):
        assert main(["bound", "2", "3"]) == 0
        assert capsys.readouterr().out.strip() == "25 (exact)"

    def test_bound_inexact(self, capsys):
        assert main(["bound", "3", "2"]) == 0
        assert capsys.readouterr().out.strip() == "12 (floor)"

    def test_count(self, capsys):
        assert main(["count", "2", "1"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_count_guard(self, capsys):
        assert main(["count", "2", "4"]) == 1
        assert "--force" in capsys.readouterr().err

    def test_construct_verify_pipeline(self, tmp_path, capsys):
        path = tmp_path / "set.mofs"
        assert main(["construct", "--hadamard", "4", "-o", str(path)]) == 0
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "9 mutually orthogonal squares" in out
        assert "complete: yes" in out

    def test_construct_prime_power_stdout(self, capsys):
        assert main(["construct", "--prime-power", "3", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("MOFS m=3 lambda=1 count=2\n")
        decode(out)

    def test_verify_corrupt_file_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.mofs"
        path.write_text("MOFS m=2 lambda=1 count=1\n1 1\n2 2\n")
        assert main(["verify", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_verify_oversize_entry_exit_1(self, tmp_path, capsys):
        path = tmp_path / "big.mofs"
        path.write_text("MOFS m=2 lambda=1 count=1\n1 2\n2 99999999999999999999999\n")
        assert main(["verify", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: line 2: ")

    def test_missing_file_exit_1(self, capsys):
        assert main(["verify", "/nonexistent.mofs"]) == 1

    @pytest.mark.parametrize("command", [["verify"], ["analyze"], ["extend", "--exhaustive"]])
    @pytest.mark.parametrize(
        "data,line_no",
        [(b"\xff\xfe\x00bad", 1), (b"MOFS m=2 lambda=1 count=1\n1 2\n2 \xff1\n", 3)],
        ids=["line-1", "line-3"],
    )
    def test_non_utf8_file_exit_1(self, tmp_path, capsys, command, data, line_no):
        path = tmp_path / "bad.mofs"
        path.write_bytes(data)
        assert main([command[0], str(path), *command[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: line {line_no}: not UTF-8 text\n"

    def test_crlf_file_reads_as_text(self, tmp_path, capsys, example_file):
        path = tmp_path / "crlf.mofs"
        path.write_bytes(example_file.replace("\n", "\r\n").encode("ascii"))
        assert main(["verify", str(path)]) == 0
        assert capsys.readouterr().out.startswith("OK: 1 mutually orthogonal squares")

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct"])  # neither source given
        assert exc.value.code == 2

    def test_greedy_requires_seed(self, tmp_path, capsys):
        path = tmp_path / "set.mofs"
        main(["construct", "--hadamard", "4", "-o", str(path)])
        with pytest.raises(SystemExit) as exc:
            main(["extend", str(path), "--greedy"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "extra",
        [["--seed", "3", "-o", "out.mofs"], ["--seed", "3"], ["-o", "out.mofs"]],
        ids=["seed-and-output", "seed", "output"],
    )
    def test_exhaustive_refuses_greedy_options(self, tmp_path, capsys, extra):
        path = tmp_path / "set.mofs"
        main(["construct", "--hadamard", "4", "-o", str(path)])
        out = tmp_path / "out.mofs"
        argv = [str(out) if a == "out.mofs" else a for a in extra]
        with pytest.raises(SystemExit) as exc:
            main(["extend", str(path), "--exhaustive", *argv])
        assert exc.value.code == 2
        assert "apply only to --greedy" in capsys.readouterr().err
        assert not out.exists()

    def test_extend_exhaustive_complete(self, tmp_path, capsys):
        path = tmp_path / "set.mofs"
        main(["construct", "--hadamard", "4", "-o", str(path)])
        assert main(["extend", str(path), "--exhaustive"]) == 0
        out = capsys.readouterr().out
        assert "extensions: 0" in out
        assert "maximal: yes (exhaustive search)" in out

    def test_extend_greedy_m1_refused(self, tmp_path):
        # In a subprocess with a timeout: greedy growth that never ends
        # must fail this test, not hang the suite.
        p = mofs.Params(1, 2)
        path = tmp_path / "one.mofs"
        path.write_text(encode(mofs.verify_mofs([next(mofs.enumerate_fsquares(p))])))
        env = {**os.environ, "PYTHONPATH": str(Path(mofs.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "mofs.cli", "extend", str(path), "--greedy", "--seed", "0"],
            capture_output=True,
            text=True,
            timeout=30,
            env=env,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error: greedy growth is undefined for m = 1")

    def test_extend_greedy(self, tmp_path, capsys):
        p = mofs.Params(2, 2)
        first = next(mofs.enumerate_fsquares(p))
        path = tmp_path / "seed.mofs"
        out_path = tmp_path / "grown.mofs"
        path.write_text(encode(mofs.verify_mofs([first])))
        assert (
            main(
                [
                    "extend",
                    str(path),
                    "--greedy",
                    "--seed",
                    "7",
                    "-o",
                    str(out_path),
                ]
            )
            == 0
        )
        grown = decode(out_path.read_text())
        assert grown.t >= 1
        assert mofs.exhaustive_maximality(grown)

    def test_analyze_reports_source_of_claims(self, tmp_path, capsys):
        path = tmp_path / "set.mofs"
        main(["construct", "--hadamard", "4", "-o", str(path)])
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "complete: yes" in out
        # Never a bare maximality claim: a complete set names the bound.
        assert out.endswith("\nmaximal: yes (the bound is met)\n")

    def test_analyze_uncertified_set(self, tmp_path, capsys, example_square):
        # Even lambda: the parity criterion never applies, so analyze must
        # not claim maximality.
        path = tmp_path / "single.mofs"
        path.write_text(encode(mofs.verify_mofs([example_square])))
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "maximal: undetermined" in out

    def test_analyze_certified_set(self, tmp_path, capsys):
        # Greedy growth from seed 8 stops at one F(6;3) square.  For both
        # symbols its parity matrix is a full relation that passes all five
        # conditions, so analyze certifies the set maximal without a search,
        # and the exhaustive search agrees.
        grown = mofs.grow_maximal(mofs.Params(2, 3), mofs.SearchConfig(seed=8))
        rows = ["222111", "111222", "111222", "111222", "222111", "222111"]
        assert grown.t == 1
        assert ["".join(map(str, row)) for row in grown.grids[0].tolist()] == rows
        path = tmp_path / "cert.mofs"
        path.write_text(encode(grown))
        assert main(["analyze", str(path)]) == 0
        checks = [
            "  x = y = t*lambda (mod 2): pass",
            "  m*lambda even: pass",
            "  t odd: pass",
            "  t = m(x+y) - (m+1) (mod 8): pass",
            "  t = m - 1 (mod 4): pass",
        ]
        want = [
            "type F(6;3): 1 mutually orthogonal squares",
            "upper bound: 25 (exact)",
            "complete: no",
            "completeness block structure matches: False",
            "symbol 1: full relation with x=3 y=3 (canonical orientation)",
            *checks,
            "symbol 2: full relation with x=3 y=3 (canonical orientation)",
            *checks,
            "maximal: yes (parity certificate, symbols 1, x=3, y=3)",
        ]
        assert capsys.readouterr().out.split("\n") == want + [""]
        assert main(["extend", str(path), "--exhaustive"]) == 0
        assert capsys.readouterr().out == "extensions: 0\nmaximal: yes (exhaustive search)\n"

    def test_analyze_says_a_set_that_meets_the_bound_is_maximal(self, tmp_path, capsys):
        # Every complete set the library builds with n <= 16, and every
        # greedy F(5;1) set of size 4: no (t+1)-th square exists, as the
        # exhaustive search agrees.
        powers = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2)]
        powers += [(q, 1) for q in (5, 7, 8, 9, 11, 13, 16)]
        sets = [mofs.construct_prime_power(m, h) for m, h in powers]
        sets += [mofs.construct_federer(mofs.hadamard(order)) for order in (4, 8, 12, 16)]
        f51 = mofs.Params(5, 1)
        for seed in range(8):
            start = mofs.verify_mofs([mofs.random_fsquare(f51, random.Random(seed))])
            grown = mofs.grow_maximal(start, mofs.SearchConfig(seed=seed, force=True))
            assert grown.t == 4
            sets.append(grown)
        path = tmp_path / "set.mofs"
        for mset in sets:
            assert mset.t == mofs.upper_bound(mset.params).value
            path.write_text(encode(mset))
            capsys.readouterr()
            assert main(["analyze", str(path)]) == 0
            out = capsys.readouterr().out
            assert out.endswith("\nmaximal: yes (the bound is met)\n"), (mset.params, out)
            assert mofs.exhaustive_maximality(mset)

    @pytest.mark.parametrize("name", list(ANALYZE_PINS))
    def test_analyze_builds_each_parity_matrix_once(self, tmp_path, monkeypatch, capsys, name):
        # One maximality_verdict call, also when the bound decides, builds
        # each uniform choice's parity matrix once, by parity_matrix, in
        # symbol order; the output is pinned.
        path = tmp_path / "set.mofs"
        if name in PRIME_POWERS:
            main(["construct", "--prime-power", *PRIME_POWERS[name], "-o", str(path)])
        elif name == "8-2":
            full = mofs.construct_prime_power(2, 3)
            path.write_text(encode(mofs.verify_mofs(full.squares[:-2])))
        else:
            config = mofs.SearchConfig(seed=int(name.removeprefix("seed-")))
            path.write_text(encode(mofs.grow_maximal(mofs.Params(2, 3), config)))
        mset = decode(path.read_text())
        choices, verdicts = [], []
        build, verdict = maximality.parity_matrix, maximality.maximality_verdict

        def counted(mset, choice):
            choices.append(tuple(choice))
            return build(mset, choice)

        def counted_verdict(mset):
            verdicts.append(mset.t)
            return verdict(mset)

        monkeypatch.setattr(maximality, "parity_matrix", counted)
        monkeypatch.setattr(maximality, "maximality_verdict", counted_verdict)
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr().out == ANALYZE_PINS[name]
        assert verdicts == [mset.t]
        assert choices == [(a,) * mset.t for a in range(1, mset.params.m + 1)]


def _run_cli(*argv, timeout=60):
    """``mofs argv`` in a subprocess, so a hang fails the test, not the suite."""
    return _run_python("-m", "mofs.cli", *argv, timeout=timeout)


def _run_python(*args, timeout=60):
    """``python args`` in a subprocess with a timeout."""
    env = {**os.environ, "PYTHONPATH": str(Path(mofs.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


class TestParserReuse:
    """``main`` reuses one parser per process, with no state carried from
    one call to the next."""

    @pytest.fixture
    def fresh_cache(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_calls_match_separate_processes(self, tmp_path, capsys, monkeypatch, fresh_cache):
        monkeypatch.setenv("COLUMNS", "80")
        path = tmp_path / "set.mofs"
        assert main(["construct", "--hadamard", "4", "-o", str(path)]) == 0
        capsys.readouterr()
        usage = ["extend", str(path), "--exhaustive", "-o", str(tmp_path / "x.mofs")]
        calls = [usage, ["extend", str(path), "--exhaustive"], ["construct", "--help"], usage]
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            alone = _run_cli(*argv)
            assert (out, err, code) == (alone.stdout, alone.stderr, alone.returncode), argv
        assert not (tmp_path / "x.mofs").exists()

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_main_builds_the_parser_once(self, monkeypatch, capsys, fresh_cache):
        builds = []
        build = cli.build_parser

        def counted():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        for _ in range(3):
            assert main(["bound", "2", "3"]) == 0
        assert len(builds) == 1
        assert capsys.readouterr().out == "25 (exact)\n" * 3

    def test_each_call_gets_a_fresh_namespace(self, monkeypatch, capsys, fresh_cache):
        parser = cli._parser()
        parse, seen = parser.parse_args, []

        def recorded(*args, **kwargs):
            seen.append(parse(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(parser, "parse_args", recorded)
        assert main(["construct", "--prime-power", "2", "1"]) == 0
        assert main(["bound", "2", "3"]) == 0
        assert seen[0] is not seen[1]
        assert vars(seen[1]) == {"command": "bound", "m": 2, "lam": 3, "func": cli._cmd_bound}

    def test_no_argument_has_a_mutable_default(self):
        parsers = [cli._parser()]
        for action in parsers[0]._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
        for parser in parsers:
            for action in parser._actions:
                assert action.default is None or isinstance(action.default, (bool, int, str))
            assert all(callable(v) for v in parser._defaults.values())

    def test_errors_and_help_print_to_the_streams_of_the_call(self, capsys):
        main(["bound", "2", "3"])  # the parser is built before the redirects
        capsys.readouterr()
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit):
            main(["construct"])
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit):
            main(["construct", "--help"])
        assert err.getvalue().startswith("usage: mofs construct")
        assert out.getvalue().startswith("usage: mofs construct")
        assert capsys.readouterr() == ("", "")

    def test_help_width_is_read_when_help_is_formatted(self, monkeypatch, capsys, fresh_cache):
        helps = {}
        for columns in ("200", "40"):  # the parser is built at the first width
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit):
                main(["extend", "--help"])
            helps[columns] = capsys.readouterr().out
            assert helps[columns] == _run_cli("extend", "--help").stdout
        assert helps["40"] != helps["200"]


class TestRefusedQuickly:
    """Infeasible requests are refused in bounded time, without computing
    the size they would have."""

    @pytest.fixture(scope="class")
    def set_files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("sets")
        files = {"h24": root / "h24.mofs", "f16": root / "f16.mofs"}
        assert main(["construct", "--hadamard", "24", "-o", str(files["h24"])]) == 0
        assert main(["construct", "--prime-power", "2", "4", "-o", str(files["f16"])]) == 0
        # One square of each type leaves too many free cells for the linear
        # dual, so its exhaustive search walks the engine's keys.
        for name in ("h24", "f16"):
            first = decode(files[name].read_text()).squares[:1]
            files[f"{name}-1"] = root / f"{name}-1.mofs"
            files[f"{name}-1"].write_text(encode(mofs.verify_mofs(first)))
        return files

    @pytest.mark.parametrize(
        "argv,kind",
        [
            # Every walk guards its row-pattern table first: C(24, 12)
            # patterns of 24 cells; greedy growth even where the linear
            # dual would answer.
            pytest.param(
                ["extend", "h24-1", "--exhaustive"],
                "a row-pattern table of 64899744 cells",
                id="extend-h24-exhaustive",
            ),
            pytest.param(
                ["extend", "h24", "--greedy", "--seed", "0"],
                "a row-pattern table of 64899744 cells",
                id="extend-h24-greedy",
            ),
            pytest.param(
                ["extend", "h24-1", "--greedy", "--seed", "0"],
                "a row-pattern table of 64899744 cells",
                id="extend-h24-1-greedy",
            ),
            # F(16;8)'s table fits; its first engine step is refused.
            pytest.param(
                ["extend", "f16-1", "--greedy", "--seed", "0"], "at least", id="extend-f16-1-greedy"
            ),
            pytest.param(["extend", "f16-1", "--exhaustive"], "at least", id="extend-f16-exhaustive"),
            pytest.param(["count", "2", "50"], "at least", id="count-2-50"),
            pytest.param(["count", "3000", "1"], "at least", id="count-3000-1"),
            # One square, but of 10^10 cells.
            pytest.param(
                ["count", "1", "100000"], "a square of 10000000000 cells", id="count-1-100000"
            ),
            # n = 10^21 cannot shape an (n, n) array: the guard runs first.
            pytest.param(
                ["count", "1000000000", "1000000000000"], "at least", id="count-huge-n"
            ),
        ],
    )
    def test_size_guard(self, set_files, argv, kind):
        argv = [str(set_files.get(a, a)) for a in argv]
        done = _run_cli(*argv)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith(f"refused: {kind} ")
        assert "exceeds the ceiling 10000000" in done.stderr

    @pytest.mark.parametrize("name", ["h24", "f16"])
    def test_complete_set_is_counted_by_the_linear_dual(self, set_files, name, capsys):
        # The guard judges the walk over keys; a complete set's few free
        # cells are solved for at once, however large the type.
        start = time.perf_counter()
        assert main(["extend", str(set_files[name]), "--exhaustive"]) == 0
        assert time.perf_counter() - start < 1
        out = capsys.readouterr()
        assert out.out == "extensions: 0\nmaximal: yes (exhaustive search)\n"
        assert out.err == ""

    @pytest.mark.parametrize(
        "call,kind",
        [
            pytest.param(
                "next(mofs.enumerate_fsquares(mofs.Params(2, 50),"
                " mofs.SearchConfig(max_results=1)))",
                "at least",
                id="capped-stream-of-many-patterns",
            ),
            pytest.param(
                "mofs.count_fsquares(mofs.Params(9, 1),"
                " mofs.SearchConfig(max_results=10**12))",
                "at least 10160640 squares",
                id="cap-above-the-ceiling",
            ),
            # P = C(24, 12) = 2 704 156 patterns pass, but not their table
            # of P * 24 cells, which would take gigabytes.
            pytest.param(
                "next(mofs.enumerate_fsquares(mofs.Params(2, 12),"
                " mofs.SearchConfig(max_results=1)))",
                "a row-pattern table of 64899744 cells",
                id="capped-stream-of-a-large-table",
            ),
        ],
    )
    def test_capped_search_keeps_the_guard(self, call, kind):
        done = _run_python(
            "-c",
            f"import mofs\ntry:\n    {call}\n"
            "except mofs.InfeasibleSizeGuard as exc:\n    print(exc)\n",
        )
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout.startswith(f"{kind} ")
        assert "exceeds the ceiling 10000000" in done.stdout

    def test_size_guard_stops_the_count_at_the_ceiling(self):
        # F(9;3)'s 1680 patterns pass; the counting DP stops at its first
        # partial count past the ceiling.
        with pytest.raises(mofs.InfeasibleSizeGuard) as exc:
            mofs.count_fsquares(mofs.Params(3, 3))
        assert str(exc.value).startswith("at least 10382400 squares ")
        assert exc.value.estimate == 10382400

    @pytest.mark.parametrize(
        "m,h,size",
        [
            ("1000000007", "1", "1000000007"),
            ("2", "1000000000000", "2^1000000000000"),
            ("3", "33", "3^33"),
            ("2", "6", "64"),
            ("33", "1", "33"),
        ],
    )
    def test_prime_power_size(self, m, h, size):
        done = _run_cli("construct", "--prime-power", m, h)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == f"error: m^h = {size} exceeds the configured maximum\n"


# Runs ``argv`` through ``mofs.cli.main`` in a fresh process and prints, as
# its last line, the exit code and the ``mofs`` modules loaded after
# ``import mofs``, after ``build_parser()`` and after the command.
_LOADS = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "mofs")

import mofs
stages = [loaded()]
import mofs.cli
mofs.cli.build_parser()
stages.append(loaded())
code = mofs.cli.main(sys.argv[1:])
stages.append(loaded())
print(json.dumps([code, stages]))
"""

_REFUSED_SQUARE = (
    "refused: a square of 10000000000 cells exceeds the ceiling 10000000;"
    " raise MOFS_MAX_ENUM or force (--force) to override\n"
)


class TestLazyLoading:
    """Each process loads only the modules it runs: ``import mofs`` loads no
    submodule, the CLI's parser needs ``core`` alone, and each command
    adds the modules it calls."""

    @pytest.mark.parametrize(
        "argv,extra,code",
        [
            (["bound", "2", "3"], {"verify"}, 0),
            (["verify", "SET"], {"verify", "fileformat"}, 0),
            (["analyze", "SET"], {"verify", "fileformat", "maximality"}, 0),
            (["count", "2", "2"], {"verify", "search"}, 0),
            (["count", "1", "100000"], {"verify", "search"}, 1),
            (["extend", "SET", "--exhaustive"], {"verify", "fileformat", "search"}, 0),
            (["construct", "--prime-power", "2", "2"], {"verify", "fileformat", "construct"}, 0),
        ],
        ids=["bound", "verify", "analyze", "count", "count-refused", "extend", "construct"],
    )
    def test_each_command_loads_what_it_runs(self, tmp_path, federer4, argv, extra, code):
        path = tmp_path / "set.mofs"
        path.write_text(encode(federer4))
        done = _run_python("-c", _LOADS, *[str(path) if a == "SET" else a for a in argv])
        assert done.returncode == 0, done.stderr
        got_code, stages = json.loads(done.stdout.splitlines()[-1])
        base = ["mofs", "mofs.cli", "mofs.core"]
        assert stages[:2] == [["mofs"], base]
        assert stages[2] == sorted(base + [f"mofs.{name}" for name in extra])
        assert got_code == code
        assert done.stderr == ("" if code == 0 else _REFUSED_SQUARE)

    def test_package_names_load_their_home_module(self):
        done = _run_python(
            "-c",
            "import sys\n"
            "import mofs\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'mofs')\n"
            "guard = mofs.InfeasibleSizeGuard\n"
            "print(loaded())\n"
            "from mofs import verify\n"
            "print(loaded())\n"
            "assert mofs.search.InfeasibleSizeGuard is guard\n"
            "print(loaded())\n",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "['mofs', 'mofs.core']",
            "['mofs', 'mofs.core', 'mofs.verify']",
            "['mofs', 'mofs.core', 'mofs.search', 'mofs.verify']",
        ]


class TestPublicNames:
    """The package's public names resolve lazily to their home modules."""

    def test_each_name_is_its_home_modules_object(self):
        for name in mofs.__all__:
            home = importlib.import_module(f"mofs.{mofs._HOME[name]}")
            assert getattr(mofs, name) is getattr(home, name), name

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from mofs import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(mofs.__all__)

    def test_dir_lists_public_names_and_submodules(self):
        names = set(dir(mofs))
        assert set(mofs.__all__) <= names
        assert {"cli", "construct", "core", "fileformat", "maximality", "search", "verify"} <= names

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            mofs.no_such_name
        assert not hasattr(mofs, "ParseError")  # a submodule's name, not public
        with pytest.raises(ImportError):
            exec("from mofs import no_such_name", {})

    def test_size_guard_lives_in_core(self):
        assert mofs.InfeasibleSizeGuard is mofs.search.InfeasibleSizeGuard
        assert mofs.InfeasibleSizeGuard is mofs.core.InfeasibleSizeGuard
        assert mofs.InfeasibleSizeGuard.__module__ == "mofs.core"
        assert issubclass(mofs.InfeasibleSizeGuard, mofs.MofsError)
