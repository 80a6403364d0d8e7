"""Command-line interface.

Exit codes: 0 on success (or a computed verdict), 1 on validation or
feasibility failure, 2 on usage errors.

``main(argv)`` may be called repeatedly in one process: it builds the
argument parser on its first call and reuses it after that.  Reuse is
stateless: each parse gets a fresh namespace, no argument has a mutable
default, and usage errors and ``--help`` print to the ``sys.stderr`` and
``sys.stdout`` of the moment, at the width ``COLUMNS`` gives then.
``build_parser()`` returns a fresh parser on every call.

At module level this imports only ``core`` (and with it numpy), which
every command needs; each ``_cmd_*`` imports the modules it runs, so
``mofs bound`` never loads the search engine, nor ``mofs verify`` the
maximality checks.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .core import InfeasibleSizeGuard, MofsError, Params


def _write_set(mset, path):
    from . import fileformat

    text = fileformat.encode(mset)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_set(path):
    from . import fileformat

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise fileformat.ParseError(line_no, "not UTF-8 text") from None
    # Universal newlines, as a file opened in text mode reads them.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return fileformat.decode(text)


def _cmd_construct(args):
    from . import construct

    if args.prime_power is not None:
        m, h = args.prime_power
        mset = construct.construct_prime_power(m, h)
    else:
        mset = construct.construct_federer(construct.hadamard(args.hadamard))
    _write_set(mset, args.output)
    return 0


def _bound_text(bound):
    return f"{bound.value} ({'exact' if bound.exact else 'floor'})"


def _print_completeness(report):
    print(f"upper bound: {_bound_text(report.bound)}")
    print(f"complete: {'yes' if report.is_complete else 'no'}")


def _cmd_verify(args):
    from . import verify

    mset = _read_set(args.file)
    report = None
    if mset.params.m >= 2:
        report = verify.completeness_structure(mset)
    print(f"OK: {mset.t} mutually orthogonal squares of type {mset.params}")
    if report is not None:
        _print_completeness(report)
    return 0


def _cmd_bound(args):
    from . import verify

    print(_bound_text(verify.upper_bound(Params(args.m, args.lam))))
    return 0


def _cmd_count(args):
    from . import search

    params = Params(args.m, args.lam)
    config = search.SearchConfig(force=args.force)
    print(search.count_fsquares(params, config))
    return 0


def _cmd_analyze(args):
    from . import maximality, verify

    mset = _read_set(args.file)
    params = mset.params
    print(f"type {params}: {mset.t} mutually orthogonal squares")
    if params.m >= 2:
        report = verify.completeness_structure(mset)
        _print_completeness(report)
        print(f"completeness block structure matches: {report.structure_matches}")
    verdict = maximality.maximality_verdict(mset)
    for a, cert in enumerate(verdict.uniform, start=1):
        if cert is None:
            print(f"symbol {a}: parity matrix has no full-relation block form")
        else:
            print(
                f"symbol {a}: full relation with x={cert.x} y={cert.y}"
                f" (canonical orientation)"
            )
            rep = maximality.parity_report(cert, params, mset.t)
            for name, flag in [
                ("x = y = t*lambda (mod 2)", rep.lemma6_i),
                ("m*lambda even", rep.lemma6_ii),
                ("t odd", rep.lemma7_t_odd),
                ("t = m(x+y) - (m+1) (mod 8)", rep.prop9),
                ("t = m - 1 (mod 4)", rep.cor10),
            ]:
                print(f"  {name}: {'pass' if flag else 'FAIL'}")
    # The strongest check first: no MofsSet exceeds the bound, so a set
    # that meets it has no (t+1)-th square.
    if params.m >= 2 and mset.t == report.bound.value:
        print("maximal: yes (the bound is met)")
        return 0
    if verdict.certified:
        c = verdict.certificate
        print(
            f"maximal: yes (parity certificate, symbols {c.symbol_choice[0]},"
            f" x={c.x}, y={c.y})"
        )
    else:
        print("maximal: undetermined (no parity certificate; not a claim)")
    return 0


def _cmd_extend(args):
    from . import search

    mset = _read_set(args.file)
    config = search.SearchConfig(seed=args.seed, force=args.force)
    if args.exhaustive:
        found = search._count(mset.params, mset.grids, config)
        print(f"extensions: {found}")
        lead, verdict, out = "", "no" if found else "yes", sys.stdout
    else:
        grown = search.grow_maximal(mset, config)
        _write_set(grown, args.output)
        lead, verdict, out = f"grew from {mset.t} to {grown.t} squares; ", "yes", sys.stderr
    print(f"{lead}maximal: {verdict} (exhaustive search)", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mofs",
        description="Construct, verify, and analyze mutually orthogonal"
        " frequency squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a complete set")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--prime-power", nargs=2, type=int, metavar=("M", "H"), default=None
    )
    group.add_argument("--hadamard", type=int, metavar="ORDER", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="validate a MOFS file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bound", help="print the size upper bound")
    p.add_argument("m", type=int)
    p.add_argument("lam", type=int)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("analyze", help="structure and maximality report")
    p.add_argument("file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("count", help="enumerate and count all F-squares")
    p.add_argument("m", type=int)
    p.add_argument("lam", type=int)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("extend", help="search for orthogonal extensions")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--greedy", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_extend)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on its first call."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "greedy", False) and args.seed is None:
        parser.error("--greedy requires an explicit --seed")
    if getattr(args, "exhaustive", False) and (args.seed, args.output) != (None, None):
        parser.error("--seed and -o/--output apply only to --greedy")
    try:
        return args.func(args)
    except InfeasibleSizeGuard as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except (MofsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
