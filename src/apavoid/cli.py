"""Command-line surface: gen, check, search, grid.

Exit codes: 0 success, 1 property violation (repetition found, search cap
or budget hit, infeasible region), 2 usage or input errors, 141 (128 +
SIGPIPE) when the reader closes stdout early. All output is
newline-terminated ASCII and deterministic for a given flag set.
"""

from __future__ import annotations

import argparse
import os
import sys

# Each command imports the modules it runs inside its own function, so that
# a command compiles only those: gen loads words alone, and fractions is
# loaded only where a threshold is parsed.


class UsageError(ValueError):
    pass


# Node budget of a word search run without --length-cap. Such a search never
# ends when the problem admits an infinite word; on the Carpi problem
# (4 letters, squares on odd differences) this many nodes take 1.7-1.9 s of
# wall time on 2 CPUs with Python 3.11.
SEARCH_NODE_BUDGET = 10**5


def parse_threshold(text: str) -> tuple[Fraction, bool]:
    """Exact rational with optional trailing + for a strict comparison."""
    from fractions import Fraction

    from .repetition import _checked_threshold

    strict = text.endswith("+")
    try:
        value = Fraction(text[:-1] if strict else text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse --threshold {text!r}; expected forms like 2, 7/4, 2+")
    return _checked_threshold(value, 1, strict), strict


def parse_diffs(text: str) -> Differences:
    from .repetition import Differences

    if text == "odd":
        return Differences.odd()
    if text == "all":
        return Differences.all()
    try:
        j = int(text)
    except ValueError:
        raise UsageError(f"--diffs must be odd, all, or a positive integer, not {text!r}")
    if j < 1:
        raise UsageError(f"--diffs difference must be at least 1, not {j}")
    return Differences.exactly(j)


# word name -> (needs folds, its builder in words)
_GENERATORS = {
    "paperfolding": (True, "paperfolding_prefix"),
    "v": (True, "four_letter_squarefree"),
    "overlap3": (True, "ternary_overlapfree"),
    "bigsq2": (True, "binary_large_squarefree"),
    "carpi": (False, "carpi_word"),
}

# construction -> (component builder in words, default threshold text, its own verify_grid options)
_CONSTRUCTIONS = {
    "product16": ("four_letter_squarefree", "2", {}),
    "paperfold4": ("paperfolding_prefix", "3+", {}),
    "overlap9": ("ternary_overlapfree", "2+", {}),
    "bigsq4": ("binary_large_squarefree", "2", {"min_period": 3}),
}

# grid mode -> each flag the mode would drop, with the modes it belongs to
_GRID_DROPPED = {
    "--search-alphabet": (("--verify", "--construction"), ("--folds", "--construction")),
    "--construction with --verify": (("--budget", "--search-alphabet"),),
    "--construction without --verify": (
        ("--budget", "--search-alphabet"),
        ("--threshold", "--verify and --search-alphabet"),
        ("--min-period", "--verify and --search-alphabet"),
        ("--max-direction", "--verify and --search-alphabet"),
    ),
}


def _parse_folds(text: str) -> FoldingSequence:
    from .words import FoldingSequence

    try:
        return FoldingSequence.parse(text)
    except ValueError as exc:
        raise UsageError(f"--folds: {exc}")


def _cmd_gen(args: argparse.Namespace) -> int:
    from . import words

    needs_folds, name = _GENERATORS[args.word]
    builder = getattr(words, name)
    if args.length < 0:
        raise UsageError(f"--length must be nonnegative, not {args.length}")
    if not needs_folds:
        if args.folds is not None:
            raise UsageError("the carpi word is fixed; --folds does not apply")
        w = builder(args.length)
    else:
        if args.folds is None:
            raise UsageError(f"--folds is required for {args.word}")
        w = builder(_parse_folds(args.folds), args.length)
    print(words.present(w, args.word))
    return 0


def _read_word(source: str) -> Word:
    """The word in a file, or on stdin for "-": symbol digits, whitespace ignored.

    Errors give the bad byte's position in the input as read.
    """
    from .words import Word, _CHARS

    name = "stdin" if source == "-" else source
    try:
        if source == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(source, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {name}: {exc}")
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {name}: byte {data[exc.start]:#04x} at position "
                         f"{exc.start} is not ASCII") from None
    try:
        return Word.from_text("".join(text.split()))
    except ValueError:
        i, c = next((i, c) for i, c in enumerate(text) if not (c in _CHARS or c.isspace()))
        raise UsageError(f"{name}: bad character {c!r} at position {i}; word text may only "
                         f"contain {_CHARS!r} and whitespace") from None


def _cmd_check(args: argparse.Namespace) -> int:
    from .repetition import find_repetition

    w = _read_word(args.input)
    threshold, strict = parse_threshold(args.threshold)
    report = find_repetition(w, threshold, strict=strict, min_period=args.min_period,
                             differences=parse_diffs(args.diffs))
    if report is None:
        print("ok")
        return 0
    print(report.to_line())
    return 1


def _cmd_search(args: argparse.Namespace) -> int:
    from .search import AvoidanceProblem, backtrack_longest

    threshold, strict = parse_threshold(args.threshold)
    problem = AvoidanceProblem(args.alphabet, threshold, parse_diffs(args.diffs), strict=strict,
                               min_period=args.min_period, length_cap=args.length_cap)
    budget = args.budget
    if budget is None and args.length_cap is None:
        budget = SEARCH_NODE_BUDGET
    result = backtrack_longest(problem, canonical=args.canonical, node_budget=budget)
    if result.budget_exhausted:
        print(f"budget_exhausted nodes={result.nodes_visited}")
        if args.budget is None:
            print(f"apavoid: search stopped after {result.nodes_visited} nodes, the budget of a "
                  "search without --length-cap; the clean words may be unbounded, so pass "
                  "--length-cap to bound their length", file=sys.stderr)
        return 1
    print(f"max_length={result.max_length}")
    if result.capped:
        print("cap_reached")
        return 1
    if args.budget is not None:
        print(f"nodes={result.nodes_visited}")
        return 0
    for w in result.maximal_words:
        print(w.to_text())
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    from . import lattice, words

    if args.size < 1:
        raise UsageError(f"--size must be at least 1, not {args.size}")
    if args.search_alphabet is not None:
        mode = "--search-alphabet"
    else:
        mode = f"--construction {'with' if args.verify else 'without'} --verify"
    for flag, home in _GRID_DROPPED[mode]:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise UsageError(f"{flag} applies to {home}, not to {mode}")
    # the library's defaults hold for every option not given
    options = {name: value for name, value in (("min_period", args.min_period),
                                               ("max_direction", args.max_direction),
                                               ("node_budget", args.budget))
               if value is not None}

    if args.construction is not None:
        name, thr_text, own = _CONSTRUCTIONS[args.construction]
        threshold, strict = parse_threshold(thr_text if args.threshold is None else args.threshold)
        builder = getattr(words, name)
        component = builder(_parse_folds("ordinary" if args.folds is None else args.folds),
                            args.size)
        grid = lattice.product_grid(component, component)
    else:
        threshold, strict = parse_threshold("2" if args.threshold is None else args.threshold)
        outcome = lattice.grid_search(args.search_alphabet, threshold, args.size,
                                      strict=strict, **options)
        print(outcome.status)
        print(f"nodes={outcome.nodes}")
        if outcome.status != "satisfiable":
            return 1
        grid = outcome.witness
        sys.stdout.write(grid.to_text())

    if args.out:
        try:
            lattice.export_ppm(grid, args.out)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}")
    if args.out_text:
        try:
            with open(args.out_text, "w", encoding="ascii") as fh:
                fh.write(grid.to_text())
        except OSError as exc:
            raise UsageError(f"cannot write {args.out_text}: {exc}")

    if args.verify:
        hit = lattice.verify_grid(grid, threshold, strict=strict, **{**own, **options})
        if hit is not None:
            spec, report = hit
            print(f"line row={spec.row} col={spec.col} drow={spec.drow} "
                  f"dcol={spec.dcol} count={spec.count} :: {report.to_line()}")
            return 1
        print("ok")
    elif args.construction is not None and not args.out and not args.out_text:
        sys.stdout.write(grid.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apavoid",
        description="Repetition avoidance in arithmetic progressions: "
                    "word generators, checkers, exhaustive searches, lattice tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="print a prefix of one of the constructed words")
    p.add_argument("--word", required=True, choices=sorted(_GENERATORS))
    p.add_argument("--folds", default=None,
                   help="folding instructions: a 0/1 string or 'ordinary'")
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="scan a word for repetitions in progressions")
    p.add_argument("--input", required=True, help="file of symbol digits, or - for stdin")
    p.add_argument("--threshold", required=True, help="exact rational, + suffix for strict")
    p.add_argument("--min-period", type=int, default=1)
    p.add_argument("--diffs", default="all", help="odd, all, or a single difference")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("search", help="exact longest words avoiding the repetitions")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--threshold", required=True)
    p.add_argument("--min-period", type=int, default=1)
    p.add_argument("--diffs", default="all")
    p.add_argument("--length-cap", type=int, default=None,
                   help="stop growing words at this length; without it or --budget the "
                        "search stops after 100000 nodes")
    p.add_argument("--budget", type=int, default=None,
                   help="node budget of the search, which then prints nodes= when it "
                        "finishes (default: 100000 without --length-cap, none with it)")
    p.add_argument("--canonical", action="store_true",
                   help="search up to symbol renaming, expand afterwards")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("grid", help="build, verify, search, and export 2D labelings")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--construction", choices=sorted(_CONSTRUCTIONS))
    target.add_argument("--search-alphabet", type=int)
    p.add_argument("--size", type=int, required=True, help="square region side")
    p.add_argument("--folds", default=None,
                   help="folding instructions of the --construction components: a 0/1 "
                        "string or 'ordinary' (the default)")
    p.add_argument("--threshold", default=None,
                   help="exact rational, + suffix for strict (default: the "
                        "construction's, or 2 for --search-alphabet)")
    p.add_argument("--min-period", type=int, default=None)
    p.add_argument("--max-direction", type=int, default=None,
                   help="direction cap; verify defaults to 8, search to size-1")
    p.add_argument("--verify", action="store_true", default=None,
                   help="check every line of the --construction grid")
    p.add_argument("--budget", type=int, default=None,
                   help="node budget of the --search-alphabet search (default: 10^8)")
    p.add_argument("--out", default=None, help="write a PPM image here")
    p.add_argument("--out-text", default=None, help="write the text serialization here")
    p.set_defaults(func=_cmd_grid)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so the flush
        # at exit cannot fail again, and end as a shell reports SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
