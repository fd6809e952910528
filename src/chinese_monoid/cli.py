"""Command-line front end.

Exit codes: 0 success (and suite pass), 1 suite failure, tripwire disagreement
or a class past the oracle's cap, 2 usage errors, 141 (128 + SIGPIPE) when the
reader of stdout closes it early.  JSON goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import harness, tree
from .core import (ClassCapExceeded, WordSyntaxError, eq_oracle, format_word,
                   multiply, parse_word, to_staircase)
from .representation import (BadLeafPair, NotALeaf, build_representation, eq_via_embedding,
                             image, image_str, incomparability_witness, representation_json)
from .tree import MAX_TREE_RANK, Diagram, MalformedDiagram, RankTooSmall, parse_id, render

USAGE_ERRORS = (WordSyntaxError, MalformedDiagram, RankTooSmall,
                harness.BoundsExceeded, NotALeaf, BadLeafPair)

MAX_RANK = 1000  # every other rank: tables and projection sets grow as n ** 2
MAX_PROJECTION_LETTERS = 3 * 10 ** 7  # normalize, mul, eq; none costs over O(n log |w|) a letter
MAX_ORACLE_LETTERS = 64  # per word: the closure may hold DEFAULT_CAP words of this length


def _suite_flags() -> dict[str, dict[str, tuple]]:
    """Each suite parameter -> {suite that reads it: (default, low, high)}."""
    flags: dict[str, dict[str, tuple]] = {}
    for suite, (_, table) in harness.SUITES.items():
        for name, bounds in table.items():
            flags.setdefault(name, {})[suite] = bounds
    return flags


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chinese-monoid",
        description="Chinese monoid of rank n: canonical forms, the diagram "
                    "tree, leaf representations, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler,
            rank: int | None = MAX_RANK) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler, max_rank=rank)
        if rank:
            cmd.add_argument("-n", "--rank", type=int, required=True,
                             help=f"rank of the monoid (n <= {rank})")
        return cmd

    letters = f"n(n-1)/2 * letters <= {MAX_PROJECTION_LETTERS:,}"
    cmd = add("normalize", f"staircase canonical form of a word ({letters})", _cmd_normalize)
    cmd.add_argument("word", help='word, e.g. "3 2 1" or "cba"')

    cmd = add("mul", f"normalized product of two words ({letters})", _cmd_mul)
    cmd.add_argument("w")
    cmd.add_argument("v")

    cmd = add("eq", f"decide equality of two words ({letters}, except by the oracle)", _cmd_eq)
    cmd.add_argument("w")
    cmd.add_argument("v")
    cmd.add_argument("--method", choices=("oracle", "embedding", "both"),
                     default="both",
                     help=f"oracle: breadth-first class, each word <= {MAX_ORACLE_LETTERS} "
                          "letters; embedding: leaf product, one fold per x < n; both "
                          "(default): both must agree")

    cmd = add("tree", f"the diagram tree (n <= {MAX_TREE_RANK})", _cmd_tree, MAX_TREE_RANK)
    cmd.add_argument("--dot", action="store_true", help="DOT graph output")

    cmd = add("leaves", f"list the leaves with their component counts (n <= {MAX_TREE_RANK})",
              _cmd_leaves, MAX_TREE_RANK)
    cmd.add_argument("--json", action="store_true")

    cmd = add("repr", "generator-image table of a leaf representation", _cmd_repr)
    cmd.add_argument("--leaf", required=True, help='leaf id, e.g. "d2 A"')
    cmd.add_argument("--json", action="store_true")

    cmd = add("image", "image of a word under a leaf representation", _cmd_image)
    cmd.add_argument("--leaf", required=True)
    cmd.add_argument("word")

    cmd = add("witness", "word pair merged by one leaf congruence, split by another", _cmd_witness)
    cmd.add_argument("--leaf1", required=True)
    cmd.add_argument("--leaf2", required=True)

    cmd = add("verify", "run a verification suite", _cmd_verify, rank=None)
    cmd.add_argument("suite", choices=harness.SUITE_NAMES + ("all",))
    cmd.add_argument("--seed", type=int, default=0)
    for name, readers in _suite_flags().items():
        flag = "--" + name.replace("_", "-")
        if all(isinstance(default, bool) for default, _, _ in readers.values()):
            cmd.add_argument(flag, action="store_true", default=None,
                             help="switch read by " + ", ".join(readers))
        else:
            cmd.add_argument(flag, type=int, help="read by " + ", ".join(
                f"{suite} ({low}..{high})" for suite, (_, low, high) in readers.items()))
    return parser


def _check_projection_letters(n: int, *words) -> None:
    work = n * (n - 1) // 2 * sum(map(len, words))
    if work > MAX_PROJECTION_LETTERS:
        raise harness.BoundsExceeded(
            f"needs n(n-1)/2 * letters <= {MAX_PROJECTION_LETTERS:,}, got {work:,}")


def _cmd_normalize(args) -> int:
    word = parse_word(args.word, args.rank)
    _check_projection_letters(args.rank, word)
    form = to_staircase(word, args.rank)
    print(json.dumps(form.as_dict()))
    return 0


def _cmd_mul(args) -> int:
    w = parse_word(args.w, args.rank)
    v = parse_word(args.v, args.rank)
    _check_projection_letters(args.rank, w, v)
    form = multiply(to_staircase(w, args.rank), to_staircase(v, args.rank))
    print(json.dumps(form.as_dict()))
    return 0


def _cmd_eq(args) -> int:
    n = args.rank
    w = parse_word(args.w, n)
    v = parse_word(args.v, n)
    if args.method != "oracle":
        _check_projection_letters(n, w, v)
    if args.method != "embedding" and max(len(w), len(v)) > MAX_ORACLE_LETTERS:
        raise harness.BoundsExceeded(
            f"the oracle needs <= {MAX_ORACLE_LETTERS} letters per word, got "
            f"{max(len(w), len(v))}; use --method embedding")
    if args.method == "oracle":
        verdict = eq_oracle(w, v)
    elif args.method == "embedding":
        verdict = eq_via_embedding(n, w, v)
    else:
        by_oracle = eq_oracle(w, v)
        by_embedding = eq_via_embedding(n, w, v)
        if by_oracle != by_embedding:
            print(f"METHOD DISAGREEMENT on ({args.w!r}, {args.v!r}): "
                  f"oracle={by_oracle}, embedding={by_embedding}", file=sys.stderr)
            return 1
        verdict = by_oracle
    print("true" if verdict else "false")
    return 0


def _cmd_tree(args) -> int:
    root = Diagram(args.rank)
    print(render(root, "dot") if args.dot else tree.render_outline(root))
    return 0


def _cmd_leaves(args) -> int:
    n = args.rank
    # no table: d is the arcs, and c, the dots and the unused generators, is n - 2d
    counts = [(leaf, n - 2 * len(leaf.arcs), len(leaf.arcs)) for leaf in tree.enumerate_leaves(n)]
    if args.json:
        payload = {
            "format": 1,
            "n": n,
            "leaves": [
                {"id": leaf.id, "steps": leaf.steps, "c": c, "d": d}
                for leaf, c, d in counts
            ],
        }
        print(json.dumps(payload))
    else:
        for leaf, c, d in counts:
            print(f"{leaf.id}\tc={c}\td={d}")
    return 0


def _cmd_repr(args) -> int:
    rep = build_representation(parse_id(args.leaf, args.rank))
    if args.json:
        payload = {"format": 1, **representation_json(rep)}
        print(json.dumps(payload))
    else:
        print(render(rep.leaf, "ascii"))
        kinds = " ".join(f"{c.kind}[{c.origin_str()}]" for c in rep.schema)
        print(f"leaf {rep.leaf.id}: schema {kinds}")
        for g in range(1, rep.n + 1):
            print(f"a{g} -> {image_str(rep, rep.image_of(g))}")
    return 0


def _cmd_image(args) -> int:
    rep = build_representation(parse_id(args.leaf, args.rank))
    word = parse_word(args.word, args.rank)
    print(image_str(rep, image(rep, word)))
    return 0


def _cmd_witness(args) -> int:
    n = args.rank
    r1 = build_representation(parse_id(args.leaf1, n))
    r2 = build_representation(parse_id(args.leaf2, n))
    w, v = incomparability_witness(r1, r2)
    print(f"w = {format_word(w)}")
    print(f"v = {format_word(v)}")
    print(f"image under {r1.leaf.id!r}: {image_str(r1, image(r1, w))} (both)")
    print(f"image under {r2.leaf.id!r}: {image_str(r2, image(r2, w))} vs "
          f"{image_str(r2, image(r2, v))}")
    return 0


def _cmd_verify(args) -> int:
    overrides = {name: getattr(args, name) for name in _suite_flags()
                 if getattr(args, name) is not None}
    if args.suite == "all":
        if overrides:
            raise harness.BoundsExceeded("parameter overrides apply to single suites, not 'all'")
        runs = harness.DEFAULT_BATTERY
    else:
        runs = [(args.suite, overrides)]
    all_passed = True
    for name, params in runs:
        report = harness.run_suite(name, seed=args.seed, **params)
        print(json.dumps(report.as_json_dict()))
        status = "pass" if report.passed else "FAIL"
        print(f"[{status}] {name}: {report.instances} instances, "
              f"{len(report.failures)} failures, {report.elapsed:.2f}s",
              file=sys.stderr)
        for line in report.failures[:10]:
            print(f"    counterexample: {line}", file=sys.stderr)
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.max_rank and args.rank > args.max_rank:
            raise harness.BoundsExceeded(
                f"{args.command} needs n <= {args.max_rank}, got {args.rank}")
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClassCapExceeded as exc:  # valid input; only `eq` runs the closure this far
        print(f"inconclusive: {exc}; use --method embedding", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader left (`tree -n 16 | head -1`): the Python docs' recipe
        # points stdout at devnull, so the exit flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
