"""Command-line front end.

Exit codes: 0 success (and suite pass), 1 suite failure or tripwire
disagreement, 2 usage errors.  JSON goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness, representation as rep_mod, tree
from .core import (ClassCapExceeded, IndexConstraintViolated, WordSyntaxError,
                   eq_oracle, format_word, multiply, parse_word, to_staircase)
from .representation import (eq_via_embedding, image, image_str,
                             incomparability_witness, leaf_representations,
                             representation_json)
from .tree import Diagram, MalformedDiagram, RankTooSmall, parse_id, render

USAGE_ERRORS = (WordSyntaxError, MalformedDiagram, RankTooSmall,
                IndexConstraintViolated, ClassCapExceeded,
                harness.BoundsExceeded, harness.UnknownSuite,
                rep_mod.NotALeaf, rep_mod.BadLeafPair)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chinese-monoid",
        description="Chinese monoid of rank n: canonical forms, the diagram "
                    "tree, leaf representations, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, rank: bool = True) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        if rank:
            cmd.add_argument("-n", "--rank", type=int, required=True,
                             help="rank of the monoid")
        return cmd

    cmd = add("normalize", "staircase canonical form of a word")
    cmd.add_argument("word", help='word, e.g. "3 2 1" or "cba"')

    cmd = add("mul", "normalized product of two words")
    cmd.add_argument("w")
    cmd.add_argument("v")

    cmd = add("eq", "decide equality of two words")
    cmd.add_argument("w")
    cmd.add_argument("v")
    cmd.add_argument("--method", choices=("oracle", "embedding", "both"),
                     default="both",
                     help="oracle: breadth-first class; embedding: leaf product "
                          "(rank >= 3); both (default): both must agree, except "
                          "below rank 3, where no leaf product exists and the "
                          "oracle alone decides")

    cmd = add("tree", "the diagram tree")
    group = cmd.add_mutually_exclusive_group()
    group.add_argument("--ascii", action="store_true", help="indented id listing (default)")
    group.add_argument("--dot", action="store_true", help="DOT graph output")

    cmd = add("leaves", "list the leaves with their component counts")
    cmd.add_argument("--json", action="store_true")

    cmd = add("repr", "generator-image table of a leaf representation")
    cmd.add_argument("--leaf", required=True, help='leaf id, e.g. "d2 A"')
    cmd.add_argument("--json", action="store_true")

    cmd = add("image", "image of a word under a leaf representation")
    cmd.add_argument("--leaf", required=True)
    cmd.add_argument("word")

    cmd = add("witness", "word pair merged by one leaf congruence, split by another")
    cmd.add_argument("--leaf1", required=True)
    cmd.add_argument("--leaf2", required=True)
    cmd.add_argument("--max-len", type=int, default=6, help="longest word searched (>= 1)")

    cmd = add("verify", "run a verification suite", rank=False)
    cmd.add_argument("suite", choices=harness.SUITE_NAMES + ("all",))
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--n", type=int, help="rank (faithfulness, incomparability)")
    cmd.add_argument("--max-n", type=int, help="largest rank (counts, boxplus, identity, centrality, schema)")
    cmd.add_argument("--max-len", type=int, help="word-length bound")
    cmd.add_argument("--max-word-len", type=int, help="middle-word bound (boxplus)")
    cmd.add_argument("--samples", type=int, help="sample count (identity)")
    cmd.add_argument("--corrupt", action="store_true",
                     help="failure-injection self-test (faithfulness)")
    return parser


def _find_representation(leaf_id: str, n: int):
    diagram = parse_id(leaf_id, n)
    for rep in leaf_representations(n):
        if rep.leaf == diagram:
            return rep
    raise MalformedDiagram(f"{leaf_id!r} is not a leaf of the rank-{n} tree")


def _cmd_normalize(args) -> int:
    word = parse_word(args.word, args.rank)
    form = to_staircase(word, args.rank)
    print(json.dumps(form.as_dict()))
    return 0


def _cmd_mul(args) -> int:
    w = parse_word(args.w, args.rank)
    v = parse_word(args.v, args.rank)
    form = multiply(to_staircase(w, args.rank), to_staircase(v, args.rank))
    print(json.dumps(form.as_dict()))
    return 0


def _cmd_eq(args) -> int:
    n = args.rank
    w = parse_word(args.w, n)
    v = parse_word(args.v, n)
    if args.method == "oracle" or (args.method == "both" and n < 3):
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
    if args.dot:
        print(render(root, "dot"))
        return 0
    for d, depth, _ in tree.preorder(root):
        print("  " * depth + d.id + (" *" if d.is_leaf else ""))
    return 0


def _cmd_leaves(args) -> int:
    n = args.rank
    reps = leaf_representations(n)
    if args.json:
        payload = {
            "format": 1,
            "n": n,
            "leaves": [
                {"id": rep.leaf.id, "steps": [list(s) if isinstance(s, tuple) else s
                                              for s in rep.leaf.steps],
                 "c": rep.c, "d": rep.d}
                for rep in reps
            ],
        }
        print(json.dumps(payload))
    else:
        for rep in reps:
            print(f"{rep.leaf.id}\tc={rep.c}\td={rep.d}")
    return 0


def _cmd_repr(args) -> int:
    rep = _find_representation(args.leaf, args.rank)
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
    rep = _find_representation(args.leaf, args.rank)
    word = parse_word(args.word, args.rank)
    print(image_str(rep, image(rep, word)))
    return 0


def _cmd_witness(args) -> int:
    if args.max_len < 1:
        raise harness.BoundsExceeded(f"witness needs --max-len >= 1, got {args.max_len}")
    r1 = _find_representation(args.leaf1, args.rank)
    r2 = _find_representation(args.leaf2, args.rank)
    found = incomparability_witness(r1, r2, args.max_len)
    if found is None:
        print(f"no witness up to length {args.max_len}")
        return 1
    w, v = found
    print(f"w = {format_word(w)}")
    print(f"v = {format_word(v)}")
    print(f"image under {r1.leaf.id!r}: {image_str(r1, image(r1, w))} (both)")
    print(f"image under {r2.leaf.id!r}: {image_str(r2, image(r2, w))} vs "
          f"{image_str(r2, image(r2, v))}")
    return 0


def _cmd_verify(args) -> int:
    overrides = {}
    for key, attr in (("n", "n"), ("max_n", "max_n"), ("max_len", "max_len"),
                      ("max_word_len", "max_word_len"), ("samples", "samples")):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[key] = value
    if args.corrupt:
        overrides["corrupt"] = True
    if args.suite == "all":
        if overrides:
            print("parameter overrides apply to single suites, not 'all'",
                  file=sys.stderr)
            return 2
        runs = [(name, dict(params)) for name, params in harness.DEFAULT_BATTERY]
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


_HANDLERS = {
    "normalize": _cmd_normalize,
    "mul": _cmd_mul,
    "eq": _cmd_eq,
    "tree": _cmd_tree,
    "leaves": _cmd_leaves,
    "repr": _cmd_repr,
    "image": _cmd_image,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
