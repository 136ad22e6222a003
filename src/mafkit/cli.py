"""Command-line interface.

Commands operate on multi-tree Newick files (one tree per line, '#' comment
lines allowed; '-' reads stdin). The first tree in a file seeds the working
forest; the rest drive the cutting. JSON reports on stdout are byte-stable
for identical inputs: anything timing-related goes to stderr.

The table ``_FOREST_COMMANDS`` is the one place that sets how the forest
commands differ: the trees they read, whether the cycle phase runs and which
bound (forest size - 1) they name. It builds their subparsers, where a flag
they share goes, and drives ``_cmd_forest``.

Exit codes: 0 success (and 'check' acceptance), 1 Newick parse error or
unreadable input, 2 invalid instance or rejected forest, 3 exact-search
budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .forest import Forest, is_agreement_forest
from .gen import GenSpec, instance
from .maaf import build_gf, maaf_approx
from .maf import CutSet, maf_approx
from .newick import NewickError, read_trees, serialize, write_trees
from .oracle import exact_maaf, exact_maf

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3

SCHEMA = "mafkit-report/1"

# name -> (help, trees read (None: all), cycle phase, bound name)
_FOREST_COMMANDS = {
    "maf": ("approximate maximum agreement forest of all trees", None, False, None),
    "maaf": ("approximate maximum acyclic agreement forest of all trees",
             None, True, "hybridization"),
    "rspr": ("rSPR-distance upper bound for the first two trees", 2, False, "rspr"),
    "hyb": ("hybridization-number upper bound for all trees", None, True, "hybridization"),
}


def _read_input(path: str) -> str:
    if path == "-":
        # strict, as for a file: stdin's own decoder would smuggle bad
        # bytes through as surrogates and report them as a parse error
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_trees(path: str, max_cuts=None):
    text = _read_input(path)
    trees = read_trees(text)
    if len(trees) < 2:
        raise ValueError(f"need at least 2 trees, file has {len(trees)}")
    # checked before any computation, also where no exact search will run
    if max_cuts is not None and max_cuts < 0:
        raise ValueError(f"cut budget must be non-negative, got {max_cuts}")
    return text, trees


def _cuts_json(cuts: CutSet) -> dict:
    phases = ("triple", "overlap", "cycle")
    out = {p: {"entries": cuts.count(p), "edges": cuts.edges_removed(p)} for p in phases}
    return {**out, "total_edges": cuts.edges_removed()}


def _forest_json(forest: Forest) -> dict:
    return {"size": forest.size, "components": [serialize(c) for c in forest.components]}


def _emit_report(command: str, text: str, trees, **fields) -> None:
    """Write the JSON report: the header, then each of ``fields`` not None."""
    report = {
        "schema": SCHEMA,
        "command": command,
        "input": {
            "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "trees": len(trees),
            "taxa": len(trees[0].leaf_labels),
        },
    }
    report.update((key, value) for key, value in fields.items() if value is not None)
    sys.stdout.write(json.dumps(report, indent=2) + "\n")


def _emit_dot(forest: Forest, trees) -> None:
    g = build_gf(forest, trees, validate=False)
    lines = ["digraph agreement_forest {"]
    for i, comp in enumerate(forest.components):
        label = ",".join(sorted(comp.leaf_labels))
        lines.append(f'  c{i} [label="{{{label}}}"];')
    for (i, j), witnesses in sorted(g.edges.items()):
        tag = ",".join(f"T{t + 1}" for t in witnesses)
        lines.append(f'  c{i} -> c{j} [label="{tag}"];')
    lines.append("}")
    sys.stdout.write("\n".join(lines) + "\n")


def _exact(trees, acyclic: bool, max_cuts):
    """The exact optimum, or None after the budget message on stderr."""
    result = (exact_maaf if acyclic else exact_maf)(trees, max_cuts=max_cuts)
    if result is None:
        print("exact search exceeded the cut budget", file=sys.stderr)
    return result


def _cmd_forest(args) -> int:
    _, first, acyclic, bound = _FOREST_COMMANDS[args.command]
    text, trees = _load_trees(args.file, args.max_cuts)
    trees = trees[:first]
    started = time.perf_counter()
    forest, cuts = maf_approx(trees)
    if acyclic:
        forest, cycle_cuts = maaf_approx(forest, trees)
        cuts.extend(cycle_cuts)
    elapsed = time.perf_counter() - started
    bounds = {f"{bound}_upper": forest.size - 1} if bound else None

    oracle = None
    if args.oracle:
        result = _exact(trees, acyclic, args.max_cuts)
        if result is None:
            return EXIT_BUDGET
        oracle = {"min_cuts": result.min_cuts, "forest_size": result.witness_forest.size}
        if bound:
            # an optimal forest's size - 1 is min_cuts: a minimal cut set leaves no
            # leafless piece (without a cut that emptied one, the forest is the same)
            oracle[bound] = result.min_cuts

    if args.verbose:
        for e in cuts.entries:
            line = f"[{e.phase}] T{e.tree + 1}: cut {len(e.edges)} edge(s), {e.witness}"
            print(line, file=sys.stderr)
        print(f"# wall_time_ms {elapsed * 1000.0:.1f}", file=sys.stderr)

    if args.format == "newick":
        facts = {"forest_size": forest.size, "cuts_total": cuts.edges_removed(), **(bounds or {})}
        sys.stdout.write("".join(f"# {key} {value}\n" for key, value in facts.items()))
        sys.stdout.write(write_trees(forest.components))
    elif args.format == "dot":
        _emit_dot(forest, trees)
    else:
        _emit_report(args.command, text, trees, forest=_forest_json(forest),
                     cuts=_cuts_json(cuts), bounds=bounds, oracle=oracle)
    return EXIT_OK


def _cmd_exact(args) -> int:
    text, trees = _load_trees(args.file, args.max_cuts)
    result = _exact(trees, args.mode == "maaf", args.max_cuts)
    if result is None:
        return EXIT_BUDGET
    _emit_report(args.command, text, trees, mode=args.mode, min_cuts=result.min_cuts,
                 forest=_forest_json(result.witness_forest),
                 witness_edges=[list(e) for e in result.witness_edges])
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = GenSpec(n=args.n, k=args.k, moves=args.moves, seed=args.seed)
    header = f"# gen n={spec.n} k={spec.k} moves={spec.moves} seed={spec.seed}\n"
    sys.stdout.write(header + write_trees(instance(spec)))
    return EXIT_OK


def _cmd_check(args) -> int:
    text, trees = _load_trees(args.file)
    components = read_trees(_read_input(args.forest_file))
    if not components:
        raise ValueError("forest file holds no components")
    forest = Forest.from_components(components, trees[0].leaf_labels)
    valid = is_agreement_forest(forest, trees)
    _emit_report(args.command, text, trees, forest=_forest_json(forest), valid=valid)
    return EXIT_OK if valid else EXIT_INVALID


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mafkit",
        description="Approximate and exact agreement forests on rooted binary trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (blurb, *_) in _FOREST_COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("file", help="multi-tree Newick file, or - for stdin")
        p.add_argument("--format", choices=("json", "newick", "dot"), default="json")
        p.add_argument("--oracle", action="store_true", help="also run the exact search")
        p.add_argument("--max-cuts", type=int, default=None, help="exact-search budget")
        p.add_argument("--verbose", action="store_true", help="cut log on stderr")
        p.set_defaults(func=_cmd_forest)

    p = sub.add_parser("exact", help="exact brute-force optimum (small inputs)")
    p.add_argument("file", help="multi-tree Newick file, or - for stdin")
    p.add_argument("--mode", choices=("maf", "maaf"), default="maf")
    p.add_argument("--max-cuts", type=int, default=None)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--n", type=int, required=True, help="taxon count")
    p.add_argument("--k", type=int, required=True, help="tree count")
    p.add_argument("--moves", type=int, default=1, help="SPR steps per derived tree")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="validate a claimed agreement forest")
    p.add_argument("file", help="input trees")
    p.add_argument("forest_file", help="claimed forest, one component per line")
    p.set_defaults(func=_cmd_check)

    return parser


# Built once, at import: parsing arguments leaves it unchanged, while building
# one costs about 1 ms and leaves about 35 KB of reference cycles (help
# formatters, argument groups) for the cyclic collector.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except NewickError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
