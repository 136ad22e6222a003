"""Command-line interface.

Commands operate on multi-tree Newick files (one tree per line, '#' comment
lines allowed; '-' reads stdin). The first tree in a file seeds the working
forest; the rest drive the cutting. JSON reports on stdout are byte-stable
for identical inputs: anything timing-related goes to stderr.

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
from .newick import NewickError, read_trees, serialize
from .oracle import exact_maaf, exact_maf

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3

SCHEMA = "mafkit-report/1"


def _read_input(path: str) -> str:
    if path == "-":
        # strict, as for a file: stdin's own decoder would smuggle bad
        # bytes through as surrogates and report them as a parse error
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_trees(path: str):
    text = _read_input(path)
    trees = read_trees(text)
    if len(trees) < 2:
        raise ValueError(f"need at least 2 trees, file has {len(trees)}")
    return text, trees


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cuts_json(cuts: CutSet) -> dict:
    out = {}
    for phase in ("triple", "overlap", "cycle"):
        out[phase] = {
            "entries": cuts.count(phase),
            "edges": cuts.edges_removed(phase),
        }
    out["total_edges"] = cuts.edges_removed()
    return out


def _forest_json(forest: Forest) -> dict:
    return {
        "size": forest.size,
        "components": [serialize(c) for c in forest.components],
    }


def _emit_json(report: dict) -> None:
    sys.stdout.write(json.dumps(report, indent=2) + "\n")


def _emit_newick(forest: Forest, facts: dict) -> None:
    for key, value in facts.items():
        sys.stdout.write(f"# {key} {value}\n")
    for comp in forest.components:
        sys.stdout.write(serialize(comp) + "\n")


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


def _log_cuts(cuts: CutSet) -> None:
    for e in cuts.entries:
        print(
            f"[{e.phase}] T{e.tree + 1}: cut {len(e.edges)} edge(s), {e.witness}",
            file=sys.stderr,
        )


def _report_skeleton(command: str, text: str, trees) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "input": {
            "digest": _digest(text),
            "trees": len(trees),
            "taxa": len(trees[0].leaf_labels),
        },
    }


def _cmd_forest(args, command: str) -> int:
    text, trees = _load_trees(args.file)
    if command == "rspr":
        trees = trees[:2]
    started = time.perf_counter()
    forest, cuts = maf_approx(trees)
    if command in ("maaf", "hyb"):
        forest, cycle_cuts = maaf_approx(forest, trees)
        cuts.extend(cycle_cuts)
    elapsed = time.perf_counter() - started

    bounds = {}
    if command == "rspr":
        bounds["rspr_upper"] = forest.size - 1
    if command in ("maaf", "hyb"):
        bounds["hybridization_upper"] = forest.size - 1

    oracle = None
    if args.oracle:
        exact_fn = exact_maaf if command in ("maaf", "hyb") else exact_maf
        result = exact_fn(trees, max_cuts=args.max_cuts)
        if result is None:
            print("exact search exceeded the cut budget", file=sys.stderr)
            return EXIT_BUDGET
        oracle = {"min_cuts": result.min_cuts, "forest_size": result.witness_forest.size}
        if command == "rspr":
            oracle["rspr"] = result.min_cuts
        if command in ("maaf", "hyb"):
            oracle["hybridization"] = result.witness_forest.size - 1

    if args.verbose:
        _log_cuts(cuts)
        print(f"# wall_time_ms {elapsed * 1000.0:.1f}", file=sys.stderr)

    if args.format == "newick":
        facts = {"forest_size": forest.size, "cuts_total": cuts.edges_removed(), **bounds}
        _emit_newick(forest, facts)
    elif args.format == "dot":
        _emit_dot(forest, trees)
    else:
        report = _report_skeleton(command, text, trees)
        report["forest"] = _forest_json(forest)
        report["cuts"] = _cuts_json(cuts)
        if bounds:
            report["bounds"] = bounds
        if oracle is not None:
            report["oracle"] = oracle
        _emit_json(report)
    return EXIT_OK


def _cmd_exact(args) -> int:
    text, trees = _load_trees(args.file)
    exact_fn = exact_maaf if args.mode == "maaf" else exact_maf
    result = exact_fn(trees, max_cuts=args.max_cuts)
    if result is None:
        print("exact search exceeded the cut budget", file=sys.stderr)
        return EXIT_BUDGET
    report = _report_skeleton("exact", text, trees)
    report["mode"] = args.mode
    report["min_cuts"] = result.min_cuts
    report["forest"] = _forest_json(result.witness_forest)
    report["witness_edges"] = [list(e) for e in result.witness_edges]
    _emit_json(report)
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = GenSpec(n=args.n, k=args.k, moves=args.moves, seed=args.seed)
    trees = instance(spec)
    sys.stdout.write(
        f"# gen n={spec.n} k={spec.k} moves={spec.moves} seed={spec.seed}\n"
    )
    for t in trees:
        sys.stdout.write(serialize(t) + "\n")
    return EXIT_OK


def _cmd_check(args) -> int:
    text, trees = _load_trees(args.file)
    forest_text = _read_input(args.forest_file)
    components = read_trees(forest_text)
    if not components:
        raise ValueError("forest file holds no components")
    forest = Forest.from_components(components, trees[0].leaf_labels)
    valid = is_agreement_forest(forest, trees)
    report = _report_skeleton("check", text, trees)
    report["forest"] = _forest_json(forest)
    report["valid"] = valid
    _emit_json(report)
    return EXIT_OK if valid else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mafkit",
        description="Approximate and exact agreement forests on rooted binary trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", help="multi-tree Newick file, or - for stdin")
        p.add_argument(
            "--format", choices=("json", "newick", "dot"), default="json"
        )
        p.add_argument("--oracle", action="store_true", help="also run the exact search")
        p.add_argument("--max-cuts", type=int, default=None, help="exact-search budget")
        p.add_argument("--verbose", action="store_true", help="cut log on stderr")

    for name, blurb in (
        ("maf", "approximate maximum agreement forest of all trees"),
        ("maaf", "approximate maximum acyclic agreement forest of all trees"),
        ("rspr", "rSPR-distance upper bound for the first two trees"),
        ("hyb", "hybridization-number upper bound for all trees"),
    ):
        p = sub.add_parser(name, help=blurb)
        add_common(p)
        p.set_defaults(func=lambda a, _n=name: _cmd_forest(a, _n))

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
_PARSER = build_parser()


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
