#!/usr/bin/env python3
"""Wall-time scaling of the approximation with taxon count.

    python scripts/scaling_benchmark.py --sizes 100 200 400 800 --k 4
    python scripts/scaling_benchmark.py --sizes 1000 --k 8 --moves 40 --json out.json
    python scripts/scaling_benchmark.py --shape caterpillar --sizes 1600 --k 2 --moves 50

``--shape gen`` (the default) takes the ``gen.instance`` trees: one random
tree and k - 1 copies, each pushed through ``--moves`` SPR moves.
``--shape caterpillar`` takes the caterpillar on t1..tn and k - 1 copies,
each with ``--moves`` seeded random label swaps; these trees are as deep as
trees get. Each row runs ``maf_approx`` then ``maaf_approx`` ``--repeats`` times and
reports the median seconds of each, then one more run under ``tracemalloc``
for the peak traced memory of the pair. ``gen_s`` is the median over the
same repeats of building the row's trees (gen or caterpillars), and
``parse_s`` of ``read_trees`` on the instance's ``write_trees`` text. Rows
with n at most ``oracle.HARD_TAXON_CAP`` also get ``exact_s``, the median
over the same repeats of ``exact_maf`` plus ``exact_maaf``.
``--json PATH`` also writes the machine, the Python version and every row to
PATH.
"""

import argparse
import json
import os
import platform
import statistics
import time
import tracemalloc

from mafkit import (
    GenSpec,
    PhyloTree,
    SeededRng,
    exact_maaf,
    exact_maf,
    instance,
    is_agreement_forest,
    maf_approx,
    maaf_approx,
    read_trees,
    write_trees,
)
from mafkit.oracle import HARD_TAXON_CAP


def _machine() -> str:
    """CPU model and count, from /proc/cpuinfo where there is one."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} CPUs, {platform.system()} {platform.release()}"


def _caterpillar(order) -> PhyloTree:
    """The caterpillar ((order[0], order[1]), order[2]), ... from its
    preorder labels: every internal node first, then the leaves in order."""
    return PhyloTree.from_preorder([None] * (len(order) - 1) + list(order))


def _caterpillars(n: int, k: int, swaps: int, seed: int) -> list:
    """The caterpillar on t1..tn, then k - 1 copies of it, copy j with
    ``swaps`` random label swaps drawn from stream j of ``seed``."""
    labels = [f"t{i}" for i in range(1, n + 1)]
    trees = [_caterpillar(labels)]
    for j in range(1, k):
        rng = SeededRng(seed, stream=j)
        order = list(labels)
        for _ in range(swaps):
            a, b = rng.below(n), rng.below(n)
            order[a], order[b] = order[b], order[a]
        trees.append(_caterpillar(order))
    return trees


def _row(shape: str, n: int, k: int, moves: int, seed: int, repeats: int) -> dict:
    gen_s = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        if shape == "caterpillar":
            trees = _caterpillars(n, k, moves, seed)
        else:
            trees = instance(GenSpec(n=n, k=k, moves=moves, seed=seed))
        gen_s.append(time.perf_counter() - t0)
    text = write_trees(trees)
    maf_s, maaf_s, parse_s, exact_s = [], [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        parsed = read_trees(text)
        parse_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        forest, cuts = maf_approx(trees)
        t1 = time.perf_counter()
        acyclic, cycle_cuts = maaf_approx(forest, trees)
        t2 = time.perf_counter()
        maf_s.append(t1 - t0)
        maaf_s.append(t2 - t1)
        if n <= HARD_TAXON_CAP:
            exact_maf(trees)
            exact_maaf(trees)
            exact_s.append(time.perf_counter() - t2)
    assert is_agreement_forest(acyclic, trees)
    assert write_trees(parsed) == text
    tracemalloc.start()
    try:
        maaf_approx(maf_approx(trees)[0], trees)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row = {
        "shape": shape,
        "n": n,
        "k": k,
        "moves": moves,
        "seed": seed,
        "repeats": repeats,
        "gen_s": round(statistics.median(gen_s), 4),
        "maf_s": round(statistics.median(maf_s), 4),
        "maaf_s": round(statistics.median(maaf_s), 4),
        "parse_s": round(statistics.median(parse_s), 6),
        "peak_mib": round(peak / 2**20, 3),
        "maf_components": forest.size,
        "cut_edges": cuts.edges_removed() + cycle_cuts.edges_removed(),
        "maaf_components": acyclic.size,
    }
    if exact_s:
        row["exact_s"] = round(statistics.median(exact_s), 4)
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shape", choices=["gen", "caterpillar"], default="gen")
    parser.add_argument("--sizes", type=int, nargs="+", default=[25, 50, 100, 200])
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--moves", type=int, default=4)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", metavar="PATH", help="also write the rows as JSON")
    args = parser.parse_args()

    rows = []
    print(
        f"{'n':>6} {'k':>3} {'gen_s':>8} {'maf_s':>8} {'maaf_s':>8} {'parse_s':>8} "
        f"{'peak_MiB':>9} {'cuts':>6} {'forest':>7} {'exact_s':>8}"
    )
    for n in args.sizes:
        row = _row(args.shape, n, args.k, args.moves, args.seed, args.repeats)
        rows.append(row)
        print(
            f"{n:>6} {args.k:>3} {row['gen_s']:>8.3f} {row['maf_s']:>8.3f} {row['maaf_s']:>8.3f} "
            f"{row['parse_s']:>8.4f} {row['peak_mib']:>9.2f} "
            f"{row['cut_edges']:>6} {row['maaf_components']:>7} "
            f"{row.get('exact_s', '-'):>8}"
        )
    if args.json:
        report = {
            "machine": _machine(),
            "python": platform.python_version(),
            "timing": f"median of {args.repeats} runs; peak_mib from one more run under tracemalloc",
            "rows": rows,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
