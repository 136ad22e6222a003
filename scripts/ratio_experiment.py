#!/usr/bin/env python3
"""How far from optimal does the approximation land in practice?

Sweeps seeded random instances small enough for the exact search and tabulates
the cut-count ratio (approximation / optimum) for both the plain and the
acyclic objective. A ratio of 3 is checked against the exact search on the
fixed grids of acceptance criteria c2 and c3 only; it is not a guarantee
(two seeded gen instances at n = 12, k = 2 reach 3.5, ROADMAP item 11).

    python scripts/ratio_experiment.py --instances 300 --seed 7
"""

import argparse
from collections import Counter

from mafkit import (
    GenSpec,
    SeededRng,
    exact_maaf,
    exact_maf,
    instance,
    maaf_approx,
    maf_approx,
)


def run(args):
    maf_ratios = []
    maaf_ratios = []
    exact_hits = 0
    for idx in range(args.instances):
        rng = SeededRng(args.seed, stream=idx)
        spec = GenSpec(
            n=4 + rng.below(5),
            k=2 + rng.below(2),
            moves=rng.below(4),
            seed=args.seed * 7919 + idx,
        )
        trees = instance(spec)
        forest, cuts = maf_approx(trees)
        acyclic, cycle_cuts = maaf_approx(forest, trees)

        opt = exact_maf(trees).min_cuts
        opt_a = exact_maaf(trees).min_cuts
        total = cuts.edges_removed()
        total_a = total + cycle_cuts.edges_removed()
        if opt == 0:
            exact_hits += total == 0
            continue
        maf_ratios.append(total / opt)
        if opt_a:
            maaf_ratios.append(total_a / opt_a)

    def describe(name, ratios):
        if not ratios:
            print(f"{name}: no nontrivial instances")
            return
        buckets = Counter(round(r, 1) for r in ratios)
        mean = sum(ratios) / len(ratios)
        print(f"{name}: n={len(ratios)} mean={mean:.3f} max={max(ratios):.2f}")
        for bucket in sorted(buckets):
            bar = "#" * max(1, round(40 * buckets[bucket] / len(ratios)))
            print(f"  {bucket:4.1f} {buckets[bucket]:4d} {bar}")

    describe("maf  approx/opt", maf_ratios)
    describe("maaf approx/opt", maaf_ratios)
    print(f"trivial instances solved exactly: {exact_hits}")
    worst = max(maf_ratios + maaf_ratios, default=0.0)
    print(f"worst observed ratio: {worst:.3f} (bound 3 verified on the c2/c3 grids only)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
