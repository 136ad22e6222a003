#!/usr/bin/env python3
"""Wall-time scaling of the approximation with taxon count.

    python scripts/scaling_benchmark.py --sizes 100 200 400 800 --k 4
"""

import argparse
import time

from mafkit import GenSpec, instance, is_agreement_forest, maf_approx, maaf_approx


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[25, 50, 100, 200])
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--moves", type=int, default=4)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    print(f"{'n':>6} {'k':>3} {'maf_s':>8} {'maaf_s':>8} {'cuts':>6} {'forest':>7}")
    for n in args.sizes:
        trees = instance(GenSpec(n=n, k=args.k, moves=args.moves, seed=args.seed))
        best_maf = best_maaf = float("inf")
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            forest, cuts = maf_approx(trees)
            t1 = time.perf_counter()
            acyclic, cycle_cuts = maaf_approx(forest, trees)
            t2 = time.perf_counter()
            best_maf = min(best_maf, t1 - t0)
            best_maaf = min(best_maaf, t2 - t1)
        assert is_agreement_forest(acyclic, trees)
        total = cuts.edges_removed() + cycle_cuts.edges_removed()
        print(
            f"{n:>6} {args.k:>3} {best_maf:>8.3f} {best_maaf:>8.3f} "
            f"{total:>6} {acyclic.size:>7}"
        )


if __name__ == "__main__":
    main()
