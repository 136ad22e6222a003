"""Scale guards: the triple search must stay far from its old cubic time and
quadratic memory. The bounds are generous, so a pass is not luck and a
failure means a return to a per-triple scan or a pairwise table."""

import time
import tracemalloc

import pytest

from mafkit import (
    GenSpec,
    PhyloTree,
    SeededRng,
    instance,
    is_agreement_forest,
    maf_approx,
    spr_move,
)


def test_maf_n800_k4_under_30s():
    """The pairwise-table search took 80-86 s here; the LCA search under 1 s."""
    trees = instance(GenSpec(n=800, k=4, moves=4, seed=7_777))
    started = time.perf_counter()
    forest, _ = maf_approx(trees)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    assert is_agreement_forest(forest, trees)


def _random_tree(n, seed=1):
    """A random tree built in O(n) by merging random pairs of subtrees; its
    shape differs from ``gen.random_tree``'s sequential attachment."""
    rng = SeededRng(seed)
    pool = [f"t{i}" for i in range(1, n + 1)]
    while len(pool) > 1:
        i = rng.below(len(pool))
        pool[i], last = pool[-1], pool[i]
        pool.pop()
        j = rng.below(len(pool))
        pool[j] = (pool[j], last)
    return PhyloTree.from_nested(pool[0])


def _caterpillar(n):
    nested = "t1"
    for i in range(2, n + 1):
        nested = (nested, f"t{i}")
    return PhyloTree.from_nested(nested)


@pytest.mark.parametrize(
    "shape,n,moves",
    [
        pytest.param(_random_tree, 2000, 0, id="2000-0"),
        pytest.param(_random_tree, 500, 4, id="500-4"),
        pytest.param(_caterpillar, 3000, 0, id="caterpillar-3000-0"),
    ],
)
def test_maf_memory_stays_linear(shape, n, moves):
    """k=4. The old pairwise tables peaked at 390 MiB on the four identical
    n=2000 trees. On the n=500 case, keeping every conflicting triple of the
    winning level, as the old scan did, takes 20 MiB by itself. The LCA
    search stays near 1 MiB. On the caterpillar, keeping every node's
    canonical form alive while checking agreement took 32 MiB, O(n * depth)
    characters."""
    base = shape(n)
    trees = [base]
    for i in range(3):
        t = base
        for j in range(moves):
            t = spr_move(t, seed=1, stream=i * 65536 + j)
        trees.append(t)
    tracemalloc.start()
    try:
        _, cuts = maf_approx(trees)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bool(cuts.entries) == bool(moves)
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
