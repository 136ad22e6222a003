"""Reference tree growth: the original rebuild-per-leaf ``random_tree``.

Rebuilds the whole tree through ``_grafted_nested`` and ``from_nested`` for
every added leaf, O(n^2) in all. It is kept only so the in-place growth in
``mafkit.gen`` can be differential-tested against it.
"""

from __future__ import annotations

from mafkit import PhyloTree, SeededRng
from mafkit.gen import _grafted_nested


def random_tree(n: int, seed: int, stream: int = 0) -> PhyloTree:
    if n < 1:
        raise ValueError("need at least one taxon")
    rng = SeededRng(seed, stream)
    tree = PhyloTree.from_nested("t1")
    for i in range(2, n + 1):
        target = rng.below(tree.n_nodes)  # 0 = above the root
        tree = PhyloTree.from_nested(_grafted_nested(tree, target, f"t{i}"))
    return tree
