"""Reference generation: the original rebuild-per-step ``random_tree``,
``spr_move`` and ``instance``.

``random_tree`` rebuilds the whole tree through ``_grafted_nested`` and
``from_nested`` for every added leaf, O(n^2) in all. ``spr_move`` rebuilds
it four times per move: ``cut_pieces``, ``from_nested``, ``_grafted_nested``
and ``from_nested`` again. They are kept only so the in-place array walks in
``mafkit.gen`` can be differential-tested against them; the tests also use
``_grafted_nested`` to graft whole subtrees.
"""

from __future__ import annotations

from mafkit import GenSpec, PhyloTree, SeededRng

from helpers import children
from reference_tree import cut_pieces, from_nested


def _grafted_nested(t: PhyloTree, target: int, graft):
    """Nested form of ``t`` with ``graft`` attached on the parent edge of
    ``target`` via a new node (the whole-tree root when target is the root,
    which plants the graft above the old root).

    A plain loop, not ``reference_tree.fold``: the graft depends on the
    node id, which a fold's join does not see, and every SPR move of every
    generated instance runs this sweep.
    """
    out = [None] * t.n_nodes
    kids = children(t)
    for u in range(t.n_nodes - 1, -1, -1):
        ks = kids[u]
        out[u] = t.labels[u] if not ks else (out[ks[0]], out[ks[1]])
        if u == target:
            out[u] = (out[u], graft)
    return out[t.root]


def random_tree(n: int, seed: int, stream: int = 0) -> PhyloTree:
    if n < 1:
        raise ValueError("need at least one taxon")
    rng = SeededRng(seed, stream)
    tree = from_nested("t1")
    for i in range(2, n + 1):
        target = rng.below(tree.n_nodes)  # 0 = above the root
        tree = from_nested(_grafted_nested(tree, target, f"t{i}"))
    return tree


def spr_move(t: PhyloTree, seed: int, stream: int = 0) -> PhyloTree:
    """One rooted subtree-prune-and-regraft move.

    A uniformly chosen non-root subtree is detached (its vacated parent is
    suppressed) and reattached on a uniformly chosen edge of the remainder
    via a fresh node. Identity moves are allowed. When the remainder
    degenerates to a single leaf the subtree rejoins it under a new root,
    the only spot left. Requires at least three leaves.
    """
    if t.n_leaves < 3:
        raise ValueError("SPR needs at least three leaves")
    rng = SeededRng(seed, stream)
    prune = 1 + rng.below(t.n_nodes - 1)
    remainder_nested, pruned_nested = cut_pieces(t, {prune})
    remainder = from_nested(remainder_nested)
    if remainder.n_nodes > 1:
        target = 1 + rng.below(remainder.n_nodes - 1)
        nested = _grafted_nested(remainder, target, pruned_nested)
    else:
        nested = (remainder_nested, pruned_nested)
    return from_nested(nested)


def instance(spec: GenSpec) -> list:
    """A seeded family of k trees: the first is random, each other is the
    first pushed through ``spec.moves`` successive SPR moves, so its exact
    SPR distance from the first is at most ``spec.moves``. With two taxa
    there is a single topology and walk steps are skipped."""
    base = random_tree(spec.n, spec.seed, stream=0)
    trees = [base]
    for i in range(2, spec.k + 1):
        t = base
        if spec.n >= 3:
            for j in range(spec.moves):
                t = spr_move(t, spec.seed, stream=i * 65536 + j)
        trees.append(t)
    return trees
