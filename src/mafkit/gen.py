"""Seeded random instances: random trees and SPR-walk tree families.

All randomness flows through a tiny counter-seeded 64-bit LCG that is fully
specified here so any implementation, in any language, reproduces the same
instances byte for byte:

    state_0   = (seed XOR (stream * 0x9E3779B97F4A7C15)) mod 2^64, stepped once
    step      : state = (state * 6364136223846793005 + 1442695040888963407) mod 2^64
    draw(n)   : step, then (state >> 32) mod n

Streams keep independent operations decorrelated under one user seed:
stream 0 grows the base tree; the j-th walk step of the i-th derived tree
(both counted as in ``instance``) uses stream i * 65536 + j.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tree import PhyloTree, cut_pieces

_MULT = 6364136223846793005
_INC = 1442695040888963407
_STREAM_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


class SeededRng:
    """The package's fixed LCG; see the module docstring for the contract."""

    __slots__ = ("state",)

    def __init__(self, seed: int, stream: int = 0):
        self.state = (seed ^ ((stream * _STREAM_GAMMA) & _MASK)) & _MASK
        self._step()

    def _step(self) -> int:
        self.state = (self.state * _MULT + _INC) & _MASK
        return self.state

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n) (top 32 bits, then modulo)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return (self._step() >> 32) % n


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generated instance."""

    n: int
    k: int
    moves: int
    seed: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 taxa")
        if self.k < 2:
            raise ValueError("need at least 2 trees")
        if self.moves < 0:
            raise ValueError("moves must be non-negative")


def _grafted_nested(t: PhyloTree, target: int, graft):
    """Nested form of ``t`` with ``graft`` attached on the parent edge of
    ``target`` via a new node (the whole-tree root when target is the root,
    which plants the graft above the old root).

    A plain loop, not ``tree.fold``: the graft depends on the node id, which
    a fold's join does not see, and every SPR move of every generated
    instance runs this sweep.
    """
    out = [None] * t.n_nodes
    for u in range(t.n_nodes - 1, -1, -1):
        ks = t.children[u]
        out[u] = t.labels[u] if not ks else (out[ks[0]], out[ks[1]])
        if u == target:
            out[u] = (out[u], graft)
    return out[t.root]


def random_tree(n: int, seed: int, stream: int = 0) -> PhyloTree:
    """Random topology over taxa t1..tn by sequential leaf attachment: each
    new leaf lands on a uniformly chosen spot among all edges plus the
    position above the root. Deterministic per (seed, stream).

    The growing tree is kept as preorder labels (None for internal nodes)
    plus subtree sizes. Attaching above node ``target`` inserts the new
    internal node at ``target``'s slot and the new leaf right after
    ``target``'s subtree, and grows each ancestor by two, so a step costs
    one root-to-target walk and two list inserts.
    """
    if n < 1:
        raise ValueError("need at least one taxon")
    rng = SeededRng(seed, stream)
    labels: list[str | None] = ["t1"]
    sizes = [1]
    for i in range(2, n + 1):
        target = rng.below(len(labels))  # 0 = above the root
        u = 0
        while u != target:
            sizes[u] += 2
            u += 1  # left child; step over its subtree if target is right
            if target >= u + sizes[u]:
                u += sizes[u]
        end = target + sizes[target]
        labels.insert(end, f"t{i}")
        sizes.insert(end, 1)
        labels.insert(target, None)
        sizes.insert(target, sizes[target] + 2)
    parent = [-1] * len(labels)
    children: list[tuple] = [()] * len(labels)
    for u, lab in enumerate(labels):
        if lab is None:
            left = u + 1
            right = left + sizes[left]
            children[u] = (left, right)
            parent[left] = parent[right] = u
    return PhyloTree(parent, children, labels)


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
    remainder = PhyloTree.from_nested(remainder_nested)
    if remainder.n_nodes > 1:
        target = 1 + rng.below(remainder.n_nodes - 1)
        nested = _grafted_nested(remainder, target, pruned_nested)
    else:
        nested = (remainder_nested, pruned_nested)
    return PhyloTree.from_nested(nested)


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
