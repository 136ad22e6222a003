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

from .tree import PhyloTree

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


def _graft(labels: list, sizes: list, target: int, piece_labels: list, piece_sizes: list) -> None:
    """Attach a preorder piece on the parent edge of ``target`` via a new
    internal node, in place (target 0 plants the piece above the root).

    One root-to-target walk grows each ancestor by the piece plus the new
    node; the piece goes right after ``target``'s subtree and the new node
    into ``target``'s slot, so the arrays stay in preorder.
    """
    grow = len(piece_labels) + 1
    u = 0
    while u != target:
        sizes[u] += grow
        u += 1  # left child; step over its subtree if target is right
        if target >= u + sizes[u]:
            u += sizes[u]
    end = target + sizes[target]
    labels[end:end] = piece_labels
    sizes[end:end] = piece_sizes
    labels.insert(target, None)
    sizes.insert(target, sizes[target] + grow)


def _prune(labels: list, sizes: list, p: int) -> tuple:
    """Detach the subtree of non-root node ``p`` in place and suppress its
    parent q; return the subtree's (labels, sizes).

    One root-to-p walk shrinks each ancestor by the subtree plus q. With q
    deleted the sibling's subtree sits in q's slot, as in the remainder
    that ``tree.split`` joins from the ranges around p's subtree and q.
    """
    s = sizes[p]
    u = q = 0
    while u != p:
        sizes[u] -= s + 1
        q = u
        u += 1
        if p >= u + sizes[u]:
            u += sizes[u]
    piece = labels[p : p + s], sizes[p : p + s]
    del labels[p : p + s], sizes[p : p + s]
    del labels[q], sizes[q]
    return piece


def _spr_step(labels: list, sizes: list, seed: int, stream: int) -> None:
    """``spr_move`` on the preorder arrays, in place."""
    rng = SeededRng(seed, stream)
    piece = _prune(labels, sizes, 1 + rng.below(len(labels) - 1))
    # a lone leaf left has no edge: the piece joins it under a new root
    target = 1 + rng.below(len(labels) - 1) if len(labels) > 1 else 0
    _graft(labels, sizes, target, *piece)


def _tree(labels: list, sizes: list) -> PhyloTree:
    """The tree whose preorder labels a walk built, handed the walk's
    ``sizes`` as ``newick.parse`` hands over its taxon map."""
    t = PhyloTree(labels)
    t._sizes = sizes
    return t


def random_tree(n: int, seed: int, stream: int = 0) -> PhyloTree:
    """Random topology over taxa t1..tn by sequential leaf attachment: each
    new leaf lands on a uniformly chosen spot among all edges plus the
    position above the root. Deterministic per (seed, stream).

    The growing tree is kept as preorder labels (None for internal nodes)
    plus subtree sizes, and each leaf is grafted in place, so a step costs
    one root-to-target walk and a few list splices.
    """
    if n < 1:
        raise ValueError("need at least one taxon")
    rng = SeededRng(seed, stream)
    labels: list[str | None] = ["t1"]
    sizes = [1]
    for i in range(2, n + 1):
        target = rng.below(len(labels))  # 0 = above the root
        _graft(labels, sizes, target, [f"t{i}"], [1])
    return _tree(labels, sizes)


def spr_move(t: PhyloTree, seed: int, stream: int = 0) -> PhyloTree:
    """One rooted subtree-prune-and-regraft move.

    A uniformly chosen non-root subtree is detached (its vacated parent is
    suppressed) and reattached on a uniformly chosen edge of the remainder
    via a fresh node. Identity moves are allowed. When the remainder
    degenerates to a single leaf the subtree rejoins it under a new root,
    the only spot left. Requires at least three leaves.

    The move runs on ``t``'s preorder labels and sizes, where a left child
    directly follows its parent as in every ``PhyloTree``: two O(depth)
    walks and a few list splices.
    """
    if t.n_leaves < 3:
        raise ValueError("SPR needs at least three leaves")
    labels, sizes = list(t.labels), list(t.sizes)
    _spr_step(labels, sizes, seed, stream)
    return _tree(labels, sizes)


def instance(spec: GenSpec) -> list:
    """A seeded family of k trees: the first is random, each other is the
    first pushed through ``spec.moves`` successive SPR moves, so its exact
    SPR distance from the first is at most ``spec.moves``. With two taxa
    there is a single topology and walk steps are skipped, and the family
    holds the first tree k times.

    Each walk runs on a copy of the first tree's preorder arrays, and each
    derived tree is built once, at the end of its walk.
    """
    base = random_tree(spec.n, spec.seed, stream=0)
    if spec.n < 3 or not spec.moves:
        return [base] * spec.k
    trees = [base]
    for i in range(2, spec.k + 1):
        labels, sizes = list(base.labels), list(base.sizes)
        for j in range(spec.moves):
            _spr_step(labels, sizes, spec.seed, i * 65536 + j)
        trees.append(_tree(labels, sizes))
    return trees
