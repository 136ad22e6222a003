"""Exact brute-force agreement-forest optima for small instances.

Ground truth for every ratio and identity check in the test suite: edge
subsets of the starting forest are enumerated in increasing size and the
first subset whose removal yields a valid (and, for the acyclic variant,
cycle-free) agreement forest wins. Any agreement forest of size m can be
produced by m - 1 deletions from the first tree — detach a component with a
deepest embedding root and recurse — so the minimum cut count and the
minimum forest size determine each other and enumerating subsets of the
first tree's edges is exhaustive.

A subset is judged by the leaf partition it induces, not by a built forest.
With taxa numbered as bits, every node of the starting forest and of each
input tree carries the mask of the leaves below it; taking the cut children
in descending preorder id, each detached piece is its node's mask minus the
leaves already claimed by deeper cuts, and what no cut claims stays with its
component's root. A piece is the restriction of its starting component to
the piece's taxa. A tree's nodes, ANDed with the piece and with the empty set
dropped, give the clusters of its restriction to the piece, and a rooted
tree is determined by its clusters; so a piece agrees with the input trees
exactly when that cluster set is the same in its component and in each of
them. The verdict depends on the leaf set alone and is memoised in one byte
per subset of the taxa: at most 2^16 bytes (64 KiB) under the taxon cap. In
each input tree, a piece's embedding below its lca is the union of its
leaves' root paths (node bitmasks) minus their intersection, and two pieces
overlap exactly when these masks share a bit. Only a subset that passes both
tests becomes a ``Forest``, which ``agreement_roots`` must confirm (else
RuntimeError); for the acyclic variant, its mapped roots then decide
``maaf._acyclic`` on cover edges, with no component digraph.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations

from .forest import Forest, agreement_roots, check_input_trees, cut_edges
from .maaf import _acyclic
from .tree import fold

HARD_TAXON_CAP = 16

# verdicts in the per-leaf-set memo; 0 means not yet decided
_AGREES, _DISAGREES = 1, 2


@dataclass(frozen=True)
class OracleResult:
    """Optimal cut count with a witness: cutting ``witness_edges`` out of
    the starting forest produces ``witness_forest``, and no smaller edge set
    passes the same validity predicate (exhaustively verified)."""

    min_cuts: int
    witness_forest: Forest
    witness_edges: tuple


def _node_masks(start: Forest, trees):
    """Taxon name -> leaf bit, and the mask of the leaves below every node:
    per start component, then per input tree (index = node id)."""
    start.check_taxa(trees)
    leaf_bit = {lab: 1 << i for i, lab in enumerate(sorted(start.origin_labels))}
    below = [fold(comp, leaf_bit.__getitem__, operator.or_) for comp in start.components]
    tree_masks = [fold(t, leaf_bit.__getitem__, operator.or_) for t in trees]
    return leaf_bit, below, tree_masks


def _leaf_set_agrees(piece: int, below, tree_masks) -> bool:
    """Whether the leaf set ``piece``, which lies inside one start component,
    has the same restriction there as in every input tree: the same
    clusters, the nonzero ``mask & piece`` over each tree's nodes."""
    home = next(masks for masks in below if masks[0] & piece)
    clusters = {m & piece for m in home}
    clusters.discard(0)
    for masks in tree_masks:
        found = {m & piece for m in masks}
        found.discard(0)
        if found != clusters:
            return False
    return True


def _partition_test(start: Forest, trees):
    """A function telling whether cutting a subset of ``start.all_edges()``
    (in that order) leaves an agreement forest of ``trees``."""
    leaf_bit, below, tree_masks = _node_masks(start, trees)
    wholes = [masks[0] for masks in below]
    leaf_paths = []  # per input tree, per leaf bit: the nodes up to the root
    for t in trees:
        path = [1] * t.n_nodes
        for u in range(1, t.n_nodes):
            path[u] = path[t.parent[u]] | 1 << u
        leaf_paths.append({leaf_bit[lab]: path[u] for lab, u in t.label_node.items()})
    memo = bytearray(1 << len(leaf_bit))

    def agrees(subset) -> bool:
        pieces = []
        claimed = 0
        for ci, v in reversed(subset):
            pieces.append(below[ci][v] & ~claimed)
            claimed |= below[ci][v]
        pieces.extend(whole & ~claimed for whole in wholes)
        pieces = [p for p in pieces if p]
        for p in pieces:
            if not memo[p]:
                memo[p] = _AGREES if _leaf_set_agrees(p, below, tree_masks) else _DISAGREES
            if memo[p] == _DISAGREES:
                return False
        for paths in leaf_paths:
            used = 0
            for p in pieces:
                union, common = 0, -1
                rest = p
                while rest:
                    low = rest & -rest
                    union |= paths[low]
                    common &= paths[low]
                    rest ^= low
                # the embedding minus its top node, the lca: two embeddings
                # that share a node also share one strictly below an lca
                nodes = union & ~common
                if used & nodes:
                    return False
                used |= nodes
        return True

    return agrees


def _search(start: Forest, trees, max_cuts, acyclic: bool):
    n_taxa = len(start.origin_labels)
    if n_taxa > HARD_TAXON_CAP:
        raise ValueError(
            f"exact search on {n_taxa} taxa would not finish; cap is {HARD_TAXON_CAP}"
        )
    if max_cuts is not None and max_cuts < 0:
        raise ValueError(f"cut budget must be non-negative, got {max_cuts}")
    agrees = _partition_test(start, trees)
    pool = start.all_edges()
    budget = len(pool) if max_cuts is None else min(max_cuts, len(pool))
    for size in range(budget + 1):
        for subset in combinations(pool, size):
            if not agrees(subset):
                continue
            candidate = cut_edges(start, subset)
            roots = agreement_roots(candidate, trees)
            if roots is None:
                raise RuntimeError(f"cutting {subset} passed the partition test only")
            if acyclic and not _acyclic(roots, trees):
                continue
            return OracleResult(size, candidate, subset)
    return None


def exact_maf_forest(start: Forest, trees, max_cuts=None):
    """Minimum number of edges to delete from ``start`` so that what remains
    is an agreement forest of the trees; None if over ``max_cuts``, which
    must be None or non-negative (ValueError otherwise)."""
    trees = check_input_trees(trees)
    return _search(start, trees, max_cuts, acyclic=False)


def exact_maf(trees, max_cuts=None):
    trees = check_input_trees(trees)
    return exact_maf_forest(Forest.from_tree(trees[0]), trees, max_cuts)


def exact_maaf_forest(start: Forest, trees, max_cuts=None):
    """Like ``exact_maf_forest`` but the surviving forest's component
    digraph must also be acyclic (which can force strictly more cuts)."""
    trees = check_input_trees(trees)
    return _search(start, trees, max_cuts, acyclic=True)


def exact_maaf(trees, max_cuts=None):
    trees = check_input_trees(trees)
    return exact_maaf_forest(Forest.from_tree(trees[0]), trees, max_cuts)


def exact_rspr(t1, t2) -> int:
    """Exact rooted SPR distance via the agreement-forest identity: size of
    an optimal agreement forest minus one, which equals its cut count."""
    return exact_maf([t1, t2]).min_cuts


def exact_hybridization(t1, t2) -> int:
    """Exact hybridization number: optimal acyclic forest size minus one."""
    return exact_maaf([t1, t2]).min_cuts
