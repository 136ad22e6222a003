"""Reference overlap search and cut loop.

``find_overlap`` tries every pair of components in index order, one
Steiner-set intersection each, O(m^2) set operations per call.
``maf_approx`` sweeps the trees in each phase until a full pass makes no
cut, with no Steiner sets kept between calls.

Kept only so that the first-owner scan in ``mafkit.maf.find_overlap`` and
the one-pass phases of ``mafkit.maf.maf_approx`` can be differential-tested
against them.
"""

from __future__ import annotations

from mafkit.forest import Forest, check_input_trees, steiner_nodes
from mafkit.maf import CutEntry, CutSet, OverlapWitness, _cut, _overlap_cut_edge
from mafkit.tree import PhyloTree
from mafkit.triples import find_incompatible, locate_cuts


def find_overlap(f: Forest, t_i: PhyloTree):
    """First pair of components (in index order) whose minimal connecting
    subtrees in ``t_i`` share a node, or None when all embeddings are
    pairwise disjoint. Single-leaf components embed as bare leaves and can
    never overlap anything."""
    stein = [steiner_nodes(t_i, comp.leaf_labels) for comp in f.components]
    depths = t_i.depths
    for x in range(f.size):
        for y in range(x + 1, f.size):
            shared = stein[x] & stein[y]
            if not shared:
                continue
            meet = max(shared, key=lambda nd: (depths[nd], -nd))
            return OverlapWitness(
                x=x,
                y=y,
                meet_node=meet,
                edge_x=_overlap_cut_edge(f.components[x], t_i, meet),
                edge_y=_overlap_cut_edge(f.components[y], t_i, meet),
            )
    return None


def maf_approx(trees) -> tuple:
    """Agreement forest of all input trees within a factor 3 of the optimal
    number of cuts, plus the log of every cut taken.

    The first tree seeds the working forest; the remaining trees drive the
    cutting. Iteration order (trees in input order, deepest-then-lexicographic
    triple choice, index-ordered overlap scan) is fixed, so equal inputs give
    byte-equal outputs. Raises ValueError for fewer than two trees or
    mismatched taxon sets.
    """
    trees = check_input_trees(trees)
    forest = Forest.from_tree(trees[0])
    cuts = CutSet()

    # Phase 1: triples. A clean full pass terminates the sweep. Triple cuts
    # only split the host, so every other component keeps its verdict in
    # every tree; the host's go with it.
    memos = [{} for _ in trees]
    while True:
        cut_made = False
        for i in range(1, len(trees)):
            while True:
                tr = find_incompatible(forest, trees[i], memos[i])
                if tr is None:
                    break
                tc = locate_cuts(forest, tr, trees[i])
                edges = (
                    (tr.host, tc.edge_a),
                    (tr.host, tc.edge_c),
                    (tr.host, tc.edge_cherry),
                )
                for memo in memos:
                    memo.pop(forest.components[tr.host], None)
                forest = _cut(forest, edges)
                cuts.entries.append(CutEntry("triple", i, edges, str(tr)))
                cut_made = True
        if not cut_made:
            break

    # Phase 2: overlaps, swept the same way.
    while True:
        cut_made = False
        for i in range(1, len(trees)):
            while True:
                ow = find_overlap(forest, trees[i])
                if ow is None:
                    break
                edges = ((ow.x, ow.edge_x), (ow.y, ow.edge_y))
                forest = _cut(forest, edges)
                cuts.entries.append(
                    CutEntry("overlap", i, edges, f"components {ow.x}~{ow.y}")
                )
                cut_made = True
        if not cut_made:
            break

    return forest, cuts
