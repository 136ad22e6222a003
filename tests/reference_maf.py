"""Reference overlap search: every pair of components in index order, one
Steiner-set intersection each, O(m^2) set operations per call.

Kept only so that the first-owner scan in ``mafkit.maf.find_overlap`` can be
differential-tested against it.
"""

from __future__ import annotations

from mafkit.forest import Forest, steiner_nodes
from mafkit.maf import OverlapWitness, _overlap_cut_edge
from mafkit.tree import PhyloTree


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
