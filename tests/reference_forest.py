"""Reference agreement check: one ``restricted_canonical`` per component
and tree, then pairwise-disjoint Steiner node sets, O(k * m * n) in all.

Kept only so that the one-sweep ``mafkit.forest.is_agreement_forest`` can be
differential-tested against it.
"""

from __future__ import annotations

from mafkit.forest import Forest, steiner_nodes
from mafkit.tree import restricted_canonical


def is_agreement_forest(f: Forest, trees) -> bool:
    """Decide whether ``f`` is an agreement forest of the given trees.

    True iff every component, restricted into every input tree, is isomorphic
    to that component, and the minimal connecting subtrees of the components
    are pairwise node-disjoint within every input tree. The input trees must
    all carry exactly the forest's taxon set and the components must
    partition it; violations raise ValueError.
    """
    f.check_taxa(trees)
    comp_labels = [comp.leaf_labels for comp in f.components]
    for t in trees:
        for comp, labs in zip(f.components, comp_labels):
            if restricted_canonical(t, labs) != comp.canonical():
                return False
    for t in trees:
        owner: dict[int, int] = {}
        for ci, labs in enumerate(comp_labels):
            for node in steiner_nodes(t, labs):
                if node in owner:
                    return False
                owner[node] = ci
    return True
