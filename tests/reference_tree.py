"""Reference LCA map: the ``fold`` one-liner that ``mafkit.tree.lca_map``
was before it became a plain loop with the LCA walk inlined.

Kept only so that the loop can be differential-tested against it.
"""

from __future__ import annotations

from mafkit.tree import PhyloTree, _lca2, fold


def lca_map(comp: PhyloTree, t: PhyloTree) -> list:
    """m[v] = the node of ``t`` that is the LCA of the taxa below ``comp``
    node v, for every v; a leaf maps to its own leaf in ``t``."""
    return fold(comp, t.label_node.__getitem__, lambda a, b: _lca2(t, a, b))
