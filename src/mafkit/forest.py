"""Forests over a fixed taxon set: edge cutting and agreement checking.

A forest is a sequence of components (rooted binary leaf-labeled trees) whose
leaf sets partition the taxon set of the input trees. Forests are immutable;
``cut_edges`` returns a new forest. Edges are named by their child endpoint
as ``(component index, child node id)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tree import PhyloTree, lca, partition_tops, split


@dataclass(frozen=True)
class Forest:
    components: tuple
    origin_labels: frozenset

    @classmethod
    def from_tree(cls, t: PhyloTree) -> "Forest":
        return cls((t,), t.leaf_labels)

    @classmethod
    def from_components(cls, comps, origin_labels) -> "Forest":
        return cls(tuple(comps), frozenset(origin_labels))

    @property
    def size(self) -> int:
        return len(self.components)

    def all_edges(self) -> list:
        """Every edge of the forest as (component index, child node id)."""
        return [
            (ci, v)
            for ci, comp in enumerate(self.components)
            for v in range(1, comp.n_nodes)
        ]

    def check_taxa(self, trees) -> None:
        """Raise ValueError unless there are input trees, each carries
        exactly the forest's taxon set, and the components partition it."""
        if not trees:
            raise ValueError("no input trees")
        for t in trees:
            if t.leaf_labels != self.origin_labels:
                raise ValueError("label-set mismatch between forest and input trees")
        labs = [comp.leaf_labels for comp in self.components]
        union = frozenset().union(*labs)
        if union != self.origin_labels or sum(map(len, labs)) != len(union):
            raise ValueError("forest components do not partition the taxon set")


def check_input_trees(trees) -> list:
    """``trees`` as a list; raises ValueError for fewer than two trees or
    mismatched taxon sets."""
    trees = list(trees)
    if len(trees) < 2:
        raise ValueError("need at least two input trees")
    labels = trees[0].leaf_labels
    for t in trees[1:]:
        if t.leaf_labels != labels:
            raise ValueError("input trees must share one taxon set")
    return trees


def cut_edges(f: Forest, edges) -> Forest:
    """Delete the given edges, detach the subtrees below them as new
    components, suppress the degree-2 nodes left behind, and silently drop
    pieces that contain no labeled leaf.

    Within a cut component, the surviving pieces replace it in place, ordered
    by the preorder id of each piece's topmost node (remainder first, then
    detached subtrees top-down). ``tree.split`` builds them from slices of
    the component's labels, so a cut costs the pieces' constructions and no
    pass over the component. They are spliced into a copy of the component
    list last component first, so no splice shifts an index still to come;
    the other components are kept as they are. Raises ValueError for edges
    that do not exist.
    """
    by_comp: dict[int, set[int]] = {}
    for ci, v in edges:
        if not (0 <= ci < f.size):
            raise ValueError(f"no component {ci}")
        comp = f.components[ci]
        if not (1 <= v < comp.n_nodes):
            raise ValueError(f"no edge with child {v} in component {ci}")
        by_comp.setdefault(ci, set()).add(v)
    if not by_comp:
        return f
    comps = list(f.components)
    for ci in sorted(by_comp, reverse=True):
        comps[ci : ci + 1] = split(comps[ci], by_comp[ci])
    return Forest(tuple(comps), f.origin_labels)


def steiner_nodes(t: PhyloTree, taxa) -> set:
    """Node ids of the minimal subtree of ``t`` connecting ``taxa``."""
    root = lca(t, taxa)
    nodes = {root}
    par = t.parent
    node = t.label_node
    for x in taxa:
        u = node[x]
        while u not in nodes:
            nodes.add(u)
            u = par[u]
    return nodes


def is_agreement_forest(f: Forest, trees) -> bool:
    """Decide whether ``f`` is an agreement forest of the given trees.

    True iff every component, restricted into every input tree, is isomorphic
    to that component, and the minimal connecting subtrees of the components
    are pairwise node-disjoint within every input tree. The input trees must
    all carry exactly the forest's taxon set and the components must
    partition it; violations raise ValueError. Decided by
    ``agreement_roots``, one sweep per tree for all components.
    """
    return agreement_roots(f, trees) is not None


def agreement_roots(f: Forest, trees) -> list | None:
    """For each component, its mapped roots: a tuple of the lca of its taxa
    in each input tree, as ``maaf.mapped_roots`` gives them. None when ``f``
    is not an agreement forest of the trees; raises ValueError as
    ``is_agreement_forest`` does.

    One ``partition_tops`` sweep per tree decides both conditions for all
    components on node ids, and finds each root where its component closes.
    A tree node carries component b at node v of b when some but not all of
    b's taxa lie below it (b is *open* there) and they are v's cluster. The
    sweep stops at the first join of two carries that does not merge two
    siblings of one component, and either failure forces such a join:

    - Overlap. An open component's embedding holds the node's parent. Two
      embeddings that share a node leave both components open at one node
      (the shared node when it is below both lcas, else a child of it),
      and from there down, both are open at one child until they are open
      at different children, where carries of two components meet.
    - Restriction. Where b's carries at v and w meet, b's taxa below, a
      cluster of the restriction, are the union of v's and w's disjoint
      clusters. A cluster of b holding both holds that of their lca in b,
      which is larger unless v and w are siblings. If every join merges
      siblings, the restriction's clusters (the carried ones, b's leaves
      and all of b's taxa) are b's. Both trees are binary on b's L taxa,
      with 2L - 1 clusters each, so their clusters, and so the trees, agree.
    """
    trees = list(trees)
    f.check_taxa(trees)
    comps = f.components
    block_of = {lab: ci for ci, comp in enumerate(comps) for lab in comp.label_node}
    per_tree = []
    for t in trees:
        tops = partition_tops(t, comps, block_of)
        if tops is None:
            return None
        per_tree.append(tops)
    return list(zip(*per_tree))
