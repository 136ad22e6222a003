"""Reference tree code: what ``mafkit.tree`` did before every tree came to be
built from its preorder labels, plus the helpers only the tests use.

- ``lca_walk``: the depth-balanced walk ``mafkit.tree._lca2`` was before
  every LCA became a climb on preorder intervals, and ``lca_map``: the
  ``fold`` of it that ``mafkit.tree.lca_map`` was before it became a plain
  loop with the climb inlined.
- ``fold``: the bottom-up sweep ``mafkit.tree`` kept until each caller
  got a plain loop, here with a ``cut`` argument and absent-child rules.
  With ``cut_pieces`` and ``from_nested``'s own array builder it is the
  nested-tuple route that ``forest.cut_edges`` took before ``tree.split``,
  and ``split_reference`` chains them as ``cut_edges`` did.
  ``from_nested`` checks its arrays against ``PhyloTree(labels)``.
- ``validate``, ``restrict`` and ``restricted_nested``, which no module of
  the package needs.

Kept so the package's code can be differential-tested against them.
"""

from __future__ import annotations

from mafkit.tree import LABEL_CHARS, PhyloTree, split

from helpers import children, depths


def lca_walk(t: PhyloTree):
    """The walk on ``t``, as a function of two node ids: their LCA."""
    d = depths(t)
    par = t.parent

    def walk(u: int, v: int) -> int:
        while d[u] > d[v]:
            u = par[u]
        while d[v] > d[u]:
            v = par[v]
        while u != v:
            u = par[u]
            v = par[v]
        return u

    return walk


def lca_map(comp: PhyloTree, t: PhyloTree) -> list:
    """m[v] = the node of ``t`` that is the LCA of the taxa below ``comp``
    node v, for every v; a leaf maps to its own leaf in ``t``."""
    return fold(comp, t.label_node.__getitem__, lca_walk(t))


def fold(t: PhyloTree, leaf, join, cut=()) -> list:
    """Per-node values of ``t``, computed bottom-up.

    A leaf gets ``leaf(label)``. A child whose value is None, or whose
    parent edge is in ``cut`` (named by the child), is absent; a node with
    both children present gets ``join(left, right)``, with one it passes
    that child's value up, and with none it gets None.
    """
    kids = children(t)
    labels = t.labels
    val = [None] * t.n_nodes
    for u in range(t.n_nodes - 1, -1, -1):
        ks = kids[u]
        if not ks:
            val[u] = leaf(labels[u])
            continue
        left, right = ks
        a = None if left in cut else val[left]
        b = None if right in cut else val[right]
        val[u] = b if a is None else a if b is None else join(a, b)
    return val


def from_nested(nested) -> PhyloTree:
    """Build a tree from nested pairs, e.g. ``(("a", "b"), "c")``.

    Node ids come out in preorder with children in the given order.
    Iterative so that deep (caterpillar) trees do not hit the
    interpreter recursion limit. The original array builder: it assembles
    ``parent`` itself and asserts that ``PhyloTree`` builds the same from
    the preorder labels, so every use is a constructor check.
    """
    parent: list[int] = []
    labels: list[str | None] = []
    stack = [(nested, -1)]
    while stack:
        node, par = stack.pop()
        idx = len(parent)
        parent.append(par)
        if isinstance(node, str):
            labels.append(node)
        else:
            labels.append(None)
            left, right = node
            stack.append((right, idx))
            stack.append((left, idx))
    t = PhyloTree(labels)
    assert t.parent == parent, nested
    return t


def cut_pieces(t: PhyloTree, cut_children) -> list:
    """Split ``t`` by deleting the parent edges of ``cut_children``.

    Returns the nested form of each resulting piece, ordered by the preorder
    id of the piece's topmost node (the remainder around the old root comes
    first). Pieces that contain no labeled leaf come out as None; callers
    decide whether to discard them. Degree-2 suppression is built in: a node
    left with a single child passes that child through.
    """
    cuts = set(cut_children)
    red = fold(t, lambda lab: lab, lambda a, b: (a, b), cuts)
    return [red[top] for top in sorted({t.root} | cuts)]


def split_reference(t: PhyloTree, cut_children) -> list:
    """The pieces ``forest.cut_edges`` built from one component before
    ``tree.split``: ``cut_pieces``, leafless pieces dropped, ``from_nested``."""
    return [from_nested(nested) for nested in cut_pieces(t, cut_children) if nested is not None]


def validate(t: PhyloTree) -> None:
    """Raise ValueError unless every structural invariant holds."""
    n = t.n_nodes
    if n == 0:
        raise ValueError("empty node table")
    if t.root != 0 or t.parent[0] != -1:
        raise ValueError("root must be node 0 with no parent")
    seen_labels = set()
    kids = children(t)
    for u in range(n):
        ks = kids[u]
        if len(ks) not in (0, 2):
            raise ValueError(f"node {u} has out-degree {len(ks)}, expected 0 or 2")
        for c in ks:
            if not (u < c < n):
                raise ValueError(f"child {c} of node {u} breaks preorder numbering")
            if t.parent[c] != u:
                raise ValueError(f"parent link of node {c} is inconsistent")
        lab = t.labels[u]
        if ks and lab is not None:
            raise ValueError(f"internal node {u} carries label {lab!r}")
        if not ks:
            if lab is None:
                raise ValueError(f"leaf {u} has no label")
            if not lab or not set(lab) <= LABEL_CHARS:
                raise ValueError(f"bad taxon name {lab!r}")
            if lab in seen_labels:
                raise ValueError(f"duplicate taxon {lab!r}")
            seen_labels.add(lab)
    # connectivity: every non-root node must be reachable, i.e. have a parent
    for u in range(1, n):
        if t.parent[u] < 0:
            raise ValueError(f"node {u} is disconnected")


def _check_taxa(t: PhyloTree, taxa) -> frozenset:
    keep = frozenset(taxa)
    if not keep:
        raise ValueError("cannot restrict to an empty taxon set")
    unknown = keep - t.leaf_labels
    if unknown:
        raise ValueError(f"unknown taxon {sorted(unknown)[0]!r}")
    return keep


def restrict(t: PhyloTree, taxa) -> PhyloTree:
    """Minimal subtree of ``t`` connecting ``taxa``, with every degree-2 node
    suppressed. The result is a valid tree on exactly the given taxa: the
    first piece left by cutting every leaf edge outside them."""
    keep = _check_taxa(t, taxa)
    return split(t, {u for lab, u in t.label_node.items() if lab not in keep})[0]


def restricted_nested(t: PhyloTree, taxa):
    """Nested form of ``restrict(t, taxa)``."""
    keep = _check_taxa(t, taxa)
    red = fold(t, lambda lab: lab if lab in keep else None, lambda a, b: (a, b))
    return red[t.root]
