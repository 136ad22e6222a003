"""Rooted binary leaf-labeled trees and the shared machinery built on them.

A tree is stored as parallel arrays indexed by node id. Ids are assigned in
preorder: the root is node 0 and every parent precedes its children, so the
subtree of node ``u`` occupies the contiguous id range ``[u, u + size(u))``.
Trees are treated as immutable values after construction; every editing
operation in this package builds a fresh tree.

Leaves carry taxon names (non-empty strings over ``[A-Za-z0-9_.-]``); internal
nodes are unlabeled and have exactly two children. A single labeled leaf is a
valid tree.

Every tree is built from its preorder labels by ``PhyloTree(labels)``:
taxa on leaves and None on internal nodes fix a binary tree's shape, since a
left child directly follows its parent. ``newick.parse`` collects the labels
in its checked pass, ``split`` joins each piece's kept preorder ranges
of its host's labels, found from the cuts alone, and ``gen``'s random
growth and SPR walks edit the preorder label and size arrays in place and
build each tree once. Only the constructor writes the ``parent`` array;
``sizes`` is built on first use unless the builder has it (a walk's
arrays, a piece that is a whole subtree of its host). The children of an
internal node u need no table: the left one is u + 1 and the right one
u + 1 + size(u + 1).

``below(t, v, u)`` is the one ancestry test: v is at or below u iff
``u <= v < u + size(u)``, and it drives every LCA too: for u < v,
lca(u, v) is the first ancestor of u whose interval holds v. Two
bottom-up sweeps are hot, so they are plain loops with no callback per
node: ``lca_map`` (each component's map into an input tree, from which the
triple phase reads both cleanliness and conflicts) and ``partition_tops``
(the agreement check and mapped roots for all components of a forest at
once, by sibling merges on node ids). Neither builds a string.
"""

from __future__ import annotations

LABEL_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-")


class PhyloTree:
    """A rooted binary phylogenetic tree over a fixed taxon set.

    Attributes
    ----------
    parent : list[int]          parent id; -1 for the root
    labels : list[str | None]   taxon name on leaves, None elsewhere
    root   : int                always 0 under preorder numbering

    An internal node u has children u + 1 and u + 1 + sizes[u + 1].
    """

    __slots__ = ("parent", "labels", "_label_node", "_sizes")

    root = 0

    def __init__(self, labels):
        """Build the tree whose preorder labels are ``labels``: the taxon on
        each leaf, None on each internal node. ``labels`` becomes the
        tree's own list.

        In a binary tree these fix the shape: a left child directly follows
        its parent and the right child follows the left child's subtree.
        One forward sweep fills the parent links. A node right after an
        internal node is its left child; any other node is the right child
        of the innermost internal node still waiting for one. Labels of no
        single binary tree raise ValueError, duplicate taxa once
        ``label_node`` is.
        """
        n = len(labels)
        parent = [-1] * n
        waiting = []  # internal nodes without their right child, innermost last
        opened = None  # the previous node, if internal
        for u, label in enumerate(labels):
            if opened is not None:
                parent[u] = opened
            elif waiting:
                parent[u] = waiting.pop()
            elif u:
                raise ValueError(f"node {u} comes after the tree is complete")
            if label is None:
                waiting.append(u)
                opened = u
            else:
                opened = None
        if waiting or not n:
            raise ValueError(f"internal node {waiting[-1]} lacks a child" if n else "no labels")
        self.parent = parent
        self.labels = labels
        self._label_node = None
        self._sizes = None

    # ── basic shape ───────────────────────────────────────────────────

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @property
    def n_leaves(self) -> int:
        return (len(self.parent) + 1) // 2

    @property
    def label_node(self) -> dict:
        """Taxon name -> leaf node id, in preorder. Built on first access;
        ``newick.parse`` hands over the map it checked its taxa with."""
        if self._label_node is None:
            node = {lab: u for u, lab in enumerate(self.labels) if lab is not None}
            if len(node) != self.n_leaves:
                raise ValueError("duplicate taxa among the leaf labels")
            self._label_node = node
        return self._label_node

    @property
    def leaf_labels(self) -> frozenset:
        """A new frozenset per access; per-component loops that only iterate
        or test emptiness read ``label_node`` instead."""
        return frozenset(self.label_node)

    @property
    def sizes(self) -> list:
        """Subtree node counts, so subtree(u) = ids [u, u + sizes[u]).
        Built on first access; ``gen`` and ``split`` hand over theirs."""
        if self._sizes is None:
            s = [1] * self.n_nodes
            for u in range(self.n_nodes - 1, 0, -1):
                s[self.parent[u]] += s[u]
            self._sizes = s
        return self._sizes

    def __repr__(self):
        return f"<PhyloTree leaves={self.n_leaves}>"


# ── ancestry queries ──────────────────────────────────────────────────


def below(t: PhyloTree, v: int, u: int) -> bool:
    """True iff node v of ``t`` is at or below node u."""
    return u <= v < u + t.sizes[u]


def lca(t: PhyloTree, taxa) -> int:
    """Node id of the most recent common ancestor of the given taxa, any
    collection of names (a set, or a tree's ``label_node``).

    A singleton set maps to the leaf itself. Raises ValueError for unknown
    or empty taxa.
    """
    if not taxa:
        raise ValueError("lca of an empty taxon set")
    node = t.label_node
    try:
        nodes = [node[x] for x in taxa]
    except KeyError as exc:
        raise ValueError(f"unknown taxon {exc.args[0]!r}") from None
    # preorder ids: lca(S) = lca(min-id leaf, max-id leaf)
    return _lca2(t, min(nodes), max(nodes))


def _lca2(t: PhyloTree, u: int, v: int) -> int:
    """The LCA of nodes u and v, taken so that u < v, is the first ancestor
    of u whose preorder interval holds v: depth(u) - depth(lca) interval
    tests, never more than the depth(u) + depth(v) - 2 depth(lca) steps of
    walking both up to equal depth and then together."""
    if u > v:
        u, v = v, u
    size = t.sizes
    par = t.parent
    while v >= u + size[u]:
        u = par[u]
    return u


def lca_map(comp: PhyloTree, t: PhyloTree) -> list:
    """m[v] = the node of ``t`` that is the LCA of the taxa below ``comp``
    node v, for every v; a leaf maps to its own leaf in ``t``.

    A plain loop with ``_lca2``'s interval climb inlined: it runs once per
    new component and input tree in the triple phase, and a callback per
    node made it about twice as slow. Nodes are visited by decreasing id,
    so each arrives complete at its parent: the first child to arrive sets
    the parent's m, the second climbs from it.
    """
    node = t.label_node
    size = t.sizes
    par = t.parent
    up = comp.parent
    m = [-1 if lab is None else node[lab] for lab in comp.labels]
    for v in range(comp.n_nodes - 1, 0, -1):
        p = up[v]
        a = m[p]
        if a < 0:
            m[p] = m[v]
            continue
        b = m[v]
        if a > b:
            a, b = b, a
        while b >= a + size[a]:
            a = par[a]
        m[p] = a
    return m


# ── bottom-up sweeps and splitting ──────────────────────────────────


def restricted_canonical(t: PhyloTree, taxa) -> str:
    """Canonical form of ``t`` restricted to ``taxa``, without building
    the restricted tree; equal forms mean isomorphic restrictions.

    On no ``mafkit`` path: it stays as the tests' reference and for the
    benchmark's ``tree.restricted_canonical`` span. A node's children are
    released once its form is built, so a caterpillar keeps O(n)
    characters alive instead of O(n * depth).
    """
    keep = taxa if isinstance(taxa, frozenset) else frozenset(taxa)
    sizes = t.sizes
    labels = t.labels
    red = [None] * t.n_nodes
    for u in range(t.n_nodes - 1, -1, -1):
        lab = labels[u]
        if lab is not None:
            red[u] = lab if lab in keep else None
            continue
        left = u + 1
        right = left + sizes[left]
        a = red[left]
        b = red[right]
        red[left] = red[right] = None
        if a is None:
            red[u] = b
        elif b is None:
            red[u] = a
        else:
            if b < a:
                a, b = b, a
            red[u] = "(%s,%s)" % (a, b)
    return red[t.root]


def partition_tops(t: PhyloTree, comps, block_of: dict) -> list | None:
    """The lca in ``t`` of each of ``comps``' taxa (``block_of`` maps a
    taxon to its component's index), or None unless every component is
    the restriction of ``t`` to its taxa, with disjoint embeddings.

    A node carries at most one open component b with the node of b whose
    cluster is b's taxa below; a leaf carries its own leaf. Two carries may
    meet only as siblings of one b, and move up to their parent; b closes
    at its root 0 (a singleton at its leaf). ``forest.agreement_roots``
    gives the argument.
    """
    sizes = t.sizes
    labels = t.labels
    nodes = [c.label_node for c in comps]
    parents = [c.parent for c in comps]
    tops = [0] * len(comps)
    open_comp = [-1] * t.n_nodes  # the component each node carries, or -1
    at = [0] * t.n_nodes  # the carried component's node
    for u in range(t.n_nodes - 1, -1, -1):
        lab = labels[u]
        if lab is not None:
            b = block_of[lab]
            v = nodes[b][lab]
            if v:
                open_comp[u] = b
                at[u] = v
            else:  # leaf 0: a singleton component
                tops[b] = u
            continue
        left = u + 1
        right = left + sizes[left]
        b = open_comp[left]
        c = open_comp[right]
        if c < 0:
            if b >= 0:
                open_comp[u] = b
                at[u] = at[left]
        elif b < 0:
            open_comp[u] = c
            at[u] = at[right]
        elif b != c:
            return None
        else:
            par = parents[b]
            p = par[at[left]]
            if p != par[at[right]]:
                return None
            if p:
                open_comp[u] = b
                at[u] = p
            else:
                tops[b] = u
    return tops


def split(t: PhyloTree, cut_children) -> list:
    """The pieces of ``t`` left by deleting the parent edges of
    ``cut_children``, each with its degree-2 nodes suppressed, ordered by
    the preorder id of the piece's topmost node (the remainder around the
    old root first). Pieces that hold no leaf are dropped.

    No pass over ``t``'s nodes: a node that loses a child drops out of its
    piece (suppressed with one child left; with none it holds no leaf, so
    its parent loses it too unless it tops a piece). A piece topped by v
    keeps v's preorder range less the subtrees of cuts nested in it and
    its dropped nodes. One sweep over those, with a stack of open pieces,
    gives each piece its kept ranges, whose labels, joined in order, are
    its own preorder labels. A piece that is a whole subtree with two or
    more nodes also takes its ``sizes`` by a slice.
    """
    cut = set(cut_children)
    parent = t.parent
    labels = t.labels
    sizes = t.sizes
    lost = {}  # node -> children it lost
    for v in cut:
        p = parent[v]
        lost[p] = lost.get(p, 0) + 1
        while lost[p] == 2 and p and p not in cut:  # leafless
            p = parent[p]
            lost[p] = lost.get(p, 0) + 1
    root = [len(parent), 0, []]  # an open piece: [end, cursor, kept ranges]
    pieces, stack = [root], [root]
    # 2v: cut v opens a piece; 2p + 1: p drops out (of its own piece if p is cut)
    for e in sorted([2 * v for v in cut] + [2 * p + 1 for p in lost]):
        x = e >> 1
        while stack[-1][0] <= x:  # pieces that end at or before x
            stack.pop()
        host = stack[-1]
        host[2].append((host[1], x))
        host[1] = x + 1 if e & 1 else x + sizes[x]  # x dropped, or x's subtree cut
        if not e & 1:
            stack.append([host[1], x, []])
            pieces.append(stack[-1])
    out = []
    for end, cursor, ranges in pieces:
        ranges.append((cursor, end))
        kept = []
        for lo, hi in ranges:
            kept += labels[lo:hi]
        if kept:
            out.append(PhyloTree(kept))
            if len(ranges) == 1 and hi - lo > 1:  # a whole subtree
                out[-1]._sizes = sizes[lo:hi]
    return out
