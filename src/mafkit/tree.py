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
in its checked pass, ``split`` cuts a tree into pieces by picking out, per
piece, the labels of the nodes it keeps, and ``gen``'s random growth and SPR
walks edit the preorder label and size arrays in place and build each tree
once. Only the constructor writes the ``parent`` and ``children`` arrays.

``below(t, v, u)`` is the one ancestry test: v is at or below u iff
``u <= v < u + size(u)``. ``fold`` is a plain bottom-up sweep, a leaf value
per leaf and a join per internal node. Two sweeps stay plain loops because
they are hot and a callback per node measurably slows them: ``lca_map``
(each component's map into an input tree, from which the triple phase reads
both cleanliness and conflicts) and ``partition_tops`` (the agreement check
and mapped roots for all components of a forest at once, by sibling merges
on node ids). Neither builds a string.
"""

from __future__ import annotations

LABEL_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-")


class PhyloTree:
    """A rooted binary phylogenetic tree over a fixed taxon set.

    Attributes
    ----------
    parent   : list[int]            parent id; -1 for the root
    children : list[tuple[int,...]] () for leaves, (left, right) otherwise
    labels   : list[str | None]     taxon name on leaves, None elsewhere
    root     : int                  always 0 under preorder numbering
    """

    __slots__ = (
        "parent", "children", "labels",
        "_label_node", "_depths", "_sizes",
    )

    root = 0

    def __init__(self, labels):
        """Build the tree whose preorder labels are ``labels``: the taxon on
        each leaf, None on each internal node. ``labels`` becomes the
        tree's own list.

        In a binary tree these fix the shape: a left child directly follows
        its parent and the right child follows the left child's subtree.
        One forward sweep fills the links. A node right after an internal
        node is its left child, stored bare until the right child arrives
        and makes the pair; any other node is the right child of the
        innermost internal node still waiting for one. Labels of no single
        binary tree raise ValueError, duplicate taxa once ``label_node`` is.
        """
        n = len(labels)
        parent = [-1] * n
        children: list = [()] * n
        waiting = []  # internal nodes without their right child, innermost last
        opened = None  # the previous node, if internal
        for u, label in enumerate(labels):
            if opened is not None:
                parent[u] = opened
                children[opened] = u
            elif waiting:
                p = waiting.pop()
                parent[u] = p
                children[p] = (children[p], u)
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
        self.children = children
        self.labels = labels
        self._label_node = None
        self._depths = None
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
        """Taxon name -> leaf node id."""
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
    def depths(self) -> list:
        if self._depths is None:
            d = [0] * self.n_nodes
            for u in range(1, self.n_nodes):
                d[u] = d[self.parent[u]] + 1
            self._depths = d
        return self._depths

    @property
    def sizes(self) -> list:
        """Subtree node counts, so subtree(u) = ids [u, u + sizes[u])."""
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
    try:
        nodes = [t.label_node[x] for x in taxa]
    except KeyError as exc:
        raise ValueError(f"unknown taxon {exc.args[0]!r}") from None
    # preorder ids: lca(S) = lca(min-id leaf, max-id leaf)
    return _lca2(t, min(nodes), max(nodes))


def _lca2(t: PhyloTree, u: int, v: int) -> int:
    d = t.depths
    par = t.parent
    while d[u] > d[v]:
        u = par[u]
    while d[v] > d[u]:
        v = par[v]
    while u != v:
        u = par[u]
        v = par[v]
    return u


def lca_map(comp: PhyloTree, t: PhyloTree) -> list:
    """m[v] = the node of ``t`` that is the LCA of the taxa below ``comp``
    node v, for every v; a leaf maps to its own leaf in ``t``.

    A plain loop with ``_lca2``'s walk inlined, not ``fold``: it runs once
    per new component and input tree in the triple phase, and a callback
    per node made it about twice as slow.
    """
    node = t.label_node
    d = t.depths
    par = t.parent
    children = comp.children
    labels = comp.labels
    m = [0] * comp.n_nodes
    for v in range(comp.n_nodes - 1, -1, -1):
        ks = children[v]
        if not ks:
            m[v] = node[labels[v]]
            continue
        a = m[ks[0]]
        b = m[ks[1]]
        while d[a] > d[b]:
            a = par[a]
        while d[b] > d[a]:
            b = par[b]
        while a != b:
            a = par[a]
            b = par[b]
        m[v] = a
    return m


# ── bottom-up sweeps and splitting ──────────────────────────────────


def fold(t: PhyloTree, leaf, join) -> list:
    """Per-node values of ``t``, computed bottom-up: ``leaf(label)`` at a
    leaf, ``join(left, right)`` of the children's values elsewhere."""
    children = t.children
    labels = t.labels
    val = [None] * t.n_nodes
    for u in range(t.n_nodes - 1, -1, -1):
        ks = children[u]
        val[u] = join(val[ks[0]], val[ks[1]]) if ks else leaf(labels[u])
    return val


def restricted_canonical(t: PhyloTree, taxa) -> str:
    """Canonical form of ``t`` restricted to ``taxa``, without building
    the restricted tree; equal forms mean isomorphic restrictions.

    On no ``mafkit`` path: it stays as the tests' reference and for the
    benchmark's ``tree.restricted_canonical`` span. A node's children are
    released once its form is built, so a caterpillar keeps O(n)
    characters alive instead of O(n * depth).
    """
    keep = taxa if isinstance(taxa, frozenset) else frozenset(taxa)
    children = t.children
    labels = t.labels
    red = [None] * t.n_nodes
    for u in range(t.n_nodes - 1, -1, -1):
        ks = children[u]
        if not ks:
            lab = labels[u]
            red[u] = lab if lab in keep else None
            continue
        left, right = ks
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
    children = t.children
    labels = t.labels
    nodes = [c.label_node for c in comps]
    parents = [c.parent for c in comps]
    tops = [0] * len(comps)
    open_comp = [-1] * t.n_nodes  # the component each node carries, or -1
    at = [0] * t.n_nodes  # the carried component's node
    for u in range(t.n_nodes - 1, -1, -1):
        ks = children[u]
        if not ks:
            lab = labels[u]
            b = block_of[lab]
            v = nodes[b][lab]
            if v:
                open_comp[u] = b
                at[u] = v
            else:  # leaf 0: a singleton component
                tops[b] = u
            continue
        left, right = ks
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

    A reverse pass counts, per node, the child edges that are not cut and
    still lead to a leaf (a leaf counts as 2); a forward pass gives each
    node the top of its piece. Nodes counting 2 are exactly those the
    piece keeps, and they come in the piece's own preorder, so their
    labels build it.
    """
    cut = set(cut_children)
    children = t.children
    parent = t.parent
    labels = t.labels
    n = t.n_nodes
    count = [2] * n
    for u in range(n - 1, -1, -1):
        ks = children[u]
        if ks:
            left, right = ks
            c = 0
            if count[left] and left not in cut:
                c = 1
            if count[right] and right not in cut:
                c += 1
            count[u] = c
    top = list(range(n))
    for u in range(1, n):
        if u not in cut:
            top[u] = top[parent[u]]
    pieces: dict[int, list] = {v: [] for v in sorted({0, *cut})}
    for u in range(n):
        if count[u] == 2:
            pieces[top[u]].append(labels[u])
    return [PhyloTree(p) for p in pieces.values() if p]
