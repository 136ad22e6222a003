"""Rooted binary leaf-labeled trees and the shared machinery built on them.

A tree is stored as parallel arrays indexed by node id. Ids are assigned in
preorder: the root is node 0 and every parent precedes its children, so the
subtree of node ``u`` occupies the contiguous id range ``[u, u + size(u))``.
Trees are treated as immutable values after construction; every editing
operation in this package builds a fresh tree.

Leaves carry taxon names (non-empty strings over ``[A-Za-z0-9_.-]``); internal
nodes are unlabeled and have exactly two children. A single labeled leaf is a
valid tree.

Trees are built from their preorder labels (``PhyloTree.from_preorder``),
except that ``newick.parse`` writes the arrays in its own checked pass: taxa
on leaves and None on internal nodes fix a binary tree's shape, since a left
child directly follows its parent. ``split`` cuts a tree into pieces by
picking out, per piece, the labels of the nodes it keeps, and ``gen``'s
random growth and SPR walks edit the preorder label and size arrays in place
and build each tree once.

``below(t, v, u)`` is the one ancestry test: v is at or below u iff
``u <= v < u + size(u)``. ``fold`` is a plain bottom-up sweep, a leaf value
per leaf and a join per internal node. Two sweeps stay plain loops because
they are hot and a callback per node measurably slows them: ``lca_map``
(each component's map into an input tree, from which the triple phase reads
both cleanliness and conflicts) and ``partition_forms`` (canonical forms,
and the agreement check and mapped roots for all components of a forest at
once).
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
        "parent", "children", "labels", "root",
        "_canonical", "_label_node", "_depths", "_sizes",
    )

    def __init__(self, parent, children, labels, root=0):
        self.parent = parent
        self.children = children
        self.labels = labels
        self.root = root
        self._canonical = None
        self._label_node = None
        self._depths = None
        self._sizes = None

    # ── construction ──────────────────────────────────────────────────

    @classmethod
    def from_preorder(cls, labels) -> "PhyloTree":
        """Build a tree from its preorder labels: the taxon on each leaf,
        None on each internal node.

        In a binary tree these fix the shape: a left child directly follows
        its parent and the right child follows the left child's subtree.
        One reverse sweep fills the links and the subtree sizes, which are
        kept as the ``sizes`` cache. ``labels`` becomes the tree's own list.
        """
        n = len(labels)
        parent = [-1] * n
        children: list[tuple] = [()] * n
        sizes = [1] * n
        for u in range(n - 1, -1, -1):
            if labels[u] is None:
                left = u + 1
                right = left + sizes[left]
                children[u] = (left, right)
                parent[left] = parent[right] = u
                sizes[u] = 1 + sizes[left] + sizes[right]
        t = cls(parent, children, labels)
        t._sizes = sizes
        return t

    @classmethod
    def from_nested(cls, nested) -> "PhyloTree":
        """Build a tree from nested pairs, e.g. ``(("a", "b"), "c")``.

        Node ids come out in preorder with children in the given order.
        Iterative so that deep (caterpillar) trees do not hit the
        interpreter recursion limit.
        """
        labels: list[str | None] = []
        stack = [nested]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                labels.append(node)
            else:
                labels.append(None)
                left, right = node
                stack.append(right)
                stack.append(left)
        return cls.from_preorder(labels)

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
            self._label_node = {
                lab: u for u, lab in enumerate(self.labels) if lab is not None
            }
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

    def canonical(self) -> str:
        """Order-independent canonical form; equal iff the trees are
        isomorphic as rooted leaf-labeled trees."""
        if self._canonical is None:
            self._canonical = partition_forms(
                self, dict.fromkeys(self.label_node, 0), (self.n_leaves,)
            )[0][0]
        return self._canonical

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
    the restricted tree.

    No longer on any hot path: the triple phase reads cleanliness off the
    component's ``lca_map`` (``triples._realized``), which costs
    O(|component|) where this sweep costs O(|t|), and the exact search
    compares cluster masks. It stays as the reference the tests compare
    both against, and for the benchmark's ``tree.restricted_canonical``
    span. A node's children are released once its form is built, so a
    caterpillar keeps O(n) characters alive instead of O(n * depth).
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


def partition_forms(t: PhyloTree, block_of: dict, sizes) -> tuple | None:
    """Restricted canonical form and lca of every block of a partition of
    ``t``'s taxa, in one bottom-up sweep: ``(forms, tops)`` with both lists
    indexed by block, or None when two blocks' embeddings share a node.

    ``block_of`` maps each taxon to its block index and ``sizes[b]`` is the
    number of taxa in block b. A node carries the one block that is *open*
    there (some but not all of its taxa below), with that block's count and
    form so far; the block *closes* at its lca, where its count reaches its
    size, and ``tops[b]`` is that node (a singleton block closes at its
    leaf). Two children carrying different open blocks put their parent on
    both embeddings. Forms are built as in ``restricted_canonical`` and a
    node's children are released once its own carry is set.
    """
    children = t.children
    labels = t.labels
    forms = [None] * len(sizes)
    tops = [0] * len(sizes)
    carry = [None] * t.n_nodes  # (block, taxa below, form) of the open block
    for u in range(t.n_nodes - 1, -1, -1):
        ks = children[u]
        if not ks:
            lab = labels[u]
            b = block_of[lab]
            if sizes[b] == 1:
                forms[b] = lab
                tops[b] = u
            else:
                carry[u] = (b, 1, lab)
            continue
        left, right = ks
        x = carry[left]
        y = carry[right]
        carry[left] = carry[right] = None
        if x is None:
            carry[u] = y
        elif y is None:
            carry[u] = x
        elif x[0] != y[0]:
            return None
        else:
            fx, fy = x[2], y[2]
            if fy < fx:
                fx, fy = fy, fx
            form = "(%s,%s)" % (fx, fy)
            count = x[1] + y[1]
            if count == sizes[x[0]]:
                forms[x[0]] = form
                tops[x[0]] = u
            else:
                carry[u] = (x[0], count, form)
    return forms, tops


def split(t: PhyloTree, cut_children) -> list:
    """The pieces of ``t`` left by deleting the parent edges of
    ``cut_children``, each with its degree-2 nodes suppressed, ordered by
    the preorder id of the piece's topmost node (the remainder around the
    old root first). Pieces that hold no leaf are dropped.

    A reverse pass counts, per node, the child edges that are not cut and
    still lead to a leaf (a leaf counts as 2); a forward pass gives each
    node the top of its piece. Nodes counting 2 are exactly those the
    piece keeps, and they come in the piece's own preorder, so their
    labels build it through ``from_preorder``.
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
    return [PhyloTree.from_preorder(p) for p in pieces.values() if p]
