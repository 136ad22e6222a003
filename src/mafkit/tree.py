"""Rooted binary leaf-labeled trees and the shared machinery built on them.

A tree is stored as parallel arrays indexed by node id. Ids are assigned in
preorder: the root is node 0 and every parent precedes its children, so the
subtree of node ``u`` occupies the contiguous id range ``[u, u + size(u))``.
Trees are treated as immutable values after construction; every editing
operation in this package builds a fresh tree.

Leaves carry taxon names (non-empty strings over ``[A-Za-z0-9_.-]``); internal
nodes are unlabeled and have exactly two children. A single labeled leaf is a
valid tree.

Two primitives serve the rest of the package. ``below(t, v, u)`` is the one
ancestry test: v is at or below u iff ``u <= v < u + size(u)``. ``fold``
is the one bottom-up sweep: it computes a value per node from leaf values
and a join, treating cut edges and empty subtrees as absent and passing a
lone present child straight up (degree-2 suppression); restriction and
cutting go through it. Two sweeps stay plain loops because they are hot
and a callback per node measurably slows them: ``lca_map`` (each
component's map into an input tree, from which the triple phase reads both
cleanliness and conflicts) and ``partition_forms`` (canonical forms, and the
agreement check and mapped roots for all components of a forest at once).
``gen`` needs no sweep at all: its random growth and SPR walks edit the
preorder label and size arrays in place and build each tree once.
"""

from __future__ import annotations

# nested form: a leaf label (str), or a pair of nested forms
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
    def from_nested(cls, nested) -> "PhyloTree":
        """Build a tree from nested pairs, e.g. ``(("a", "b"), "c")``.

        Node ids come out in preorder with children in the given order.
        Iterative so that deep (caterpillar) trees do not hit the
        interpreter recursion limit.
        """
        parent: list[int] = []
        kids: list[list[int]] = []
        labels: list[str | None] = []
        stack = [(nested, -1)]
        while stack:
            node, par = stack.pop()
            idx = len(parent)
            parent.append(par)
            kids.append([])
            if par >= 0:
                kids[par].append(idx)
            if isinstance(node, str):
                labels.append(node)
            else:
                labels.append(None)
                left, right = node
                stack.append((right, idx))
                stack.append((left, idx))
        children = [tuple(k) for k in kids]
        return cls(parent, children, labels)

    def validate(self) -> None:
        """Raise ValueError unless every structural invariant holds."""
        n = self.n_nodes
        if n == 0:
            raise ValueError("empty node table")
        if self.root != 0 or self.parent[0] != -1:
            raise ValueError("root must be node 0 with no parent")
        seen_labels = set()
        for u in range(n):
            ks = self.children[u]
            if len(ks) not in (0, 2):
                raise ValueError(f"node {u} has out-degree {len(ks)}, expected 0 or 2")
            for c in ks:
                if not (u < c < n):
                    raise ValueError(f"child {c} of node {u} breaks preorder numbering")
                if self.parent[c] != u:
                    raise ValueError(f"parent link of node {c} is inconsistent")
            lab = self.labels[u]
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
            if self.parent[u] < 0:
                raise ValueError(f"node {u} is disconnected")

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


# ── bottom-up rewrites ────────────────────────────────────────────────


def fold(t: PhyloTree, leaf, join, cut=()) -> list:
    """Per-node values of ``t``, computed bottom-up.

    A leaf gets ``leaf(label)``. A child whose value is None, or whose
    parent edge is in ``cut`` (named by the child), is absent; a node with
    both children present gets ``join(left, right)``, with one it passes
    that child's value up, and with none it gets None.
    """
    children = t.children
    labels = t.labels
    val = [None] * t.n_nodes
    for u in range(t.n_nodes - 1, -1, -1):
        ks = children[u]
        if not ks:
            val[u] = leaf(labels[u])
            continue
        left, right = ks
        a = None if left in cut else val[left]
        b = None if right in cut else val[right]
        val[u] = b if a is None else a if b is None else join(a, b)
    return val


def restrict(t: PhyloTree, taxa) -> PhyloTree:
    """Minimal subtree of ``t`` connecting ``taxa``, with every degree-2 node
    suppressed. The result is a valid tree on exactly the given taxa."""
    nested = restricted_nested(t, taxa)
    return PhyloTree.from_nested(nested)


def restricted_nested(t: PhyloTree, taxa):
    keep = frozenset(taxa)
    if not keep:
        raise ValueError("cannot restrict to an empty taxon set")
    unknown = keep - t.leaf_labels
    if unknown:
        raise ValueError(f"unknown taxon {sorted(unknown)[0]!r}")
    red = fold(t, lambda lab: lab if lab in keep else None, lambda a, b: (a, b))
    return red[t.root]


def restricted_canonical(t: PhyloTree, taxa) -> str:
    """Canonical form of restrict(t, taxa) without building the tree.

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
