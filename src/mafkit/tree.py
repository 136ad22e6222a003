"""Rooted binary leaf-labeled trees and the shared machinery built on them.

A tree is stored as parallel arrays indexed by node id. Ids are assigned in
preorder: the root is node 0 and every parent precedes its children, so the
subtree of node ``u`` occupies the contiguous id range ``[u, u + size(u))``.
Trees are treated as immutable values after construction; every editing
operation in this package builds a fresh tree.

Leaves carry taxon names (non-empty strings over ``[A-Za-z0-9_.-]``); internal
nodes are unlabeled and have exactly two children. A single labeled leaf is a
valid tree.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        "_canonical", "_label_node", "_depths", "_below", "_sizes",
        "_pidx",
    )

    def __init__(self, parent, children, labels, root=0):
        self.parent = parent
        self.children = children
        self.labels = labels
        self.root = root
        self._canonical = None
        self._label_node = None
        self._depths = None
        self._below = None
        self._sizes = None
        self._pidx = None

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

    def labels_below(self, u: int) -> tuple:
        """Taxon names at or below node u, in preorder."""
        return self._below_table()[u]

    def _below_table(self):
        if self._below is None:
            table = [None] * self.n_nodes
            for u in range(self.n_nodes - 1, -1, -1):
                ks = self.children[u]
                if not ks:
                    table[u] = (self.labels[u],)
                else:
                    table[u] = table[ks[0]] + table[ks[1]]
            self._below = table
        return self._below

    def canonical(self) -> str:
        """Order-independent canonical form; equal iff the trees are
        isomorphic as rooted leaf-labeled trees."""
        if self._canonical is None:
            canon = [None] * self.n_nodes
            for u in range(self.n_nodes - 1, -1, -1):
                ks = self.children[u]
                if not ks:
                    canon[u] = self.labels[u]
                else:
                    a, b = canon[ks[0]], canon[ks[1]]
                    if b < a:
                        a, b = b, a
                    canon[u] = "(%s,%s)" % (a, b)
            self._canonical = canon[self.root]
        return self._canonical

    def preorder_index(self) -> "PreorderIndex":
        if self._pidx is None:
            self._pidx = compute_preorder_index(self)
        return self._pidx

    def nested(self):
        """Rebuild the nested-pair representation (child order preserved)."""
        out = [None] * self.n_nodes
        for u in range(self.n_nodes - 1, -1, -1):
            ks = self.children[u]
            out[u] = self.labels[u] if not ks else (out[ks[0]], out[ks[1]])
        return out[self.root]

    def __repr__(self):
        return f"<PhyloTree leaves={self.n_leaves}>"


# ── preorder intervals ────────────────────────────────────────────────


@dataclass(frozen=True)
class PreorderIndex:
    """Preorder visit numbers plus, per node, the [lo, hi] interval of visit
    numbers covered by its subtree. ``u`` is an ancestor of ``v`` exactly when
    visit(v) falls inside u's interval."""

    visit: tuple
    lo: tuple
    hi: tuple

    def is_ancestor(self, u: int, v: int) -> bool:
        """Inclusive: every node is an ancestor of itself."""
        return self.lo[u] <= self.visit[v] <= self.hi[u]

    def is_strict_ancestor(self, u: int, v: int) -> bool:
        return u != v and self.lo[u] <= self.visit[v] <= self.hi[u]


def compute_preorder_index(t: PhyloTree) -> PreorderIndex:
    """Walk the tree and assign visit numbers; do not assume ids are already
    preorder (they are, but the index is checked against a naive walk in the
    test suite, so derive it honestly)."""
    n = t.n_nodes
    visit = [0] * n
    counter = 0
    stack = [t.root]
    order = []
    while stack:
        u = stack.pop()
        visit[u] = counter
        counter += 1
        order.append(u)
        for c in reversed(t.children[u]):
            stack.append(c)
    lo = [0] * n
    hi = [0] * n
    for u in reversed(order):
        lo[u] = visit[u]
        hi[u] = visit[u]
        for c in t.children[u]:
            lo[u] = min(lo[u], lo[c])
            hi[u] = max(hi[u], hi[c])
    return PreorderIndex(tuple(visit), tuple(lo), tuple(hi))


# ── ancestry queries ──────────────────────────────────────────────────


def lca(t: PhyloTree, taxa) -> int:
    """Node id of the most recent common ancestor of the given taxa.

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
    red = [None] * t.n_nodes
    for u in range(t.n_nodes - 1, -1, -1):
        ks = t.children[u]
        if not ks:
            lab = t.labels[u]
            red[u] = lab if lab in keep else None
        else:
            sub = [red[c] for c in ks if red[c] is not None]
            if not sub:
                red[u] = None
            elif len(sub) == 1:
                red[u] = sub[0]
            else:
                red[u] = (sub[0], sub[1])
    return red[t.root]


def restricted_canonical(t: PhyloTree, taxa) -> str:
    """Canonical form of restrict(t, taxa) without building the tree."""
    keep = taxa if isinstance(taxa, frozenset) else frozenset(taxa)
    red = [None] * t.n_nodes
    for u in range(t.n_nodes - 1, -1, -1):
        ks = t.children[u]
        if not ks:
            lab = t.labels[u]
            red[u] = lab if lab in keep else None
        else:
            a = red[ks[0]]
            b = red[ks[1]]
            if a is None:
                red[u] = b
            elif b is None:
                red[u] = a
            else:
                if b < a:
                    a, b = b, a
                red[u] = "(%s,%s)" % (a, b)
    return red[t.root]


def cut_pieces(t: PhyloTree, cut_children) -> list:
    """Split ``t`` by deleting the parent edges of ``cut_children``.

    Returns the nested form of each resulting piece, ordered by the preorder
    id of the piece's topmost node (the remainder around the old root comes
    first). Pieces that contain no labeled leaf come out as None; callers
    decide whether to discard them. Degree-2 suppression is built in: a node
    left with a single child passes that child through.
    """
    cuts = set(cut_children)
    red = [None] * t.n_nodes
    for u in range(t.n_nodes - 1, -1, -1):
        ks = t.children[u]
        if not ks:
            red[u] = t.labels[u]
        else:
            sub = [red[c] for c in ks if c not in cuts and red[c] is not None]
            if not sub:
                red[u] = None
            elif len(sub) == 1:
                red[u] = sub[0]
            else:
                red[u] = (sub[0], sub[1])
    return [red[top] for top in sorted({t.root} | cuts)]


# ── elements and their partial order ──────────────────────────────────


@dataclass(frozen=True)
class Element:
    """A vertex or an edge of a tree. Edges are named by their child
    endpoint, which is unique because every non-root node has exactly one
    parent edge."""

    kind: str  # "node" | "edge"
    node: int

    def __post_init__(self):
        if self.kind not in ("node", "edge"):
            raise ValueError(f"bad element kind {self.kind!r}")


def element_less(t: PhyloTree, x: Element, y: Element) -> bool:
    """True iff ``y`` lies on the path from ``x`` to the root (strictly above
    ``x`` in the tree order). Irreflexive; siblings are incomparable."""
    for el in (x, y):
        if not (0 <= el.node < t.n_nodes):
            raise ValueError(f"element {el} not in this component")
        if el.kind == "edge" and el.node == t.root:
            raise ValueError("the root has no parent edge")
    if x == y:
        return False
    pidx = t.preorder_index()
    if y.kind == "node":
        # path from x upward meets node w only strictly above x's lower end
        return pidx.is_strict_ancestor(y.node, x.node)
    if x.kind == "node":
        # the parent edge of x's own vertex is already on the upward path
        return pidx.is_ancestor(y.node, x.node)
    return pidx.is_strict_ancestor(y.node, x.node)
