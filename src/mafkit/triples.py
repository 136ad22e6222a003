"""Rooted triples: resolution, incompatibility detection, and cut selection.

A triple ``a,b|c`` says that in some tree the path from c to the root avoids
the path from a to b, i.e. a and b form a cherry relative to c. A triple held
by a forest component is *incompatible* with an input tree when that tree
resolves the same three taxa differently.

Incompatible triples are ordered: one triple precedes another when the other
triple's three-taxon ancestor lies strictly closer to the root (with the
two-taxon ancestor breaking ties at equal anchors). Triples in different
components, or with unrelated anchors, are incomparable. The search below
always returns a minimal triple — one with no incompatible triple strictly
below it.

Queries go straight to the input tree t_i, whose preorder ids put ``v`` at
or below ``u`` iff ``u <= v < u + size(u)``; t_i resolves ``a,b|c`` iff c is
not below lca(a, b). Let m(v) be the LCA in t_i of the taxa L(v) below a
component node v. Every pair split by v meets at or below m(v), and some
such pair meets exactly there, so a triple a,b|c with a, b split by v and c
outside L(v) conflicts iff some such c lies below m(v). That decides each
anchor without enumerating triples; the only state is m, linear in n.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace

from .forest import Forest
from .tree import PhyloTree, _lca2, below, lca_map, restricted_canonical


@dataclass(frozen=True)
class Triple:
    """Resolution ``a,b|c`` with its anchor nodes inside the host component.

    ``a`` and ``b`` are the cherry pair (stored with a <= b), ``c`` the
    outlier. ``cherry_lca`` is the ancestor of a and b only; ``triple_lca``
    the ancestor of all three. ``host`` indexes the forest component the
    anchors live in (0 for standalone queries on a bare tree).
    """

    a: str
    b: str
    c: str
    host: int
    cherry_lca: int
    triple_lca: int

    def taxa_key(self):
        return (self.a, self.b, self.c)

    def __str__(self):
        return f"{self.a},{self.b}|{self.c}"


@dataclass(frozen=True)
class TripleCuts:
    """Candidate cut edges around an incompatible triple, each named by its
    child endpoint in the host component.

    ``edge_a`` / ``edge_b``: the child edges of the cherry ancestor.
    ``edge_cherry``: the edge hanging the cherry side off the triple
    ancestor. ``edge_c``: the first edge walking from the triple ancestor
    toward c below which everything still groups with c against both a and b
    (the parent edge of leaf c in the worst case).
    """

    host: int
    edge_a: int
    edge_b: int
    edge_c: int
    edge_cherry: int


def _resolves(t: PhyloTree, a: str, b: str, c: str) -> bool:
    """True iff ``t`` resolves ``a,b|c``: c is not below lca(a, b)."""
    node = t.label_node
    return not below(t, node[c], _lca2(t, node[a], node[b]))


def find_incompatible(f: Forest, t_i: PhyloTree, memo=None):
    """A minimal incompatible triple of ``f`` with respect to ``t_i``, or
    None when every component is realized identically in ``t_i``.

    Components whose restriction into ``t_i`` is isomorphic to them hold no
    incompatible triple and are skipped wholesale. Within a conflicting
    component the search walks candidate anchors deepest-first, which
    guarantees minimality; remaining ties break lexicographically on taxon
    names so runs are reproducible. Nothing is tabulated per tree: memory
    stays linear in the size of the largest component.

    ``memo``, when given, maps components (by identity) to what an earlier
    call found for them in ``t_i``: None when clean, else their minimal
    triple and their ``lca_map`` into ``t_i``, which ``locate_cuts`` reuses.
    Components and trees are immutable, so a verdict holds as long as its
    component is in the forest; this call reads and extends it.
    """
    if memo is None:
        memo = {}
    best = None
    for ci, comp in enumerate(f.components):
        if comp.n_leaves < 3:
            continue
        if comp not in memo:
            memo[comp] = None
            if restricted_canonical(t_i, comp.leaf_labels) != comp.canonical():
                memo[comp] = _deepest_conflict(comp, ci, t_i)
        hit = memo[comp]
        if hit is not None and (best is None or hit[0].taxa_key() < best.taxa_key()):
            best = replace(hit[0], host=ci)
    return best


def _deepest_conflict(comp: PhyloTree, host: int, t_i: PhyloTree) -> tuple:
    """Minimal incompatible triple of a component known to conflict, with
    the component's ``lca_map`` into ``t_i`` that found it.

    Anchors (outer, cherry, other) — a cherry node inside one child of outer,
    other the other child — are scanned in decreasing (depth(outer),
    depth(cherry)) order, built one outer depth at a time so memory stays
    O(n). An anchor holds a conflict iff some node of other's subtree has its
    m below m(cherry) (module docstring; an internal node's m lies there only
    if its taxa do), found by bisecting that subtree's sorted m values. The
    first level with a conflict is enumerated with one LCA per pair (a, b),
    keeping the lexicographically least triple. Nothing at that level can be
    preceded by a triple from a shallower level, so the result is minimal.
    """
    depths = comp.depths
    children = comp.children
    sizes = comp.sizes
    t_sizes = t_i.sizes
    m = lca_map(comp, t_i)

    def taxa(u: int) -> list:
        return [(comp.labels[x], m[x]) for x in range(u, u + sizes[u]) if not children[x]]

    outers_at: list = [[] for _ in range(max(depths) + 1)]
    for u in range(comp.n_nodes):
        if children[u]:
            outers_at[depths[u]].append(u)

    best = None
    for outers in reversed(outers_at):
        anchors, spans = [], {}
        for outer in outers:
            ks = children[outer]
            for top, other in (ks, ks[::-1]):
                if children[top]:
                    spans[other] = sorted(m[other : other + sizes[other]])
                for cherry in range(top, top + sizes[top]):
                    if children[cherry]:
                        anchors.append((-depths[cherry], outer, cherry, other))
        anchors.sort()
        level = None
        for novd, outer, cherry, other in anchors:
            if best is not None and novd != level:
                break
            ps = spans[other]
            i = bisect_left(ps, m[cherry])
            if i == len(ps) or not below(t_i, ps[i], m[cherry]):
                continue
            level = novd
            outside = taxa(other)
            left, right = children[cherry]
            for a, pa in taxa(left):
                for b, pb in taxa(right):
                    y = _lca2(t_i, pa, pb)
                    y_hi = y + t_sizes[y]
                    c = min((x for x, px in outside if y <= px < y_hi), default=None)
                    if c is not None:
                        cand = ((a, b, c) if a <= b else (b, a, c), outer, cherry)
                        best = cand if best is None else min(best, cand)
        if best is not None:
            (a, b, c), outer, cherry = best
            tr = Triple(a=a, b=b, c=c, host=host, cherry_lca=cherry, triple_lca=outer)
            return tr, m
    raise AssertionError("component conflicts but no incompatible triple found")


def locate_cuts(f: Forest, tr: Triple, t_i: PhyloTree, memo=None) -> TripleCuts:
    """The cut edges around a minimal incompatible triple.

    ``edge_c`` is chosen by walking from the triple ancestor toward c and
    taking the first edge below which every other taxon c' still pairs with
    c against both a and b in ``t_i`` (inside the host component this holds
    by construction, since everything below that edge is on c's side of the
    triple ancestor). The LCAs of c with each such c' all lie on c's root
    path in ``t_i``, the highest being m(node), so the condition holds iff
    neither a nor b is below m(node): one interval test per step. The walk
    always terminates: the parent edge of leaf c satisfies the condition
    vacuously.

    ``memo`` is ``find_incompatible``'s for ``t_i``; the host's map m is
    read from it when the search that found ``tr`` stored one.
    """
    comp = f.components[tr.host]
    if _resolves(t_i, tr.a, tr.b, tr.c):
        raise ValueError(f"triple {tr} is not incompatible with this tree")

    c_node = comp.label_node[tr.c]

    def child_toward(u: int, target: int) -> int:
        for k in comp.children[u]:
            if below(comp, target, k):
                return k
        raise AssertionError("target not below node")

    edge_a = child_toward(tr.cherry_lca, comp.label_node[tr.a])
    edge_b = [k for k in comp.children[tr.cherry_lca] if k != edge_a][0]
    edge_cherry = child_toward(tr.triple_lca, tr.cherry_lca)

    hit = memo.get(comp) if memo else None
    m = hit[1] if hit else lca_map(comp, t_i)
    pa, pb = t_i.label_node[tr.a], t_i.label_node[tr.b]
    node = child_toward(tr.triple_lca, c_node)
    while below(t_i, pa, m[node]) or below(t_i, pb, m[node]):
        node = child_toward(node, c_node)

    return TripleCuts(
        host=tr.host,
        edge_a=edge_a,
        edge_b=edge_b,
        edge_c=node,
        edge_cherry=edge_cherry,
    )
