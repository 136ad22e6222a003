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

The same map finds the outer level of a minimal triple without a search.
Take an anchor (o, cherry, other): cherry an internal node inside one child
top of o, other the other child. If it conflicts, some leaf of other lies
inside m(cherry)'s interval, so inside m(top)'s, and also inside m(other)'s.
Preorder intervals are laminar, so the two images nest, and m(o), their
lca, is the higher one: m(o) equals m of a child. Conversely, if
m(o) = m(w) for a child w, then w is internal, because a leaf is the lca of
no other taxa, and the anchor (o, cherry = w, other = w's sibling)
conflicts: all of the sibling's taxa lie below m(w). So the deepest outers
with a conflicting anchor are the deepest nodes o whose m equals a child's,
at some depth D*: a scan of outer levels from the deepest would stop at
D*, and the outers at D* that fail the test add no conflicting anchor.
With no such node no triple conflicts, and since a rooted binary tree is
determined by its triples, the component is then isomorphic to t_i
restricted to its taxa. The test is O(|component|), where restricting t_i
costs O(|t_i|).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace

from .forest import Forest
from .tree import PhyloTree, _lca2, below, lca_map

_UNSEEN = object()  # a ``find_incompatible`` memo miss


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

    Each component's ``lca_map`` m into ``t_i`` is built once and handed to
    ``_deepest_conflict``, which finds the component clean or returns its
    minimal triple from the deepest outer level that holds a conflict;
    ties between components break lexicographically on taxon names so runs
    are reproducible. Nothing is tabulated per tree: memory stays linear in
    the size of the largest component.

    ``memo``, when given, maps components (by identity) to what an earlier
    call found for them in ``t_i``: None when clean (leaves and cherries
    are, on first sight), else their minimal triple and their ``lca_map``
    into ``t_i``, which ``locate_cuts`` reuses. So a component costs one
    dict lookup per call once it has been seen.
    Components and trees are immutable, so a verdict holds as long as its
    component is in the forest; this call reads and extends it.
    """
    if memo is None:
        memo = {}
    best = None
    for ci, comp in enumerate(f.components):
        hit = memo.get(comp, _UNSEEN)
        if hit is _UNSEEN:
            if len(comp.parent) < 5:  # a leaf or a cherry holds no triple
                hit = None
            else:
                hit = _deepest_conflict(comp, ci, t_i, lca_map(comp, t_i))
            memo[comp] = hit
        if hit is not None and (best is None or hit[0].taxa_key() < best.taxa_key()):
            best = replace(hit[0], host=ci)
    return best


def _deepest_conflict(comp: PhyloTree, host: int, t_i: PhyloTree, m: list):
    """Minimal incompatible triple of a component and m, its ``lca_map``
    into ``t_i``, or None when the component is realized identically there.

    An outer node holds a conflicting anchor iff its m equals m of a child
    (module docstring), so the conflict level is the greatest depth D* of
    such an outer, and there is none iff the component is clean. Anchors
    (outer, cherry, other) — outer one of those nodes at D*, a cherry node
    inside one child of outer, other the other child — are taken in
    decreasing depth(cherry). An anchor holds a conflict iff some node of
    other's subtree has its m below m(cherry) (an internal node's m lies
    there only if its taxa do), found by bisecting that subtree's sorted m
    values. The deepest conflicting cherry depth is enumerated with one LCA
    per pair (a, b), keeping the lexicographically least triple. Nothing
    there can be preceded by a triple from a shallower anchor, so the
    result is minimal.

    Depths are counted only once the component is known to conflict; it
    then stays in ``find_incompatible``'s memo until it is cut, so that
    pass runs at most once per component and tree.
    """
    par = comp.parent
    outers = {par[v] for v in range(1, len(par)) if m[v] == m[par[v]]}
    if not outers:
        return None
    depths = [0] * len(par)
    for u in range(1, len(par)):
        depths[u] = depths[par[u]] + 1
    labels = comp.labels
    sizes = comp.sizes
    t_sizes = t_i.sizes
    deepest = max(depths[u] for u in outers)

    def taxa(u: int) -> list:
        return [(labels[x], m[x]) for x in range(u, u + sizes[u]) if labels[x] is not None]

    anchors, spans = [], {}
    for outer in outers:
        if depths[outer] != deepest:
            continue
        left = outer + 1
        right = left + sizes[left]
        for top, other in ((left, right), (right, left)):
            if labels[top] is None:
                spans[other] = sorted(m[other : other + sizes[other]])
            for cherry in range(top, top + sizes[top]):
                if labels[cherry] is None:
                    anchors.append((-depths[cherry], outer, cherry, other))
    anchors.sort()
    best = level = None
    for novd, outer, cherry, other in anchors:
        if best is not None and novd != level:
            break
        ps = spans[other]
        i = bisect_left(ps, m[cherry])
        if i == len(ps) or not below(t_i, ps[i], m[cherry]):
            continue
        level = novd
        outside = taxa(other)
        left = cherry + 1
        for a, pa in taxa(left):
            for b, pb in taxa(left + sizes[left]):
                y = _lca2(t_i, pa, pb)
                y_hi = y + t_sizes[y]
                c = min((x for x, px in outside if y <= px < y_hi), default=None)
                if c is not None:
                    cand = ((a, b, c) if a <= b else (b, a, c), outer, cherry)
                    best = cand if best is None else min(best, cand)
    if best is None:
        raise AssertionError("component conflicts but no incompatible triple found")
    (a, b, c), outer, cherry = best
    return Triple(a=a, b=b, c=c, host=host, cherry_lca=cherry, triple_lca=outer), m


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

    c_node = comp.labels.index(tr.c)
    sizes = comp.sizes

    def child_toward(u: int, target: int) -> int:
        if not u < target < u + sizes[u]:
            raise AssertionError("target not below node")
        left = u + 1
        return left if target < left + sizes[left] else left + sizes[left]

    edge_a = child_toward(tr.cherry_lca, comp.labels.index(tr.a))
    left = tr.cherry_lca + 1
    edge_b = left + sizes[left] if edge_a == left else left
    edge_cherry = child_toward(tr.triple_lca, tr.cherry_lca)

    hit = memo.get(comp) if memo else None
    m = hit[1] if hit else lca_map(comp, t_i)
    pa, pb = t_i.label_node[tr.a], t_i.label_node[tr.b]
    node = child_toward(tr.triple_lca, c_node)
    while below(t_i, pa, m[node]) or below(t_i, pb, m[node]):
        node = child_toward(node, c_node)

    return TripleCuts(
        edge_a=edge_a,
        edge_b=edge_b,
        edge_c=node,
        edge_cherry=edge_cherry,
    )
