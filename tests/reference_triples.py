"""Reference triple search: the original pairwise-table implementation.

Resolves every triple through an O(n^2) table of pairwise LCA depths and
probes every (a, b, c) at every anchor level. It is far too slow and too
large for real inputs, and is kept only so the interval/LCA search in
``mafkit.triples`` can be differential-tested against it.

Also here, verbatim under new names: ``realized_level_scan`` and
``deepest_conflict_level_scan``, the LCA-map search as it was before the
conflict level was read off the map: a separate cleanliness test, then a
scan of outer levels from the deepest that re-sorts every "other" subtree
per level, O(n * levels) per call.

And ``triple_of`` and ``triple_less``, the paper's vocabulary for
resolving three taxa and ordering triples by their anchors, which only the
tests use.
"""

from __future__ import annotations

import functools
from bisect import bisect_left

from mafkit import Forest, PhyloTree
from mafkit.tree import _lca2, below, lca, restricted_canonical
from mafkit.triples import Triple, TripleCuts, _resolves

from helpers import canonical, children, depths


def _below_table(t: PhyloTree) -> list:
    """Per node, the taxon names at or below it, in preorder."""
    table = [None] * t.n_nodes
    kids = children(t)
    for u in range(t.n_nodes - 1, -1, -1):
        ks = kids[u]
        if not ks:
            table[u] = (t.labels[u],)
        else:
            table[u] = table[ks[0]] + table[ks[1]]
    return table


def triple_of(t: PhyloTree, taxa) -> Triple:
    """Resolve three taxa in ``t``: returns the unique cherry-pair/outlier
    split realized there, with its anchor nodes."""
    taxa = sorted(set(taxa))
    if len(taxa) != 3:
        raise ValueError(f"need exactly 3 distinct taxa, got {taxa}")
    missing = [x for x in taxa if x not in t.label_node]
    if missing:
        raise ValueError(f"unknown taxon {missing[0]!r}")
    x, y, z = taxa
    out = z if _resolves(t, x, y, z) else y if _resolves(t, x, z, y) else x
    a, b = [v for v in taxa if v != out]
    return _make_triple(t, a, b, out, host=0)


def _make_triple(t: PhyloTree, a: str, b: str, c: str, host: int) -> Triple:
    return Triple(
        a=min(a, b),
        b=max(a, b),
        c=c,
        host=host,
        cherry_lca=lca(t, (a, b)),
        triple_lca=lca(t, (a, b, c)),
    )


def triple_less(t: PhyloTree, first: Triple, second: Triple) -> bool:
    """Partial order used to pick minimal incompatible triples: ``first``
    precedes ``second`` when second's anchors sit strictly above first's.
    Both triples must be anchored in the same component ``t``."""
    if first.host != second.host:
        return False
    if first.triple_lca != second.triple_lca:
        return below(t, first.triple_lca, second.triple_lca)
    if first.cherry_lca == second.cherry_lca:
        return False
    return below(t, first.cherry_lca, second.cherry_lca)


class _PairDepths:
    """Per-tree lookup: depth of the LCA of any two leaves, by taxon name.

    Built once per tree in O(n^2), so triple resolution inside the search
    loop is three dict probes.
    """

    __slots__ = ("depth",)

    def __init__(self, t: PhyloTree):
        d: dict = {}
        depth = depths(t)
        below = _below_table(t)
        kids = children(t)
        for u in range(t.n_nodes):
            ks = kids[u]
            if not ks:
                continue
            du = depth[u]
            for la in below[ks[0]]:
                for lb in below[ks[1]]:
                    d[(la, lb)] = du
                    d[(lb, la)] = du
        self.depth = d

    def outlier(self, a: str, b: str, c: str) -> str:
        """The taxon split off by this tree's resolution of {a, b, c}."""
        d = self.depth
        dab = d[(a, b)]
        dac = d[(a, c)]
        if dab > dac:
            return c if dab > d[(b, c)] else a
        return b if dac > d[(b, c)] else a


@functools.lru_cache(maxsize=64)
def pair_depths(t: PhyloTree) -> _PairDepths:
    return _PairDepths(t)


def find_incompatible(f: Forest, t_i: PhyloTree):
    best = None
    resolver = pair_depths(t_i)
    for ci, comp in enumerate(f.components):
        if comp.n_leaves < 3:
            continue
        if restricted_canonical(t_i, comp.leaf_labels) == canonical(comp):
            continue
        cand = _deepest_conflict(comp, ci, resolver)
        if best is None or cand.taxa_key() < best.taxa_key():
            best = cand
    return best


def _deepest_conflict(comp: PhyloTree, host: int, resolver: _PairDepths) -> Triple:
    depth = depths(comp)
    below = _below_table(comp)
    kids = children(comp)
    sizes = comp.sizes

    anchor_pairs = []
    for outer in range(comp.n_nodes):
        ks = kids[outer]
        if not ks:
            continue
        for side in (0, 1):
            top = ks[side]
            other = ks[1 - side]
            for cherry in range(top, top + sizes[top]):
                if kids[cherry]:
                    anchor_pairs.append(
                        (-depth[outer], -depth[cherry], outer, cherry, other)
                    )
    anchor_pairs.sort()

    found: list[tuple] = []
    level = None
    for noud, novd, outer, cherry, other in anchor_pairs:
        if found and (noud, novd) != level:
            break
        level = (noud, novd)
        outlier = resolver.outlier
        for a in below[kids[cherry][0]]:
            for b in below[kids[cherry][1]]:
                for c in below[other]:
                    if outlier(a, b, c) != c:
                        p, q = (a, b) if a <= b else (b, a)
                        found.append(((p, q, c), outer, cherry))
    if not found:
        raise AssertionError("component conflicts but no incompatible triple found")
    (a, b, c), outer, cherry = min(found)
    return Triple(a=a, b=b, c=c, host=host, cherry_lca=cherry, triple_lca=outer)


def locate_cuts(f: Forest, tr: Triple, t_i: PhyloTree) -> TripleCuts:
    comp = f.components[tr.host]
    resolver = pair_depths(t_i)
    if resolver.outlier(tr.a, tr.b, tr.c) == tr.c:
        raise ValueError(f"triple {tr} is not incompatible with this tree")

    below = _below_table(comp)
    sizes = comp.sizes
    a_node = comp.label_node[tr.a]
    c_node = comp.label_node[tr.c]

    kids = children(comp)

    def child_toward(u: int, target: int) -> int:
        for k in kids[u]:
            if k <= target < k + sizes[k]:
                return k
        raise AssertionError("target not below node")

    edge_a = child_toward(tr.cherry_lca, a_node)
    edge_b = [k for k in kids[tr.cherry_lca] if k != edge_a][0]
    edge_cherry = child_toward(tr.triple_lca, tr.cherry_lca)

    outlier = resolver.outlier
    node = child_toward(tr.triple_lca, c_node)
    while True:
        ok = True
        for other in below[node]:
            if other == tr.c:
                continue
            if outlier(tr.c, other, tr.a) != tr.a or outlier(tr.c, other, tr.b) != tr.b:
                ok = False
                break
        if ok:
            break
        node = child_toward(node, c_node)
    edge_c = node

    return TripleCuts(
        edge_a=edge_a,
        edge_b=edge_b,
        edge_c=edge_c,
        edge_cherry=edge_cherry,
    )


def realized_level_scan(comp: PhyloTree, m: list) -> bool:
    """True iff ``comp`` is isomorphic to ``t_i`` restricted to its taxa,
    given its ``lca_map`` m into ``t_i``: no internal node shares its image
    with a child (module docstring)."""
    for v, ks in enumerate(children(comp)):
        if ks and (m[v] == m[ks[0]] or m[v] == m[ks[1]]):
            return False
    return True


def deepest_conflict_level_scan(comp: PhyloTree, host: int, t_i: PhyloTree, m: list) -> tuple:
    """Minimal incompatible triple of a component known to conflict, with
    m, the component's ``lca_map`` into ``t_i``, that found it.

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
    depth = depths(comp)
    kids = children(comp)
    sizes = comp.sizes
    t_sizes = t_i.sizes

    def taxa(u: int) -> list:
        return [(comp.labels[x], m[x]) for x in range(u, u + sizes[u]) if not kids[x]]

    outers_at: list = [[] for _ in range(max(depth) + 1)]
    for u in range(comp.n_nodes):
        if kids[u]:
            outers_at[depth[u]].append(u)

    best = None
    for outers in reversed(outers_at):
        anchors, spans = [], {}
        for outer in outers:
            ks = kids[outer]
            for top, other in (ks, ks[::-1]):
                if kids[top]:
                    spans[other] = sorted(m[other : other + sizes[other]])
                for cherry in range(top, top + sizes[top]):
                    if kids[cherry]:
                        anchors.append((-depth[cherry], outer, cherry, other))
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
            left, right = kids[cherry]
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
