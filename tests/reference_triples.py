"""Reference triple search: the original pairwise-table implementation.

Resolves every triple through an O(n^2) table of pairwise LCA depths and
probes every (a, b, c) at every anchor level. It is far too slow and too
large for real inputs, and is kept only so the interval/LCA search in
``mafkit.triples`` can be differential-tested against it.

Also here: ``triple_of`` and ``triple_less``, the paper's vocabulary for
resolving three taxa and ordering triples by their anchors, which only the
tests use.
"""

from __future__ import annotations

import functools

from mafkit import Forest, PhyloTree
from mafkit.tree import below, lca, restricted_canonical
from mafkit.triples import Triple, TripleCuts, _resolves

from helpers import canonical


def _below_table(t: PhyloTree) -> list:
    """Per node, the taxon names at or below it, in preorder."""
    table = [None] * t.n_nodes
    for u in range(t.n_nodes - 1, -1, -1):
        ks = t.children[u]
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
        depths = t.depths
        below = _below_table(t)
        for u in range(t.n_nodes):
            ks = t.children[u]
            if not ks:
                continue
            du = depths[u]
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
    depths = comp.depths
    below = _below_table(comp)
    children = comp.children
    sizes = comp.sizes

    anchor_pairs = []
    for outer in range(comp.n_nodes):
        ks = children[outer]
        if not ks:
            continue
        for side in (0, 1):
            top = ks[side]
            other = ks[1 - side]
            for cherry in range(top, top + sizes[top]):
                if children[cherry]:
                    anchor_pairs.append(
                        (-depths[outer], -depths[cherry], outer, cherry, other)
                    )
    anchor_pairs.sort()

    found: list[tuple] = []
    level = None
    for noud, novd, outer, cherry, other in anchor_pairs:
        if found and (noud, novd) != level:
            break
        level = (noud, novd)
        outlier = resolver.outlier
        for a in below[children[cherry][0]]:
            for b in below[children[cherry][1]]:
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

    def child_toward(u: int, target: int) -> int:
        for k in comp.children[u]:
            if k <= target < k + sizes[k]:
                return k
        raise AssertionError("target not below node")

    edge_a = child_toward(tr.cherry_lca, a_node)
    edge_b = [k for k in comp.children[tr.cherry_lca] if k != edge_a][0]
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
