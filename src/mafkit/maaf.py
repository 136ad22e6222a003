"""Acyclic agreement forests and the hybridization-number bound.

An agreement forest induces a digraph on its components: map each
component's root into an input tree (the ancestor of the component's taxa
there) and draw an edge whenever one mapped root is a strict ancestor of
another in some tree. Two components can dominate each other in different
trees, producing a 2-cycle; an acyclic forest is one whose digraph has no
directed cycle at all.

Cycles are removed root by root: every component root starts unprocessed;
a root that 2-cycles with an already-processed root triggers one child-edge
cut at each of the two roots (splitting both components at their top), and
the four pieces go back in the queue. Splitting a component at its root
keeps the forest an agreement forest: the two child clades embed into
disjoint regions strictly below the component's mapped root in every tree.
Longer cycles can in principle survive the pairwise loop, so the digraph is
rebuilt afterwards and any remaining cycle is broken with the same two-edge
rule applied to an adjacent pair on it, after which the queue resumes. Each
round removes at least two edges, so the whole process is bounded by the
size of the first tree; a cut that removes none is an error.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .forest import Forest, is_agreement_forest
from .maf import CutEntry, CutSet, _cut, maf_approx
from .tree import PhyloTree, below, lca, lca_map


@dataclass
class ForestDigraph:
    """Component-level ancestry digraph of an agreement forest.

    ``edges`` maps (i, j) to the sorted tuple of input-tree indices in which
    component i's mapped root strictly dominates component j's.
    """

    n_vertices: int
    edges: dict


def mapped_roots(comp: PhyloTree, trees) -> list:
    """For each input tree, the node its Steiner embedding of ``comp`` hangs
    from: the ancestor of the component's taxa. A singleton maps to its leaf
    and therefore never dominates anything."""
    return [lca(t, comp.leaf_labels) for t in trees]


def build_gf(f: Forest, trees, validate: bool = True) -> ForestDigraph:
    """The ancestry digraph of ``f`` over the input trees.

    Ancestor tests run on preorder id ranges. With ``validate`` (the
    default), raises ValueError when ``f`` is not an agreement forest of the
    trees — mapped roots of distinct components are only guaranteed distinct
    in that case.
    """
    if validate and not is_agreement_forest(f, trees):
        raise ValueError("not an agreement forest of the given trees")
    roots = [mapped_roots(comp, trees) for comp in f.components]
    m = f.size
    edges: dict = {}
    for ti, t in enumerate(trees):
        for i in range(m):
            ri = roots[i][ti]
            for j in range(m):
                rj = roots[j][ti]
                if ri != rj and below(t, rj, ri):
                    edges.setdefault((i, j), []).append(ti)
    return ForestDigraph(m, {k: tuple(v) for k, v in sorted(edges.items())})


def is_acyclic(g: ForestDigraph) -> bool:
    indeg = [0] * g.n_vertices
    for (_, j) in g.edges:
        indeg[j] += 1
    queue = deque(v for v in range(g.n_vertices) if indeg[v] == 0)
    done = 0
    succ: dict = {}
    for (i, j) in g.edges:
        succ.setdefault(i, []).append(j)
    while queue:
        v = queue.popleft()
        done += 1
        for j in succ.get(v, ()):
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    return done == g.n_vertices


def find_cycle(g: ForestDigraph):
    """Some directed cycle as a vertex list (closed implicitly), or None."""
    succ: dict = {}
    for (i, j) in sorted(g.edges):
        succ.setdefault(i, []).append(j)
    color = [0] * g.n_vertices  # 0 unseen, 1 on stack, 2 done
    parent: dict = {}
    for start in range(g.n_vertices):
        if color[start]:
            continue
        stack = [(start, iter(succ.get(start, ())))]
        color[start] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for j in it:
                if color[j] == 0:
                    color[j] = 1
                    parent[j] = v
                    stack.append((j, iter(succ.get(j, ()))))
                    advanced = True
                    break
                if color[j] == 1:
                    cycle = [v]
                    while cycle[-1] != j:
                        cycle.append(parent[cycle[-1]])
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[v] = 2
                stack.pop()
        parent.clear()
    return None


def _two_cycle_witness(roots_x, roots_y, trees):
    """(tree where x dominates y, tree where y dominates x), or None."""
    forward = backward = None
    for ti, t in enumerate(trees):
        rx, ry = roots_x[ti], roots_y[ti]
        if forward is None and rx != ry and below(t, ry, rx):
            forward = ti
        if backward is None and rx != ry and below(t, rx, ry):
            backward = ti
    if forward is None or backward is None:
        return None
    return forward, backward


def _cycle_cut_edge(comp: PhyloTree, partner: PhyloTree, witness: PhyloTree) -> int:
    """Child edge of the component's root to delete.

    Prefer the side whose own mapped root, in the tree where the partner
    dominates this component, falls inside the partner's span — the side
    actually tangled in the cycle; the left child when both sides do. The
    resulting pieces are the two child clades either way, so the choice only
    affects which edge the log names.
    """
    ks = comp.children[comp.root]
    if not ks:
        raise ValueError("cannot cut a single-leaf component")
    partner_root = lca(witness, partner.leaf_labels)
    m = lca_map(comp, witness)
    for child in ks:
        if below(witness, m[child], partner_root):
            return child
    return ks[0]


def maaf_approx(f: Forest, trees) -> tuple:
    """Cut cycles out of an agreement forest; returns the acyclic forest and
    the log of cycle cuts.

    Root queue order is component creation order (FIFO); the pieces of a cut
    pair enter the queue with the dominated-in-second-place component's
    pieces after the first's. Raises ValueError unless ``f`` is an agreement
    forest of the trees.
    """
    if not is_agreement_forest(f, trees):
        raise ValueError("not an agreement forest of the given trees")

    work = list(f.components)
    cuts = CutSet()
    pending = deque(work)
    settled: list = []
    # keyed by component object (identity); trees are immutable values
    roots: dict = {c: mapped_roots(c, trees) for c in work}

    def split_pair(x, y, t_xy: int, t_yx: int):
        """Cut one root child edge in each of x and y; queue the pieces."""
        xi = next(i for i, c in enumerate(work) if c is x)
        yi = next(i for i, c in enumerate(work) if c is y)
        ex = _cycle_cut_edge(x, y, trees[t_yx])
        ey = _cycle_cut_edge(y, x, trees[t_xy])
        edges = ((xi, ex), (yi, ey))
        snapshot = _cut(Forest(tuple(work), f.origin_labels), edges)
        lo, hi = (xi, yi) if xi < yi else (yi, xi)
        # each root cut yields exactly two labeled pieces, in place
        pieces_lo = snapshot.components[lo : lo + 2]
        pieces_hi = snapshot.components[hi + 1 : hi + 3]
        first, second = (pieces_lo, pieces_hi) if xi < yi else (pieces_hi, pieces_lo)
        work[:] = list(snapshot.components)
        for piece in (*first, *second):
            roots[piece] = mapped_roots(piece, trees)
            pending.append(piece)
        cuts.entries.append(
            CutEntry("cycle", t_xy, edges, f"cycle between components {xi} and {yi}")
        )

    while True:
        while pending:
            x = pending.popleft()
            partner = None
            for y in settled:
                w = _two_cycle_witness(roots[x], roots[y], trees)
                if w is not None:
                    partner = (y, w)
                    break
            if partner is None:
                settled.append(x)
                continue
            y, (t_xy, t_yx) = partner
            settled.remove(y)
            split_pair(x, y, t_xy, t_yx)

        result = Forest(tuple(work), f.origin_labels)
        g = build_gf(result, trees, validate=False)
        cycle = find_cycle(g)
        if cycle is None:
            return result, cuts
        # a cycle longer than 2 survived the pairwise loop: break one
        # adjacent pair on it with the same two-edge rule and resume
        i, j = cycle[0], cycle[1]
        x, y = work[i], work[j]
        t_xy = g.edges[(i, j)][0]
        # on a long cycle y need not dominate x anywhere; the cut rule only
        # needs a reference tree, so reuse the forward witness then
        w = _two_cycle_witness(roots[x], roots[y], trees)
        t_yx = w[1] if w is not None else t_xy
        settled = [c for c in work if c is not x and c is not y]
        split_pair(x, y, t_xy, t_yx)


def hybridization_upper_bound(trees) -> int:
    """Upper bound on the hybridization number of the input trees: size of
    the approximate acyclic agreement forest minus one."""
    trees = list(trees)
    forest, _ = maf_approx(trees)
    acyclic_forest, _ = maaf_approx(forest, trees)
    return acyclic_forest.size - 1
