"""Reference acyclicity code: the original Kahn queue, the pairwise
``build_gf`` and the ``maaf_approx`` that scans every settled component.

The Kahn queue peels off vertices of in-degree zero until none is left; the
digraph is acyclic exactly when every vertex gets peeled. ``build_gf`` tests
every ordered pair of components in every tree, and ``maaf_approx`` tries
each queued root against every settled one, both O(k * m^2) for m
components. They are kept only so that ``mafkit.maaf`` (a ``find_cycle``
call, a stack sweep over sorted mapped roots, and ancestor-walk candidates)
can be differential-tested against them.
"""

from __future__ import annotations

from collections import deque

from mafkit.forest import Forest
from mafkit.maaf import ForestDigraph, _two_cycle_witness, find_cycle, mapped_roots
from mafkit.maf import CutEntry, CutSet, _cut
from mafkit.tree import below

from reference_forest import is_agreement_forest


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

    def split_pair(x, y, t_xy: int):
        """Cut the left root child edge of x and of y; queue the pieces."""
        xi, yi = work.index(x), work.index(y)
        edges = ((xi, 1), (yi, 1))
        work[:] = _cut(Forest(tuple(work), f.origin_labels), edges).components
        # each root cut leaves two pieces in place, so the later pair shifts by one
        for at in (xi + (xi > yi), yi + (yi > xi)):
            for piece in work[at : at + 2]:
                roots[piece] = mapped_roots(piece, trees)
                pending.append(piece)
        cuts.entries.append(
            CutEntry("cycle", t_xy, edges, f"cycle between components {xi} and {yi}")
        )

    while True:
        while pending:
            x = pending.popleft()
            for y in settled:
                t_xy = _two_cycle_witness(roots[x], roots[y], trees)
                if t_xy is not None:
                    settled.remove(y)
                    split_pair(x, y, t_xy)
                    break
            else:
                settled.append(x)

        result = Forest(tuple(work), f.origin_labels)
        g = build_gf(result, trees, validate=False)
        cycle = find_cycle(g)
        if cycle is None:
            return result, cuts
        # a cycle longer than 2 survived the pairwise loop: break one
        # adjacent pair on it with the same two-edge rule and resume
        i, j = cycle[0], cycle[1]
        x, y = work[i], work[j]
        settled = [c for c in work if c is not x and c is not y]
        split_pair(x, y, g.edges[(i, j)][0])
