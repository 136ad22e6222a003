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
Longer cycles can in principle survive the pairwise loop, so acyclicity is
checked again afterwards and any remaining cycle is broken with the same
two-edge rule applied to an adjacent pair on it, after which the queue
resumes. Each round removes at least two edges, so the whole process is
bounded by the size of the first tree; a cut that removes none is an error.

Either child edge of a root detaches the same two clades, so every cycle cut
names the left child, node 1 under preorder ids. On an agreement forest that
is also the edge of the rule "cut the side tangled in the cycle": the first
child whose clade's lca, in a tree where the partner dominates the component,
is at or below the partner's mapped root, else the first child.

- In a tree where y dominates x, both of x's child clades have their lca at
  or below x's mapped root, strictly below y's: the first child qualifies.
  A 2-cycle gives each of its two components such a tree, the other as y.
- The long-cycle fallback has a tree where x dominates y and, every settled
  pair having been checked, none where y dominates x. There a child clade of
  x with its lca at or below y's mapped root would put that root on x's
  embedding, overlapping y, so no side qualifies and the rule falls back to
  the first child. For y, that tree is the first case again.

Neither loop scans all pairs of components. A queued root x is tested only
against the settled components whose mapped root is a strict ancestor of
x's in some tree, found by walking up from x's mapped root in each tree
through an index of settled components by mapped root (mapped roots of an
agreement forest are distinct). A 2-cycle needs y to dominate x in some
tree, so every other settled y gives no witness; trying the candidates in
settling order therefore hits the same y first as trying every settled
component in order did. ``build_gf`` finds the nested pairs of one tree by
sorting the mapped roots by preorder id and keeping a stack of those whose
subtree holds the current one.

Each component's mapped roots are found once. Those of the forest handed in
come from its agreement check, whose sweep closes each component at its
root (``agreement_roots``); only the four pieces of each cycle cut go
through ``mapped_roots``. Acyclicity is decided on entry and after each
round without the transitive digraph (``_acyclic``): the same stack sweep
links each mapped root to its nearest mapped strict ancestor only, and those
at most k * m cover edges have the same reachability, so Kahn's algorithm
peels every component iff the digraph is acyclic. A forest acyclic on entry
is returned at once. The digraph and ``find_cycle`` run only on a cycle that
survived the pairwise loop, to pick it and its witness tree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count

from .forest import Forest, agreement_roots
from .maf import CutEntry, CutSet, _cut, maf_approx
from .tree import PhyloTree, lca


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
    and therefore never dominates anything. For a whole agreement forest,
    ``forest.agreement_roots`` finds the same nodes in one sweep per tree."""
    return [lca(t, comp.label_node) for t in trees]


def build_gf(f: Forest, trees, validate: bool = True) -> ForestDigraph:
    """The ancestry digraph of ``f`` over the input trees.

    Each tree takes one pass over the mapped roots in preorder, O(m log m)
    plus one step per edge; ancestor tests run on preorder id ranges. With
    ``validate`` (the default), raises ValueError when ``f`` is not an
    agreement forest of the trees — mapped roots of distinct components are
    only guaranteed distinct in that case — and takes the mapped roots from
    that check's sweep.
    """
    if validate:
        roots = agreement_roots(f, trees)
        if roots is None:
            raise ValueError("not an agreement forest of the given trees")
    else:
        roots = [mapped_roots(comp, trees) for comp in f.components]
    return _digraph(roots, trees)


def _digraph(roots, trees) -> ForestDigraph:
    """``build_gf`` on the components' ``mapped_roots``, given in order."""
    m = len(roots)
    edges: dict = {}
    for ti, t in enumerate(trees):
        size = t.sizes
        # in preorder every ancestor comes first; the stack holds the
        # components whose mapped root is at or above the current one, with
        # the end of that root's id range
        stack: list = []
        for r, j in sorted((roots[j][ti], j) for j in range(m)):
            while stack and r >= stack[-1][2]:
                stack.pop()
            for ri, i, _ in stack:
                if ri != r:
                    edges.setdefault((i, j), []).append(ti)
            stack.append((r, j, r + size[r]))
    # pop as we go, so the witness lists and their tuples never all coexist
    return ForestDigraph(m, {key: tuple(edges.pop(key)) for key in sorted(edges)})


def _acyclic(roots, trees) -> bool:
    """``is_acyclic(_digraph(roots, trees))`` without the transitive edges.

    The mapped roots must be distinct in each tree, as an agreement forest's
    are. In each tree, every component gets one cover edge from the
    component whose mapped root is its nearest strict ancestor among the
    mapped roots. An edge of the digraph joins a root to one strictly below
    it, which is a path of cover edges in that tree, so both digraphs have
    the same reachability and one has a cycle iff the other does. Kahn's
    algorithm then peels the at most k * m cover edges.
    """
    m = len(roots)
    succ: list = [[] for _ in range(m)]
    indeg = [0] * m
    for ti, t in enumerate(trees):
        size = t.sizes
        stack: list = []  # (end of the root's id range, component)
        for r, j in sorted((roots[j][ti], j) for j in range(m)):
            while stack and r >= stack[-1][0]:
                stack.pop()
            if stack:
                succ[stack[-1][1]].append(j)
                indeg[j] += 1
            stack.append((r + size[r], j))
    peeled = [j for j in range(m) if not indeg[j]]
    for i in peeled:  # grows while it is read
        for j in succ[i]:
            indeg[j] -= 1
            if not indeg[j]:
                peeled.append(j)
    return len(peeled) == m


def is_acyclic(g: ForestDigraph) -> bool:
    return find_cycle(g) is None


def find_cycle(g: ForestDigraph):
    """Some directed cycle as a vertex list (closed implicitly), or None."""
    succ: dict = {}
    for (i, j) in sorted(g.edges):
        succ.setdefault(i, []).append(j)
    color = [0] * g.n_vertices  # 0 unseen, 1 on stack, 2 done
    for start in range(g.n_vertices):
        if color[start]:
            continue
        stack = [(start, iter(succ.get(start, ())))]
        color[start] = 1
        while stack:
            v, it = stack[-1]
            for j in it:
                if color[j] == 0:
                    color[j] = 1
                    stack.append((j, iter(succ.get(j, ()))))
                    break
                if color[j] == 1:
                    path = [u for u, _ in stack]
                    return path[path.index(j) :]
            else:
                color[v] = 2
                stack.pop()
    return None


def _two_cycle_witness(roots_x, roots_y, trees):
    """First tree where x dominates y, or None unless y also dominates x in
    some tree."""
    forward, backward = None, False
    for ti, t in enumerate(trees):
        rx, ry = roots_x[ti], roots_y[ti]
        if rx == ry:
            continue
        size = t.sizes
        if forward is None and rx < ry < rx + size[rx]:
            forward = ti
        backward = backward or ry < rx < ry + size[ry]
    return forward if backward else None


def maaf_approx(f: Forest, trees) -> tuple:
    """Cut cycles out of an agreement forest; returns the acyclic forest and
    the log of cycle cuts.

    Root queue order is component creation order (FIFO); the pieces of a cut
    pair enter the queue with the dominated-in-second-place component's
    pieces after the first's. Raises ValueError unless ``f`` is an agreement
    forest of the trees.
    """
    found = agreement_roots(f, trees)
    if found is None:
        raise ValueError("not an agreement forest of the given trees")

    work = list(f.components)
    cuts = CutSet()
    # keyed by component object (identity); trees are immutable values
    roots: dict = dict(zip(work, found))
    pending = deque(work)
    # settled components: their rank in settling order, and per input tree
    # the one settled at each mapped root
    rank: dict = {}
    by_root: list = [{} for _ in trees]
    ticket = count()

    def settle(c):
        rank[c] = next(ticket)
        for ti, r in enumerate(roots[c]):
            by_root[ti][r] = c

    def unsettle(c):
        del rank[c]
        for ti, r in enumerate(roots[c]):
            del by_root[ti][r]

    def dominating(x):
        """Settled components whose mapped root is a strict ancestor of
        x's in some tree, in settling order."""
        found = set()
        for ti, t in enumerate(trees):
            settled_at, par = by_root[ti], t.parent
            u = par[roots[x][ti]]
            while u >= 0:
                if u in settled_at:
                    found.add(settled_at[u])
                u = par[u]
        return sorted(found, key=rank.__getitem__)

    def split_pair(x, y, t_xy: int):
        """Cut the left root child edge of x and of y; queue the pieces."""
        xi, yi = work.index(x), work.index(y)
        edges = ((xi, 1), (yi, 1))
        work[:] = _cut(Forest(tuple(work), f.origin_labels), edges).components
        del roots[x], roots[y]
        # each root cut leaves two pieces in place, so the later pair shifts by one
        for at in (xi + (xi > yi), yi + (yi > xi)):
            for piece in work[at : at + 2]:
                roots[piece] = mapped_roots(piece, trees)
                pending.append(piece)
        cuts.entries.append(
            CutEntry("cycle", t_xy, edges, f"cycle between components {xi} and {yi}")
        )

    while not _acyclic([roots[c] for c in work], trees):
        if not pending:
            # every root was settled, so a cycle longer than 2 survived the
            # pairwise loop: break one adjacent pair on it with the same
            # two-edge rule and resume
            g = _digraph([roots[c] for c in work], trees)
            i, j = find_cycle(g)[:2]
            t_xy = g.edges[(i, j)][0]
            del g  # the largest object of a round; keep it out of the next
            x, y = work[i], work[j]
            for c in work:
                if c is not x and c is not y:
                    settle(c)
            split_pair(x, y, t_xy)

        while pending:
            x = pending.popleft()
            for y in dominating(x):
                t_xy = _two_cycle_witness(roots[x], roots[y], trees)
                if t_xy is not None:
                    unsettle(y)
                    split_pair(x, y, t_xy)
                    break
            else:
                settle(x)
        # every root is settled now; the index is rebuilt above if a long
        # cycle needs the loop again, and meanwhile it is not kept alive
        rank.clear()
        for settled_at in by_root:
            settled_at.clear()
    return Forest(tuple(work), f.origin_labels), cuts


def hybridization_upper_bound(trees) -> int:
    """Upper bound on the hybridization number of the input trees: size of
    the approximate acyclic agreement forest minus one."""
    trees = list(trees)
    forest, _ = maf_approx(trees)
    acyclic_forest, _ = maaf_approx(forest, trees)
    return acyclic_forest.size - 1
