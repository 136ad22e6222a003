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

Neither loop scans all pairs of components, and neither looks at a single
leaf. A single-leaf component maps to its leaf in every tree, so no mapped
root lies strictly below its own: it dominates nothing and is a sink of the
digraph. It is never the x of a 2-cycle and never a dominating y, so a
queued single leaf is dropped, neither tested nor settled, and each round
works on the list of components with two or more leaves only. A queued
root x is tested only against the settled components whose mapped root is
a strict ancestor of x's in some tree, found by walking up from x's mapped
root in each tree through one index, emptied only for a long cycle, of
settled components and their settling rank by mapped root (mapped roots of
an agreement forest are distinct, so a cut pair takes out its own entries
and no others). A 2-cycle needs y to dominate x in some tree, so every other
settled y gives no witness; trying the candidates in settling order
therefore hits the same y first as trying every settled component in order
did, and the witness only has to find a tree where x dominates y.

Each component's mapped roots are found once. Those of the forest handed in
come from its agreement check (``agreement_roots``): one string-free sweep
per tree merges sibling nodes of each component on node ids and closes the
component at its lca. Only the four pieces of each cycle cut go through
``mapped_roots``. One sweep per tree (``_nesting``) sorts the mapped roots
by preorder id and keeps a stack of those whose subtree holds the current
one. ``build_gf`` reads every nested pair off it; ``_acyclic``, which
decides acyclicity on entry and after each round, links each mapped root to
its nearest mapped strict ancestor only, and those at most k * m cover
edges have the same reachability, so Kahn's algorithm peels every component
iff the digraph is acyclic. A forest acyclic on entry is returned at once.
The digraph and ``find_cycle`` run only on a cycle that survived the
pairwise loop, to pick it and its witness tree, on the components with two
or more leaves in forest order, which are then all settled again in that
order. That picks the same cycle and witness as the digraph of the whole
forest: dropping sinks keeps every other edge, its witness trees and the
order of the other vertices, and ``find_cycle``'s search finishes a sink as
soon as it reaches it, so a sink is never on its stack when a cycle closes.
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
    trees = list(trees)
    if validate:
        roots = agreement_roots(f, trees)
        if roots is None:
            raise ValueError("not an agreement forest of the given trees")
    else:
        roots = [mapped_roots(comp, trees) for comp in f.components]
    return _digraph(roots, trees)


def _nesting(roots, t, ti: int):
    """Each component j in preorder of its mapped root r in ``t``, the input
    tree numbered ``ti``, as ``(r, j, stack)``: the stack holds
    ``(root, component, end of the root's id range)`` for the components
    whose mapped root is at or above r, outermost first. In preorder every
    ancestor comes first, so one pass over the sorted roots keeps it."""
    size = t.sizes
    stack: list = []
    for r, j in sorted((roots[j][ti], j) for j in range(len(roots))):
        while stack and r >= stack[-1][2]:
            stack.pop()
        yield r, j, stack
        stack.append((r, j, r + size[r]))


def _digraph(roots, trees) -> ForestDigraph:
    """``build_gf`` on the components' ``mapped_roots``, given in order."""
    edges: dict = {}
    for ti, t in enumerate(trees):
        for r, j, stack in _nesting(roots, t, ti):
            for ri, i, _ in stack:
                if ri != r:
                    edges.setdefault((i, j), []).append(ti)
    # pop as we go, so the witness lists and their tuples never all coexist
    return ForestDigraph(len(roots), {key: tuple(edges.pop(key)) for key in sorted(edges)})


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
        for _, j, stack in _nesting(roots, t, ti):
            if stack:
                succ[stack[-1][1]].append(j)
                indeg[j] += 1
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
    """First tree where x dominates y, or None. The caller has y dominating
    x in some tree, so a tree found here closes a 2-cycle."""
    for ti, t in enumerate(trees):
        rx = roots_x[ti]
        if rx < roots_y[ti] < rx + t.sizes[rx]:
            return ti
    return None


def maaf_approx(f: Forest, trees) -> tuple:
    """Cut cycles out of an agreement forest; returns the acyclic forest and
    the log of cycle cuts.

    Root queue order is component creation order (FIFO); the pieces of a cut
    pair enter the queue with the dominated-in-second-place component's
    pieces after the first's. Raises ValueError unless ``f`` is an agreement
    forest of the trees.
    """
    trees = list(trees)
    found = agreement_roots(f, trees)
    if found is None:
        raise ValueError("not an agreement forest of the given trees")

    forest = f
    cuts = CutSet()
    # keyed by component object (identity); trees are immutable values
    roots: dict = dict(zip(f.components, found))
    pending = deque(f.components)
    # per input tree, the settled component at each mapped root, with its
    # rank in settling order
    by_root: list = [{} for _ in trees]
    ticket = count()

    def settle(c):
        entry = (next(ticket), c)
        for ti, r in enumerate(roots[c]):
            by_root[ti][r] = entry

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
        return [c for _, c in sorted(found)]

    def split_pair(x, y, t_xy: int):
        """Cut the left root child edge of x and of y; queue the pieces."""
        nonlocal forest
        xi, yi = forest.components.index(x), forest.components.index(y)
        edges = ((xi, 1), (yi, 1))
        forest = _cut(forest, edges)
        # mapped roots are distinct, so this drops x's and y's entries only
        for c in (x, y):
            for ti, r in enumerate(roots.pop(c)):
                by_root[ti].pop(r, None)
        # each root cut leaves two pieces in place, so the later pair shifts by one
        for at in (xi + (xi > yi), yi + (yi > xi)):
            for piece in forest.components[at : at + 2]:
                roots[piece] = mapped_roots(piece, trees)
                pending.append(piece)
        cuts.entries.append(
            CutEntry("cycle", t_xy, edges, f"cycle between components {xi} and {yi}")
        )

    while True:
        tangled = [c for c in forest.components if len(c.parent) > 1]
        if _acyclic([roots[c] for c in tangled], trees):
            return forest, cuts
        if not pending:
            # every tangled component is settled, so a cycle longer than 2
            # survived the pairwise loop: break one adjacent pair on it with
            # the same two-edge rule and resume, the others settled again in
            # forest order, which refills the index emptied here
            by_root = [{} for _ in trees]
            g = _digraph([roots[c] for c in tangled], trees)
            i, j = find_cycle(g)[:2]
            t_xy = g.edges[(i, j)][0]
            del g  # the largest object of a round; keep it out of the next
            for c in tangled:
                settle(c)
            split_pair(tangled[i], tangled[j], t_xy)

        while pending:
            x = pending.popleft()
            if len(x.parent) == 1:
                continue  # a single leaf dominates nothing: no 2-cycle, no candidate
            for y in dominating(x):
                t_xy = _two_cycle_witness(roots[x], roots[y], trees)
                if t_xy is not None:
                    split_pair(x, y, t_xy)
                    break
            else:
                settle(x)


def hybridization_upper_bound(trees) -> int:
    """Upper bound on the hybridization number of the input trees: size of
    the approximate acyclic agreement forest minus one."""
    trees = list(trees)
    forest, _ = maf_approx(trees)
    acyclic_forest, _ = maaf_approx(forest, trees)
    return acyclic_forest.size - 1
