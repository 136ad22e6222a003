"""Approximate maximum agreement forests on k rooted binary trees.

The working forest starts as the first input tree. Two phases of edge
cutting follow:

1. Triple phase: while some component holds a triple resolved differently by
   an input tree, take a minimal such triple and delete the three candidate
   edges around it.
2. Overlap phase: while two components embed into some input tree with a
   shared node (they are *inseparable* there), delete one edge in each
   component to shrink the shared region.

Each phase is one pass over the trees, cutting on each tree until it is
clean. Every cut only splits components, and a piece is the restriction of
the component it came from. So a piece's triples are a subset of its
parent's, and its embedding in any tree (the minimal subtree connecting its
taxa) lies inside its parent's embedding there. A tree clean of triples or
of overlaps therefore stays clean under every later cut, and a second pass
would find nothing. Each overlap search climbs every component's
embedding once on two plain lists of the tree's size and builds node sets
only for the pair it returns, so nothing is kept between searches. Every cut
strictly reduces the forest's edge count, which bounds the total number of
iterations by the size of the first tree; a cut that does not is an error.

The number of edges removed is at most three per triple iteration and two
per overlap iteration. The factor-3 bound on the number of cuts relative to
an optimal agreement forest would follow if every iteration lowered the
optimum of what is left by one. The bound is verified against the exact
search on the fixed grids of the acceptance criteria c2 and c3 only, and it
fails on two seeded ``gen`` instances outside them (n = 12, k = 2, moves = 3,
seeds 145 and 1242: 7 cut edges against an optimum of 2; ROADMAP item 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .forest import Forest, check_input_trees, cut_edges, steiner_nodes
from .tree import PhyloTree, below, lca_map
from .triples import find_incompatible, locate_cuts


@dataclass(frozen=True)
class CutEntry:
    """One iteration's worth of edge deletions.

    ``phase`` is "triple", "overlap", or "cycle"; ``tree`` indexes the input
    tree that witnessed the conflict; ``edges`` are (component index, child
    node id) pairs valid against the forest as it was when the cut was made,
    so a run can be replayed cut by cut.
    """

    phase: str
    tree: int
    edges: tuple
    witness: str


@dataclass
class CutSet:
    entries: list = field(default_factory=list)

    def count(self, phase: str) -> int:
        return sum(1 for e in self.entries if e.phase == phase)

    def edges_removed(self, phase: str | None = None) -> int:
        return sum(
            len(e.edges) for e in self.entries if phase is None or e.phase == phase
        )

    def extend(self, other: "CutSet") -> None:
        self.entries.extend(other.entries)


@dataclass(frozen=True)
class OverlapWitness:
    """Two components whose embeddings in one input tree share a node.

    ``edge_x`` / ``edge_y`` are the selected cut edges (child node ids)
    inside components ``x`` and ``y``, both chosen at a deepest shared node
    of the two embeddings in that tree.
    """

    x: int
    y: int
    edge_x: int
    edge_y: int


def find_overlap(f: Forest, t_i: PhyloTree):
    """First pair of components (in index order) whose minimal connecting
    subtrees in ``t_i`` share a node, or None when all embeddings are
    pairwise disjoint. Single-leaf components embed as bare leaves and can
    never overlap anything.

    One climb per call over two lists of ``t_i``'s node count: ``owner``
    holds the first component whose embedding holds each node, ``seen`` the
    last one that climbed through it. Each component y climbs from every
    leaf to its top, the lca of its min-id and max-id leaves, stopping early
    at a node y has already climbed through, so it visits each node of its
    embedding once. The least pair (x, y) shows up as (owner, y) at a node
    the two share: an owner below x there would make a smaller pair with y.
    So the least (owner, y) over all shared nodes is the answer; the scan
    cannot stop at the first hit, since a later y can still pair with a
    smaller x. Only the winning pair's embeddings are built as sets, to
    find their deepest shared node, the least id on a tie. Two embeddings
    are connected subtrees, so their shared region is one too: in id order
    each node's parent in the region comes first, and a node's depth is
    counted from the region's top, not from ``t_i``'s root.
    """
    comps = f.components
    node = t_i.label_node
    size = t_i.sizes
    par = t_i.parent
    owner = [-1] * len(par)
    seen = [-1] * len(par)
    best = None
    for y, comp in enumerate(comps):
        if len(comp.parent) == 1:
            continue
        leaves = [node[lab] for lab in comp.label_node]
        top = min(leaves)
        hi = max(leaves)
        while hi >= top + size[top]:  # ``_lca2``'s climb, inlined
            top = par[top]
        for u in leaves:
            while seen[u] != y:
                seen[u] = y
                x = owner[u]
                if x < 0:
                    owner[u] = y
                elif best is None or x < best[0]:
                    best = (x, y)
                if u == top:
                    break
                u = par[u]
    if best is None:
        return None
    x, y = best
    shared = sorted(
        steiner_nodes(t_i, comps[x].label_node) & steiner_nodes(t_i, comps[y].label_node)
    )
    depth = {}
    for u in shared:
        depth[u] = depth.get(par[u], -1) + 1
    meet = max(shared, key=depth.__getitem__)
    return OverlapWitness(
        x=x,
        y=y,
        edge_x=_overlap_cut_edge(comps[x], t_i, meet),
        edge_y=_overlap_cut_edge(comps[y], t_i, meet),
    )


def _overlap_cut_edge(comp: PhyloTree, t_i: PhyloTree, meet: int) -> int:
    """Edge of ``comp`` to cut for an overlap met at ``meet`` in ``t_i``.

    Qualifying edges are those whose whole leaf set descends from ``meet``
    in ``t_i``, i.e. whose leaves' LCA in ``t_i`` lies below ``meet``; the
    set is closed downward and never empty (at least one of the component's
    leaves sits below any shared node). Cutting a minimal qualifying edge (a
    leaf edge) cannot be meant, since it need not shrink the shared region,
    so take a maximal one — the edge closest to the component's root that
    still qualifies — breaking ties toward the larger detached subtree, then
    the smaller node id. A qualifying edge with the largest subtree is
    maximal, since a qualifying edge above it would detach more.
    """
    quals = [below(t_i, x, meet) for x in lca_map(comp, t_i)]
    sizes = comp.sizes
    return max(
        (v for v in range(1, comp.n_nodes) if quals[v]), key=lambda v: (sizes[v], -v)
    )


def _cut(f: Forest, edges) -> Forest:
    """``cut_edges``, raising RuntimeError unless the forest loses an edge, so
    a faulty cut rule fails loudly instead of looping forever.

    Components are binary and together keep all L taxa, so a forest of m
    components has 2(L - m) edges: only the touched components and their
    pieces change m, and the forest loses edges exactly when it gains
    components. That is an O(1) test, and m <= L bounds the cuts."""
    out = cut_edges(f, edges)
    if out.size <= f.size:
        raise RuntimeError(f"cut {edges} did not lower the forest's edge count")
    return out


def maf_approx(trees) -> tuple:
    """Agreement forest of all input trees within a factor 3 of the optimal
    number of cuts, plus the log of every cut taken.

    The first tree seeds the working forest; the remaining trees drive the
    cutting. Iteration order (trees in input order, deepest-then-lexicographic
    triple choice, index-ordered overlap scan) is fixed, so equal inputs give
    byte-equal outputs. Raises ValueError for fewer than two trees or
    mismatched taxon sets.
    """
    trees = check_input_trees(trees)
    forest = Forest.from_tree(trees[0])
    cuts = CutSet()

    # Phase 1: triples. The memo keeps each component's verdict in the
    # current tree; a cut replaces only the host, so only its verdict goes.
    for i in range(1, len(trees)):
        memo: dict = {}
        while (tr := find_incompatible(forest, trees[i], memo)) is not None:
            tc = locate_cuts(forest, tr, trees[i], memo)
            edges = (
                (tr.host, tc.edge_a),
                (tr.host, tc.edge_c),
                (tr.host, tc.edge_cherry),
            )
            del memo[forest.components[tr.host]]
            forest = _cut(forest, edges)
            cuts.entries.append(CutEntry("triple", i, edges, str(tr)))

    # Phase 2: overlaps.
    for i in range(1, len(trees)):
        while (ow := find_overlap(forest, trees[i])) is not None:
            edges = ((ow.x, ow.edge_x), (ow.y, ow.edge_y))
            forest = _cut(forest, edges)
            cuts.entries.append(
                CutEntry("overlap", i, edges, f"components {ow.x}~{ow.y}")
            )

    return forest, cuts
