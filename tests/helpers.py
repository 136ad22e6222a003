"""Shared test utilities: seeded instance parameters, topology enumeration,
forest comparison, a three-cycle forest, a wall-time deadline and the exact
searches from a given start forest."""

import signal
from contextlib import contextmanager

import pytest

from mafkit import Forest, GenSpec, PhyloTree, SeededRng, oracle, parse, serialize
from mafkit.forest import check_input_trees
from mafkit.gen import random_tree
from mafkit.tree import restricted_canonical


def derived_params(master_seed, idx, n_lo, n_hi, k_hi, moves_hi):
    rng = SeededRng(master_seed, stream=idx)
    n = n_lo + rng.below(n_hi - n_lo + 1)
    k = 2 + rng.below(k_hi - 1)
    moves = rng.below(moves_hi + 1)
    return GenSpec(n=n, k=k, moves=moves, seed=master_seed * 1_000_003 + idx)


def children(t) -> list:
    """Per node of ``t``, the ids whose parent it is, in ascending order:
    () for a leaf, (left, right) otherwise. Rebuilt from ``t.parent``
    alone, so it checks the tree's layout rather than assuming it."""
    kids = [[] for _ in t.parent]
    for v, p in enumerate(t.parent):
        if p >= 0:
            kids[p].append(v)
    return [tuple(k) for k in kids]


def depths(t) -> list:
    """Per node of ``t``, its number of edges below the root."""
    d = [0] * t.n_nodes
    for u in range(1, t.n_nodes):
        d[u] = d[t.parent[u]] + 1
    return d


def recount_sizes(t) -> list:
    """Per node of ``t``, its subtree's node count, recounted from
    ``t.parent`` alone."""
    s = [1] * t.n_nodes
    for u in range(t.n_nodes - 1, 0, -1):
        s[t.parent[u]] += s[u]
    return s


def nested_tree(nested) -> PhyloTree:
    """The tree of nested pairs, e.g. ``(("a", "b"), "c")``, with children
    in the given order. Iterative, so deep caterpillars do not hit the
    interpreter recursion limit."""
    labels = []
    stack = [nested]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            labels.append(node)
        else:
            labels.append(None)
            stack += (node[1], node[0])
    return PhyloTree(labels)


def caterpillar(order) -> PhyloTree:
    """The caterpillar ((order[0], order[1]), order[2]), ...: every internal
    node first in preorder, then the leaves in order."""
    return PhyloTree([None] * (len(order) - 1) + list(order))


def interleaved_pair(m: int) -> list:
    """Two caterpillars on n = 2m taxa: T1 on a0, b0, a1, b1, ..., T2 on
    a0 ... a(m-1), b(m-1) ... b0, first label deepest. Each triple cut
    leaves a host of O(n) nodes at depth O(n) to map again, and
    ``maf_approx`` ends with n singletons after n/3 triple entries."""
    a = [f"a{i}" for i in range(m)]
    b = [f"b{i}" for i in range(m)]
    return [caterpillar([x for pair in zip(a, b) for x in pair]), caterpillar(a + b[::-1])]


def cut_grid():
    """(tree, cut set) pairs over two random trees and two caterpillars on
    t1..tn for n = 1..40. Per tree: the empty set, every leaf edge, and,
    where the tree has them, both root children, both children of a node,
    a node with both its children, and random sets of every size up to 6."""
    for n in range(1, 41):
        labels = [f"t{i}" for i in range(1, n + 1)]
        shuffled = list(labels)
        rng = SeededRng(n, stream=5)
        for i in range(n - 1, 0, -1):
            j = rng.below(i + 1)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        shapes = [random_tree(n, seed=n), random_tree(n, seed=n, stream=3)]
        shapes += [caterpillar(labels), caterpillar(shuffled)]
        rng = SeededRng(n, stream=11)
        for t in shapes:
            for cuts in _cut_sets(t, rng):
                yield t, cuts


def _cut_sets(t, rng) -> list:
    kids = children(t)
    internal = [u for u in range(1, t.n_nodes) if kids[u]]
    sets = [set(), {u for u in range(1, t.n_nodes) if not kids[u]}]
    if t.n_nodes > 1:
        sets.append(set(kids[0]))
    for u in internal[:3] + internal[-2:]:
        sets.append(set(kids[u]))
        sets.append({u, *kids[u]})
    for size in range(1, min(6, t.n_nodes - 1) + 1):
        for _ in range(3):
            sets.append({1 + rng.below(t.n_nodes - 1) for _ in range(size)})
    return sets


def all_topologies(labels):
    """Every rooted binary tree shape on the given labels, each exactly once
    (sequential insertion over all attachment points is a bijection onto
    shapes: 3 trees for 3 labels, 15 for 4)."""
    shapes = [PhyloTree([labels[0]])]
    for lab in labels[1:]:
        shapes = [_grafted(t, pos, lab) for t in shapes for pos in range(t.n_nodes)]
    return shapes


def _grafted(t, pos: int, lab: str) -> PhyloTree:
    """``t`` with leaf ``lab`` hung on the parent edge of node ``pos`` by a
    new node, as that node's right child (above the root when pos is 0)."""
    end = pos + t.sizes[pos]
    return PhyloTree(t.labels[:pos] + [None] + t.labels[pos:end] + [lab] + t.labels[end:])


def canonical(t) -> str:
    """Order-independent canonical form of ``t``: equal iff the trees are
    isomorphic as rooted leaf-labeled trees."""
    return restricted_canonical(t, t.label_node)


def forest_canon(forest):
    """Order-free fingerprint of a forest: sorted component canonical forms."""
    return tuple(sorted(canonical(c) for c in forest.components))


def forest_newicks(forest):
    return [serialize(c) for c in forest.components]


def three_cycle_fixture():
    """Three components each dominating the next in a different tree, so no
    pair of them 2-cycles."""
    ta = parse("((x1,((y1,y2),x2)),(z1,z2));")
    tb = parse("((y1,((z1,z2),y2)),(x1,x2));")
    tc = parse("((z1,((x1,x2),z2)),(y1,y2));")
    f = Forest.from_components(
        [parse("(x1,x2);"), parse("(y1,y2);"), parse("(z1,z2);")], ta.leaf_labels
    )
    return f, [ta, tb, tc]


@contextmanager
def deadline(seconds: float):
    """Fail the test from inside the block once ``seconds`` of wall time have
    passed, so a run far over its time bound stops at the bound instead of
    running to its end. Uses SIGALRM, so the block must run in the main
    thread."""

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def exact_maf_forest(start: Forest, trees, max_cuts=None):
    """Minimum number of edges to delete from ``start`` so that what remains
    is an agreement forest of the trees; None if over ``max_cuts``, which
    must be None or non-negative (ValueError otherwise). Raises ValueError
    unless ``start``'s components partition the trees' common taxon set."""
    trees = check_input_trees(trees)
    start.check_taxa(trees)
    return oracle._search(start, trees, max_cuts, acyclic=False)


def exact_maaf_forest(start: Forest, trees, max_cuts=None):
    """Like ``exact_maf_forest`` but the surviving forest's component
    digraph must also be acyclic (which can force strictly more cuts)."""
    trees = check_input_trees(trees)
    start.check_taxa(trees)
    return oracle._search(start, trees, max_cuts, acyclic=True)
