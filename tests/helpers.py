"""Shared test utilities: seeded instance parameters, topology enumeration,
forest comparison and a three-cycle forest."""

from mafkit import Forest, GenSpec, PhyloTree, SeededRng, parse, serialize
from mafkit.tree import restricted_canonical

from reference_gen import _grafted_nested


def derived_params(master_seed, idx, n_lo, n_hi, k_hi, moves_hi):
    rng = SeededRng(master_seed, stream=idx)
    n = n_lo + rng.below(n_hi - n_lo + 1)
    k = 2 + rng.below(k_hi - 1)
    moves = rng.below(moves_hi + 1)
    return GenSpec(n=n, k=k, moves=moves, seed=master_seed * 1_000_003 + idx)


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


def all_topologies(labels):
    """Every rooted binary tree shape on the given labels, each exactly once
    (sequential insertion over all attachment points is a bijection onto
    shapes: 3 trees for 3 labels, 15 for 4)."""
    shapes = [nested_tree(labels[0])]
    for lab in labels[1:]:
        shapes = [
            nested_tree(_grafted_nested(t, pos, lab))
            for t in shapes
            for pos in range(t.n_nodes)
        ]
    return shapes


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
