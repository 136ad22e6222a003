"""Forest surgery and the agreement-forest validity predicate."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from mafkit import Forest, PhyloTree, SeededRng, cut_edges, is_agreement_forest, parse
from mafkit.gen import random_tree
from mafkit.forest import steiner_nodes
from mafkit.tree import split

import reference_tree
from helpers import forest_newicks
from reference_tree import validate


def test_cut_single_edge():
    f = Forest.from_tree(parse("((a,b),c);"))
    out = cut_edges(f, [(0, 4)])  # edge above leaf c
    assert forest_newicks(out) == ["(a,b);", "c;"]


def test_cut_nothing_is_identity():
    f = Forest.from_tree(parse("((a,b),c);"))
    assert cut_edges(f, []) is f


def test_cut_both_root_children_discards_bare_root():
    f = Forest.from_tree(parse("((a,b),c);"))
    out = cut_edges(f, [(0, 1), (0, 4)])
    assert forest_newicks(out) == ["(a,b);", "c;"]
    assert out.size == 2


def test_cut_nested_edges():
    # cutting an edge inside an already-detached subtree
    f = Forest.from_tree(parse("(((a,b),c),d);"))
    out = cut_edges(f, [(0, 1), (0, 3)])  # subtree ((a,b),c), then its leaf a
    assert sorted(forest_newicks(out)) == ["(b,c);", "a;", "d;"]


def test_cut_unknown_edge_rejected():
    f = Forest.from_tree(parse("((a,b),c);"))
    with pytest.raises(ValueError):
        cut_edges(f, [(0, 99)])
    with pytest.raises(ValueError):
        cut_edges(f, [(1, 1)])
    with pytest.raises(ValueError):
        cut_edges(f, [(0, 0)])  # the root has no parent edge


@given(st.integers(min_value=2, max_value=32), st.integers(min_value=0, max_value=10**6))
def test_cut_preserves_taxa(n, seed):
    t = random_tree(n, seed)
    f = Forest.from_tree(t)
    rng = SeededRng(seed, stream=99)
    edges = {(0, 1 + rng.below(t.n_nodes - 1)) for _ in range(3)}
    out = cut_edges(f, edges)
    got = Counter(lab for c in out.components for lab in c.leaf_labels)
    assert got == Counter(t.leaf_labels)
    for c in out.components:
        validate(c)


def test_steiner_nodes_shape():
    t = parse("((a,b),(c,d));")  # ids: 0 root, 1 ab, 2 a, 3 b, 4 cd, 5 c, 6 d
    assert steiner_nodes(t, {"a", "b"}) == {1, 2, 3}
    assert steiner_nodes(t, {"a", "c"}) == {0, 1, 2, 4, 5}
    assert steiner_nodes(t, {"d"}) == {6}


def test_agreement_examples():
    t1 = parse("((a,b),c);")
    t2 = parse("((a,c),b);")
    assert is_agreement_forest(Forest.from_tree(t1), [t1, t1])
    f = Forest.from_components([parse("(a,b);"), parse("c;")], t1.leaf_labels)
    assert is_agreement_forest(f, [t1, t2])
    # the whole first tree does not restrict identically into the second
    assert not is_agreement_forest(Forest.from_tree(t1), [t1, t2])


def test_agreement_detects_overlapping_embeddings():
    # both components' connecting subtrees pass through the root of t
    t = parse("((a,c),(b,d));")
    u = parse("((a,b),(c,d));")
    f = Forest.from_components([parse("(a,b);"), parse("(c,d);")], t.leaf_labels)
    assert not is_agreement_forest(f, [u, t])


def test_agreement_label_mismatch_raises():
    t1 = parse("((a,b),c);")
    other = parse("((a,b),d);")
    with pytest.raises(ValueError):
        is_agreement_forest(Forest.from_tree(t1), [t1, other])
    # components must partition the taxon set
    broken = Forest.from_components([parse("(a,b);")], t1.leaf_labels)
    with pytest.raises(ValueError):
        is_agreement_forest(broken, [t1, t1])


@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=10**6))
def test_whole_tree_agrees_with_itself(n, seed):
    t = random_tree(n, seed)
    assert is_agreement_forest(Forest.from_tree(t), [t, t])


# ── differential: preorder-label pieces against the nested-tuple route ──


def _shapes(n):
    """Two random trees and two caterpillars on t1..tn."""
    labels = [f"t{i}" for i in range(1, n + 1)]
    shuffled = list(labels)
    rng = SeededRng(n, stream=5)
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
    caterpillars = []
    for order in (labels, shuffled):
        nested = order[0]
        for lab in order[1:]:
            nested = (nested, lab)
        caterpillars.append(reference_tree.from_nested(nested))
    return [random_tree(n, seed=n), random_tree(n, seed=n, stream=3), *caterpillars]


def _cut_sets(t, rng):
    """The empty set, every leaf edge, and, where the tree has them: both
    root children, both children of a node, a node with both its children,
    and random sets of every size up to 6."""
    internal = [u for u in range(1, t.n_nodes) if t.children[u]]
    sets = [set(), {u for u in range(1, t.n_nodes) if not t.children[u]}]
    if t.n_nodes > 1:
        sets.append(set(t.children[0]))
    for u in internal[:3] + internal[-2:]:
        sets.append(set(t.children[u]))
        sets.append({u, *t.children[u]})
    for size in range(1, min(6, t.n_nodes - 1) + 1):
        for _ in range(3):
            sets.append({1 + rng.below(t.n_nodes - 1) for _ in range(size)})
    return sets


def _recount_sizes(t):
    s = [1] * t.n_nodes
    for u in range(t.n_nodes - 1, 0, -1):
        s[t.parent[u]] += s[u]
    return s


def test_cut_edges_matches_nested_reference():
    """``cut_edges`` gives the pieces that ``cut_pieces`` + ``from_nested``
    gave, in the same order and with the same node tables, on random trees
    and caterpillars with n = 1..40 under random and forced cut sets. Each
    piece is a valid tree and its cached sizes equal a fresh recount."""
    checked = 0
    before, after = parse("(x1,x2);"), parse("x3;")
    for n in range(1, 41):
        rng = SeededRng(n, stream=11)
        for t in _shapes(n):
            f = Forest.from_components([before, t, after])
            for cuts in _cut_sets(t, rng):
                want = reference_tree.split_reference(t, cuts)
                got = cut_edges(f, [(1, v) for v in cuts]).components
                assert got[0] is before and got[-1] is after
                for pieces in (split(t, cuts), got[1:-1]):
                    assert [(p.parent, p.children, p.labels) for p in pieces] == [
                        (p.parent, p.children, p.labels) for p in want
                    ], (n, sorted(cuts))
                    for p in pieces:
                        validate(p)
                        assert p.sizes == _recount_sizes(p)
                checked += 1
    assert checked > 1500


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10**6))
def test_from_preorder_matches_nested_builder(n, seed):
    """A tree rebuilt from its preorder labels, and ``from_nested`` on its
    nested form, equal the original builder's node tables, with sizes
    cached right."""
    t = random_tree(n, seed)
    nested = reference_tree.fold(t, lambda lab: lab, lambda a, b: (a, b))[0]
    want = reference_tree.from_nested(nested)
    for got in (PhyloTree.from_preorder(list(t.labels)), PhyloTree.from_nested(nested)):
        assert (got.parent, got.children, got.labels) == (want.parent, want.children, want.labels)
        assert got._sizes == _recount_sizes(want)
