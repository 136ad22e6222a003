"""Forest surgery and the agreement-forest validity predicate."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from mafkit import Forest, SeededRng, cut_edges, is_agreement_forest, parse
from mafkit.gen import random_tree
from mafkit.forest import steiner_nodes

from helpers import forest_newicks


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
        c.validate()


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
