"""Forest surgery and the agreement-forest validity predicate."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from mafkit import (
    Forest,
    GenSpec,
    PhyloTree,
    SeededRng,
    instance,
    is_agreement_forest,
    maaf_approx,
    maf_approx,
    parse,
)
from mafkit import maf
from mafkit.gen import random_tree
from mafkit.forest import cut_edges, steiner_nodes
from mafkit.tree import split

import reference_tree
from helpers import cut_grid, forest_newicks, interleaved_pair, nested_tree, recount_sizes
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


def test_cut_edges_matches_nested_reference():
    """``cut_edges`` gives the pieces that ``cut_pieces`` + ``from_nested``
    gave, in the same order and with the same node tables, on random trees
    and caterpillars with n = 1..40 under random and forced cut sets. Each
    piece is a valid tree and its sizes equal a fresh recount."""
    checked = 0
    before, after = parse("(x1,x2);"), parse("x3;")
    for t, cuts in cut_grid():
        f = Forest.from_components([before, t, after], {"x1", "x2", "x3", *t.label_node})
        want = reference_tree.split_reference(t, cuts)
        got = cut_edges(f, [(1, v) for v in cuts]).components
        assert got[0] is before and got[-1] is after
        for pieces in (split(t, cuts), got[1:-1]):
            assert [(p.parent, p.labels) for p in pieces] == [
                (p.parent, p.labels) for p in want
            ], (t.n_leaves, sorted(cuts))
            for p in pieces:
                validate(p)
                assert p.sizes == recount_sizes(p)
        checked += 1
    assert checked > 1500


def test_cut_edges_on_several_components_matches_reference():
    """Cutting two or three components in one call, as overlap and cycle
    entries do, splices each one's reference pieces into its place, with
    every later component shifted by the pieces before it, and keeps each
    untouched component as the same object. The cut components come three
    at a time from ``cut_grid``, between and beside two that are never cut;
    every other call leaves the middle one of the three uncut, and every
    other call lists the edges in reverse."""
    grid = list(cut_grid())
    kept = [parse("(x1,x2);"), parse("x3;")]
    shifted = 0
    for call, at in enumerate(range(0, len(grid) - 2, 3)):
        (t0, cuts0), (t1, cuts1), (t2, cuts2) = grid[at : at + 3]
        comps = [kept[0], t0, t1, kept[1], t2]
        cut_sets = {1: cuts0, 2: set() if call % 2 else cuts1, 4: cuts2}
        edges = [(ci, v) for ci, cuts in cut_sets.items() for v in sorted(cuts)]
        if call % 4 >= 2:
            edges.reverse()
        labels = {lab for comp in comps for lab in comp.label_node}
        got = cut_edges(Forest.from_components(comps, labels), edges).components
        want, same, split_counts = [], [], []
        for ci, comp in enumerate(comps):
            if cut_sets.get(ci):
                pieces = reference_tree.split_reference(comp, cut_sets[ci])
                split_counts.append(len(pieces))
                same += [None] * len(pieces)
            else:
                pieces = [comp]
                same.append(comp)
            want += pieces
        where = (call, sorted(edges))
        assert [(p.parent, p.labels) for p in got] == [(p.parent, p.labels) for p in want], where
        assert all(s is None or p is s for p, s in zip(got, same)), where
        shifted += len(split_counts) >= 2 and split_counts[0] > 1
    assert shifted > 1400, shifted


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10**6))
def test_constructor_matches_nested_builder(n, seed):
    """``PhyloTree`` on a tree's preorder labels, and ``nested_tree`` on its
    nested form, equal the original builder's node tables, and their lazy
    sizes equal recounts."""
    t = random_tree(n, seed)
    nested = reference_tree.fold(t, lambda lab: lab, lambda a, b: (a, b))[0]
    want = reference_tree.from_nested(nested)
    for got in (PhyloTree(list(t.labels)), nested_tree(nested)):
        assert got._sizes is None
        assert (got.parent, got.labels) == (want.parent, want.labels)
        assert got.sizes == recount_sizes(want)


def test_whole_subtree_pieces_take_their_hosts_sizes():
    """On every piece of ``cut_grid``, ``sizes`` handed over by ``split``
    equal a fresh recount, and a piece that is a whole subtree of its
    host (topped by a cut with no cut below it, or the uncut tree) carries
    them exactly when it has two or more nodes. The grid reaches nested
    cuts, both children of one node cut, and a non-cut node left with no
    leaf, whose parent then loses it too."""
    reached = Counter()
    for t, cuts in cut_grid():
        pieces = split(t, cuts)
        for p in pieces:
            if p._sizes is not None:
                assert p._sizes == recount_sizes(p), (t.labels, sorted(cuts))
                reached["carried"] += 1
        sizes = t.sizes
        by_labels = {tuple(p.labels): p for p in pieces}
        for v in cuts or {0}:
            if any(v < w < v + sizes[v] for w in cuts):
                reached["nested"] += 1
                continue
            p = by_labels[tuple(t.labels[v : v + sizes[v]])]
            assert (p._sizes is not None) == (sizes[v] > 1), (t.labels, sorted(cuts), v)
        lost = Counter(t.parent[v] for v in cuts)
        both = [u for u, c in lost.items() if c == 2]
        reached["both children"] += bool(both)
        reached["leafless"] += any(u and u not in cuts for u in both)
    assert min(reached.values()) > 1000, reached


def test_cut_components_get_true_sizes(monkeypatch):
    """At every ``cut_edges`` call of ``maf_approx`` and ``maaf_approx`` on
    three gen rows and an interleaved caterpillar pair, each new
    component's ``sizes``, handed over or built on first use, equal a
    fresh recount."""
    checked = Counter()
    cut = maf.cut_edges

    def checking_cut(f, edges):
        out = cut(f, edges)
        old = {id(c) for c in f.components}
        for c in out.components:
            if id(c) not in old:
                checked["handed over"] += c._sizes is not None
                assert c.sizes == recount_sizes(c), c.labels
                checked["new"] += 1
        return out

    monkeypatch.setattr(maf, "cut_edges", checking_cut)
    rows = [instance(GenSpec(n=n, k=k, moves=moves, seed=seed)) for n, k, moves, seed in (
        (60, 4, 8, 1), (120, 8, 20, 2), (200, 3, 30, 3))]
    for trees in rows + [interleaved_pair(40)]:
        forest, _ = maf_approx(trees)
        maaf_approx(forest, trees)
    assert checked["handed over"] > 50 and checked["new"] > 400, checked
