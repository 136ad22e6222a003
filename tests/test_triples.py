"""Triple resolution, incompatibility search, and cut placement."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mafkit import (
    Forest,
    GenSpec,
    SeededRng,
    instance,
    maf_approx,
    parse,
)
from mafkit.forest import cut_edges
from mafkit.gen import spr_move
from mafkit.tree import below, lca_map, restricted_canonical
from mafkit.triples import _realized, find_incompatible, locate_cuts

import reference_triples as ref
from reference_triples import _make_triple, triple_less, triple_of
from reference_tree import restrict
from helpers import canonical, nested_tree


def test_triple_of_reads_the_shape():
    assert str(triple_of(parse("((a,b),c);"), {"a", "b", "c"})) == "a,b|c"
    assert str(triple_of(parse("((a,c),b);"), {"a", "b", "c"})) == "a,c|b"
    assert str(triple_of(parse("(((a,b),c),d);"), {"a", "c", "d"})) == "a,c|d"


def test_triple_of_validates():
    t = parse("((a,b),c);")
    with pytest.raises(ValueError):
        triple_of(t, {"a", "b", "zz"})
    with pytest.raises(ValueError):
        triple_of(t, {"a", "b"})


def test_triple_anchor_invariant():
    # cherry ancestor strictly below the three-taxon ancestor
    t = parse("((((a,b),c),d),e);")
    for trio in itertools.combinations(sorted(t.leaf_labels), 3):
        tr = triple_of(t, trio)
        assert tr.triple_lca != tr.cherry_lca
        assert below(t, tr.cherry_lca, tr.triple_lca)


def test_find_incompatible_examples():
    t1 = parse("((a,b),c);")
    t2 = parse("((a,c),b);")
    assert find_incompatible(Forest.from_tree(t1), t1) is None
    tr = find_incompatible(Forest.from_tree(t1), t2)
    assert str(tr) == "a,b|c"
    small = Forest.from_components([parse("(a,b);"), parse("c;")], t1.leaf_labels)
    assert find_incompatible(small, t2) is None


def _all_incompatible(forest, tree):
    resolver = ref.pair_depths(tree)
    out = []
    for ci, comp in enumerate(forest.components):
        if comp.n_leaves < 3:
            continue
        local = ref.pair_depths(comp)
        for trio in itertools.combinations(sorted(comp.leaf_labels), 3):
            outlier = local.outlier(*trio)
            if resolver.outlier(*trio) != outlier:
                pair = [x for x in trio if x != outlier]
                out.append(_make_triple(comp, pair[0], pair[1], outlier, host=ci))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_returned_triple_is_minimal(seed):
    """No incompatible triple of the forest may precede the returned one,
    and the search must agree with exhaustive enumeration about existence."""
    from mafkit import SeededRng

    rng = SeededRng(seed)
    n = 4 + rng.below(5)
    trees = instance(GenSpec(n=n, k=2, moves=1 + rng.below(3), seed=seed))
    forest = Forest.from_tree(trees[0])
    got = find_incompatible(forest, trees[1])
    everything = _all_incompatible(forest, trees[1])
    if got is None:
        assert not everything
        return
    assert everything
    host = forest.components[got.host]
    for other in everything:
        if other.host == got.host:
            assert not triple_less(host, other, got), (got, other)


def test_locate_cuts_on_three_leaves():
    t1 = parse("((a,b),c);")  # ids: 0 root, 1 (a,b), 2 a, 3 b, 4 c
    t2 = parse("((a,c),b);")
    f = Forest.from_tree(t1)
    tr = find_incompatible(f, t2)
    tc = locate_cuts(f, tr, t2)
    assert (tc.edge_a, tc.edge_b, tc.edge_c, tc.edge_cherry) == (2, 3, 4, 1)


def test_locate_cuts_deeper_instance():
    # component (((a,b),c),d) against a tree resolving ac|b: the cherry edge
    # sits above node (a,b); the c-edge walk stops at the leaf edge of c
    host = parse("(((a,b),c),d);")  # ids: root 0, ((a,b),c) 1, (a,b) 2, a 3, b 4, c 5, d 6
    other = parse("(((a,c),b),d);")
    f = Forest.from_tree(host)
    tr = find_incompatible(f, other)
    assert str(tr) == "a,b|c"
    tc = locate_cuts(f, tr, other)
    assert tc.edge_cherry == 2
    assert tc.edge_a == 3
    assert tc.edge_c == 5


def test_locate_cuts_walks_past_grouped_taxa():
    """When everything below the first edge on the c-path still groups with
    c in the other tree, that first edge is the cut."""
    host = parse("((a,b),(c,e));")  # ids: 0, (a,b) 1, a 2, b 3, (c,e) 4, c 5, e 6
    other = parse("(((c,e),a),b);")  # c,e stay a cherry; ab is torn apart
    f = Forest.from_tree(host)
    tr = find_incompatible(f, other)
    assert str(tr) == "a,b|c"
    tc = locate_cuts(f, tr, other)
    assert tc.edge_c == 4  # the whole (c,e) clade comes off in one piece


def test_locate_cuts_rejects_compatible_triple():
    t1 = parse("((a,b),c);")
    f = Forest.from_tree(t1)
    tr = triple_of(t1, {"a", "b", "c"})
    with pytest.raises(ValueError):
        locate_cuts(f, tr, t1)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_cut_separates_the_triple(seed):
    from mafkit import SeededRng

    rng = SeededRng(seed, stream=3)
    n = 4 + rng.below(5)
    trees = instance(GenSpec(n=n, k=2, moves=1 + rng.below(3), seed=seed))
    forest = Forest.from_tree(trees[0])
    tr = find_incompatible(forest, trees[1])
    if tr is None:
        return
    tc = locate_cuts(forest, tr, trees[1])
    after = cut_edges(
        forest, [(tr.host, tc.edge_a), (tr.host, tc.edge_c), (tr.host, tc.edge_cherry)]
    )
    homes = [
        {x for x in (tr.a, tr.b, tr.c) if x in comp.leaf_labels}
        for comp in after.components
    ]
    assert all(len(h) <= 1 for h in homes)


def _assert_matches_reference(trees):
    """Replay a maf_approx run cut by cut. On every intermediate forest and
    every tree, the triple search and the cut placement must return exactly
    what the pairwise-table reference returns."""
    final, cuts = maf_approx(trees)
    forest = Forest.from_tree(trees[0])
    for entry in [None, *cuts.entries]:
        if entry is not None:
            forest = cut_edges(forest, entry.edges)
        for t in trees[1:]:
            got = find_incompatible(forest, t)
            assert got == ref.find_incompatible(forest, t)
            if got is not None:
                assert locate_cuts(forest, got, t) == ref.locate_cuts(forest, got, t)
    assert [canonical(c) for c in forest.components] == [
        canonical(c) for c in final.components
    ]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=4, max_value=40),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
def test_search_matches_reference_on_every_intermediate_forest(n, k, moves, seed):
    _assert_matches_reference(instance(GenSpec(n=n, k=k, moves=moves, seed=seed)))


def _caterpillar(order):
    nested = order[0]
    for lab in order[1:]:
        nested = (nested, lab)
    return nested_tree(nested)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_search_matches_reference_on_caterpillars(data):
    """Caterpillars have depth n, so every LCA walk is as long as it gets."""
    n = data.draw(st.integers(min_value=4, max_value=30))
    k = data.draw(st.integers(min_value=2, max_value=3))
    taxa = [f"t{i}" for i in range(n)]
    trees = [_caterpillar(data.draw(st.permutations(taxa))) for _ in range(k)]
    _assert_matches_reference(trees)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_triple_of_matches_reference(n, seed):
    t = instance(GenSpec(n=n, k=2, moves=0, seed=seed))[0]
    resolver = ref.pair_depths(t)
    for trio in itertools.combinations(sorted(t.leaf_labels), 3):
        assert triple_of(t, trio).c == resolver.outlier(*trio)


def _restricted_pairs(trees, rng, count):
    """``count`` (component, tree) pairs: the first tree restricted to a
    random leaf subset, against each other tree in turn."""
    labels = sorted(trees[0].leaf_labels)
    for j in range(count):
        keep = [x for x in labels if rng.below(4)] or [labels[rng.below(len(labels))]]
        yield restrict(trees[0], keep), trees[1 + j % (len(trees) - 1)]


def _assert_realized_iff_same_restriction(pairs):
    verdicts = {True: 0, False: 0}
    for comp, t in pairs:
        want = restricted_canonical(t, comp.leaf_labels) == canonical(comp)
        assert _realized(comp, lca_map(comp, t)) == want, (canonical(comp), canonical(t))
        verdicts[want] += 1
    return verdicts


def test_realized_matches_restricted_canonical_on_random_subsets():
    """The LCA-map cleanliness rule against the restriction it replaced:
    5000 seeded (component, tree) pairs on n = 2-14 taxa, components cut
    out of the first tree by random leaf subsets, against trees 0-3 SPR
    moves away (so clean and conflicting pairs both come up often)."""
    pairs = []
    for seed in range(1000):
        rng = SeededRng(seed, stream=5)
        n = 2 + rng.below(13)
        trees = instance(GenSpec(n=n, k=3, moves=rng.below(4), seed=seed))
        pairs.extend(_restricted_pairs(trees, rng, 5))
    verdicts = _assert_realized_iff_same_restriction(pairs)
    assert sum(verdicts.values()) == 5000
    assert min(verdicts.values()) > 1000, verdicts


def test_realized_matches_restricted_canonical_on_caterpillars():
    """Deep components: a caterpillar on 3-40 taxa against caterpillars with
    1-4 label swaps, half of them then moved by one SPR, restricted to
    random leaf subsets."""
    pairs = []
    for idx in range(200):
        rng = SeededRng(77, stream=idx)
        labels = [f"t{i}" for i in range(1, 4 + rng.below(38))]
        trees = [_caterpillar(labels)]
        for j in range(2):
            order = list(labels)
            for _ in range(1 + rng.below(4)):
                a, b = rng.below(len(order)), rng.below(len(order))
                order[a], order[b] = order[b], order[a]
            t = _caterpillar(order)
            trees.append(spr_move(t, seed=idx, stream=j) if rng.below(2) else t)
        pairs.extend(_restricted_pairs(trees, rng, 4))
        pairs.extend((t, u) for t in trees for u in trees)
    verdicts = _assert_realized_iff_same_restriction(pairs)
    assert min(verdicts.values()) > 300, verdicts
