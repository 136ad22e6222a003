"""Tree machinery: ancestry queries, restriction and the LCA map."""

import random

import pytest
from hypothesis import given, strategies as st

from mafkit import (
    Forest,
    GenSpec,
    PhyloTree,
    SeededRng,
    instance,
    maaf_approx,
    maf_approx,
    parse,
    serialize,
)
from mafkit.forest import cut_edges
from mafkit.gen import random_tree
from mafkit.tree import _lca2, below, lca, lca_map, split

import reference_tree
from reference_tree import restrict
from helpers import canonical, caterpillar, children, cut_grid, interleaved_pair


@pytest.fixture
def cherry3():
    # preorder ids: root=0, (a,b)=1, a=2, b=3, c=4
    return parse("((a,b),c);")


def test_lca_cases(cherry3):
    assert lca(cherry3, {"a", "b"}) == 1
    assert lca(cherry3, {"a", "c"}) == 0
    assert lca(cherry3, {"a"}) == 2


def test_lca_unknown_taxon(cherry3):
    with pytest.raises(ValueError):
        lca(cherry3, {"a", "zz"})


@pytest.mark.parametrize(
    "labels, message",
    [
        ([], "no labels"),
        ([None], "internal node 0 lacks a child"),
        ([None, "a"], "internal node 0 lacks a child"),
        ([None, None, "a", "b"], "internal node 0 lacks a child"),
        (["a", "b"], "node 1 comes after the tree is complete"),
        ([None, "a", "b", "c"], "node 3 comes after the tree is complete"),
    ],
)
def test_constructor_rejects_labels_of_no_single_binary_tree(labels, message):
    """Such lists once built silently: ``[None, "a"]`` left a bare int in
    ``children`` and wrote "(a,;", ``["a", "b"]`` had two roots and wrote
    "ab;", and ``[None, "a", "b", "c"]`` claimed 2 leaves over 3 taxa, which
    ``maf_approx`` returned as a forest."""
    with pytest.raises(ValueError, match=message):
        PhyloTree(labels)


def test_duplicate_taxa_raise_once_indexed():
    t = PhyloTree([None, "a", "a"])
    with pytest.raises(ValueError, match="duplicate taxa"):
        t.label_node
    with pytest.raises(ValueError, match="duplicate taxa"):
        maf_approx([t, t])
    assert serialize(PhyloTree(["a"])) == "a;"
    assert PhyloTree([None, "a", "b"]).label_node == {"a": 1, "b": 2}


def test_restrict_cases():
    assert serialize(restrict(parse("((a,b),c);"), {"a", "b", "c"})) == "((a,b),c);"
    assert serialize(restrict(parse("((a,c),b);"), {"a", "b"})) == "(a,b);"
    assert serialize(restrict(parse("((a,b),c);"), {"c"})) == "c;"


def test_restrict_errors(cherry3):
    with pytest.raises(ValueError):
        restrict(cherry3, {"a", "nope"})
    with pytest.raises(ValueError):
        restrict(cherry3, set())


@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=10**6))
def test_restricted_canonical_matches_two_step_route(n, seed):
    from mafkit.tree import restricted_canonical

    t = random_tree(n, seed)
    labs = sorted(t.leaf_labels)
    keep = set(labs[:: 2] or labs[:1])
    assert restricted_canonical(t, keep) == canonical(restrict(t, keep))


@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=10**6))
def test_restrict_idempotent(n, seed):
    t = random_tree(n, seed)
    labs = sorted(t.leaf_labels)
    keep = set(labs[: max(1, n // 2)])
    once = restrict(t, keep)
    twice = restrict(once, keep)
    assert canonical(once) == canonical(twice)
    assert once.leaf_labels == frozenset(keep)


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=10**6))
def test_below_matches_parent_walk(n, seed):
    t = random_tree(n, seed)

    def walk_is_ancestor(u, v):
        while v != -1:
            if v == u:
                return True
            v = t.parent[v]
        return False

    for u in range(t.n_nodes):
        for v in range(t.n_nodes):
            assert below(t, v, u) == walk_is_ancestor(u, v)


def _shapes(n):
    """(labels, trees) groups: two random trees and two caterpillars on
    t1..tn, and for even n the interleaved pair on its own labels."""
    labels = [f"t{i}" for i in range(1, n + 1)]
    shapes = [
        random_tree(n, seed=n),
        random_tree(n, seed=n, stream=1),
        caterpillar(labels),
        caterpillar(random.Random(n).sample(labels, n)),
    ]
    if n % 2:
        return [(labels, shapes)]
    pair = interleaved_pair(n // 2)
    return [(labels, shapes), (list(pair[0].label_node), pair)]


def test_children_sit_at_preorder_size_offsets():
    """The children rebuilt from parent links alone are u + 1 and
    u + 1 + sizes[u + 1] for every internal u, and a node is internal iff
    its label is None: on random trees, caterpillars and interleaved pairs
    for n <= 64, and on every ``split`` piece of the cut grid."""
    trees = [t for n in range(1, 65) for _, group in _shapes(n) for t in group]
    trees += [p for t, cuts in cut_grid() for p in split(t, cuts)]
    for t in trees:
        for u, ks in enumerate(children(t)):
            assert bool(ks) == (t.labels[u] is None), u
            if ks:
                assert ks == (u + 1, u + 1 + t.sizes[u + 1]), u


def test_lca2_matches_depth_walk_on_every_pair():
    """The interval climb equals the depth-balanced walk on every node pair,
    in both argument orders, for n <= 64; ``lca`` of random taxon subsets
    equals the walk folded over their leaves."""
    for n in range(1, 65):
        rng = SeededRng(n, stream=23)
        for t in [t for _, group in _shapes(n) for t in group]:
            walk = reference_tree.lca_walk(t)
            for u in range(t.n_nodes):
                for v in range(u, t.n_nodes):
                    want = walk(u, v)
                    assert _lca2(t, u, v) == want and _lca2(t, v, u) == want, (u, v)
            taxa = list(t.label_node)
            for _ in range(8):
                subset = [x for x in taxa if rng.below(3)] or taxa[:1]
                nodes = [t.label_node[x] for x in subset]
                want = nodes[0]
                for u in nodes[1:]:
                    want = walk(want, u)
                assert lca(t, subset) == want


def test_lca_map_matches_fold_reference_on_random_trees_and_caterpillars():
    """Every pair of random trees, random caterpillars and restrictions of
    one into the other for n <= 64, and the interleaved pair: the loop's map
    equals the fold's."""
    for n in range(1, 65):
        rng = SeededRng(n, stream=17)
        for labels, shapes in _shapes(n):
            for comp in shapes:
                keep = [x for x in labels if rng.below(3)] or labels[:1]
                for t in shapes:
                    for c in (comp, restrict(comp, keep)):
                        assert lca_map(c, t) == reference_tree.lca_map(c, t)


def test_lca_map_matches_fold_reference_on_every_component_of_a_run():
    """Every component of every forest that a ``maf_approx`` + ``maaf_approx``
    run passes through, replayed from its cut logs, mapped into every input
    tree."""
    for spec in (GenSpec(n=120, k=4, moves=12, seed=3), GenSpec(n=60, k=6, moves=20, seed=11)):
        trees = instance(spec)
        forest, cuts = maf_approx(trees)
        _, cycle_cuts = maaf_approx(forest, trees)
        f = Forest.from_tree(trees[0])
        comps = {id(c): c for c in f.components}
        for entry in cuts.entries + cycle_cuts.entries:
            f = cut_edges(f, entry.edges)
            comps.update((id(c), c) for c in f.components)
        assert len(comps) > 50
        for comp in comps.values():
            for t in trees:
                assert lca_map(comp, t) == reference_tree.lca_map(comp, t)
