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
from mafkit.tree import below, lca, lca_map

import reference_tree
from reference_tree import restrict
from helpers import canonical, nested_tree


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


def _caterpillar(order):
    nested = order[0]
    for lab in order[1:]:
        nested = (nested, lab)
    return nested_tree(nested)


def test_lca_map_matches_fold_reference_on_random_trees_and_caterpillars():
    """Every pair of random trees, random caterpillars and restrictions of
    one into the other for n <= 64: the loop's map equals the fold's."""
    for n in range(1, 65):
        rng = SeededRng(n, stream=17)
        labels = [f"t{i}" for i in range(1, n + 1)]
        shapes = [
            random_tree(n, seed=n),
            random_tree(n, seed=n, stream=1),
            _caterpillar(labels),
            _caterpillar(random.Random(n).sample(labels, n)),
        ]
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
