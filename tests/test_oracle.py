"""Exhaustive small-instance optima: examples, identities, monotonicity."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mafkit import (
    Forest,
    GenSpec,
    PhyloTree,
    SeededRng,
    cut_edges,
    exact_maaf,
    exact_maf,
    exact_rspr,
    instance,
    is_agreement_forest,
    maf_approx,
    parse,
)
from mafkit import oracle
from mafkit.gen import random_tree, spr_move
from mafkit.oracle import exact_maaf_forest, exact_maf_forest
from mafkit.tree import restricted_canonical

import reference_oracle


def test_identical_trees_need_zero_cuts():
    t = parse("((a,b),(c,d));")
    res = exact_maf([t, parse("((a,b),(c,d));")])
    assert res.min_cuts == 0
    assert res.witness_forest.size == 1


def test_three_leaf_swap_costs_one():
    t1, t2 = parse("((a,b),c);"), parse("((a,c),b);")
    res = exact_maf([t1, t2])
    assert res.min_cuts == 1
    assert res.witness_forest.size == 2
    # the witness must actually work when replayed
    replay = cut_edges(Forest.from_tree(t1), res.witness_edges)
    assert is_agreement_forest(replay, [t1, t2])


def test_four_leaf_single_move():
    res = exact_maf([parse("(((a,b),c),d);"), parse("(((a,c),b),d);")])
    assert res.min_cuts == 1


def test_maaf_examples():
    t1, t2 = parse("((a,b),c);"), parse("((a,c),b);")
    assert exact_maaf([t1, parse("((a,b),c);")]).min_cuts == 0
    res = exact_maaf([t1, t2])
    assert res.min_cuts == 1
    assert res.witness_forest.size == 2


def test_budget_exhaustion_returns_none():
    t1, t2 = parse("((a,b),c);"), parse("((a,c),b);")
    assert exact_maf([t1, t2], max_cuts=0) is None


def test_negative_budget_rejected():
    t1, t2 = parse("((a,b),c);"), parse("((a,c),b);")
    for exact in (exact_maf, exact_maaf):
        with pytest.raises(ValueError, match="non-negative"):
            exact([t1, t2], max_cuts=-1)
    assert exact_maf([t1, t1], max_cuts=0).min_cuts == 0


def test_taxon_cap():
    t = random_tree(17, seed=3)
    u = random_tree(17, seed=4)
    with pytest.raises(ValueError):
        exact_maf([t, u])


def test_rspr_identity_cases():
    t1, t2 = parse("((a,b),c);"), parse("((a,c),b);")
    assert exact_rspr(t1, parse("((a,b),c);")) == 0
    assert exact_rspr(t1, t2) == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_acyclic_optimum_dominates(seed):
    from mafkit import SeededRng

    rng = SeededRng(seed, stream=31)
    trees = instance(
        GenSpec(n=4 + rng.below(4), k=2, moves=rng.below(4), seed=seed)
    )
    maf = exact_maf(trees).min_cuts
    maaf = exact_maaf(trees).min_cuts
    assert maaf >= maf


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_more_trees_never_cheaper(seed):
    from mafkit import SeededRng

    rng = SeededRng(seed, stream=37)
    trees = instance(
        GenSpec(n=4 + rng.below(4), k=3, moves=1 + rng.below(2), seed=seed)
    )
    assert exact_maf(trees).min_cuts >= exact_maf(trees[:2]).min_cuts


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_witness_size_matches_cut_count(seed):
    """At the optimum every cut detaches a labeled piece, so forest size is
    exactly cuts + 1."""
    from mafkit import SeededRng

    rng = SeededRng(seed, stream=41)
    trees = instance(
        GenSpec(n=4 + rng.below(4), k=2, moves=rng.below(3), seed=seed)
    )
    res = exact_maf(trees)
    assert res.witness_forest.size == res.min_cuts + 1


def _result_key(res):
    if res is None:
        return None
    forms = tuple(c.canonical() for c in res.witness_forest.components)
    return res.min_cuts, res.witness_edges, forms


def test_search_matches_reference():
    """The leaf-partition search returns exactly what building and checking
    every candidate forest returns: same optimum, same first witness edge
    set, same components in the same order. Searches start from the first
    tree and from two split forests: the approximate forest of the first two
    trees, and the first tree with two random edges cut. A budget one short
    of the optimum must give None."""
    split_starts = short_budgets = 0
    for idx in range(40):
        rng = SeededRng(71, stream=idx)
        spec = GenSpec(
            n=3 + rng.below(7), k=2 + rng.below(3), moves=rng.below(4), seed=idx
        )
        trees = instance(spec)
        first = Forest.from_tree(trees[0])
        pool = first.all_edges()
        random_cut = cut_edges(first, [pool[rng.below(len(pool))] for _ in range(2)])
        starts = [first, maf_approx(trees[:2])[0], random_cut]
        split_starts += sum(f.size > 1 for f in starts)
        cases = [
            (exact_maf, reference_oracle.exact_maf, (trees,)),
            (exact_maaf, reference_oracle.exact_maaf, (trees,)),
        ]
        for f in starts[1:]:
            cases.append((exact_maf_forest, reference_oracle.exact_maf_forest, (f, trees)))
            cases.append((exact_maaf_forest, reference_oracle.exact_maaf_forest, (f, trees)))
        for fast, slow, args in cases:
            expected = slow(*args)
            where = (fast.__name__, spec)
            assert _result_key(fast(*args)) == _result_key(expected), where
            if expected.min_cuts:
                assert fast(*args, max_cuts=expected.min_cuts - 1) is None, where
                short_budgets += 1
    assert split_starts >= 50 and short_budgets >= 90, (split_starts, short_budgets)


def _caterpillar(order):
    nested = order[0]
    for lab in order[1:]:
        nested = (nested, lab)
    return PhyloTree.from_nested(nested)


def _verdict_cases():
    """30 seeded ``gen`` instances (n 3-10, k 2-4) and 8 caterpillar ones:
    a caterpillar on 3-10 taxa and 1-3 more trees, each the caterpillar with
    1-3 random label swaps, half of them then moved by one SPR."""
    for idx in range(30):
        rng = SeededRng(97, stream=idx)
        yield instance(
            GenSpec(n=3 + rng.below(8), k=2 + rng.below(3), moves=rng.below(4), seed=idx)
        )
    for n in range(3, 11):
        rng = SeededRng(101, stream=n)
        labels = [f"t{i}" for i in range(1, n + 1)]
        trees = [_caterpillar(labels)]
        for j in range(1 + rng.below(3)):
            order = list(labels)
            for _ in range(1 + rng.below(3)):
                a, b = rng.below(n), rng.below(n)
                order[a], order[b] = order[b], order[a]
            t = _caterpillar(order)
            trees.append(spr_move(t, seed=n, stream=j) if rng.below(2) else t)
        yield trees


def test_leaf_set_verdict_matches_restricted_canonical():
    """The cluster-mask verdict equals comparing ``restricted_canonical`` forms
    of the leaf set in its start component and in every input tree, for
    every non-empty leaf subset of every start component. Starts are the
    first tree, the approximate forest of the first two trees, and the first
    tree with two random edges cut."""
    seen = {True: 0, False: 0}
    split_starts = 0
    for idx, trees in enumerate(_verdict_cases()):
        rng = SeededRng(103, stream=idx)
        first = Forest.from_tree(trees[0])
        pool = first.all_edges()
        random_cut = cut_edges(first, [pool[rng.below(len(pool))] for _ in range(2)])
        for start in (first, maf_approx(trees[:2])[0], random_cut):
            split_starts += start.size > 1
            leaf_bit, below, tree_masks = oracle._node_masks(start, trees)
            for comp in start.components:
                labels = sorted(comp.label_node)
                for size in range(1, len(labels) + 1):
                    for labs in itertools.combinations(labels, size):
                        piece = sum(leaf_bit[lab] for lab in labs)
                        form = restricted_canonical(comp, labs)
                        expected = all(restricted_canonical(t, labs) == form for t in trees)
                        got = oracle._leaf_set_agrees(piece, below, tree_masks)
                        assert got == expected, (idx, start.size, labs)
                        seen[expected] += 1
    assert split_starts >= 50 and min(seen.values()) >= 1000, (split_starts, seen)


def test_winner_is_rechecked(monkeypatch):
    """The partition test never decides alone: a winner the full agreement
    check rejects is an error, not a result."""
    monkeypatch.setattr(oracle, "is_agreement_forest", lambda f, trees: False)
    with pytest.raises(RuntimeError, match="partition test"):
        exact_maf([parse("((a,b),c);"), parse("((a,c),b);")])
