"""The approximation driver: overlaps, the two phases, and the ratio."""

import pytest
from hypothesis import given, settings, strategies as st

from mafkit import (
    Forest,
    GenSpec,
    SeededRng,
    exact_maf,
    instance,
    is_agreement_forest,
    maf_approx,
    parse,
)
from mafkit import maf
from mafkit.forest import cut_edges, steiner_nodes
from mafkit.maf import find_overlap, rspr_upper_bound
from mafkit.oracle import exact_maf_forest

from helpers import forest_canon
from reference_maf import deepest_shared


def test_no_overlap_with_leaf_component():
    # a bare leaf embeds as itself and can never share a node
    f = Forest.from_components([parse("(a,b);"), parse("c;")], frozenset("abc"))
    assert find_overlap(f, parse("((a,c),b);")) is None


def test_overlap_through_shared_spine():
    f = Forest.from_components([parse("(a,b);"), parse("(c,d);")], frozenset("abcd"))
    t = parse("((a,c),(b,d));")  # ids: 0 root, 1 (a,c), 2 a, 3 c, 4 (b,d), 5 b, 6 d
    ow = find_overlap(f, t)
    assert (ow.x, ow.y) == (0, 1)
    # deepest shared node of the two embeddings (both pass through the root;
    # the cherries below are shared too and win on depth)
    assert deepest_shared(t, steiner_nodes(t, "ab"), steiner_nodes(t, "cd")) == 1
    assert ow.edge_x == 1  # leaf a within component (a,b)
    assert ow.edge_y == 1  # leaf c within component (c,d)


def test_single_component_cannot_overlap():
    t = parse("((a,b),c);")
    assert find_overlap(Forest.from_tree(t), t) is None


def test_identical_trees_zero_cuts():
    t = parse("((a,b),(c,d));")
    forest, cuts = maf_approx([t, parse("((a,b),(c,d));")])
    assert forest.size == 1
    assert cuts.edges_removed() == 0


def test_three_leaf_pair_bounds():
    t1, t2 = parse("((a,b),c);"), parse("((a,c),b);")
    forest, cuts = maf_approx([t1, t2])
    assert is_agreement_forest(forest, [t1, t2])
    assert cuts.edges_removed() <= 3
    assert forest.size <= 4
    assert exact_maf([t1, t2]).min_cuts == 1


def test_one_outlier_among_three_trees():
    trees = [parse("((a,b),c);"), parse("((a,b),c);"), parse("((b,c),a);")]
    forest, cuts = maf_approx(trees)
    assert is_agreement_forest(forest, trees)
    assert cuts.edges_removed() <= 3 * exact_maf(trees).min_cuts


def test_input_validation():
    t = parse("((a,b),c);")
    with pytest.raises(ValueError):
        maf_approx([t])
    with pytest.raises(ValueError):
        maf_approx([t, parse("((a,b),d);")])
    with pytest.raises(ValueError):
        rspr_upper_bound([t, t, t])


def test_rspr_upper_bound_cases():
    t = parse("((a,b),c);")
    assert rspr_upper_bound([t, parse("((a,b),c);")]) == 0
    bound = rspr_upper_bound([t, parse("((a,c),b);")])
    assert 1 <= bound <= 3
    leaf = parse("a;")
    assert rspr_upper_bound([leaf, parse("a;")]) == 0


def test_determinism_of_runs():
    trees = instance(GenSpec(n=9, k=3, moves=3, seed=17))
    f1, c1 = maf_approx(trees)
    f2, c2 = maf_approx(trees)
    assert forest_canon(f1) == forest_canon(f2)
    assert [e.edges for e in c1.entries] == [e.edges for e in c2.entries]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_output_always_agrees(seed):
    rng = SeededRng(seed, stream=8)
    spec = GenSpec(
        n=4 + rng.below(8), k=2 + rng.below(3), moves=rng.below(5), seed=seed
    )
    trees = instance(spec)
    forest, cuts = maf_approx(trees)
    assert is_agreement_forest(forest, trees)
    # phase accounting: triple entries cut 3 edges, overlap entries 2
    for e in cuts.entries:
        assert (e.phase, len(e.edges)) in (("triple", 3), ("overlap", 2))
    # a fragmented forest can only come from logged cuts
    if forest.size > 1:
        assert cuts.entries


def test_termination_bound():
    trees = instance(GenSpec(n=12, k=4, moves=4, seed=5))
    _, cuts = maf_approx(trees)
    assert len(cuts.entries) <= 2 * trees[0].n_leaves - 2


@pytest.mark.parametrize("seed", range(20))
def test_each_cut_lowers_the_optimum(seed):
    """Replaying the cut log step by step, the exact optimum drops by at
    least one per iteration — the inequality behind the factor-3 argument.
    Fixed seeds: this is an empirical spot check, not a derived guarantee."""
    rng = SeededRng(seed, stream=13)
    n = 4 + rng.below(3)  # keep the oracle cheap
    trees = instance(GenSpec(n=n, k=2 + rng.below(2), moves=1 + rng.below(2), seed=seed))
    _, cuts = maf_approx(trees)
    forest = Forest.from_tree(trees[0])
    for entry in cuts.entries:
        before = exact_maf_forest(forest, trees).min_cuts
        forest = cut_edges(forest, entry.edges)
        after = exact_maf_forest(forest, trees).min_cuts
        assert after <= before - 1


@pytest.mark.parametrize("phase", ["triple", "overlap"])
def test_cut_that_removes_no_edge_raises(monkeypatch, phase):
    """A cut rule that stops shrinking the forest must error, not hang."""
    trees = instance(GenSpec(n=8, k=2, moves=3, seed=1))
    assert {e.phase for e in maf_approx(trees)[1].entries} == {"triple", "overlap"}
    width = {"triple": 3, "overlap": 2}[phase]
    monkeypatch.setattr(
        maf,
        "cut_edges",
        lambda f, edges: f if len(edges) == width else cut_edges(f, edges),
    )
    with pytest.raises(RuntimeError, match="did not lower"):
        maf_approx(trees)
