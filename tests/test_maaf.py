"""Component digraph, cycle removal, and the hybridization bound."""

import pytest

from mafkit import (
    Forest,
    GenSpec,
    SeededRng,
    build_gf,
    hybridization_upper_bound,
    instance,
    is_acyclic,
    is_agreement_forest,
    maaf_approx,
    maf_approx,
    parse,
    rspr_upper_bound,
)
from mafkit.maaf import ForestDigraph, find_cycle
from mafkit.oracle import exact_hybridization

import reference_maaf
from helpers import forest_canon, three_cycle_fixture


def two_cycle_fixture():
    """Two components that dominate each other in opposite trees."""
    t1 = parse("(x1,((y1,y2),x2));")
    t2 = parse("(y1,((x1,x2),y2));")
    f = Forest.from_components(
        [parse("(x1,x2);"), parse("(y1,y2);")], t1.leaf_labels
    )
    return f, [t1, t2]


def test_build_gf_single_component():
    t = parse("((a,b),c);")
    g = build_gf(Forest.from_tree(t), [t, parse("((a,b),c);")])
    assert g.n_vertices == 1
    assert g.edges == {}


def test_build_gf_witnesses():
    t1 = parse("((a,b),c);")
    t2 = parse("((a,c),b);")
    f = Forest.from_components([parse("(a,b);"), parse("c;")], t1.leaf_labels)
    g = build_gf(f, [t1, t2])
    # in t2 the pair {a,b} spans the root, which dominates leaf c; in t1 the
    # pair's ancestor is the inner node, no domination
    assert g.edges == {(0, 1): (1,)}
    assert is_acyclic(g)


def test_build_gf_requires_agreement():
    t1 = parse("((a,b),c);")
    t2 = parse("((a,c),b);")
    with pytest.raises(ValueError):
        build_gf(Forest.from_tree(t1), [t1, t2])


def test_opposite_nesting_makes_two_cycle():
    f, trees = two_cycle_fixture()
    assert is_agreement_forest(f, trees)
    g = build_gf(f, trees)
    assert g.edges == {(0, 1): (0,), (1, 0): (1,)}
    assert not is_acyclic(g)
    assert find_cycle(g) is not None


def test_is_acyclic_basics():
    assert is_acyclic(ForestDigraph(1, {}))
    assert not is_acyclic(ForestDigraph(2, {(0, 1): (0,), (1, 0): (1,)}))
    assert is_acyclic(ForestDigraph(3, {(0, 1): (0,), (1, 2): (0,), (0, 2): (1,)}))


def test_cycle_search_matches_kahn_reference():
    """2000 seeded digraphs on 1-8 vertices without self-loops, each edge
    present with probability 0-5/16."""
    verdicts = {True: 0, False: 0}
    for idx in range(2000):
        rng = SeededRng(505, stream=idx)
        n, density = 1 + rng.below(8), rng.below(6)
        edges = {
            (i, j): (0,)
            for i in range(n)
            for j in range(n)
            if i != j and rng.below(16) < density
        }
        g = ForestDigraph(n, edges)
        acyclic = is_acyclic(g)
        assert acyclic == reference_maaf.is_acyclic(g), edges
        cycle = find_cycle(g)
        assert (cycle is None) == acyclic, edges
        if cycle is not None:
            assert cycle, edges
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert (a, b) in edges, (cycle, edges)
        verdicts[acyclic] += 1
    assert min(verdicts.values()) > 200, verdicts


def test_maaf_keeps_acyclic_forest_untouched():
    t1 = parse("((a,b),c);")
    t2 = parse("((a,c),b);")
    f = Forest.from_components([parse("(a,b);"), parse("c;")], t1.leaf_labels)
    out, cuts = maaf_approx(f, [t1, t2])
    assert forest_canon(out) == forest_canon(f)
    assert cuts.edges_removed() == 0


def test_maaf_breaks_the_two_cycle_with_one_entry():
    f, trees = two_cycle_fixture()
    out, cuts = maaf_approx(f, trees)
    assert cuts.count("cycle") == 1
    assert cuts.edges_removed() == 2
    assert is_agreement_forest(out, trees)
    assert is_acyclic(build_gf(out, trees))


def test_cycle_cut_that_removes_no_edge_raises(monkeypatch):
    """A cycle cut that stops shrinking the forest must error, not loop."""
    from mafkit import cut_edges, maf

    f, trees = two_cycle_fixture()
    monkeypatch.setattr(
        maf, "cut_edges", lambda g, edges: g if len(edges) == 2 else cut_edges(g, edges)
    )
    with pytest.raises(RuntimeError, match="did not lower"):
        maaf_approx(f, trees)


def test_singleton_forest_needs_no_cuts():
    t1 = parse("((a,b),c);")
    t2 = parse("((a,c),b);")
    f = Forest.from_components(
        [parse("a;"), parse("b;"), parse("c;")], t1.leaf_labels
    )
    out, cuts = maaf_approx(f, [t1, t2])
    assert cuts.edges_removed() == 0
    assert out.size == 3


def test_maaf_requires_agreement_forest():
    t1 = parse("((a,b),c);")
    t2 = parse("((a,c),b);")
    with pytest.raises(ValueError):
        maaf_approx(Forest.from_tree(t1), [t1, t2])


def test_untouched_pairs_keep_their_relations():
    """Cycle cuts only split the two offending components; ancestor edges
    between the remaining pairs stay exactly as they were."""
    t1 = parse("((x1,((y1,y2),x2)),(p,q));")
    t2 = parse("((y1,((x1,x2),y2)),(p,q));")
    f = Forest.from_components(
        [parse("(x1,x2);"), parse("(y1,y2);"), parse("(p,q);")], t1.leaf_labels
    )
    assert is_agreement_forest(f, [t1, t2])
    before = build_gf(f, [t1, t2])
    out, cuts = maaf_approx(f, [t1, t2])
    assert cuts.count("cycle") == 1
    # component (p,q) survives; find it and compare its relations
    keep_old = next(i for i, c in enumerate(f.components) if "p" in c.leaf_labels)
    keep_new = next(i for i, c in enumerate(out.components) if "p" in c.leaf_labels)
    after = build_gf(out, [t1, t2])
    assert all(e[0] != keep_old and e[1] != keep_old for e in before.edges)
    assert all(e[0] != keep_new and e[1] != keep_new for e in after.edges)


def test_three_cycle_without_two_cycles_is_broken():
    """Three components each dominating the next in a different tree: no
    pair 2-cycles, so only the post-hoc digraph check can catch it."""
    f, trees = three_cycle_fixture()
    g = build_gf(f, trees)
    assert g.edges == {(0, 1): (0,), (1, 2): (1,), (2, 0): (2,)}
    assert not is_acyclic(g)
    out, cuts = maaf_approx(f, trees)
    assert cuts.count("cycle") == 1
    assert is_agreement_forest(out, trees)
    assert is_acyclic(build_gf(out, trees))


def test_hybridization_bound_cases():
    t = parse("((a,b),c);")
    assert hybridization_upper_bound([t, parse("((a,b),c);")]) == 0
    t2 = parse("((a,c),b);")
    bound = hybridization_upper_bound([t, t2])
    assert 1 <= bound <= 3
    assert exact_hybridization(t, t2) == 1
    # cycle cuts only ever split the forest further, so the reticulation
    # bound dominates the SPR bound obtained from the same pipeline
    assert bound >= rspr_upper_bound([t, t2])


def test_full_pipeline_on_natural_cycle_instance():
    # seeds known to give a MAF whose digraph is cyclic
    trees = instance(GenSpec(n=8, k=4, moves=2, seed=118))
    forest, _ = maf_approx(trees)
    assert not is_acyclic(build_gf(forest, trees, validate=False))
    out, cuts = maaf_approx(forest, trees)
    assert cuts.count("cycle") >= 1
    assert is_agreement_forest(out, trees)
    assert is_acyclic(build_gf(out, trees, validate=False))


# instances whose approximate forest is cyclic, small enough for the oracle
_CYCLIC_CASES = [
    (8, 4, 2, 118),
    (7, 4, 1, 798),
    (6, 3, 2, 835),
    (8, 3, 4, 970),
    (6, 2, 4, 1135),
    (7, 3, 4, 1750),
]


@pytest.mark.parametrize("n,k,moves,seed", _CYCLIC_CASES)
def test_cycle_cuts_lower_the_acyclic_optimum(n, k, moves, seed):
    """Each cycle-cut pair drops the exact cuts-to-acyclic-forest count by
    at least one. Empirical spot check on pinned instances."""
    from mafkit import cut_edges
    from mafkit.oracle import exact_maaf_forest

    trees = instance(GenSpec(n=n, k=k, moves=moves, seed=seed))
    forest, _ = maf_approx(trees)
    _, cycle_cuts = maaf_approx(forest, trees)
    assert cycle_cuts.count("cycle") >= 1
    for entry in cycle_cuts.entries:
        before = exact_maaf_forest(forest, trees).min_cuts
        forest = cut_edges(forest, entry.edges)
        after = exact_maaf_forest(forest, trees).min_cuts
        assert after <= before - 1
