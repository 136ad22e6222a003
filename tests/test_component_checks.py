"""The component-level checks against their pairwise first implementations.

``is_agreement_forest`` (one sweep per tree), ``build_gf`` (a stack over
sorted mapped roots), ``find_overlap`` (a first-owner scan) and the
candidate walk of ``maaf_approx`` replaced scans over every component or
every pair of components. The old code is kept verbatim in
``tests/reference_*.py``; here both must agree on every forest that a
``maf_approx`` + ``maaf_approx`` run passes through, on tangled agreement
forests built to have many cycles, and (the agreement test) on random
partitions that are mostly not agreement forests.
"""

from mafkit import (
    Forest,
    GenSpec,
    PhyloTree,
    SeededRng,
    build_gf,
    cut_edges,
    find_overlap,
    instance,
    is_agreement_forest,
    maaf_approx,
    maf_approx,
)
from mafkit import maaf
from mafkit.forest import steiner_nodes
from mafkit.gen import _grafted_nested, random_tree, spr_move
from mafkit.tree import partition_forms, restrict, restricted_canonical, restricted_nested

import reference_forest
import reference_maaf
import reference_maf
from helpers import forest_newicks


def _check_forest(f, trees, seen):
    agrees = is_agreement_forest(f, trees)
    assert agrees == reference_forest.is_agreement_forest(f, trees)
    seen["agreement forests" if agrees else "other forests"] += 1
    g = build_gf(f, trees, validate=False)
    h = reference_maaf.build_gf(f, trees, validate=False)
    assert (g.n_vertices, g.edges) == (h.n_vertices, h.edges)
    seen["digraph edges"] += len(g.edges)
    for t in trees:
        got = find_overlap(f, t)
        assert got == reference_maf.find_overlap(f, t)
        if got is not None:
            seen["overlaps"] += 1
            # the least pair is not the first pair the scan sees
            seen["overlaps with x > 0"] += got.x > 0


def _grid():
    """48 instances: n in [4, 120], k in [2, 8], moves in [1, n // 6 + 1]."""
    for idx in range(48):
        rng = SeededRng(606, stream=idx)
        n = 4 + rng.below(117) if idx % 3 else 4 + rng.below(30)
        spec = GenSpec(n=n, k=2 + rng.below(7), moves=1 + rng.below(n // 6 + 1), seed=idx)
        yield instance(spec)


def test_component_checks_match_reference_on_runs():
    seen = dict.fromkeys(
        ("agreement forests", "other forests", "digraph edges", "overlaps",
         "overlaps with x > 0", "cycle entries"),
        0,
    )
    for trees in _grid():
        forest, cuts = maf_approx(trees)
        acyclic, cycle_cuts = maaf_approx(forest, trees)
        ref_acyclic, ref_cycle_cuts = reference_maaf.maaf_approx(forest, trees)
        assert forest_newicks(acyclic) == forest_newicks(ref_acyclic)
        assert cycle_cuts.entries == ref_cycle_cuts.entries
        seen["cycle entries"] += len(cycle_cuts.entries)
        f = Forest.from_tree(trees[0])
        _check_forest(f, trees, seen)
        for entry in cuts.entries + cycle_cuts.entries:
            f = cut_edges(f, entry.edges)
            _check_forest(f, trees, seen)
    print(f"\nforests checked: {seen}")
    assert min(seen.values()) > 0, seen


def _tangled(idx):
    """A random cut of a random tree t, and 1-7 more trees that graft its
    components onto each other's edges in random order. A graft leaves every
    component's embedding and restriction as they were, so the forest is an
    agreement forest of all the trees, with random nestings between them."""
    rng = SeededRng(808, stream=idx)
    n = 4 + rng.below(60)
    t = random_tree(n, seed=idx)
    edges = {(0, 1 + rng.below(t.n_nodes - 1)) for _ in range(1 + rng.below(n // 3 + 1))}
    f = cut_edges(Forest.from_tree(t), edges)
    trees = [t]
    for _ in range(1 + rng.below(7)):
        order = list(f.components)
        for i in range(len(order) - 1, 0, -1):
            j = rng.below(i + 1)
            order[i], order[j] = order[j], order[i]
        u = order[0]
        for c in order[1:]:
            # half the components go beside the rest (node 0), half inside
            target = rng.below(u.n_nodes) if rng.below(2) else 0
            nested = restricted_nested(c, c.leaf_labels)
            u = PhyloTree.from_nested(_grafted_nested(u, target, nested))
        trees.append(u)
    return f, trees


def test_cycle_loop_matches_reference_on_tangled_forests(monkeypatch):
    seen = {"cycle entries": 0, "long cycles": 0}
    find_cycle = maaf.find_cycle

    def counting(g):
        cycle = find_cycle(g)
        seen["long cycles"] += cycle is not None
        return cycle

    monkeypatch.setattr(maaf, "find_cycle", counting)
    for idx in range(200):
        f, trees = _tangled(idx)
        acyclic, cuts = maaf_approx(f, trees)
        ref_acyclic, ref_cuts = reference_maaf.maaf_approx(f, trees)
        assert forest_newicks(acyclic) == forest_newicks(ref_acyclic)
        assert cuts.entries == ref_cuts.entries
        seen["cycle entries"] += len(cuts.entries)
    print(f"\ntangled forests: {seen}")
    assert min(seen.values()) > 0, seen


def _disjoint(f, t) -> bool:
    stein = [steiner_nodes(t, c.leaf_labels) for c in f.components]
    return sum(map(len, stein)) == len(set().union(*stein))


def _block_of(f):
    return {lab: ci for ci, c in enumerate(f.components) for lab in c.leaf_labels}


def _halves(f, trees):
    """(every component restricts to itself, embeddings pairwise disjoint)
    in every tree: the two conditions the agreement check combines."""
    forms = all(
        restricted_canonical(t, c.leaf_labels) == c.canonical()
        for t in trees
        for c in f.components
    )
    return forms, all(_disjoint(f, t) for t in trees)


def _random_cases(idx):
    """Forests over one random tree t, each with input trees drawn from t,
    an SPR neighbour u and an unrelated tree w: a random partition of the
    taxa (restricted from t, u or w; in a quarter of cases mostly
    singletons), and a cut of t at random edges."""
    rng = SeededRng(707, stream=idx)
    n = 2 + rng.below(30)
    t = random_tree(n, seed=idx)
    u = spr_move(t, seed=idx, stream=1) if n > 2 else t
    w = random_tree(n, seed=idx + 10**6)
    blocks = 1 + rng.below(n)
    singles = rng.below(4) == 0
    parts: dict = {}
    for lab in sorted(t.leaf_labels):
        b = blocks + len(parts) if singles and rng.below(4) else rng.below(blocks)
        parts.setdefault(b, []).append(lab)
    source = (t, u, w)[rng.below(3)]
    comps = [restrict(source, taxa) for _, taxa in sorted(parts.items())]
    forests = [Forest.from_components(comps, t.leaf_labels)]
    edges = {(0, 1 + rng.below(t.n_nodes - 1)) for _ in range(1 + rng.below(4))}
    forests.append(cut_edges(Forest.from_tree(t), edges))
    for f in forests:
        for trees in ([t], [t, u], [u, t], [t, u, w], [w]):
            yield f, trees


def test_agreement_check_matches_reference_on_random_forests():
    seen = dict.fromkeys(("agree", "overlap only", "form mismatch only", "both"), 0)
    for idx in range(400):
        for f, trees in _random_cases(idx):
            got = is_agreement_forest(f, trees)
            assert got == reference_forest.is_agreement_forest(f, trees)
            forms, disjoint = _halves(f, trees)
            assert got == (forms and disjoint)
            for t in trees:
                # the sweep itself reports overlaps, not only via the forms
                swept = partition_forms(t, _block_of(f), [c.n_leaves for c in f.components])
                assert (swept is None) == (not _disjoint(f, t))
            kind = {
                (True, True): "agree",
                (True, False): "overlap only",
                (False, True): "form mismatch only",
                (False, False): "both",
            }[forms, disjoint]
            seen[kind] += 1
    print(f"\nrandom forests checked: {seen}")
    assert min(seen.values()) > 0, seen
