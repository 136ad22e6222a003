"""The component-level checks against their pairwise first implementations.

``is_agreement_forest`` (one sweep per tree), ``build_gf`` (a stack over
sorted mapped roots), ``find_overlap`` (a first-owner scan) and the
candidate walk of ``maaf_approx`` replaced scans over every component or
every pair of components. The old code is kept verbatim in
``tests/reference_*.py``; here both must agree on every forest that a
``maf_approx`` + ``maaf_approx`` run passes through, on tangled agreement
forests built to have many cycles, and (the agreement test) on random
partitions that are mostly not agreement forests. ``maf_approx`` itself,
one pass per phase with Steiner sets kept across a tree's overlap cuts, must
match the old loop that swept each phase until nothing changed. The mapped
roots read off the agreement sweep must equal ``mapped_roots``, and the
cover-edge acyclicity test must agree with ``find_cycle`` on the transitive
digraph.
"""

from mafkit import (
    Forest,
    GenSpec,
    SeededRng,
    build_gf,
    instance,
    is_agreement_forest,
    maaf_approx,
    maf_approx,
)
from mafkit import maaf, maf
from mafkit.forest import agreement_roots, cut_edges, steiner_nodes
from mafkit.gen import random_tree, spr_move
from mafkit.maf import find_overlap
from mafkit.tree import lca, partition_tops, restricted_canonical

import reference_forest
import reference_maaf
import reference_maf
from reference_gen import _grafted_nested
from reference_tree import restrict, restricted_nested
from helpers import canonical, derived_params, forest_newicks, nested_tree, three_cycle_fixture


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


def _caterpillar(order):
    nested = order[0]
    for lab in order[1:]:
        nested = (nested, lab)
    return nested_tree(nested)


def _caterpillar_cases():
    """12 deep instances: a caterpillar on 6-55 taxa, and 1-5 more trees,
    each the caterpillar with 1-4 random label swaps, half of them then
    moved by one SPR."""
    for idx in range(12):
        rng = SeededRng(909, stream=idx)
        labels = [f"t{i}" for i in range(1, 7 + rng.below(50))]
        trees = [_caterpillar(labels)]
        for j in range(1 + rng.below(5)):
            order = list(labels)
            for _ in range(1 + rng.below(4)):
                a, b = rng.below(len(order)), rng.below(len(order))
                order[a], order[b] = order[b], order[a]
            t = _caterpillar(order)
            trees.append(spr_move(t, seed=idx, stream=j) if rng.below(2) else t)
        yield trees


def test_one_pass_phases_match_sweeps_until_clean():
    """A second sweep of either phase never cuts, since pieces keep a subset
    of their parent's triples and of its embedding in every tree; so the
    forest and the whole cut log must equal the old loop's."""
    seen = {"triple": 0, "overlap": 0}
    for trees in [*_grid(), *_caterpillar_cases()]:
        forest, cuts = maf_approx(trees)
        ref_forest, ref_cuts = reference_maf.maf_approx(trees)
        assert forest_newicks(forest) == forest_newicks(ref_forest)
        assert cuts.entries == ref_cuts.entries
        for phase in seen:
            seen[phase] += cuts.count(phase)
    print(f"\ncut entries: {seen}")
    assert min(seen.values()) > 0, seen


def test_overlap_sets_kept_per_tree_match_fresh_search(monkeypatch):
    """``maf_approx`` hands ``find_overlap`` one dict of Steiner sets per
    tree and keeps it across that tree's cuts. At every call the dict must
    hold only live components, each with its Steiner set in that tree, and
    the answer must equal a search without the dict."""
    real = maf.find_overlap
    calls = []

    def checking(f, t, sets):
        live = {id(c) for c in f.components}
        assert all(id(c) in live for c in sets), "a cut component was kept"
        for c, nodes in sets.items():
            assert nodes == steiner_nodes(t, c.leaf_labels)
        calls.append((t, sets, len(sets)))
        got = real(f, t, sets)
        assert got == real(f, t)
        return got

    monkeypatch.setattr(maf, "find_overlap", checking)
    reused = 0
    for trees in [*_grid(), *_caterpillar_cases()]:
        calls.clear()
        maf_approx(trees)
        dict_of = {}
        for t, sets, _ in calls:
            assert dict_of.setdefault(id(t), sets) is sets, "one dict per tree"
        assert len({id(d) for d in dict_of.values()}) == len(dict_of) == len(trees) - 1
        reused += sum(n > 0 for _, _, n in calls)
    assert reused > 0


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
            u = nested_tree(_grafted_nested(u, target, nested))
        trees.append(u)
    return f, trees


def test_acyclic_matches_transitive_digraph(monkeypatch):
    """``maaf._acyclic`` decides on cover edges what ``find_cycle`` decides
    on the transitive digraph. Checked on every state ``maaf_approx`` asks
    about: each forest on entry and after each round, on the 200 tangled
    forests, the criterion-1 MAF forests and the three-cycle fixture."""
    seen = {True: 0, False: 0}
    acyclic = maaf._acyclic

    def checking(roots, trees):
        got = acyclic(roots, trees)
        assert got == maaf.is_acyclic(maaf._digraph(roots, trees))
        seen[got] += 1
        return got

    monkeypatch.setattr(maaf, "_acyclic", checking)
    cases = [_tangled(idx) for idx in range(200)] + [three_cycle_fixture()]
    for idx in range(500):
        trees = instance(derived_params(101, idx, 4, 12, 4, 4))
        cases.append((maf_approx(trees)[0], trees))
    for f, trees in cases:
        maaf_approx(f, trees)
    print(f"\n_acyclic verdicts: {seen}")
    assert min(seen.values()) > 0, seen


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
        restricted_canonical(t, c.leaf_labels) == canonical(c)
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
    seen = dict.fromkeys(
        ("agree", "overlap only", "form mismatch only", "both", "tree: form mismatch only"), 0
    )
    for idx in range(400):
        for f, trees in _random_cases(idx):
            got = is_agreement_forest(f, trees)
            assert got == reference_forest.is_agreement_forest(f, trees)
            forms, disjoint = _halves(f, trees)
            assert got == (forms and disjoint)
            for t in trees:
                # per tree, the sweep stops iff either half fails there, and
                # otherwise closes each component at its lca
                tops = partition_tops(t, f.components, _block_of(f))
                halves = _halves(f, [t])
                if halves == (True, True):
                    assert tops == [lca(t, c.label_node) for c in f.components]
                else:
                    assert tops is None
                seen["tree: form mismatch only"] += halves == (False, True)
            kind = {
                (True, True): "agree",
                (True, False): "overlap only",
                (False, True): "form mismatch only",
                (False, False): "both",
            }[forms, disjoint]
            seen[kind] += 1
    print(f"\nrandom forests checked: {seen}")
    assert min(seen.values()) > 0, seen


def _caterpillar_forests():
    """Forests on the caterpillar cases: every forest a ``maf_approx`` +
    ``maaf_approx`` run passes through, and a cut of the first tree at 1-4
    random edges."""
    for idx, trees in enumerate(_caterpillar_cases()):
        forest, cuts = maf_approx(trees)
        _, cycle_cuts = maaf_approx(forest, trees)
        f = Forest.from_tree(trees[0])
        yield f, trees
        for entry in cuts.entries + cycle_cuts.entries:
            f = cut_edges(f, entry.edges)
            yield f, trees
        rng = SeededRng(919, stream=idx)
        t = trees[0]
        edges = {(0, 1 + rng.below(t.n_nodes - 1)) for _ in range(1 + rng.below(4))}
        yield cut_edges(Forest.from_tree(t), edges), trees


def test_agreement_roots_match_mapped_roots():
    """``agreement_roots`` gives each tree's ``mapped_roots`` of every
    component of an agreement forest, and None exactly where the reference
    check rejects the forest."""
    seen = dict.fromkeys(("random agree", "random other", "caterpillar agree",
                          "caterpillar other"), 0)
    cases = [("random", case) for idx in range(400) for case in _random_cases(idx)]
    cases += [("caterpillar", case) for case in _caterpillar_forests()]
    for kind, (f, trees) in cases:
        got = agreement_roots(f, trees)
        agrees = reference_forest.is_agreement_forest(f, trees)
        assert (got is not None) == agrees
        if agrees:
            expected = [maaf.mapped_roots(c, trees) for c in f.components]
            assert [list(r) for r in got] == expected
        seen[f"{kind} {'agree' if agrees else 'other'}"] += 1
    print(f"\nagreement roots checked: {seen}")
    assert min(seen.values()) > 0, seen
