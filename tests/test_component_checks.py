"""The component-level checks against their pairwise first implementations.

``is_agreement_forest`` (one sweep per tree), ``build_gf`` (a stack over
sorted mapped roots), ``find_overlap`` (a first-owner climb) and the
candidate walk of ``maaf_approx`` replaced scans over every component or
every pair of components. The old code is kept verbatim in
``tests/reference_*.py``; here both must agree on every forest that a
``maf_approx`` + ``maaf_approx`` run passes through, on tangled agreement
forests built to have many cycles, and (the agreement test) on random
partitions that are mostly not agreement forests. ``maf_approx`` itself,
one pass per phase, must match the old loop that swept each phase until
nothing changed, and each of its overlap searches must match the pairwise
one, and each of its conflict searches must match the old outer-level scan.
The mapped roots read off the agreement sweep must equal
``mapped_roots``, the cover-edge acyclicity test must agree with
``find_cycle`` on the transitive digraph, and the one-sided 2-cycle witness
with the two-sided one on every pair the cycle loop tests.
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
from mafkit import maaf, maf, triples
from mafkit.forest import agreement_roots, cut_edges, steiner_nodes
from mafkit.gen import random_tree, spr_move
from mafkit.maf import find_overlap
from mafkit.tree import below, lca, partition_tops, restricted_canonical

import reference_forest
import reference_maaf
import reference_maf
import reference_triples
from reference_gen import _grafted_nested
from reference_tree import restrict, restricted_nested
from helpers import (
    canonical,
    caterpillar,
    children,
    depths,
    derived_params,
    forest_newicks,
    interleaved_pair,
    nested_tree,
    three_cycle_fixture,
)


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


def _caterpillar_cases():
    """12 deep instances: a caterpillar on 6-55 taxa, and 1-5 more trees,
    each the caterpillar with 1-4 random label swaps, half of them then
    moved by one SPR."""
    for idx in range(12):
        rng = SeededRng(909, stream=idx)
        labels = [f"t{i}" for i in range(1, 7 + rng.below(50))]
        trees = [caterpillar(labels)]
        for j in range(1 + rng.below(5)):
            order = list(labels)
            for _ in range(1 + rng.below(4)):
                a, b = rng.below(len(order)), rng.below(len(order))
                order[a], order[b] = order[b], order[a]
            t = caterpillar(order)
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


def test_overlap_search_matches_reference_at_every_call(monkeypatch):
    """Every ``find_overlap`` call that ``maf_approx`` makes, on each tree's
    forest before and after each of its overlap cuts, must return what the
    pairwise reference search returns, including least pairs with x > 0."""
    real = maf.find_overlap
    seen = {"calls": 0, "overlaps with x > 0": 0}

    def checking(f, t):
        got = real(f, t)
        assert got == reference_maf.find_overlap(f, t)
        seen["calls"] += 1
        seen["overlaps with x > 0"] += got is not None and got.x > 0
        return got

    monkeypatch.setattr(maf, "find_overlap", checking)
    for trees in [*_grid(), *_caterpillar_cases()]:
        maf_approx(trees)
    print(f"\noverlap searches: {seen}")
    assert min(seen.values()) > 0, seen


def test_conflict_search_matches_level_scan_at_every_call(monkeypatch):
    """Every ``_deepest_conflict`` call that ``maf_approx`` makes must find
    the component clean exactly when the old cleanliness test does, and
    otherwise return the old level scan's triple and map. Conflicts whose
    outer sits above the component's deepest outer level are the ones that
    scan reached only after rescanning deeper levels."""
    real = triples._deepest_conflict
    seen = {"clean": 0, "conflicting": 0, "outer above the deepest level": 0}

    def checking(comp, host, t_i, m):
        got = real(comp, host, t_i, m)
        if reference_triples.realized_level_scan(comp, m):
            assert got is None
            seen["clean"] += 1
        else:
            assert got == reference_triples.deepest_conflict_level_scan(comp, host, t_i, m)
            seen["conflicting"] += 1
            # an outer needs an internal child for a cherry to sit in
            kids = children(comp)
            outers = [u for u, ks in enumerate(kids) if ks and (kids[ks[0]] or kids[ks[1]])]
            depth = depths(comp)
            deepest = max(depth[u] for u in outers)
            seen["outer above the deepest level"] += depth[got[0].triple_lca] < deepest
        return got

    monkeypatch.setattr(triples, "_deepest_conflict", checking)
    cases = [*_grid(), *_caterpillar_cases(), *(interleaved_pair(m) for m in (4, 9, 25))]
    for trees in cases:
        maf_approx(trees)
    print(f"\nconflict searches: {seen}")
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
            u = nested_tree(_grafted_nested(u, target, nested))
        trees.append(u)
    return f, trees


def _cycle_cases():
    """The 200 tangled forests, the three-cycle fixture and the criterion-1
    MAF forests, with their trees."""
    yield from (_tangled(idx) for idx in range(200))
    yield three_cycle_fixture()
    for idx in range(500):
        trees = instance(derived_params(101, idx, 4, 12, 4, 4))
        yield maf_approx(trees)[0], trees


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
    for f, trees in _cycle_cases():
        maaf_approx(f, trees)
    print(f"\n_acyclic verdicts: {seen}")
    assert min(seen.values()) > 0, seen


def test_witness_matches_two_sided_reference(monkeypatch):
    """``maaf._two_cycle_witness`` looks only for a tree where x dominates
    y, since ``maaf_approx`` passes only a y that dominates x in some tree.
    Every call must return what the reference, which checks both sides,
    returns on the same pair; a y that dominates x nowhere fails the test."""
    seen = {"2-cycles": 0, "no witness": 0}
    witness = maaf._two_cycle_witness

    def checking(roots_x, roots_y, trees):
        assert any(
            below(t, rx, ry) and rx != ry for t, rx, ry in zip(trees, roots_x, roots_y)
        )
        got = witness(roots_x, roots_y, trees)
        assert got == reference_maaf._two_cycle_witness(roots_x, roots_y, trees)
        seen["no witness" if got is None else "2-cycles"] += 1
        return got

    monkeypatch.setattr(maaf, "_two_cycle_witness", checking)
    for f, trees in _cycle_cases():
        maaf_approx(f, trees)
    print(f"\nwitness calls: {seen}")
    assert min(seen.values()) > 0, seen


def test_cycle_loop_matches_reference_on_tangled_forests(monkeypatch):
    """Long cycles found beside single leaves are the ones where the
    fallback's digraph, which leaves single leaves out, numbers components
    differently from the forest."""
    seen = {"cycle entries": 0, "long cycles": 0, "long cycles beside single leaves": 0}
    held = [None]  # the forest maaf_approx holds: its input, then each cut's result
    find_cycle, cut = maaf.find_cycle, maaf._cut

    def counting(g):
        cycle = find_cycle(g)
        seen["long cycles"] += cycle is not None
        seen["long cycles beside single leaves"] += cycle is not None and any(
            c.n_nodes == 1 for c in held[0].components
        )
        return cycle

    def cutting(forest, edges):
        held[0] = cut(forest, edges)
        return held[0]

    monkeypatch.setattr(maaf, "find_cycle", counting)
    monkeypatch.setattr(maaf, "_cut", cutting)
    for idx in range(200):
        f, trees = _tangled(idx)
        held[0] = f
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
