"""Scale guards: the triple search must stay far from its old cubic time and
quadratic memory, the checks over a forest's components must not redo a
per-component restriction or embedding, the exact search must restrict
nothing, parsing must stay linear and iterative, generation must build
each tree once, and cuts must build their pieces without nested tuples. The
bounds are generous, so a pass is not luck and a failure means a return to
a per-triple scan, a pairwise table, a rescan of every component, a
canonical string per leaf set, a recursive parser, a rebuild per SPR move
or a nested-tuple detour per cut."""

import gc
import sys
import time
import tracemalloc
from collections import Counter

import pytest

from mafkit import (
    GenSpec,
    PhyloTree,
    SeededRng,
    exact_maaf,
    exact_maf,
    instance,
    is_agreement_forest,
    maaf_approx,
    maf_approx,
    parse,
    serialize,
)
from mafkit import maaf, maf, tree, triples
from mafkit.forest import agreement_roots, steiner_nodes
from mafkit.gen import spr_move
from mafkit.maaf import mapped_roots

from helpers import canonical, nested_tree


def test_maf_n800_k4_under_30s():
    """The pairwise-table search took 80-86 s here; the LCA search under 1 s."""
    trees = instance(GenSpec(n=800, k=4, moves=4, seed=7_777))
    started = time.perf_counter()
    forest, _ = maf_approx(trees)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    assert is_agreement_forest(forest, trees)


def _random_tree(n, seed=1):
    """A random tree built in O(n) by merging random pairs of subtrees; its
    shape differs from ``gen.random_tree``'s sequential attachment."""
    rng = SeededRng(seed)
    pool = [f"t{i}" for i in range(1, n + 1)]
    while len(pool) > 1:
        i = rng.below(len(pool))
        pool[i], last = pool[-1], pool[i]
        pool.pop()
        j = rng.below(len(pool))
        pool[j] = (pool[j], last)
    return nested_tree(pool[0])


def _caterpillar(n):
    nested = "t1"
    for i in range(2, n + 1):
        nested = (nested, f"t{i}")
    return nested_tree(nested)


@pytest.mark.parametrize(
    "shape,n,moves",
    [
        pytest.param(_random_tree, 2000, 0, id="2000-0"),
        pytest.param(_random_tree, 500, 4, id="500-4"),
        pytest.param(_caterpillar, 3000, 0, id="caterpillar-3000-0"),
    ],
)
def test_maf_memory_stays_linear(shape, n, moves):
    """k=4. The old pairwise tables peaked at 390 MiB on the four identical
    n=2000 trees. On the n=500 case, keeping every conflicting triple of the
    winning level, as the old scan did, takes 20 MiB by itself. The LCA
    search stays near 1 MiB. On the caterpillar, keeping every node's
    canonical form alive while checking agreement took 32 MiB, O(n * depth)
    characters."""
    base = shape(n)
    trees = [base]
    for i in range(3):
        t = base
        for j in range(moves):
            t = spr_move(t, seed=1, stream=i * 65536 + j)
        trees.append(t)
    tracemalloc.start()
    try:
        _, cuts = maf_approx(trees)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bool(cuts.entries) == bool(moves)
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_component_checks_restrict_each_component_once(monkeypatch):
    """Counts, not times: on many components (m = 234 here, k = 8) the
    triple phase maps each component into each tree at most once (one
    ``lca_map`` through ``mafkit.triples`` per leaf set and input tree; a
    leaf set names one component, since components only ever split), and
    neither ``maf_approx`` nor the agreement check makes any
    ``restricted_canonical`` call: cleanliness is read off that map, where
    restricting each new component into each tree made 283 calls here."""
    trees = instance(GenSpec(n=300, k=8, moves=24, seed=0))
    maps = Counter()
    restricted = []
    real_map = triples.lca_map
    real_restricted = tree.restricted_canonical

    def counting_map(comp, t):
        maps[comp.leaf_labels, id(t)] += 1
        return real_map(comp, t)

    def counting_restricted(t, taxa):
        restricted.append(1)
        return real_restricted(t, taxa)

    monkeypatch.setattr(triples, "lca_map", counting_map)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mafkit" and hasattr(module, "restricted_canonical"):
            monkeypatch.setattr(module, "restricted_canonical", counting_restricted)
    forest, _ = maf_approx(trees)
    assert forest.size > 200
    inputs = {id(t) for t in trees}
    assert {t for _, t in maps} <= inputs
    assert maps and max(maps.values()) == 1, Counter(maps.values())
    assert not restricted, f"maf_approx: {len(restricted)} restricted_canonical calls"
    assert is_agreement_forest(forest, trees)
    assert not restricted, f"{len(restricted)} restricted_canonical calls"


def test_exact_search_restricts_nothing(monkeypatch):
    """Counts: the exact search decides every leaf set by cluster masks, so
    ``exact_maf`` plus ``exact_maaf`` make no ``restricted_canonical`` call;
    deciding each new leaf set by canonical strings made 4274 here."""
    trees = instance(GenSpec(n=10, k=3, moves=3, seed=5))
    calls = []
    real = tree.restricted_canonical

    def counting(t, taxa):
        calls.append(1)
        return real(t, taxa)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mafkit" and hasattr(module, "restricted_canonical"):
            monkeypatch.setattr(module, "restricted_canonical", counting)
    assert exact_maf(trees).min_cuts > 0
    assert exact_maaf(trees).min_cuts > 0
    assert not calls, f"{len(calls)} restricted_canonical calls"


def test_embeddings_computed_once(monkeypatch):
    """Counts, on the same instance: ``maf_approx`` asks ``find_overlap`` once
    per overlap cut plus once per tree to find it clean, and builds each
    Steiner set once per tree. ``maaf_approx`` takes the roots of the
    forest it is given from its agreement sweep, so ``mapped_roots`` runs
    only on the four pieces of each cycle cut, once each. Components only
    ever split, so a leaf set names one component."""
    trees = instance(GenSpec(n=300, k=8, moves=24, seed=0))
    overlap_calls = []
    steiner = Counter()
    roots = Counter()
    find_overlap = maf.find_overlap

    def counting_overlap(*args):
        overlap_calls.append(1)
        return find_overlap(*args)

    def counting_steiner(t, taxa):
        steiner[id(t), frozenset(taxa)] += 1
        return steiner_nodes(t, taxa)

    def counting_roots(comp, ts):
        roots[comp.leaf_labels] += 1
        return mapped_roots(comp, ts)

    monkeypatch.setattr(maf, "find_overlap", counting_overlap)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mafkit":
            for attr, fn in (("steiner_nodes", counting_steiner), ("mapped_roots", counting_roots)):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, fn)
    f, cuts = maf_approx(trees)
    assert cuts.count("overlap") > 0
    assert len(overlap_calls) == cuts.count("overlap") + len(trees) - 1
    assert steiner and max(steiner.values()) == 1, Counter(steiner.values())
    assert not roots
    _, cycle_cuts = maaf_approx(f, trees)
    assert cycle_cuts.entries
    assert sum(roots.values()) == 4 * len(cycle_cuts.entries), sum(roots.values())
    assert max(roots.values()) == 1, Counter(roots.values())


def test_acyclic_forest_builds_no_digraph(monkeypatch):
    """A MAF forest (m = 235, k = 8) that is acyclic on entry returns at
    once: no pairwise loop, no transitive digraph, no cycle search."""
    trees = instance(GenSpec(n=300, k=8, moves=24, seed=2))
    f, _ = maf_approx(trees)
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("_digraph", "find_cycle", "_two_cycle_witness", "mapped_roots"):
        monkeypatch.setattr(maaf, name, counting(name, getattr(maaf, name)))
    out, cuts = maaf_approx(f, trees)
    assert out.components == f.components and not cuts.entries
    assert not calls, calls


@pytest.mark.parametrize("shape", [_random_tree, _caterpillar], ids=["random", "caterpillar"])
def test_parse_20000_leaves_is_linear_and_iterative(shape):
    """The caterpillar nests 20 000 levels deep, far past the recursion
    limit, so a recursive parser fails here; the parse must also stay under
    the same 16 MiB bound and give back the very node tables."""
    t = shape(20_000)
    text = serialize(t)
    assert t.n_leaves > sys.getrecursionlimit()
    tracemalloc.start()
    try:
        back = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert (back.parent, back.children, back.labels) == (t.parent, t.children, t.labels)


def _count_builds(monkeypatch) -> Counter:
    """Count ``PhyloTree`` constructions, ``tree.split`` calls and the
    pieces those calls return, from here on, wherever a ``mafkit`` module
    holds ``split``."""
    calls = Counter()
    init = PhyloTree.__init__
    split = tree.split

    def counting_init(self, labels):
        calls["trees"] += 1
        init(self, labels)

    def counting_split(t, cut_children):
        calls["split"] += 1
        pieces = split(t, cut_children)
        calls["pieces"] += len(pieces)
        return pieces

    monkeypatch.setattr(PhyloTree, "__init__", counting_init)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mafkit" and hasattr(module, "split"):
            monkeypatch.setattr(module, "split", counting_split)
    return calls


def test_instance_builds_each_tree_once(monkeypatch):
    """Counts, not times: the SPR walks run on preorder arrays, so
    generating gen n = 2000, k = 8, moves = 80 builds exactly k = 8 trees
    and calls ``split`` never, where rebuilding the tree four times per move
    took about 5 s. With no moves every tree is the base tree itself."""
    calls = _count_builds(monkeypatch)
    trees = instance(GenSpec(n=2000, k=8, moves=80, seed=42))
    assert len(trees) == 8 and len({canonical(t) for t in trees}) == 8
    assert calls == Counter(trees=8), calls
    trees = instance(GenSpec(n=2000, k=8, moves=0, seed=42))
    assert all(t is trees[0] for t in trees)


def test_cuts_build_pieces_without_nested_tuples(monkeypatch):
    """Every tree built while cutting is a piece that ``tree.split`` returns,
    straight from its preorder labels: during ``maf_approx`` and
    ``maaf_approx`` on gen n = 300, k = 8, moves = 24 the constructions
    equal the pieces, where each cut component used to go through nested
    tuples and a second builder."""
    trees = instance(GenSpec(n=300, k=8, moves=24, seed=0))
    calls = _count_builds(monkeypatch)
    forest, _ = maf_approx(trees)
    acyclic, cycle_cuts = maaf_approx(forest, trees)
    assert cycle_cuts.entries and calls["split"] > 0
    assert calls["trees"] == calls["pieces"], calls
    assert is_agreement_forest(forest, trees) and is_agreement_forest(acyclic, trees)


def test_digraph_peak_stays_near_its_result():
    """The transitive digraph of a cyclic MAF forest (m = 234, k = 8) peaks
    within 1.6 times the dict it returns. Holding the witness lists, the
    sorted items and the returned dict at once peaked at 1.73 times."""
    trees = instance(GenSpec(n=300, k=8, moves=24, seed=0))
    roots = agreement_roots(maf_approx(trees)[0], trees)
    assert not maaf._acyclic(roots, trees)
    gc.collect()  # garbage freed inside the trace would shrink the result
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        g = maaf._digraph(roots, trees)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.edges) > 500
    returned, peak = current - entry, peak - entry
    assert peak <= 1.6 * returned, f"peak {peak} B for {returned} B returned"
