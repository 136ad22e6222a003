"""Scale guards: the triple search must stay far from its old cubic time and
quadratic memory, the checks over a forest's components must not redo a
per-component restriction or embedding, the exact search must restrict
nothing and share its verdicts with the next search on the same trees,
parsing must stay linear and iterative, generation must build
each tree once, cuts must build their pieces without nested tuples, a
tree must keep no table beside its parent links and labels, and the cycle
phase must leave single leaves out. The bounds are generous, so a pass is
not luck and a failure means a return to a per-triple scan, a pairwise
table, a rescan of outer levels, a rescan of every component, a canonical
string per leaf set, a recursive parser, a rebuild per SPR move, a
nested-tuple detour per cut, a per-node child table, a cycle test on
components that dominate nothing or a verdict decided twice by exact
searches on the same trees. Each time guard fails once its bound passes,
not when a slow run ends."""

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
    read_trees,
    serialize,
    write_trees,
)
from mafkit import maaf, maf, oracle, tree, triples
from mafkit.forest import agreement_roots, steiner_nodes
from mafkit.gen import random_tree, spr_move
from mafkit.maaf import mapped_roots

from helpers import canonical, caterpillar, deadline, interleaved_pair, nested_tree


def test_maf_n800_k4_under_30s():
    """The pairwise-table search took 80-86 s here; the LCA search under 1 s."""
    trees = instance(GenSpec(n=800, k=4, moves=4, seed=7_777))
    with deadline(30.0):
        started = time.perf_counter()
        forest, _ = maf_approx(trees)
        elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    assert is_agreement_forest(forest, trees)


def test_shallow_conflicts_gen_n3200_under_1s():
    """The conflicts here sit far above the big component's deepest level.
    Scanning outer levels from the deepest took 1.6-2.7 s on a 2-vCPU Xeon;
    reading the level off the LCA map takes 0.13-0.27 s."""
    trees = instance(GenSpec(n=3200, k=4, moves=8, seed=42))
    with deadline(1.0):
        started = time.perf_counter()
        forest, _ = maf_approx(trees)
        elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    assert is_agreement_forest(forest, trees)


def test_interleaved_caterpillars_n1200_under_2_5s():
    """Every triple entry leaves a host about n nodes deep to map again.
    Balancing both nodes' depths per LCA took 4.2-4.5 s here on a 2-vCPU Xeon;
    climbing from the smaller id by interval tests takes about 0.6 s."""
    trees = interleaved_pair(600)
    with deadline(2.5):
        started = time.perf_counter()
        forest, cuts = maf_approx(trees)
        elapsed = time.perf_counter() - started
    assert elapsed < 2.5, f"took {elapsed:.1f}s"
    assert forest.size == 1200 and all(c.n_nodes == 1 for c in forest.components)
    assert cuts.count("triple") == len(cuts.entries) == 400, len(cuts.entries)


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
    return caterpillar([f"t{i}" for i in range(1, n + 1)])


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


def test_exact_searches_on_the_same_trees_decide_each_leaf_set_once(monkeypatch):
    """Counts, on the same instance: ``exact_maaf`` after ``exact_maf`` on
    the same tree list decides no leaf set again (a memo per search
    repeated 689 verdicts here, 3173 over the benchmark's oracle grid), and
    a search on a re-parse of the same text makes as many verdict calls as
    the cold search, so nothing carries over between parses."""
    text = write_trees(instance(GenSpec(n=10, k=3, moves=3, seed=5)))
    pieces = Counter()
    real = oracle._leaf_set_agrees

    def counting(piece, below, tree_masks):
        pieces[piece] += 1
        return real(piece, below, tree_masks)

    monkeypatch.setattr(oracle, "_leaf_set_agrees", counting)
    trees = read_trees(text)
    assert exact_maf(trees).min_cuts > 0
    cold = sum(pieces.values())
    assert exact_maaf(trees).min_cuts > 0
    assert cold and max(pieces.values()) == 1, Counter(pieces.values())
    pieces.clear()
    assert exact_maf(read_trees(text)).min_cuts > 0
    assert sum(pieces.values()) == cold


def test_embeddings_computed_once(monkeypatch):
    """Counts, on the same instance: ``maf_approx`` asks ``find_overlap`` once
    per overlap cut plus once per tree to find it clean, and builds Steiner
    sets only for the two components of each overlap cut, so each at most
    once per tree. ``maaf_approx`` takes the roots of the
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
    assert sum(steiner.values()) == 2 * cuts.count("overlap"), sum(steiner.values())
    assert max(steiner.values()) == 1, Counter(steiner.values())
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
    assert out is f and not cuts.entries
    assert not calls, calls


def test_cycle_phase_leaves_single_leaves_out(monkeypatch):
    """Counts, on gen n = 2000, k = 8, moves = 80, whose MAF forest holds 739
    single leaves among its 1081 components and needs cycle cuts and the
    long-cycle fallback. A single leaf maps to itself in every tree, so it
    dominates nothing: no 2-cycle witness test and no fallback digraph gets
    its roots, and each digraph gets exactly the roots of the forest's other
    components, in forest order. The run takes under 1 s; a triple search
    gone slow made it take over 5 minutes, so it runs under a deadline."""
    trees = instance(GenSpec(n=2000, k=8, moves=80, seed=42))
    with deadline(30.0):
        f, _ = maf_approx(trees)
    size0 = trees[0].sizes
    held = [f]  # the forest maaf_approx holds: its input, then each cut's result
    calls = Counter()
    real_cut, real_digraph, real_witness = maaf._cut, maaf._digraph, maaf._two_cycle_witness

    def cutting(forest, edges):
        held[0] = real_cut(forest, edges)
        return held[0]

    def digraph(roots, ts):
        calls["_digraph"] += 1
        assert all(size0[r[0]] > 1 for r in roots), "a single leaf in the digraph"
        tangled = [c for c in held[0].components if c.n_nodes > 1]
        assert [list(r) for r in roots] == [mapped_roots(c, ts) for c in tangled]
        return real_digraph(roots, ts)

    def witness(roots_x, roots_y, ts):
        calls["_two_cycle_witness"] += 1
        assert size0[roots_x[0]] > 1 and size0[roots_y[0]] > 1, "a single leaf tested"
        return real_witness(roots_x, roots_y, ts)

    monkeypatch.setattr(maaf, "_cut", cutting)
    monkeypatch.setattr(maaf, "_digraph", digraph)
    monkeypatch.setattr(maaf, "_two_cycle_witness", witness)
    assert sum(c.n_nodes == 1 for c in f.components) == 739 and f.size == 1081
    with deadline(30.0):
        out, cuts = maaf_approx(f, trees)
    assert calls["_digraph"] > 0 and calls["_two_cycle_witness"] > 0, calls
    assert cuts.entries and out.components == held[0].components


def test_cycle_fallback_drops_the_settled_index_first():
    """On gen n = 2000, k = 8, moves = 80, whose cycles reach the long-cycle
    fallback, ``maaf_approx`` alone peaks at 1.31 MiB under tracemalloc.
    Holding the settled index while the fallback builds its transitive
    digraph peaked at 1.47 MiB."""
    trees = instance(GenSpec(n=2000, k=8, moves=80, seed=42))
    with deadline(30.0):
        f, _ = maf_approx(trees)
    gc.collect()
    tracemalloc.start()
    try:
        with deadline(30.0):
            _, cuts = maaf_approx(f, trees)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cuts.entries
    assert peak <= 1.38 * 2**20, f"peak {peak / 2**20:.3f} MiB"


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
    assert (back.parent, back.labels) == (t.parent, t.labels)


@pytest.mark.parametrize(
    "shape", [lambda n: random_tree(n, seed=1), _caterpillar], ids=["random", "caterpillar"]
)
def test_tree_keeps_no_child_table(shape):
    """A tree keeps its parent links and labels, and reads children off
    preorder sizes. With a (left, right) tuple per internal node as well,
    the constructor retained 2.74 MiB on these 20 000-leaf trees; without
    one, 0.83 MiB."""
    labels = list(shape(20_000).labels)
    gc.collect()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        t = PhyloTree(labels)
        retained = tracemalloc.get_traced_memory()[0] - entry
    finally:
        tracemalloc.stop()
    assert t.n_leaves == 20_000
    assert retained < 2.0 * 2**20, f"retained {retained / 2**20:.2f} MiB"


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
