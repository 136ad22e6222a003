"""Acceptance suite: one test per advertised guarantee, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. The ratio criteria are exact inequalities against the brute-force
oracle; nothing here is tuned or tolerance-padded.
"""

import itertools
import json
import time
from collections import Counter

import pytest

from mafkit import (
    Forest,
    GenSpec,
    SeededRng,
    build_gf,
    cut_edges,
    exact_maaf,
    exact_maf,
    exact_rspr,
    instance,
    is_acyclic,
    is_agreement_forest,
    maaf_approx,
    maf_approx,
)
from mafkit.cli import main
from mafkit.gen import random_tree
from mafkit.tree import _lca2

from helpers import all_topologies, derived_params, forest_canon, forest_newicks


def test_c1_validity_500_random_instances():
    """maf output is an agreement forest; maaf output is additionally
    acyclic. 500 instances, n in [4,12], k in {2,3,4}, moves in [0,4]."""
    started = time.perf_counter()
    for idx in range(500):
        spec = derived_params(101, idx, 4, 12, 4, 4)
        trees = instance(spec)
        forest, _ = maf_approx(trees)
        assert is_agreement_forest(forest, trees), spec
        acyclic_forest, _ = maaf_approx(forest, trees)
        assert is_agreement_forest(acyclic_forest, trees), spec
        assert is_acyclic(build_gf(acyclic_forest, trees, validate=False)), spec
    print(f"\ncriterion 1: 500/500 valid in {time.perf_counter() - started:.1f}s")


def _replay(forest, entries):
    """Re-apply a cut log entry by entry, checking each step, and return
    the forest it ends with."""
    for entry in entries:
        width = {"triple": 3, "overlap": 2, "cycle": 2}[entry.phase]
        assert len(set(entry.edges)) == len(entry.edges) == width, entry
        for ci, v in entry.edges:
            assert 0 <= ci < forest.size, entry
            assert 1 <= v < forest.components[ci].n_nodes, entry
        after = cut_edges(forest, entry.edges)
        assert _edge_count(after) < _edge_count(forest), entry
        forest = after
    return forest


def _edge_count(forest):
    return sum(c.n_nodes - 1 for c in forest.components)


def test_c1_cut_logs_replay():
    """On the criterion-1 instances, replaying the maf cut log from the
    first tree rebuilds the maf forest, and replaying the cycle log from it
    rebuilds the acyclic forest; every entry names existing, distinct edges
    (3 for a triple, 2 for an overlap or a cycle) and lowers the edge count."""
    phases = Counter()
    for idx in range(500):
        spec = derived_params(101, idx, 4, 12, 4, 4)
        trees = instance(spec)
        forest, cuts = maf_approx(trees)
        acyclic_forest, cycle_cuts = maaf_approx(forest, trees)
        replayed = _replay(Forest.from_tree(trees[0]), cuts.entries)
        assert forest_newicks(replayed) == forest_newicks(forest), spec
        replayed = _replay(forest, cycle_cuts.entries)
        assert forest_newicks(replayed) == forest_newicks(acyclic_forest), spec
        phases.update(e.phase for e in cuts.entries + cycle_cuts.entries)
    assert set(phases) == {"triple", "overlap", "cycle"}, phases
    print(f"\ncriterion 1: 500/500 cut logs replayed ({dict(phases)})")


# 200 instances with n in [4,8] plus 40 with n in [9,12]; k in {2,3},
# moves in [0,3]
RATIO_SPECS = [derived_params(202, idx, 4, 8, 3, 3) for idx in range(200)] + [
    derived_params(303, idx, 9, 12, 3, 3) for idx in range(40)
]


@pytest.fixture(scope="module")
def ratio_instances():
    """Oracle-tractable instances with approximation and exact results,
    shared by the two ratio criteria."""
    rows = []
    for spec in RATIO_SPECS:
        trees = instance(spec)
        forest, cuts = maf_approx(trees)
        acyclic_forest, cycle_cuts = maaf_approx(forest, trees)
        rows.append(
            {
                "spec": spec,
                "trees": trees,
                "maf_cut_edges": cuts.edges_removed(),
                "cycle_cut_edges": cycle_cuts.edges_removed(),
                "opt_maf": exact_maf(trees).min_cuts,
                "opt_maaf": exact_maaf(trees).min_cuts,
            }
        )
    return rows


def test_c2_maf_ratio_exact_inequality(ratio_instances):
    """opt <= approximation cuts <= 3 * opt, with no tolerance."""
    worst = 0.0
    for row in ratio_instances:
        total, opt = row["maf_cut_edges"], row["opt_maf"]
        assert total >= opt, row["spec"]
        assert total <= 3 * opt, row["spec"]
        if opt:
            worst = max(worst, total / opt)
    count = len(ratio_instances)
    print(f"\ncriterion 2: {count}/{count} within ratio 3 (worst observed {worst:.2f})")


def test_c3_maaf_ratio_exact_inequality(ratio_instances):
    """maf cuts + cycle cuts <= 3 * exact acyclic optimum. The stronger
    ratio-2 reading is deliberately not asserted."""
    for row in ratio_instances:
        total = row["maf_cut_edges"] + row["cycle_cut_edges"]
        assert total <= 3 * row["opt_maaf"], row["spec"]
    count = len(ratio_instances)
    print(f"\ncriterion 3: {count}/{count} within acyclic ratio 3")


def test_c4_distance_identities_exhaustive():
    """On every 3-leaf and 4-leaf shape pair: exact SPR distance equals
    optimal forest size minus one, the acyclic analogue holds for the
    hybridization number, and 3-leaf values match the hand-derivable ones
    (0 for equal shapes, 1 otherwise)."""
    three = all_topologies(["a", "b", "c"])
    assert len(three) == 3
    for t1, t2 in itertools.product(three, repeat=2):
        res = exact_maf([t1, t2])
        d = exact_rspr(t1, t2)
        assert d == res.witness_forest.size - 1
        assert d == (0 if t1.canonical() == t2.canonical() else 1)
        res_a = exact_maaf([t1, t2])
        assert res_a.min_cuts == res_a.witness_forest.size - 1
        assert res_a.min_cuts >= res.min_cuts

    four = all_topologies(["a", "b", "c", "d"])
    assert len(four) == 15
    checked = 0
    for t1, t2 in itertools.product(four, repeat=2):
        res = exact_maf([t1, t2])
        assert exact_rspr(t1, t2) == res.witness_forest.size - 1
        res_a = exact_maaf([t1, t2])
        assert res_a.min_cuts == res_a.witness_forest.size - 1
        assert res_a.min_cuts >= res.min_cuts
        checked += 1
    print(f"\ncriterion 4: {checked} four-leaf pairs + 9 three-leaf pairs, 0 mismatches")


def test_c5_spr_walk_soundness_100_pairs():
    """A tree m SPR steps away is at exact distance at most m."""
    for idx in range(100):
        rng = SeededRng(505, stream=idx)
        n = 4 + rng.below(7)  # 4..10
        moves = rng.below(4)  # 0..3
        t1, t2 = instance(GenSpec(n=n, k=2, moves=moves, seed=9_000 + idx))
        res = exact_maf([t1, t2], max_cuts=moves)
        assert res is not None, (idx, n, moves)
        assert res.min_cuts <= moves
    print("\ncriterion 5: 100/100 walks within their move budget")


def test_c6_edge_exchange_preserves_forests_100_configs():
    """Whenever a removed edge f and a kept edge e are joined by a taxon-free
    stretch (the exchange preconditions), swapping e for f in the removal set
    yields an isomorphic forest."""

    def reach(t, start, removed):
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            if u != t.root and u not in removed and t.parent[u] not in seen:
                seen.add(t.parent[u])
                stack.append(t.parent[u])
            for c in t.children[u]:
                if c not in removed and c not in seen:
                    seen.add(c)
                    stack.append(c)
        return seen

    found = 0
    seed = 0
    while found < 100:
        seed += 1
        assert seed < 20_000, "sampler failed to hit 100 configurations"
        rng = SeededRng(seed, stream=61)
        n = 5 + rng.below(5)
        t = random_tree(n, seed)
        m = t.n_nodes
        removal = set()
        while len(removal) < 1 + rng.below(4):
            removal.add(1 + rng.below(m - 1))
        depth = t.depths

        def dist(u, v):
            return depth[u] + depth[v] - 2 * depth[_lca2(t, u, v)]

        def edge_dist(u, edge):
            return min(dist(u, t.parent[edge]), dist(u, edge))

        forest = Forest.from_tree(t)
        for f_edge in sorted(removal):
            for e_edge in range(1, m):
                if e_edge in removal:
                    continue
                pf = t.parent[f_edge]
                v_f = pf if edge_dist(pf, e_edge) < edge_dist(f_edge, e_edge) else f_edge
                comp = reach(t, v_f, removal)
                if e_edge not in comp and t.parent[e_edge] not in comp:
                    continue  # f's near end does not see e
                stranded = reach(t, v_f, removal | {e_edge})
                if any(t.labels[u] is not None for u in stranded):
                    continue  # the stretch between them carries taxa
                left = forest_canon(cut_edges(forest, [(0, x) for x in removal]))
                swapped = (removal - {f_edge}) | {e_edge}
                right = forest_canon(cut_edges(forest, [(0, x) for x in swapped]))
                assert left == right, (seed, removal, f_edge, e_edge)
                found += 1
                if found >= 100:
                    break
            if found >= 100:
                break
    print(f"\ncriterion 6: 100/100 exchanges isomorphic (searched {seed} seeds)")


def test_c7_scale_smoke_n100_k4():
    """The approximation stays polynomial in practice: n=100, k=4 finishes
    well inside a minute."""
    trees = instance(GenSpec(n=100, k=4, moves=4, seed=7_777))
    started = time.perf_counter()
    forest, cuts = maf_approx(trees)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    assert is_agreement_forest(forest, trees)
    print(f"\ncriterion 7: n=100 k=4 in {elapsed:.2f}s, {cuts.edges_removed()} cuts")


def test_c8_byte_identical_reports(capsys, tmp_path):
    """Same seed and input give byte-identical stdout, across gen and the
    analysis pipeline."""
    outputs = []
    for _ in range(2):
        code = main(["gen", "--n", "8", "--k", "3", "--moves", "2", "--seed", "31"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    path = tmp_path / "instance.nwk"
    path.write_text(outputs[0])
    reports = []
    for _ in range(2):
        code = main(["hyb", str(path), "--oracle"])
        assert code == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    json.loads(reports[0])
    print("\ncriterion 8: byte-identical reports")
