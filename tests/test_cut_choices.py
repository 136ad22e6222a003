"""The overlap and cycle cut-edge rules against their first implementations.

The cut-log goldens pin only a few dozen overlap and cycle entries, so the
rules are also checked directly over a seeded grid. On every forest a
``maf_approx`` + ``maaf_approx`` run passes through, and in every input
tree, each overlapping pair of components gets the reference overlap rule's
edge.

``maaf_approx`` cuts every cycle at node 1, the left root child, of both
components (the module docstring of ``mafkit.maaf`` argues why). So on each
agreement forest of the run, the maf result and every forest after a cycle
cut, the reference cycle rule must name node 1 for each ordered pair whose
mapped roots are nested, in either direction, and every logged cycle entry
must cut ``((xi, 1), (yi, 1))``.
"""

import itertools

from mafkit import Forest, GenSpec, SeededRng, cut_edges, instance, lca, maaf_approx, maf_approx
from mafkit.forest import steiner_nodes
from mafkit.maf import _overlap_cut_edge
from mafkit.tree import below

import reference_cuts as ref


def _run(trees):
    """Every forest a maf_approx + maaf_approx run passes through, the
    agreement forests among them, and the cycle entries of the log."""
    forest, cuts = maf_approx(trees)
    _, cycle_cuts = maaf_approx(forest, trees)
    out = [Forest.from_tree(trees[0])]
    for entry in cuts.entries + cycle_cuts.entries:
        out.append(cut_edges(out[-1], entry.edges))
    return out, out[len(cuts.entries) :], cycle_cuts.entries


def _check_overlaps(f, t, seen):
    comps = f.components
    stein = [steiner_nodes(t, c.leaf_labels) for c in comps]
    for x, y in itertools.combinations(range(f.size), 2):
        shared = stein[x] & stein[y]
        if not shared:
            continue
        meet = max(shared, key=lambda nd: (t.depths[nd], -nd))
        for comp in (comps[x], comps[y]):
            got = _overlap_cut_edge(comp, t, meet)
            assert got == ref.overlap_cut_edge(comp, t, meet)
            seen["overlap"] += 1


def _check_nested_pairs(f, t, seen):
    comps = f.components
    roots = [lca(t, c.leaf_labels) for c in comps]
    for x, y in itertools.permutations(range(f.size), 2):
        rx, ry = roots[x], roots[y]
        if comps[x].n_leaves < 2 or rx == ry:
            continue
        if below(t, rx, ry) or below(t, ry, rx):
            assert ref.cycle_cut_edge(comps[x], comps[y], t) == 1
            seen["cycle"] += 1


def test_cut_edge_choices_match_reference():
    """200 instances, n in [4, 60], k in [2, 5], moves in [1, 8]."""
    seen = dict.fromkeys(("overlap", "cycle", "cycle entries"), 0)
    for idx in range(200):
        rng = SeededRng(404, stream=idx)
        spec = GenSpec(
            n=4 + rng.below(57), k=2 + rng.below(4), moves=1 + rng.below(8), seed=idx
        )
        trees = instance(spec)
        forests, agreement_forests, cycle_entries = _run(trees)
        for f in forests:
            for t in trees:
                _check_overlaps(f, t, seen)
        for f in agreement_forests:
            for t in trees:
                _check_nested_pairs(f, t, seen)
        for entry in cycle_entries:
            assert [v for _, v in entry.edges] == [1, 1], entry
            seen["cycle entries"] += 1
    print(f"\ncut choices checked: {seen}")
    assert min(seen.values()) > 0, seen
