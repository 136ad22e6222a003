"""Reference exact search: the original build-every-forest implementation.

Builds a whole ``Forest`` for every edge subset and runs the full
``is_agreement_forest`` on it. It is kept only so the leaf-partition search
in ``mafkit.oracle`` can be differential-tested against it.
"""

from __future__ import annotations

from itertools import combinations

from mafkit import Forest, build_gf, is_agreement_forest
from mafkit.forest import check_input_trees as _check_inputs, cut_edges
from mafkit.maaf import is_acyclic
from mafkit.oracle import HARD_TAXON_CAP, OracleResult


def _search(start: Forest, trees, max_cuts, predicate):
    n_taxa = len(start.origin_labels)
    if n_taxa > HARD_TAXON_CAP:
        raise ValueError(
            f"exact search on {n_taxa} taxa would not finish; cap is {HARD_TAXON_CAP}"
        )
    pool = start.all_edges()
    budget = len(pool) if max_cuts is None else min(max_cuts, len(pool))
    for size in range(budget + 1):
        for subset in combinations(pool, size):
            candidate = cut_edges(start, subset)
            if predicate(candidate):
                return OracleResult(size, candidate, subset)
    return None


def exact_maf_forest(start: Forest, trees, max_cuts=None):
    trees = _check_inputs(trees)
    return _search(start, trees, max_cuts, lambda f: is_agreement_forest(f, trees))


def exact_maf(trees, max_cuts=None):
    trees = _check_inputs(trees)
    return exact_maf_forest(Forest.from_tree(trees[0]), trees, max_cuts)


def exact_maaf_forest(start: Forest, trees, max_cuts=None):
    trees = _check_inputs(trees)

    def ok(f: Forest) -> bool:
        return is_agreement_forest(f, trees) and is_acyclic(
            build_gf(f, trees, validate=False)
        )

    return _search(start, trees, max_cuts, ok)


def exact_maaf(trees, max_cuts=None):
    trees = _check_inputs(trees)
    return exact_maaf_forest(Forest.from_tree(trees[0]), trees, max_cuts)
