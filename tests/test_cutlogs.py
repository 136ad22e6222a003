"""Pinned cut logs: every cut that ``maf_approx`` and ``maaf_approx`` make on
seeded instances, compared byte for byte with ``tests/golden/cutlogs.json``.

Any change to which triple, overlap or cycle is picked, or to which edges
are cut around it, shows up here. Regenerate only when such a change is
intended:

    PYTHONPATH=src python tests/test_cutlogs.py > tests/golden/cutlogs.json
"""

import json
import pathlib

from mafkit import GenSpec, instance, maaf_approx, maf_approx

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cutlogs.json"

SPECS = [
    GenSpec(n=n, k=4, moves=moves, seed=seed)
    for n in (50, 100, 200, 400)
    for moves in (4, 8)
    for seed in (1, 2)
]


def _log(cuts):
    return [
        {"phase": e.phase, "tree": e.tree, "edges": [list(x) for x in e.edges],
         "witness": e.witness}
        for e in cuts.entries
    ]


def cutlogs_text() -> str:
    rows = []
    for spec in SPECS:
        trees = instance(spec)
        forest, cuts = maf_approx(trees)
        _, cycle_cuts = maaf_approx(forest, trees)
        rows.append(
            {"n": spec.n, "k": spec.k, "moves": spec.moves, "seed": spec.seed,
             "maf": _log(cuts), "maaf": _log(cycle_cuts)}
        )
    return json.dumps(rows, indent=1) + "\n"


def test_cut_logs_match_golden():
    assert cutlogs_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(cutlogs_text(), end="")
