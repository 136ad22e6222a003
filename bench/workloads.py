"""The benchmark's workloads: their inputs, one timed unit of work each, and
the checks every output must pass.

Every unit starts from Newick text, so parsing is part of what is timed and
no per-tree cache survives from one unit to the next. Calls into mafkit go
through module attributes (``newick.read_trees``, not a bound name), so the
span wrappers in ``spans.py`` see them when a traced run installs them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from dataclasses import dataclass

from mafkit import cli, forest, gen, maaf, maf, newick, oracle

# The benchmark seed picks one of this many taxon relabellings of the
# workload's fixed instance set; every one has a pinned output digest.
VARIANTS = 16

CLI_COMMANDS = (
    ("maf",),
    ("maaf", "--format", "newick"),
    ("hyb", "--format", "dot"),
    ("rspr",),
    ("check",),
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "api", "oracle" or "cli"
    grid: tuple  # (n, k, moves, gen_seed) per input

    def to_json(self) -> str:
        return json.dumps([self.name, self.kind, self.grid])

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        name, kind, grid = json.loads(text)
        return cls(name, kind, tuple(tuple(g) for g in grid))


def _grid(ns, ks, moves, seeds):
    return tuple((n, k, m, s) for n in ns for k in ks for m in moves for s in seeds)


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cut-heavy", "api", _grid((60, 90, 120), (8,), (12, 20), range(3))),
        Workload("oracle", "oracle", _grid((9, 10), (2, 3), (2, 3), range(3))),
        Workload("cli-agree", "cli", _grid((500,), (4,), (0,), range(2))),
    )
}


@dataclass(frozen=True)
class Input:
    index: int
    k: int
    moves: int
    text: str
    path: str | None  # Newick file, for the cli workload


def relabel(text: str, n: int, variant: int) -> str:
    """Rename taxa t1..tn by a permutation drawn from ``variant`` (0 keeps
    the generated names). Topologies stay; name order, which breaks ties in
    the algorithms, changes."""
    if variant == 0:
        return text
    ids = list(range(1, n + 1))
    random.Random(variant).shuffle(ids)
    names = {f"t{i}": f"t{j}" for i, j in zip(range(1, n + 1), ids)}
    return re.sub(r"t\d+", lambda m: names[m.group()], text)


def build_inputs(w: Workload, variant: int, workdir: str) -> list:
    """The workload's inputs as Newick text (and files for ``cli``)."""
    inputs = []
    for i, (n, k, moves, gen_seed) in enumerate(w.grid):
        trees = gen.instance(gen.GenSpec(n=n, k=k, moves=moves, seed=gen_seed))
        text = relabel(newick.write_trees(trees), n, variant)
        path = None
        if w.kind == "cli":
            path = os.path.join(workdir, f"{w.name}-{i}.nwk")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        inputs.append(Input(i, k, moves, text, path))
    return inputs


@dataclass(frozen=True)
class Unit:
    """One timed piece of work: an input solved through the API, or one CLI
    command on an input file."""

    inp: Input
    command: tuple = ()


def units(w: Workload, inputs: list) -> list:
    if w.kind != "cli":
        return [Unit(inp) for inp in inputs]
    return [Unit(inp, cmd) for inp in inputs for cmd in CLI_COMMANDS]


def _forest_text(f) -> list:
    return [newick.serialize(c) for c in f.components]


def _cut_log(cuts) -> list:
    return [[e.phase, e.tree, [list(x) for x in e.edges], e.witness] for e in cuts.entries]


def _exact(result) -> dict:
    return {
        "min_cuts": result.min_cuts,
        "forest": _forest_text(result.witness_forest),
        "edges": [list(e) for e in result.witness_edges],
    }


def _forest_path(inp: Input) -> str:
    return inp.path[: -len(".nwk")] + "-maaf.nwk"


def run_unit(w: Workload, unit: Unit):
    """Do one unit's work: the timed part. Returns mafkit's own results;
    ``unit_output`` turns them into plain data afterwards."""
    inp = unit.inp
    if w.kind == "cli":
        argv = [*unit.command, inp.path]
        if unit.command[0] == "check":
            argv.append(_forest_path(inp))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    trees = newick.read_trees(inp.text)
    f, cuts = maf.maf_approx(trees)
    a, cycle_cuts = maaf.maaf_approx(f, trees)
    exact = None
    if w.kind == "oracle":
        exact = oracle.exact_maf(trees), oracle.exact_maaf(trees)
    return f, cuts, a, cycle_cuts, exact


def unit_output(w: Workload, unit: Unit, raw) -> dict:
    """One unit's output as plain data, from what ``run_unit`` returned.
    After a ``maaf`` command it writes the forest file ``check`` reads."""
    if w.kind == "cli":
        code, stdout = raw
        if unit.command[0] == "maaf":
            with open(_forest_path(unit.inp), "w", encoding="utf-8") as fh:
                fh.write(stdout)
        return {"command": " ".join(unit.command), "exit": code, "stdout": stdout}

    f, cuts, a, cycle_cuts, exact = raw
    output = {
        "maf": _forest_text(f),
        "maf_cuts": _cut_log(cuts),
        "maaf": _forest_text(a),
        "maaf_cuts": _cut_log(cycle_cuts),
    }
    if exact is not None:
        output["exact_maf"] = _exact(exact[0])
        output["exact_maaf"] = _exact(exact[1])
    return output


def _edges(log) -> int:
    return sum(len(edges) for _, _, edges, _ in log)


def check_output(w: Workload, unit: Unit, output: dict) -> list:
    """Problems with one unit's output; empty when it passes every check."""
    inp = unit.inp
    if w.kind == "cli":
        problems = []
        if output["exit"] != 0:
            problems.append(f"{output['command']} exited {output['exit']}")
        if unit.command[0] == "check" and not (
            output["exit"] == 0 and json.loads(output["stdout"])["valid"] is True
        ):
            problems.append("check rejected the maaf forest")
        return problems

    problems = []
    trees = newick.read_trees(inp.text)
    labels = trees[0].leaf_labels
    for key in ("maf", "maaf"):
        f = forest.Forest.from_components([newick.parse(c) for c in output[key]], labels)
        try:
            valid = forest.is_agreement_forest(f, trees)
        except ValueError as exc:
            problems.append(f"{key} forest: {exc}")
            continue
        if not valid:
            problems.append(f"{key} forest is not an agreement forest")
        elif key == "maaf" and not maaf.is_acyclic(maaf.build_gf(f, trees, validate=False)):
            problems.append("maaf forest is not acyclic")
    maf_edges = _edges(output["maf_cuts"])
    if maf_edges > 3 * (inp.k - 1) * inp.moves:
        problems.append(f"{maf_edges} maf cut edges exceed 3*(k-1)*moves")
    if w.kind == "oracle":
        opt = output["exact_maf"]["min_cuts"]
        if not opt <= maf_edges <= 3 * opt:
            problems.append(f"maf cut edges {maf_edges} outside [{opt}, {3 * opt}]")
        total = maf_edges + _edges(output["maaf_cuts"])
        opt_acyclic = output["exact_maaf"]["min_cuts"]
        if total > 3 * opt_acyclic:
            problems.append(f"maaf cut edges {total} exceed {3 * opt_acyclic}")
    return problems


def unit_digest(output: dict) -> bytes:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).digest()


def pass_digest(unit_digests: list) -> str:
    return hashlib.sha256(b"".join(unit_digests)).hexdigest()
