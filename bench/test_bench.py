"""Tests of the benchmark itself, on tiny workloads.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run._import_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from mafkit import maf, triples  # noqa: E402

TINY = {
    "api": workloads.Workload("tiny-api", "api", ((20, 3, 2, 0), (25, 3, 3, 1))),
    "oracle": workloads.Workload("tiny-oracle", "oracle", ((6, 2, 2, 0), (7, 3, 2, 1))),
    "cli": workloads.Workload("tiny-cli", "cli", ((30, 3, 0, 0),)),
}


def _declared():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def _units(wl, variant=0):
    return workloads.units(wl, workloads.build_inputs(wl, variant, run._workdir()))


@pytest.mark.parametrize("kind", sorted(TINY))
def test_tiny_workload_reports_every_metric_with_its_unit(kind):
    end_to_end, per_layer = _declared()
    wl = TINY[kind]
    for trace, declared in ((0, end_to_end), (1, per_layer)):
        result = (run.run_traced if trace else run.run_untraced)(wl, 3, 3, 0, None)
        assert result["failed"] == 0, result["lines"]
        assert result["attempted"] > 0
        assert {k: u for k, (_, u) in result["metrics"].items()} == declared
        assert all(v == v for v, _ in result["metrics"].values())  # no NaN


def test_declared_workloads_all_have_pins():
    with open(run.HERE / "digests.json", encoding="utf-8") as fh:
        pins = json.load(fh)
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = [w["name"] for w in json.load(fh)["workloads"]]
    assert declared == list(workloads.WORKLOADS)
    for name in declared:
        assert sorted(pins[name], key=int) == [str(v) for v in range(workloads.VARIANTS)]


def test_merged_component_counts_as_a_failure():
    wl = TINY["api"]
    units = _units(wl)
    honest = run.Pass(wl, units)
    assert run._failures(wl, units, honest, [honest]) == 0

    tampered = run.Pass(wl, units)
    out = dict(tampered.outputs[1])
    first, second, *rest = out["maf"]
    out["maf"] = [f"({first[:-1]},{second[:-1]});", *rest]
    assert workloads.check_output(wl, units[1], out) == [
        "maf forest is not an agreement forest"]
    tampered.outputs[1] = out
    tampered.digests[1] = workloads.unit_digest(out)
    # the reference pass carries the merged forest into every pass it checks
    assert run._failures(wl, units, tampered, [tampered, tampered]) == 2
    # a pass whose output differs from the reference fails too
    assert run._failures(wl, units, honest, [honest, tampered]) == 1


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_and_untraced_passes_give_one_digest(kind):
    wl = TINY[kind]
    units = _units(wl, variant=5)
    plain = run.Pass(wl, units)
    original = triples.find_incompatible
    rec = spans.Recorder()
    with spans.traced(rec) as found:
        assert maf.find_incompatible is not original
        rec.active = True
        traced = run.Pass(wl, units, rec, list(range(len(units))))
        rec.active = False
    assert found == sorted(spans.NAMES)
    assert maf.find_incompatible is original and triples.find_incompatible is original
    assert len(rec) > 0
    assert workloads.pass_digest(traced.digests) == workloads.pass_digest(plain.digests)


def test_api_outputs_become_text_outside_spans():
    wl = TINY["api"]
    units = _units(wl)
    rec = spans.Recorder()
    with spans.traced(rec):
        rec.active = True
        run.Pass(wl, units, rec, list(range(len(units))))
        rec.active = False
    totals = spans.layer_totals(rec)
    assert totals["calls"]["maf.maf_approx"] == len(units)
    assert totals["calls"]["newick.serialize"] == 0


def test_untraced_child_makes_the_passes_asked_for():
    assert run._child("timed", TINY["api"], 0, 2)["passes"] == 2


def test_self_time_excludes_child_spans():
    rec = spans.Recorder()
    cut = spans.NAMES.index("forest.cut_edges")
    search = spans.NAMES.index("oracle.search")
    # oracle.search [0, 100] holding cut_edges [10, 40] and [50, 60]
    for idx, parent, start, end in ((search, -1, 0, 100), (cut, 0, 10, 40), (cut, 0, 50, 60)):
        rec.name.append(idx)
        rec.parent.append(parent)
        rec.start.append(start)
        rec.end.append(end)
        rec.units.append(0)
    totals = spans.layer_totals(rec)
    assert totals["self_s"]["oracle.search"] == pytest.approx(60e-9)
    assert totals["self_s"]["forest.cut_edges"] == pytest.approx(40e-9)
    assert totals["calls"]["forest.cut_edges"] == 2
    assert totals["covered_s"] == pytest.approx(100e-9)
    assert totals["oracle_candidates"] == 2


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(60) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(240) == 95
    assert run.nearest_rank([3, 1, 2, 4], 75) == 3


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
