"""CLI surface: reports, formats, exit codes, golden output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mafkit
from mafkit.cli import main

GOLDEN = Path(__file__).parent / "golden"

PAIR = "((a,b),c);\n((a,c),b);\n"


@pytest.fixture
def pair_file(tmp_path):
    p = tmp_path / "pair.nwk"
    p.write_text(PAIR)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_maf_json_report(capsys, pair_file):
    code, out, _ = run(capsys, ["maf", pair_file])
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "mafkit-report/1"
    assert report["input"]["trees"] == 2
    assert report["input"]["taxa"] == 3
    assert report["cuts"]["total_edges"] == sum(
        report["cuts"][p]["edges"] for p in ("triple", "overlap", "cycle")
    )
    assert report["forest"]["size"] == len(report["forest"]["components"])


def test_identical_trees_report(capsys, tmp_path):
    p = tmp_path / "same.nwk"
    p.write_text("((a,b),c);\n((a,b),c);\n")
    code, out, _ = run(capsys, ["maf", str(p)])
    report = json.loads(out)
    assert code == 0
    assert report["forest"]["size"] == 1
    assert report["cuts"]["total_edges"] == 0


def test_rspr_with_oracle(capsys, pair_file):
    code, out, _ = run(capsys, ["rspr", pair_file, "--oracle"])
    report = json.loads(out)
    assert code == 0
    assert 1 <= report["bounds"]["rspr_upper"] <= 3
    assert report["oracle"]["rspr"] == 1
    assert report["bounds"]["rspr_upper"] >= report["oracle"]["min_cuts"]


def test_hyb_with_oracle(capsys, pair_file):
    code, out, _ = run(capsys, ["hyb", pair_file, "--oracle"])
    report = json.loads(out)
    assert code == 0
    assert report["oracle"]["hybridization"] == 1
    assert report["bounds"]["hybridization_upper"] >= 1


def test_newick_format_is_parsable_forest(capsys, pair_file):
    code, out, _ = run(capsys, ["maf", pair_file, "--format", "newick"])
    assert code == 0
    from mafkit import read_trees

    comps = read_trees(out)
    assert comps  # comment lines skipped, components parse
    assert any(line.startswith("# forest_size") for line in out.splitlines())


def test_dot_format(capsys, tmp_path):
    p = tmp_path / "in.nwk"
    p.write_text("((a,b),c);\n((a,c),b);\n")
    code, out, _ = run(capsys, ["maaf", str(p), "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph agreement_forest {")
    assert '[label="{' in out


def test_dot_edges_carry_witness_tree(capsys, tmp_path):
    # instance whose output forest has spanning components, so the digraph
    # has edges; each must be tagged with the witnessing tree(s)
    p = tmp_path / "in.nwk"
    p.write_text("(t1,(((t2,t6),(t4,t5)),t3));\n(t1,((t2,(t6,t3)),(t4,t5)));\n")
    code, out, _ = run(capsys, ["maf", str(p), "--format", "dot"])
    assert code == 0
    edge_lines = [ln for ln in out.splitlines() if "->" in ln]
    assert edge_lines
    assert all('[label="T' in ln for ln in edge_lines)
    assert any('label="T1,T2"' in ln for ln in edge_lines)


def test_exact_subcommand(capsys, pair_file):
    code, out, _ = run(capsys, ["exact", pair_file, "--mode", "maf"])
    report = json.loads(out)
    assert code == 0
    assert report["min_cuts"] == 1
    assert report["forest"]["size"] == 2


def test_exit_code_parse_error(capsys, tmp_path):
    p = tmp_path / "bad.nwk"
    p.write_text("((a,b,c),d);\n")
    code, _, err = run(capsys, ["maf", str(p)])
    assert code == 1
    assert "parse error" in err


def test_exit_code_unreadable_input(capsys, tmp_path, pair_file):
    """A missing trees file, or a missing forest file for ``check``, exits 1
    with nothing on stdout."""
    missing = str(tmp_path / "missing.nwk")
    for argv in (["maf", missing], ["check", missing, pair_file], ["check", pair_file, missing]):
        code, out, err = run(capsys, argv)
        assert code == 1 and not out, argv
        assert "cannot read input" in err and "missing.nwk" in err


def test_exit_code_invalid_instance(capsys, tmp_path):
    p = tmp_path / "one.nwk"
    p.write_text("((a,b),c);\n")
    code, _, err = run(capsys, ["maf", str(p)])
    assert code == 2
    assert "invalid instance" in err


def test_exit_code_budget(capsys, pair_file):
    code, _, err = run(capsys, ["exact", pair_file, "--max-cuts", "0"])
    assert code == 3
    assert "budget" in err


def test_negative_budget_is_invalid(capsys, pair_file):
    for argv in (["exact", pair_file], ["maf", pair_file, "--oracle"]):
        code, out, err = run(capsys, [*argv, "--max-cuts", "-1"])
        assert code == 2 and not out
        assert "invalid instance" in err and "non-negative" in err


def test_check_accepts_and_rejects(capsys, tmp_path, pair_file):
    good = tmp_path / "good.nwk"
    good.write_text("(a,b);\nc;\n")
    code, out, _ = run(capsys, ["check", pair_file, str(good)])
    assert code == 0
    assert json.loads(out)["valid"] is True

    bad = tmp_path / "bad_forest.nwk"
    bad.write_text("((a,b),c);\n")
    code, out, _ = run(capsys, ["check", pair_file, str(bad)])
    assert code == 2
    assert json.loads(out)["valid"] is False

    mismatched = tmp_path / "mismatched.nwk"
    mismatched.write_text("(a,b);\n")  # leaves c uncovered
    code, _, err = run(capsys, ["check", pair_file, str(mismatched)])
    assert code == 2
    assert "invalid instance" in err


def test_gen_deterministic_and_piped(capsys):
    code, out1, _ = run(capsys, ["gen", "--n", "6", "--k", "2", "--moves", "1", "--seed", "7"])
    assert code == 0
    code, out2, _ = run(capsys, ["gen", "--n", "6", "--k", "2", "--moves", "1", "--seed", "7"])
    assert out1 == out2
    assert out1.startswith("# gen n=6 k=2 moves=1 seed=7")


def test_verbose_log_goes_to_stderr(capsys, pair_file):
    code, out, err = run(capsys, ["maf", pair_file, "--verbose"])
    assert code == 0
    assert "[triple]" in err
    assert "wall_time_ms" in err
    json.loads(out)  # stdout stays pure JSON


def test_golden_rspr_report(capsys, pair_file):
    """Schema freeze: the JSON report for a fixed input is pinned."""
    _, out, _ = run(capsys, ["rspr", pair_file, "--oracle"])
    golden = (GOLDEN / "rspr_pair.json").read_text()
    assert out == golden


def test_golden_gen_output(capsys):
    _, out, _ = run(capsys, ["gen", "--n", "6", "--k", "3", "--moves", "2", "--seed", "11"])
    golden = (GOLDEN / "gen_n6_k3_m2_s11.nwk").read_text()
    assert out == golden


def test_module_entry_point():
    # python -m mafkit must work without the console script installed; the
    # child finds the package where this test imported it from
    env = {**os.environ, "PYTHONPATH": str(Path(mafkit.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "mafkit", "gen", "--n", "4", "--k", "2", "--moves", "0", "--seed", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("# gen n=4")
