"""CLI surface: reports, formats, exit codes, golden output.

``tests/golden/cli_outputs.json`` pins the exit code, stdout and stderr (less
the ``# wall_time_ms`` line) of every command on two inputs. Regenerate it
only when an output change is intended:

    PYTHONPATH=src python tests/test_cli.py > tests/golden/cli_outputs.json
"""

import contextlib
import io
import tempfile
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

# Golden cases: argv with the placeholders PAIR, GEN (the gen case's output:
# maf gives 6 components and maaf 8), GOOD and BAD (check's forest files).
GEN_ARGV = ["gen", "--n", "9", "--k", "3", "--moves", "3", "--seed", "10"]
CHECK_FORESTS = {"GOOD": "(a,b);\nc;\n", "BAD": "((a,b),c);\n"}
GOLDEN_ARGVS = [
    GEN_ARGV,
    *(
        [command, source, *fmt, *oracle]
        for source in ("PAIR", "GEN")
        for command in ("maf", "maaf", "rspr", "hyb")
        for fmt in ([], ["--format", "newick"], ["--format", "dot"])
        for oracle in ([], ["--oracle"])
    ),
    ["maf", "PAIR", "--oracle", "--max-cuts", "0"],
    ["maf", "PAIR", "--oracle", "--max-cuts", "-1"],
    ["maf", "PAIR", "--verbose"],
    ["maaf", "GEN", "--verbose"],
    ["exact", "GEN", "--mode", "maf"],
    ["exact", "GEN", "--mode", "maaf"],
    ["exact", "PAIR", "--max-cuts", "0"],
    ["exact", "PAIR", "--max-cuts", "-1"],
    ["check", "PAIR", "GOOD"],
    ["check", "PAIR", "BAD"],
]
GOLDEN_OUTPUTS = GOLDEN / "cli_outputs.json"


@pytest.fixture
def pair_file(tmp_path):
    p = tmp_path / "pair.nwk"
    p.write_text(PAIR)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _golden_inputs(directory: Path) -> dict:
    """Write the golden cases' input files; map each placeholder to its path."""
    texts = {"PAIR": PAIR, "GEN": _call(GEN_ARGV)[1], **CHECK_FORESTS}
    paths = {}
    for name, text in texts.items():
        paths[name] = str(directory / f"{name}.nwk")
        Path(paths[name]).write_text(text)
    return paths


def _outcome(code, out, err) -> dict:
    err = "".join(ln for ln in err.splitlines(True) if not ln.startswith("# wall_time_ms"))
    return {"exit": code, "stdout": out, "stderr": err}


def cli_outputs(directory: Path) -> dict:
    paths = _golden_inputs(directory)
    return {
        " ".join(argv): _outcome(*_call([paths.get(a, a) for a in argv]))
        for argv in GOLDEN_ARGVS
    }


def test_every_command_matches_golden(tmp_path):
    golden = json.loads(GOLDEN_OUTPUTS.read_text(encoding="utf-8"))
    got = cli_outputs(tmp_path)
    assert list(got) == list(golden)
    for key, outcome in got.items():
        assert outcome == golden[key], key


@pytest.mark.parametrize("seed", ["0", "1"])
def test_golden_outputs_do_not_depend_on_hash_seed(tmp_path, seed):
    """Output that followed string-hash order would differ between runs in
    fresh interpreters, which no in-process comparison can show."""
    golden = json.loads(GOLDEN_OUTPUTS.read_text(encoding="utf-8"))
    paths = _golden_inputs(tmp_path)
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(mafkit.__file__).parents[1]),
        "PYTHONHASHSEED": seed,
    }
    for argv in (GEN_ARGV, ["hyb", "GEN", "--oracle"], ["maaf", "GEN", "--format", "dot"]):
        result = subprocess.run(
            [sys.executable, "-m", "mafkit", *(paths.get(a, a) for a in argv)],
            capture_output=True,
            text=True,
            env=env,
        )
        outcome = _outcome(result.returncode, result.stdout, result.stderr)
        assert outcome == golden[" ".join(argv)], argv


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


def test_exit_code_non_utf8_input(capsys, monkeypatch, tmp_path, pair_file):
    """Bytes that are not UTF-8, in the trees file or the forest file for
    ``check``, or on stdin as ``-``, are unreadable input: exit 1 with the
    same message, not a parse error or an invalid instance."""
    data = b"\xff\xfe(a,b);\n"
    bad = tmp_path / "bad.nwk"
    bad.write_bytes(data)
    for argv in (
        ["maf", str(bad)],
        ["check", pair_file, str(bad)],
        ["check", str(bad), pair_file],
        ["maf", "-"],
        ["check", pair_file, "-"],
    ):
        # decoding errors handled as in the interpreter's own stdin
        stdin = io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, argv)
        assert code == 1 and not out, argv
        assert "cannot read input" in err and "invalid instance" not in err, err


def test_stdin_input_matches_file(capsys, monkeypatch, pair_file):
    """``-`` reads the same trees from stdin as from a file."""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(PAIR.encode())))
    assert run(capsys, ["maf", "-"]) == run(capsys, ["maf", pair_file])


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
    for argv in (["exact", pair_file], ["maf", pair_file, "--oracle"], ["maf", pair_file]):
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        print(json.dumps(cli_outputs(Path(directory)), indent=1))
