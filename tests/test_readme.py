"""The README's library usage stays runnable: every ``python`` code block
runs, and every name the package exports resolves and has a caller."""

import ast
import re
from pathlib import Path

import pytest

import mafkit

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", range(len(BLOCKS)))
def test_readme_python_block_runs(block):
    exec(compile(BLOCKS[block], f"README.md python block {block}", "exec"), {})


def test_public_names_resolve():
    missing = [name for name in mafkit.__all__ if not hasattr(mafkit, name)]
    assert not missing and len(set(mafkit.__all__)) == len(mafkit.__all__)


def test_public_names_have_callers():
    """The package root exports only what the README's python blocks, the
    scripts' ``from mafkit import`` lines or the CLI use."""
    script_names = {
        alias.name
        for path in sorted((ROOT / "scripts").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "mafkit"
        for alias in node.names
    }
    cli = (ROOT / "src" / "mafkit" / "cli.py").read_text(encoding="utf-8")
    uncalled = [
        name
        for name in mafkit.__all__
        if name not in script_names
        and not any(re.search(rf"\b{name}\b", text) for text in [*BLOCKS, cli])
    ]
    assert not uncalled
