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


def _loaded_names(source: str) -> set:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_public_names_have_callers():
    """The package root exports only what the README's python blocks, the
    scripts or the CLI use. A name counts where the code loads it, not where
    it is imported."""
    paths = [*sorted((ROOT / "scripts").glob("*.py")), ROOT / "src" / "mafkit" / "cli.py"]
    sources = [*BLOCKS, *(path.read_text(encoding="utf-8") for path in paths)]
    used = set().union(*map(_loaded_names, sources))
    assert [name for name in mafkit.__all__ if name not in used] == []
