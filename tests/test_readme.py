"""The README's library usage stays runnable: every ``python`` code block
runs, and every name the package exports resolves."""

import re
from pathlib import Path

import pytest

import mafkit

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", range(len(BLOCKS)))
def test_readme_python_block_runs(block):
    exec(compile(BLOCKS[block], f"README.md python block {block}", "exec"), {})


def test_public_names_resolve():
    missing = [name for name in mafkit.__all__ if not hasattr(mafkit, name)]
    assert not missing and len(set(mafkit.__all__)) == len(mafkit.__all__)
