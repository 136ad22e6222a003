"""Reference Newick code.

- ``parse``: the character-at-a-time parser that builds nested tuples,
  converts them with the original ``from_nested`` builder and then runs
  ``validate``, both now in ``reference_tree``.
- ``serialize``: the writer that walked node ids and punctuation on one
  stack, before ``mafkit.newick.serialize`` came to walk the preorder
  labels alone.

Kept only so that ``mafkit.newick`` can be differential-tested against
them: equal node tables on every accepted input, an equal error message,
offset and line on every rejected one, and equal text for every tree.
"""

from __future__ import annotations

from mafkit.newick import NewickError
from mafkit.tree import LABEL_CHARS, PhyloTree

from reference_tree import from_nested, validate


def parse(text: str, _line: int | None = None) -> PhyloTree:
    """Parse a single Newick expression into a PhyloTree.

    The expression must be terminated by ';' and may be followed only by
    whitespace. Raises NewickError with a byte offset on any violation.
    """
    n = len(text)
    i = 0
    seen: set[str] = set()

    def skip_ws(j: int) -> int:
        while j < n and text[j].isspace():
            j += 1
        return j

    def fail(msg: str, at: int):
        raise NewickError(msg, at, _line)

    # frames: one list of completed child subtrees per open '('
    frames: list[list] = []
    done = None  # completed subtree waiting for delimiter, else None

    i = skip_ws(i)
    if i >= n:
        fail("empty input", i)

    while True:
        i = skip_ws(i)
        if done is None:
            # expect a subtree
            if i >= n:
                fail("unexpected end of input, expected a subtree", i)
            ch = text[i]
            if ch == "(":
                frames.append([])
                i += 1
                continue
            if ch in LABEL_CHARS:
                j = i
                while j < n and text[j] in LABEL_CHARS:
                    j += 1
                name = text[i:j]
                if name in seen:
                    fail(f"duplicate taxon {name!r}", i)
                seen.add(name)
                if j < n and text[j] == ":":
                    fail("branch lengths are not supported", j)
                done = name
                i = j
                continue
            fail(f"expected a subtree, got {ch!r}", i)
        else:
            # a subtree is complete; expect ',', ')', or ';'
            if i >= n:
                fail("unexpected end of input, expected ',', ')' or ';'", i)
            ch = text[i]
            if ch == ",":
                if not frames:
                    fail("',' outside parentheses", i)
                if len(frames[-1]) >= 1:
                    fail("non-binary node: more than two children", i)
                frames[-1].append(done)
                done = None
                i += 1
                continue
            if ch == ")":
                if not frames:
                    fail("unmatched ')'", i)
                if len(frames[-1]) != 1:
                    fail("non-binary node: expected exactly two children", i)
                frames[-1].append(done)
                left, right = frames.pop()
                done = (left, right)
                i += 1
                j = skip_ws(i)
                if j < n and text[j] in LABEL_CHARS:
                    fail("internal node labels are not supported", j)
                if j < n and text[j] == ":":
                    fail("branch lengths are not supported", j)
                continue
            if ch == ";":
                if frames:
                    fail("unexpected ';' inside parentheses", i)
                i += 1
                i = skip_ws(i)
                if i < n:
                    fail("trailing content after ';'", i)
                tree = from_nested(done)
                validate(tree)
                return tree
            fail(f"expected ',', ')' or ';', got {ch!r}", i)


def serialize(t: PhyloTree) -> str:
    """Newick string for ``t``, children in stored order, ';'-terminated."""
    out: list[str] = []
    stack: list = [t.root]  # node ids, and punctuation still to write
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif t.children[item]:
            left, right = t.children[item]
            out.append("(")
            stack += (")", right, ",", left)
        else:
            out.append(t.labels[item])
    out.append(";")
    return "".join(out)


def read_trees(text: str) -> list[PhyloTree]:
    """Parse a multi-tree file: one tree per line, '#' lines and blank lines
    skipped. Errors carry the 1-based line number."""
    trees = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        trees.append(parse(line, _line=lineno))
    return trees
