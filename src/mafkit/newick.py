"""Strict Newick reading and writing for rooted binary trees.

Dialect::

    tree    := subtree ';'
    subtree := leaf | '(' subtree ',' subtree ')'
    leaf    := [A-Za-z0-9_.-]+

Whitespace outside labels is skipped. Branch lengths, internal labels,
multifurcations, and duplicate taxa are rejected rather than ignored: the
algorithms here are purely topological and silently dropping annotations
would mask caller errors. Multi-tree files hold one tree per line; lines
starting with '#' are comments.

``parse`` makes one pass over the tokens of its text: whole labels and
single non-whitespace characters. Nodes appear in preorder with children
left to right, so the pass only collects the preorder labels (None for each
'(') and hands them to ``PhyloTree``. It enforces every invariant of a
valid tree itself (two children per internal node at ',' and ')', counted
per open node; the label alphabet through the token pattern; distinct
taxa), so no validation sweep follows. ``serialize`` walks the labels back
with the same per-node child counts. Neither reads or writes the tree's
``parent`` and ``children`` arrays.
"""

from __future__ import annotations

import re

from .tree import LABEL_CHARS, PhyloTree

# a whole label, or any other single non-whitespace character
_TOKEN = re.compile(r"[A-Za-z0-9_.-]+|\S")


class NewickError(ValueError):
    """Parse failure with the byte offset where it happened."""

    def __init__(self, message: str, offset: int, line: int | None = None):
        self.offset = offset
        self.line = line
        where = f"line {line}, offset {offset}" if line is not None else f"offset {offset}"
        super().__init__(f"{message} ({where})")


def parse(text: str, _line: int | None = None) -> PhyloTree:
    """Parse a single Newick expression into a PhyloTree.

    The expression must be terminated by ';' and may be followed only by
    whitespace. Raises NewickError with a byte offset on any violation.
    """
    tokens = _TOKEN.findall(text)
    labels: list[str | None] = []
    seen: set[str] = set()
    open_kids: list[int] = []  # children done, per open internal node, innermost last
    want = True  # expecting a subtree, else ',', ')' or ';'
    for j, tok in enumerate(tokens):
        if want:
            if tok == "(":
                labels.append(None)
                open_kids.append(0)
            elif tok[0] in LABEL_CHARS:
                if tok in seen:
                    _fail(text, _line, f"duplicate taxon {tok!r}", j)
                seen.add(tok)
                labels.append(tok)
                want = False
            else:
                _fail(text, _line, f"expected a subtree, got {tok!r}", j)
        elif tok == ",":
            if not open_kids:
                _fail(text, _line, "',' outside parentheses", j)
            if open_kids[-1]:
                _fail(text, _line, "non-binary node: more than two children", j)
            open_kids[-1] = 1
            want = True
        elif tok == ")":
            if not open_kids:
                _fail(text, _line, "unmatched ')'", j)
            if not open_kids.pop():
                _fail(text, _line, "non-binary node: expected exactly two children", j)
        elif tok == ";":
            if open_kids:
                _fail(text, _line, "unexpected ';' inside parentheses", j)
            if j + 1 < len(tokens):
                _fail(text, _line, "trailing content after ';'", j + 1)
            return PhyloTree(labels)
        else:
            _fail(text, _line, _after_subtree_error(text, tokens, j), j)
    if not tokens:
        _fail(text, _line, "empty input", 0)
    expected = "a subtree" if want else "',', ')' or ';'"
    _fail(text, _line, f"unexpected end of input, expected {expected}", len(tokens))


def _fail(text: str, line: int | None, message: str, j: int):
    """Raise NewickError at the start of token j, or at the end of ``text``
    when there is no token j. Offsets are found only here, on failure."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    raise NewickError(message, starts[j] if j < len(starts) else len(text), line)


def _after_subtree_error(text: str, tokens: list[str], j: int) -> str:
    """Message for token j, which follows a complete subtree but is not ',',
    ')' or ';'. A ':' after ')' or right after a leaf opens a branch length,
    and a label after ')' is an internal node label."""
    tok, prev = tokens[j], tokens[j - 1]
    if tok == ":":
        ends = [m.end() for m in _TOKEN.finditer(text)]
        if prev == ")" or ends[j - 1] == ends[j] - 1:
            return "branch lengths are not supported"
    elif prev == ")" and tok[0] in LABEL_CHARS:
        return "internal node labels are not supported"
    return f"expected ',', ')' or ';', got {tok[0]!r}"


def serialize(t: PhyloTree) -> str:
    """Newick string for ``t``, children in stored order, ';'-terminated.

    One walk over the preorder labels: None opens a node, and a leaf closes
    every open node whose right subtree it ends, then separates the next
    child of the innermost node still open.
    """
    out: list[str] = []
    open_kids: list[int] = []  # children done, per open internal node, innermost last
    for lab in t.labels:
        if lab is None:
            out.append("(")
            open_kids.append(0)
            continue
        out.append(lab)
        while open_kids and open_kids[-1]:
            open_kids.pop()
            out.append(")")
        if open_kids:
            open_kids[-1] = 1
            out.append(",")
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


def write_trees(trees) -> str:
    return "".join(serialize(t) + "\n" for t in trees)
