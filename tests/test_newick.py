"""Parser and serializer: worked cases, strictness, round-trip laws, and
agreement with the reference parser on accepted and rejected inputs."""

import re

import pytest
from hypothesis import given, strategies as st

from mafkit import (
    GenSpec,
    NewickError,
    PhyloTree,
    instance,
    maaf_approx,
    maf_approx,
    parse,
    read_trees,
    serialize,
)
from mafkit.gen import random_tree

import reference_newick
from reference_tree import validate
from helpers import canonical


def test_three_leaf_shape():
    t = parse("((a,b),c);")
    assert t.n_leaves == 3
    assert t.leaf_labels == {"a", "b", "c"}
    root_kids = t.children[t.root]
    assert {len(t.children[k]) for k in root_kids} == {0, 2}


def test_single_leaf_accepted():
    t = parse("a;")
    assert t.n_nodes == 1
    assert serialize(t) == "a;"


def test_round_trip_examples():
    for text in ("((a,b),c);", "x;", "(c,(b,a));"):
        assert serialize(parse(text)) == text


def test_child_order_is_preserved():
    # no silent canonical reordering on output
    assert serialize(parse("(c,(b,a));")) == "(c,(b,a));"


def test_whitespace_skipped():
    t = parse("  ( ( a , b ) ,\tc ) ;\n")
    assert serialize(t) == "((a,b),c);"


@pytest.mark.parametrize(
    "text,offset",
    [
        ("((a,b,c),d);", 5),  # the comma that makes the node ternary
        ("", 0),
        ("   ", 3),
    ],
)
def test_error_offsets(text, offset):
    with pytest.raises(NewickError) as err:
        parse(text)
    assert err.value.offset == offset
    _assert_same(text)


REJECTED = [
    "((a,b),c)",        # missing ';'
    "((a,b),c); x",     # trailing content
    "((a,b),a);",       # duplicate taxon
    "((a,b)x,c);",      # internal label
    "((a:1,b),c);",     # branch length
    "((a,b):2,c);",     # branch length on internal edge
    "(a);",             # unary node
    "(a,b));",          # unmatched paren
    "((a,b),c;",        # unclosed paren
    ";",                # no subtree
    "(a,(b,c)",         # truncated
    "a :1;",            # ':' after whitespace: not a branch length to the parser
    "(a,b) :1;",        # branch length after whitespace, on an internal edge
    "(a,b) x;",         # internal label after whitespace
    "(a,b)\x85y;",      # ... after Unicode whitespace
    "a b;",             # two leaves with no parentheses
    "a;;",              # a second ';'
]


@pytest.mark.parametrize("text", REJECTED)
def test_rejections(text):
    with pytest.raises(NewickError):
        parse(text)
    _assert_same(text)


def test_error_carries_offset_and_line():
    with pytest.raises(NewickError) as err:
        read_trees("(a,b);\n((c,d),(e,f);\n")
    assert err.value.line == 2
    assert isinstance(err.value.offset, int)


def test_multi_tree_file_with_comments():
    text = "# a comment\n(a,b);\n\n((a,b),c);\n"
    trees = read_trees(text)
    assert [t.n_leaves for t in trees] == [2, 3]


def test_counting_identity():
    # n leaves -> n-1 internal nodes and 2n-2 edges
    for n in (2, 5, 9, 17):
        t = random_tree(n, seed=n)
        assert t.n_nodes == 2 * n - 1
        assert sum(1 for u in range(t.n_nodes) if t.children[u]) == n - 1


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32))
def test_round_trip_random_trees(n, seed):
    t = random_tree(n, seed)
    back = parse(serialize(t))
    assert canonical(back) == canonical(t)
    assert serialize(back) == serialize(t)


@given(st.text(max_size=60))
def test_parser_never_crashes(text):
    # arbitrary input either parses or raises a positioned NewickError
    try:
        t = parse(text)
    except NewickError as err:
        assert 0 <= err.offset <= len(text)
    else:
        validate(t)


# ── differential: the one-pass parser against the reference parser ─────

# Newick punctuation, label characters, and whitespace that ``str.isspace``
# accepts beyond ASCII (information separators, NEL, NBSP, EM SPACE).
SPACES = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2003"
NEWICK_CHARS = "(),;:#ab_.-9x" + SPACES


def _outcome(parse_fn, text, **kw):
    """Node tables of the accepted tree, or (message, offset, line)."""
    try:
        t = parse_fn(text, **kw)
    except NewickError as err:
        return "rejected", str(err), err.offset, err.line
    validate(t)
    return "accepted", t.parent, t.children, t.labels, t.root


def _read_outcome(read_fn, text):
    try:
        trees = read_fn(text)
    except NewickError as err:
        return "rejected", str(err), err.offset, err.line
    for t in trees:
        validate(t)
    return "accepted", [(t.parent, t.children, t.labels) for t in trees]


def _assert_same(text, **kw):
    assert _outcome(parse, text, **kw) == _outcome(reference_newick.parse, text, **kw)


@given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from(NEWICK_CHARS)), max_size=40))
def test_matches_reference_on_any_text(text):
    _assert_same(text)
    _assert_same(text, _line=7)


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**32),
    st.lists(st.text(alphabet=SPACES, max_size=3), max_size=300),
)
def test_matches_reference_with_whitespace_outside_labels(n, seed, gaps):
    tokens = re.findall(r"[A-Za-z0-9_.-]+|.", serialize(random_tree(n, seed)))
    text = "".join(g + tok for g, tok in zip(gaps + [""] * len(tokens), tokens))
    text += "".join(gaps[len(tokens):])
    assert _outcome(parse, text)[0] == "accepted"
    _assert_same(text)


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=200),
    st.sampled_from("(),;: ax#\x85"),
)
def test_matches_reference_on_damaged_trees(n, seed, at, ch):
    text = serialize(random_tree(n, seed))
    at %= len(text) + 1
    _assert_same(text[:at] + ch + text[at:])
    _assert_same(text[:at] + text[at + 1:])


@given(
    st.lists(
        st.one_of(
            st.builds(lambda n, s: serialize(random_tree(n, s)), st.integers(1, 8), st.integers(0, 99)),
            st.sampled_from(["", "  ", "# comment", "\t#x", "(a,b)", "(a,(b,c));", "((a,b),a);"]),
            st.text(alphabet=NEWICK_CHARS, max_size=12),
        ),
        max_size=8,
    )
)
def test_read_trees_matches_reference_line_numbers(lines):
    text = "\n".join(lines)
    assert _read_outcome(read_trees, text) == _read_outcome(reference_newick.read_trees, text)


# ── differential: the label walk against the id-stack writer ───────────


def _caterpillar(n):
    """((t1, t2), t3), ...: every internal node first, then the leaves."""
    return PhyloTree([None] * (n - 1) + [f"t{i}" for i in range(1, n + 1)])


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32))
def test_serialize_matches_reference_on_random_trees(n, seed):
    t = random_tree(n, seed)
    assert serialize(t) == reference_newick.serialize(t)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 1000, 20_000])
def test_serialize_matches_reference_on_caterpillars(n):
    t = _caterpillar(n)
    assert t.n_leaves == n
    assert serialize(t) == reference_newick.serialize(t)


def test_serialize_matches_reference_on_every_cut_piece():
    """Every input tree and every component of the MAF and MAAF forests of
    a gen n = 120, k = 8, moves = 20 instance, the largest in the cut-heavy
    benchmark workload."""
    trees = instance(GenSpec(n=120, k=8, moves=20, seed=0))
    forest, _ = maf_approx(trees)
    acyclic, _ = maaf_approx(forest, trees)
    pieces = [*trees, *forest.components, *acyclic.components]
    assert len(forest.components) > 10
    for t in pieces:
        assert serialize(t) == reference_newick.serialize(t)
