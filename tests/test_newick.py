"""Parser and serializer: worked cases, strictness, and round-trip laws."""

import pytest
from hypothesis import given, strategies as st

from mafkit import NewickError, parse, read_trees, serialize
from mafkit.gen import random_tree


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


@pytest.mark.parametrize(
    "text",
    [
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
    ],
)
def test_rejections(text):
    with pytest.raises(NewickError):
        parse(text)


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
    assert back.canonical() == t.canonical()
    assert serialize(back) == serialize(t)


@given(st.text(max_size=60))
def test_parser_never_crashes(text):
    # arbitrary input either parses or raises a positioned NewickError
    try:
        t = parse(text)
    except NewickError as err:
        assert 0 <= err.offset <= len(text)
    else:
        t.validate()
