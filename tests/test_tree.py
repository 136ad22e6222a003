"""Tree machinery: ancestry queries and restriction."""

import pytest
from hypothesis import given, strategies as st

from mafkit import lca, parse, serialize
from mafkit.gen import random_tree
from mafkit.tree import below, restrict


@pytest.fixture
def cherry3():
    # preorder ids: root=0, (a,b)=1, a=2, b=3, c=4
    return parse("((a,b),c);")


def test_lca_cases(cherry3):
    assert lca(cherry3, {"a", "b"}) == 1
    assert lca(cherry3, {"a", "c"}) == 0
    assert lca(cherry3, {"a"}) == 2


def test_lca_unknown_taxon(cherry3):
    with pytest.raises(ValueError):
        lca(cherry3, {"a", "zz"})


def test_restrict_cases():
    assert serialize(restrict(parse("((a,b),c);"), {"a", "b", "c"})) == "((a,b),c);"
    assert serialize(restrict(parse("((a,c),b);"), {"a", "b"})) == "(a,b);"
    assert serialize(restrict(parse("((a,b),c);"), {"c"})) == "c;"


def test_restrict_errors(cherry3):
    with pytest.raises(ValueError):
        restrict(cherry3, {"a", "nope"})
    with pytest.raises(ValueError):
        restrict(cherry3, set())


@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=10**6))
def test_restricted_canonical_matches_two_step_route(n, seed):
    from mafkit.tree import restricted_canonical

    t = random_tree(n, seed)
    labs = sorted(t.leaf_labels)
    keep = set(labs[:: 2] or labs[:1])
    assert restricted_canonical(t, keep) == restrict(t, keep).canonical()


@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=10**6))
def test_restrict_idempotent(n, seed):
    t = random_tree(n, seed)
    labs = sorted(t.leaf_labels)
    keep = set(labs[: max(1, n // 2)])
    once = restrict(t, keep)
    twice = restrict(once, keep)
    assert once.canonical() == twice.canonical()
    assert once.leaf_labels == frozenset(keep)


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=10**6))
def test_below_matches_parent_walk(n, seed):
    t = random_tree(n, seed)

    def walk_is_ancestor(u, v):
        while v != -1:
            if v == u:
                return True
            v = t.parent[v]
        return False

    for u in range(t.n_nodes):
        for v in range(t.n_nodes):
            assert below(t, v, u) == walk_is_ancestor(u, v)
