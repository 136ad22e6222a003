"""Instance generation: determinism, SPR validity, distance bounds."""

import pytest

from mafkit import (
    GenSpec,
    SeededRng,
    exact_rspr,
    instance,
    parse,
    serialize,
    write_trees,
)
from mafkit.gen import random_tree, spr_move

import reference_gen
from reference_tree import validate


def test_rng_golden_values():
    """The RNG update rule is a published contract; freeze its output."""
    r = SeededRng(42)
    assert [r.below(1000) for _ in range(5)] == [53, 77, 7, 588, 313]
    r = SeededRng(42, stream=7)
    assert [r.below(1000) for _ in range(5)] == [182, 491, 359, 824, 722]


def test_streams_differ():
    a = SeededRng(1, stream=0)
    b = SeededRng(1, stream=1)
    assert [a.below(10**6) for _ in range(4)] != [b.below(10**6) for _ in range(4)]


def test_single_leaf():
    assert serialize(random_tree(1, seed=9)) == "t1;"


def test_three_leaf_reproducible():
    first = serialize(random_tree(3, seed=5))
    assert first == serialize(random_tree(3, seed=5))
    assert parse(first).n_leaves == 3


def test_node_and_edge_counts():
    t = random_tree(8, seed=0)
    assert t.n_nodes == 15  # 7 internal + 8 leaves
    validate(t)


def test_all_three_leaf_shapes_reachable():
    shapes = {serialize(random_tree(3, seed=s)) for s in range(60)}
    assert shapes == {"((t1,t2),t3);", "((t1,t3),t2);", "(t1,(t2,t3));"}


def test_spr_preserves_taxa_and_size():
    t = random_tree(7, seed=11)
    moved = spr_move(t, seed=23)
    validate(moved)
    assert moved.leaf_labels == t.leaf_labels
    assert moved.n_nodes == t.n_nodes


def test_spr_identity_move_allowed():
    t = parse("((a,b),c);")
    assert spr_move(t, seed=0).canonical() == t.canonical()


def test_spr_can_regraft_next_to_a():
    t = parse("((a,b),c);")
    assert spr_move(t, seed=4).canonical() == parse("((a,c),b);").canonical()


def test_spr_needs_three_leaves():
    with pytest.raises(ValueError):
        spr_move(parse("(a,b);"), seed=1)


def test_instance_zero_moves_gives_copies():
    trees = instance(GenSpec(n=6, k=3, moves=0, seed=2))
    assert len({t.canonical() for t in trees}) == 1


def test_instance_determinism_bytewise():
    spec = GenSpec(n=8, k=3, moves=2, seed=99)
    assert write_trees(instance(spec)) == write_trees(instance(spec))


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(n=1, k=2, moves=0, seed=0)
    with pytest.raises(ValueError):
        GenSpec(n=4, k=1, moves=0, seed=0)
    with pytest.raises(ValueError):
        GenSpec(n=4, k=2, moves=-1, seed=0)


def test_walk_bounds_exact_distance():
    for idx in range(25):
        rng = SeededRng(idx, stream=55)
        n = 4 + rng.below(5)
        moves = rng.below(3)
        t1, t2 = instance(GenSpec(n=n, k=2, moves=moves, seed=idx))
        d = exact_rspr(t1, t2)
        assert d <= moves


def test_random_tree_matches_reference():
    """In-place growth gives the very node tables the rebuild-per-leaf
    original gave: every n from 1 to 40 over 40 seeds, and sizes up to 300
    on a few more seeds and streams."""
    cases = [(n, seed, 0) for seed in range(40) for n in range(1, 41)]
    cases += [(n, seed, seed * 65537) for seed in range(3) for n in (64, 101, 150, 222, 300)]
    for n, seed, stream in cases:
        fast = random_tree(n, seed, stream)
        slow = reference_gen.random_tree(n, seed, stream)
        assert fast.parent == slow.parent, (n, seed, stream)
        assert fast.children == slow.children, (n, seed, stream)
        assert fast.labels == slow.labels, (n, seed, stream)


def _same_tables(fast, slow, case):
    assert fast.parent == slow.parent, case
    assert fast.children == slow.children, case
    assert fast.labels == slow.labels, case


def test_instance_and_spr_move_match_reference():
    """The array walk gives the very node tables of the rebuild-per-move
    original, for ``spr_move`` step by step and for ``instance`` on every
    n from 2 to 40 and 0 to 30 moves, k cycling through 2 to 5, over three
    seeds, and on a few larger rows. Derived tree i does not depend on k,
    and a shorter walk is a prefix of a longer one, so one 30-step
    reference walk per tree serves the whole grid. The grid must reach a
    prune that leaves a lone leaf, the one step that regrafts above the
    root."""
    lone_leaf = 0
    for seed in range(3):
        for n in range(2, 41):
            base = random_tree(n, seed)
            walks = {}
            for i in range(2, 6):
                walk = [base] * 31
                for j in range(30 if n >= 3 else 0):
                    t, stream = walk[j], i * 65536 + j
                    prune = 1 + SeededRng(seed, stream).below(t.n_nodes - 1)
                    lone_leaf += t.sizes[prune] == t.n_nodes - 2
                    walk[j + 1] = reference_gen.spr_move(t, seed, stream)
                    moved = spr_move(t, seed, stream)
                    validate(moved)
                    _same_tables(moved, walk[j + 1], (n, seed, stream))
                walks[i] = walk
            for moves in range(31):
                k = 2 + (n + moves) % 4
                got = instance(GenSpec(n, k, moves, seed))
                want = [base] + [walks[i][moves] for i in range(2, k + 1)]
                for fast, slow in zip(got, want, strict=True):
                    _same_tables(fast, slow, (n, k, moves, seed))
    assert lone_leaf > 0
    for spec in (GenSpec(300, 3, 80, 1), GenSpec(150, 5, 40, 3)):
        got = instance(spec)
        for fast, slow in zip(got, reference_gen.instance(spec), strict=True):
            validate(fast)
            _same_tables(fast, slow, spec)
