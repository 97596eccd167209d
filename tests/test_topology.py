"""Topology math and the member/leader payload collectives."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierpart.runtime import Runtime
from hierpart.topology import aggregate, build_topology, cascade


def test_build_topology_from_pairs():
    tree = build_topology([("node", 2), ("socket", 3)])
    assert tree.total_ranks == 6
    assert tree.n_levels == 2
    assert tree.level_name(0) == "node"
    assert tree.levels[1] == ("socket", 3)


def test_build_topology_rejects_bad_arity():
    with pytest.raises(ValueError):
        build_topology([("node", 0)])
    with pytest.raises(ValueError):
        build_topology([])


@pytest.mark.parametrize("spec, message", [
    ((("node", 2), ("core", 2, 1)), r"topology level 1 must be a "
                                    r"\[name, arity\] pair"),
    ({"levels": [{"name": "node"}]}, "topology level 0 must have"),
    ({"levels": 2}, "must contain a 'levels' list"),
    ([("", 2)], "topology level 0: name must be a non-empty string"),
])
def test_build_topology_rejects_bad_shapes(spec, message):
    with pytest.raises(ValueError, match=message):
        build_topology(spec)


def test_group_sizes_and_indices():
    tree = build_topology([("node", 2), ("socket", 2), ("core", 2)])
    assert tree.group_size(0) == 4
    assert tree.group_size(2) == 1
    assert tree.group_index(5, 0) == 1
    assert tree.group_index(5, 1) == 2
    assert list(tree.group_members(0, 1)) == [4, 5, 6, 7]


@settings(max_examples=100, deadline=None)
@given(arities=st.lists(st.integers(1, 6), min_size=1, max_size=5))
def test_group_sizes_equal_the_products_of_arities(arities):
    tree = build_topology([(f"l{i}", a) for i, a in enumerate(arities)])
    assert tree.total_ranks == math.prod(arities)
    for level in range(len(arities)):
        assert tree.group_size(level) == math.prod(arities[level + 1:])
        assert tree.group_count(level) == math.prod(arities[:level + 1])
    for rank in range(0, tree.total_ranks, 7):
        assert tree.group_index(rank, 0) == rank // math.prod(arities[1:])


def test_same_node_is_level_zero_ancestry():
    tree = build_topology([("node", 2), ("socket", 2)])
    assert tree.same_node(0, 1)
    assert not tree.same_node(1, 2)
    assert tree.same_node(3, 3)


def groups_at(tree, level):
    return [tuple(tree.group_members(level, g))
            for g in range(tree.group_count(level))]


def leaders_at(tree, level):
    """The hierarchical driver's bootstrap leaders at ``level``."""
    return tuple(range(0, tree.total_ranks, tree.group_size(level)))


def test_level_groups_nodes_of_quads():
    tree = build_topology([("node", 2), ("socket", 2), ("core", 2)])
    assert groups_at(tree, 0) == [(0, 1, 2, 3), (4, 5, 6, 7)]
    assert leaders_at(tree, 0) == (0, 4)
    assert tuple(tree.group_of(6, 0)) == (4, 5, 6, 7)


def test_level_groups_leaf_singletons():
    tree = build_topology([("node", 3), ("core", 2)])
    assert groups_at(tree, 1) == [(0,), (1,), (2,), (3,), (4,), (5,)]
    assert leaders_at(tree, 1) == (0, 1, 2, 3, 4, 5)
    assert [tuple(tree.group_of(r, 1)) for r in range(6)] == groups_at(tree, 1)


def test_level_groups_rejects_bad_level():
    tree = build_topology([("node", 2)])
    with pytest.raises(ValueError, match="level 1 outside 0..0"):
        tree.group_of(0, 1)
    with pytest.raises(ValueError, match="level -1 outside 0..0"):
        tree.group_of(0, -1)
    tree.check_level(0)
    with pytest.raises(ValueError, match="^--bpl 1 outside 0..0$"):
        tree.check_level(1, "--bpl")


def test_child_leaders():
    # A group's child leaders: every group_size(level + 1)-th member.
    tree = build_topology([("node", 2), ("socket", 2), ("core", 2)])

    def kids(level, g):
        return tuple(tree.group_members(level, g)[::tree.group_size(level + 1)])

    assert kids(0, 0) == (0, 2)
    assert kids(0, 1) == (4, 6)
    assert kids(1, 3) == (6, 7)
    assert tuple(tree.group_of(5, 0)[::tree.group_size(1)]) == (4, 6)


# -- collectives ----------------------------------------------------------------


def test_aggregate_gathers_in_member_order():
    tree = build_topology([("node", 4)])

    def prog(ctx):
        got = aggregate(ctx, [0, 1, 2, 3], bytes([ctx.rank]) * (ctx.rank + 1))
        if ctx.rank != 0:
            assert got is None
            return None
        return got

    res = Runtime(tree, seed=0).run(prog)
    assert res[0] == [b"\x00", b"\x01\x01", b"\x02\x02\x02",
                      b"\x03\x03\x03\x03"]


def test_cascade_distributes_per_member():
    tree = build_topology([("node", 4)])

    def prog(ctx):
        parts = [b"a", b"bb", b"ccc", b"dddd"] if ctx.rank == 0 else None
        return cascade(ctx, [0, 1, 2, 3], parts)

    assert Runtime(tree, seed=0).run(prog) == [b"a", b"bb", b"ccc", b"dddd"]


def test_cascade_payload_count_checked():
    tree = build_topology([("node", 2)])

    def prog(ctx):
        parts = [b"a"] if ctx.rank == 0 else None
        cascade(ctx, [0, 1], parts)

    with pytest.raises(ValueError, match="2 payloads"):
        Runtime(tree, seed=0).run(prog)


def test_cascade_non_leader_must_not_supply():
    tree = build_topology([("node", 2)])

    def prog(ctx):
        cascade(ctx, [0, 1], [b"a", b"b"])

    with pytest.raises(ValueError, match="leader"):
        Runtime(tree, seed=0).run(prog)


@settings(max_examples=30, deadline=None)
@given(
    blobs=st.lists(st.binary(max_size=4096), min_size=2, max_size=6),
    seed=st.integers(min_value=0, max_value=99),
)
def test_aggregate_cascade_roundtrip(blobs, seed):
    """What goes up must come down: cascade(aggregate(x)) == x per member."""
    p = len(blobs)
    tree = build_topology([("node", p)])

    def prog(ctx):
        gathered = aggregate(ctx, range(p), blobs[ctx.rank])
        return cascade(ctx, range(p), gathered)

    assert Runtime(tree, seed=seed).run(prog) == blobs


def test_collectives_within_a_node_stay_off_the_network():
    tree = build_topology([("node", 2), ("core", 4)])

    def prog(ctx):
        members = tree.group_members(0, ctx.rank // 4)
        got = aggregate(ctx, members, b"w" * 100)
        cascade(ctx, members, got)

    rt = Runtime(tree, seed=0)
    rt.run(prog)
    assert rt.ledger.bytes_total(kinds=("msg",), locality="internode") == 0
    assert rt.ledger.bytes_total(kinds=("msg",), locality="intranode") > 0
