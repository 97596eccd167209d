"""Halo schedules and the owner/sum exchange against a sequential oracle."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dict_era
from hierpart.directory import CoHolders, co_holders
from hierpart.halo import HaloSchedule, exchange, schedule_for_rank
from hierpart.mesh import find_shared_nodes, split_chunk, split_contiguous
from hierpart.meshgen import tet_box, triangle_grid
from hierpart.runtime import Runtime
from hierpart.topology import build_topology


def sequential_halo(fields: list[dict[int, np.ndarray]], mode: str
                    ) -> list[dict[int, np.ndarray]]:
    """Oracle: resolve every shared node globally, no messages involved.

    ``fields[r]`` is rank r's node -> vector map.  A node held by several
    ranks becomes, on all of them, either the lowest holder's value or the
    sum over holders in ascending rank order (the order fixes the bitwise
    result for floating point).
    """
    holders: dict[int, list[int]] = {}
    for r, f in enumerate(fields):
        for n in f:
            holders.setdefault(n, []).append(r)
    out = [{n: v.copy() for n, v in f.items()} for f in fields]
    for n, rs in holders.items():
        rs = sorted(rs)
        if len(rs) == 1:
            continue
        if mode == "replicate_owner":
            resolved = fields[rs[0]][n].copy()
        else:
            resolved = np.zeros_like(fields[rs[0]][n])
            for r in rs:
                resolved = resolved + fields[r][n]
        for r in rs:
            out[r][n] = resolved
    return out


def make_fields(chunks, rng, arity=1):
    fields = []
    for ch in chunks:
        nodes = sorted({n for conn in ch.elements.values() for n in conn})
        fields.append({
            n: np.array([rng.uniform(-10, 10) for _ in range(arity)])
            for n in nodes
        })
    return fields


def run_exchange(tree, chunks, fields, mode, n_nodes, seed=0):
    def prog(ctx):
        rows = find_shared_nodes(ctx, chunks[ctx.rank], n_nodes)
        sched = schedule_for_rank(rows, tree, ctx.rank)
        return exchange(ctx, sched, fields[ctx.rank], mode)

    rt = Runtime(tree, seed=seed)
    return rt.run(prog), rt


# -- schedules ---------------------------------------------------------------------


def test_schedule_channels_follow_topology():
    # Rank 0 leads ranks 0 and 1; rank 2 leads the other node.
    tree = build_topology([("node", 2), ("core", 2)])
    survey = np.array([(0, 3, 1), (0, 5, 1), (0, 7, 2), (1, 3, 0), (1, 5, 0)],
                      dtype=np.int64)
    rows = CoHolders({1: [3, 5], 2: [7]}, np.array([0, 2]), survey)
    sched = schedule_for_rank(rows, tree, 0)
    assert sched.neighbors == ((1, (3, 5), "intranode"), (2, (7,), "internode"))
    assert sched.leader == 0
    assert [(r, at.tolist()) for r, at in sched.sends] == [(2, [0])]
    assert sched.recvs == ((2, 1),)
    member = schedule_for_rank(CoHolders({0: [3, 5]}, rows.leaders), tree, 1)
    assert member.neighbors == ((0, (3, 5), "intranode"),)
    assert (member.leader, member.sends) == (0, ())


def test_schedule_drops_empty_neighbor_rows():
    tree = build_topology([("node", 2)])
    rows = CoHolders({1: []}, np.array([0, 1]), np.empty((0, 3), np.int64))
    sched = schedule_for_rank(rows, tree, 0)
    assert sched.neighbors == ()
    assert (sched.gather, sched.sends, sched.recvs, sched.hands) == \
        ((), (), (), ())


@st.composite
def surveyed_nodes(draw):
    """A tree of 1-4 vertices of 1-4 ranks, a team on it and the node ids
    each team rank holds."""
    tree = build_topology([("node", draw(st.integers(1, 4))),
                           ("core", draw(st.integers(1, 4)))])
    team = sorted(draw(st.sets(st.integers(0, tree.total_ranks - 1),
                               min_size=1)))
    held = {r: draw(st.frozensets(st.integers(0, 11), max_size=6))
            for r in team}
    return tree, team, held


def survey_rows(members, team, held):
    """The (rank, node id, other holder) rows ``co_holders`` keeps at the
    leader of ``members``, ascending by rank, other holder, then node id."""
    return np.array([(m, n, o) for m in members for o in team if o != m
                     for n in sorted(held[m] & held[o])],
                    dtype=np.int64).reshape(-1, 3)


def old_neighbors(table, tree, rank) -> tuple:
    """The neighbours as a sort and a ``same_node`` call per neighbour
    gave them, whatever kind of table."""
    return tuple((o, tuple(sorted(int(n) for n in table[o])),
                  "intranode" if tree.same_node(rank, o) else "internode")
                 for o in sorted(table) if len(table[o]))


def assert_same_routes(got: HaloSchedule, want: tuple):
    gather, sends, recvs, hands = want
    assert got.gather == gather
    assert got.recvs == recvs
    for mine, theirs in ((got.sends, sends), (got.hands, hands)):
        assert [r for r, _ in mine] == [r for r, _ in theirs]
        for (_, a), (_, b) in zip(mine, theirs):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()


@settings(max_examples=300, deadline=None)
@given(case=surveyed_nodes())
@example(case=(build_topology([("node", 3), ("core", 3)]), [1, 2, 4, 5, 7, 8],
               {1: frozenset(), 2: frozenset({0, 1, 2}), 4: frozenset({2}),
                5: frozenset({1}), 7: frozenset({0, 2}),
                8: frozenset({9})}))
# One rank per node: every rank leads itself, with a team that skips ranks.
@example(case=(build_topology([("node", 4), ("core", 1)]), [0, 1, 2, 3],
               {0: frozenset({0, 1, 2}), 1: frozenset({1, 2, 3}),
                2: frozenset({2, 5}), 3: frozenset({0, 5, 9})}))
@example(case=(build_topology([("node", 4), ("core", 1)]), [0, 2, 3],
               {0: frozenset({0, 1}), 2: frozenset({1, 4}),
                3: frozenset({0, 1, 4})}))
def test_routes_match_the_dict_era_builder(case):
    # Every leader's routes from its node's survey rows equal those the
    # per-member tables gave, element for element and in order.
    tree, team, held = case
    size = tree.group_size(0)
    leaders = np.full(tree.group_count(0), -1, dtype=np.int64)
    for r in reversed(team):
        leaders[r // size] = r
    for vertex, leader in enumerate(leaders.tolist()):
        if leader < 0:
            continue
        members = [r for r in team if r // size == vertex]
        tables = {m: {o: sorted(held[m] & held[o]) for o in team
                      if o != m and held[m] & held[o]} for m in members}
        rows = CoHolders(tables[leader], leaders,
                         survey_rows(members, team, held))
        assert_same_routes(
            schedule_for_rank(rows, tree, leader),
            dict_era._routes(tables, vertex, size,
                             lambda o: int(leaders[o // size])))
        # Every member's neighbours come from its table as they were.
        for m in members:
            table = CoHolders(tables[m], leaders,
                              rows.node if m == leader else None)
            got = schedule_for_rank(table, tree, m)
            assert got.neighbors == old_neighbors(tables[m], tree, m)
            assert got.leader == leader


# -- exchange ---------------------------------------------------------------------


def test_exchange_two_rank_hand_case():
    tree = build_topology([("node", 2)])
    mesh = triangle_grid(2, 1)
    chunks = split_contiguous(mesh, 2)
    fields = [
        {n: np.array([float(10 + n)]) for ch in [chunks[0]]
         for n in {m for c in ch.elements.values() for m in c}},
        {n: np.array([float(100 + n)]) for ch in [chunks[1]]
         for n in {m for c in ch.elements.values() for m in c}},
    ]
    expect = sequential_halo(fields, "replicate_owner")
    res, _ = run_exchange(tree, chunks, fields, "replicate_owner",
                          1 + max(mesh.nodes))
    for r in range(2):
        assert set(res[r]) == set(expect[r])
        for n in res[r]:
            assert res[r][n] == pytest.approx(expect[r][n])


def test_exchange_three_sharers_resolved_in_rank_order():
    # Node 9 is held by ranks 0, 2 and 3, node 11 by ranks 2 and 3; rank 2
    # resolves node 9 with its own value between two received ones.  The
    # sum is order-sensitive: adding 1.0 before -1e16 loses it (0.0), while
    # adding this rank's value last would keep it (1.0).  Rank 0's value
    # reaches ranks 2 and 3 through the node leaders 0 and 2.
    tree = build_topology([("node", 2), ("core", 2)])
    neighbors = {
        0: ((2, (9,)), (3, (9,))),
        1: (),
        2: ((0, (9,)), (3, (9, 11))),
        3: ((0, (9,)), (2, (9, 11))),
    }
    fields = [{9: np.array([1e16])}, {4: np.array([5.0])},
              {9: np.array([1.0]), 11: np.array([2.0])},
              {9: np.array([-1e16]), 11: np.array([3.0])}]
    expect = {
        "replicate_owner": {9: 1e16, 11: 2.0},
        "accumulate_sum": {9: 0.0, 11: 5.0},
    }
    for mode, resolved in expect.items():
        oracle = sequential_halo(fields, mode)

        def prog(ctx):
            rows = co_holders(ctx, list(fields[ctx.rank]), 12)
            sched = schedule_for_rank(rows, tree, ctx.rank)
            assert tuple((o, n) for o, n, _ in sched.neighbors) == \
                neighbors[ctx.rank]
            return exchange(ctx, sched, fields[ctx.rank], mode)

        res = Runtime(tree, seed=0).run(prog)
        assert {n: v.tolist() for n, v in res[2].items()} == \
            {n: [v] for n, v in resolved.items()}
        for r in range(4):
            assert {n: v.tobytes() for n, v in res[r].items()} == \
                {n: v.tobytes() for n, v in oracle[r].items()}, (mode, r)


@pytest.mark.parametrize("mode", ["replicate_owner", "accumulate_sum"])
def test_exchange_matches_oracle_bitwise(mode):
    tree = build_topology([("node", 2), ("core", 2)])
    mesh = triangle_grid(6, 6)
    chunks = split_contiguous(mesh, 4)
    n_nodes = 1 + max(mesh.nodes)
    rng = random.Random(13)
    for trial in range(8):
        fields = make_fields(chunks, rng)
        expect = sequential_halo(fields, mode)
        res, _ = run_exchange(tree, chunks, fields, mode, n_nodes, seed=trial)
        for r in range(4):
            for n, v in res[r].items():
                # Bitwise equality, not approx: summation order is pinned.
                assert v.tobytes() == expect[r][n].tobytes(), (r, n)


def node_pairs(tree, fields):
    """Ordered pairs of tree nodes whose ranks share a mesh node."""
    pairs = set()
    for a, fa in enumerate(fields):
        for b, fb in enumerate(fields):
            if not tree.same_node(a, b) and fa.keys() & fb.keys():
                pairs.add((tree.group_index(a, 0), tree.group_index(b, 0)))
    return pairs


@pytest.mark.parametrize("levels", [[("node", 3), ("core", 2)],
                                    [("node", 3), ("socket", 2), ("core", 2)]])
@pytest.mark.parametrize("placement", ["contiguous", "random", "no leaders"])
@pytest.mark.parametrize("mode", ["replicate_owner", "accumulate_sum"])
def test_three_node_exchange_matches_oracle_with_one_message_per_node_pair(
        levels, placement, mode):
    # "no leaders": every element sits on a rank that does not lead its
    # node, so the leaders route rows while holding no nodes themselves.
    tree = build_topology(levels)
    p = tree.total_ranks
    mesh = tet_box(3, 3, 2)
    n_nodes = 1 + max(mesh.nodes)
    rng = random.Random(f"{p}{placement}")
    if placement == "contiguous":
        chunks = split_contiguous(mesh, p)
    else:
        ranks = [r for r in range(p)
                 if placement == "random" or r % tree.group_size(0)]
        chunks = split_chunk(mesh, [rng.choice(ranks)
                                    for _ in range(mesh.n_elements)], p)
    for seed in range(3):
        fields = make_fields(chunks, rng, arity=2)
        expect = sequential_halo(fields, mode)

        def prog(ctx):
            rows = find_shared_nodes(ctx, chunks[ctx.rank], n_nodes)
            sched = schedule_for_rank(rows, tree, ctx.rank)
            ctx.set_phase("halo_exchange")
            return exchange(ctx, sched, fields[ctx.rank], mode)

        rt = Runtime(tree, seed=seed)
        res = rt.run(prog)
        for r in range(p):
            assert {n: v.tobytes() for n, v in res[r].items()} == \
                {n: v.tobytes() for n, v in expect[r].items()}, (seed, r)
        pairs = node_pairs(tree, fields)
        assert len(pairs) >= 2
        assert rt.ledger.message_count(phase="halo_exchange") == len(pairs)
        assert rt.ledger.message_count(phase="halo_exchange",
                                       locality="intranode") == 0
        # Only the leaders, each node's lowest rank, send: one message to
        # each node that shares a mesh node with theirs.
        size = tree.group_size(0)
        for r in range(p):
            sent = sum(a == r // size for a, _ in pairs) if r % size == 0 else 0
            assert rt.ledger.rank_message_count(
                r, phase="halo_exchange") == sent, r


@pytest.mark.parametrize("mode", ["replicate_owner", "accumulate_sum"])
def test_team_subset_exchange_routes_through_each_nodes_lowest_team_rank(mode):
    # The team leaves out each node's first rank, so ranks 1, 4 and 7 lead
    # their nodes; ranks 0, 3 and 6 hold nothing and take no part.
    tree = build_topology([("node", 3), ("core", 3)])
    team = [1, 2, 4, 5, 7, 8]
    mesh = tet_box(3, 3, 2)
    n_nodes = 1 + max(mesh.nodes)
    rng = random.Random(7)
    chunks = split_chunk(mesh, [rng.choice(team)
                                for _ in range(mesh.n_elements)], 9)
    held = {r: frozenset(chunks[r].conn.ravel().tolist()) for r in team}
    for seed in range(3):
        fields = make_fields(chunks, rng, arity=2)
        expect = sequential_halo(fields, mode)

        def prog(ctx):
            if ctx.rank not in team:
                return {}
            ctx.set_phase("shared_nodes")
            rows = find_shared_nodes(ctx, chunks[ctx.rank], n_nodes, team)
            if ctx.rank % 3 == 1:
                members = [ctx.rank, ctx.rank + 1]
                assert rows.node.tolist() == \
                    survey_rows(members, team, held).tolist()
            else:
                assert rows.node is None
            sched = schedule_for_rank(rows, tree, ctx.rank)
            assert sched.leader == ctx.rank - (ctx.rank % 3 == 2)
            ctx.set_phase("halo_exchange")
            return exchange(ctx, sched, fields[ctx.rank], mode)

        rt = Runtime(tree, seed=seed)
        res = rt.run(prog)
        for r in range(9):
            assert {n: v.tobytes() for n, v in res[r].items()} == \
                {n: v.tobytes() for n, v in expect[r].items()}, (seed, r)
        pairs = node_pairs(tree, fields)
        assert len(pairs) >= 2
        assert rt.ledger.message_count(phase="halo_exchange") == len(pairs)
        for r in range(9):
            sent = sum(a == r // 3 for a, _ in pairs) if r % 3 == 1 else 0
            assert rt.ledger.rank_message_count(
                r, phase="halo_exchange") == sent, r


def test_exchange_replicas_identical_across_ranks():
    tree = build_topology([("node", 2), ("core", 2)])
    mesh = triangle_grid(6, 6)
    chunks = split_contiguous(mesh, 4)
    rng = random.Random(4)
    fields = make_fields(chunks, rng, arity=3)
    res, _ = run_exchange(tree, chunks, fields, "accumulate_sum",
                          1 + max(mesh.nodes))
    seen: dict[int, bytes] = {}
    for r in range(4):
        for n, v in res[r].items():
            if n in seen:
                assert v.tobytes() == seen[n]
            else:
                seen[n] = v.tobytes()


def test_exchange_intranode_neighbors_use_copy_channel():
    tree = build_topology([("node", 1), ("core", 2)])  # both ranks on one node
    mesh = triangle_grid(4, 2)
    chunks = split_contiguous(mesh, 2)
    fields = make_fields(chunks, random.Random(0))
    _, rt = run_exchange(tree, chunks, fields, "replicate_owner",
                         1 + max(mesh.nodes))
    halo_msg = 0
    for row in rt.ledger.phase_totals():
        halo_msg += row["copy_bytes"]
    assert halo_msg > 0
    # Both ranks share one node, so neither the shared-node survey nor the
    # halo payloads touch the network.
    assert rt.ledger.message_count() == 0


def test_exchange_rejects_bad_input():
    tree = build_topology([("node", 2)])
    sched = HaloSchedule(neighbors=((1, (7,), "internode"),), leader=0)

    def prog_missing(ctx):
        if ctx.rank == 0:
            exchange(ctx, sched, {3: np.array([1.0])}, "replicate_owner")

    with pytest.raises(ValueError, match="no field value for shared node 7"):
        Runtime(tree, seed=0).run(prog_missing)

    def prog_mode(ctx):
        exchange(ctx, HaloSchedule(neighbors=(), leader=ctx.rank), {},
                 "average")

    with pytest.raises(ValueError, match="unknown exchange mode"):
        Runtime(tree, seed=0).run(prog_mode)

    def prog_arity(ctx):
        exchange(ctx, HaloSchedule(neighbors=(), leader=ctx.rank),
                 {0: np.array([1.0]), 1: np.array([1.0, 2.0])},
                 "replicate_owner")

    with pytest.raises(ValueError, match="arity mismatch"):
        Runtime(tree, seed=0).run(prog_arity)
