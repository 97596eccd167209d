"""Distributed dictionary: owner math, rendezvous exchange, query protocols."""

from __future__ import annotations

import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierpart.directory import (Directory, blind_exchange, block_size,
                                co_holders, owner)
from hierpart.runtime import Runtime, _normalize_team
from hierpart.topology import build_topology


def sequential_multimap(all_pairs: list[tuple[int, int, bytes]]) -> dict[int, list[bytes]]:
    """Oracle: what the directory must hold, regardless of delivery order.

    Input is (source_rank, key, value) triples in per-source insertion order.
    Values for one key are ordered by source rank, then insertion order.
    """
    table: dict[int, list[bytes]] = {}
    for _, key, value in sorted(all_pairs, key=lambda t: t[0]):
        table.setdefault(key, []).append(value)
    return table


def random_instance(rng: random.Random, p: int, max_pairs: int):
    key_space = rng.randint(1, 40)
    per_rank = []
    for r in range(p):
        n = rng.randint(0, max_pairs // p)
        per_rank.append([
            (rng.randrange(key_space), bytes([r, i % 251]))
            for i in range(n)
        ])
    return key_space, per_rank


def tree_of(p: int):
    return build_topology([("node", p)])


# -- closed-form owner math --------------------------------------------------------


def test_block_size_examples():
    assert block_size(10, 4) == 3
    assert block_size(8, 4) == 2
    assert block_size(1, 8) == 1
    with pytest.raises(ValueError,
                       match="^key_space and nranks must be positive$"):
        block_size(0, 1)


def test_owner_last_rank_absorbs_remainder():
    # key_space 10, 4 ranks: blocks of 3 -> owners 0,0,0,1,1,1,2,2,2,3
    assert [owner(k, 10, 4) for k in range(10)] == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]


def owner_block(index: int, key_space: int, p: int) -> tuple[int, int]:
    """Oracle: half-open key interval [lo, hi) that ``owner`` gives rank ``index``.

    Blocks of block_size keys in rank order; the last rank takes whatever
    remains, and ranks past the end of the key space hold nothing.
    """
    b = block_size(key_space, p)
    lo = index * b
    hi = key_space if index == p - 1 else min((index + 1) * b, key_space)
    return lo, max(lo, hi)


def test_owner_interval_covers_space_exactly():
    for key_space in (1, 7, 10, 16, 100):
        for p in (1, 2, 3, 4, 8):
            spans = [owner_block(i, key_space, p) for i in range(p)]
            got = []
            for lo, hi in spans:
                got.extend(range(lo, hi))
            assert got == list(range(key_space))
            owners = [owner(k, key_space, p) for k in range(key_space)]
            assert owners == [i for i, (lo, hi) in enumerate(spans)
                              for _ in range(lo, hi)]


@given(key_space=st.integers(1, 10_000), p=st.integers(1, 64),
       key=st.integers(0, 9_999))
def test_owner_agrees_with_interval(key_space, p, key):
    if key >= key_space:
        key %= key_space
    o = owner(key, key_space, p)
    lo, hi = owner_block(o, key_space, p)
    assert lo <= key < hi


def test_owner_rejects_out_of_space_key():
    with pytest.raises(KeyError):
        owner(10, 10, 2)
    with pytest.raises(KeyError):
        owner(-1, 10, 2)


# -- rendezvous exchange -------------------------------------------------------------


def test_blind_exchange_delivers_sorted_by_source():
    def prog(ctx):
        out = {(ctx.rank + 1) % 4: bytes([ctx.rank])}
        return blind_exchange(ctx, out)

    res = Runtime(tree_of(4), seed=3).run(prog)
    assert res == [[(3, b"\x03")], [(0, b"\x00")], [(1, b"\x01")], [(2, b"\x02")]]


@pytest.mark.parametrize("caller, outgoing, message", [
    (2, {}, "rank 2 not in team (0, 1)"),
    (0, {2: b"x"}, "destination 2 not in team (0, 1)"),
], ids=["caller", "destination"])
def test_blind_exchange_refuses_ranks_outside_its_team(caller, outgoing,
                                                        message):
    def prog(ctx):
        if ctx.rank != caller:
            return None
        with pytest.raises(ValueError) as err:
            blind_exchange(ctx, outgoing, team=[0, 1])
        return str(err.value)

    rt = Runtime(tree_of(3), seed=0)
    assert rt.run(prog)[caller] == message
    assert rt.ledger.phase_totals() == []


def test_range_query_outside_the_key_space_is_a_key_error():
    def prog(ctx):
        d = Directory.build(ctx, [], 8)
        with pytest.raises(KeyError) as err:
            d.range_query(2, 9)
        return err.value.args[0]

    assert Runtime(tree_of(2), seed=0).run(prog) == [
        "range [2, 9) outside key space [0, 8)"] * 2


def test_blind_exchange_self_delivery_skips_network():
    def prog(ctx):
        return blind_exchange(ctx, {ctx.rank: b"mine"})

    rt = Runtime(tree_of(4), seed=0)
    res = rt.run(prog)
    assert all(r == [(rank, b"mine")] for rank, r in enumerate(res))
    assert rt.ledger.bytes_total(kinds=("msg",)) == 0


# -- directory against the oracle ------------------------------------------------------


def run_directory(key_space, per_rank, seed=0, queries=None, ranges=None):
    p = len(per_rank)

    def prog(ctx):
        d = Directory.build(ctx, per_rank[ctx.rank], key_space)
        out = {"local": d.local_items()}
        if queries is not None:
            out["query"] = d.query(queries)
        if ranges is not None:
            out["range"] = [d.range_query(lo, hi) for lo, hi in ranges]
        return out

    rt = Runtime(tree_of(p), seed=seed)
    return rt.run(prog), rt.ledger


def test_build_matches_oracle_small_hand_case():
    per_rank = [[(0, b"a"), (5, b"b")], [(5, b"c"), (0, b"d")]]
    oracle = sequential_multimap(
        [(r, k, v) for r, pairs in enumerate(per_rank) for k, v in pairs])
    res, _ = run_directory(6, per_rank)
    merged = {}
    for r in res:
        for key, values in r["local"]:
            assert key not in merged
            merged[key] = values
    assert merged == oracle  # {0: [a, d], 5: [b, c]}


def test_duplicate_key_values_ordered_by_source_rank():
    # Every rank inserts under the same key; owner sees source order 0..p-1.
    p = 4
    per_rank = [[(2, bytes([r]))] for r in range(p)]
    res, _ = run_directory(8, per_rank)
    values = [v for r in res for _, vs in r["local"] for v in vs]
    assert values == [b"\x00", b"\x01", b"\x02", b"\x03"]


def test_query_returns_all_values_and_empty_for_missing():
    per_rank = [[(1, b"x")], [(1, b"y"), (3, b"z")]]
    res, _ = run_directory(4, per_rank, queries=[0, 1, 3])
    for r in res:
        assert r["query"] == {0: [], 1: [b"x", b"y"], 3: [b"z"]}


def test_range_query_collects_interval():
    per_rank = [[(0, b"a"), (4, b"e")], [(2, b"c"), (7, b"h")]]
    res, _ = run_directory(8, per_rank, ranges=[(0, 5), (7, 8), (3, 3)])
    for r in res:
        assert r["range"][0] == {0: [b"a"], 2: [b"c"], 4: [b"e"]}
        assert r["range"][1] == {7: [b"h"]}
        assert r["range"][2] == {}


def test_empty_range_sends_no_messages():
    per_rank = [[(0, b"a")], [(3, b"b")]]
    _, ledger = run_directory(4, per_rank, ranges=[(2, 2)])
    build_msgs = ledger.message_count()

    _, ledger2 = run_directory(4, per_rank)
    assert build_msgs == ledger2.message_count()


def test_lookups_in_own_shard_send_no_messages():
    # key_space 8 over 2 ranks: each rank inserts, queries and ranges over
    # keys of its own block [4r, 4r + 4) only.
    def prog(ctx):
        base = 4 * ctx.rank
        d = Directory.build(ctx, [(base + 1, b"a"), (base + 2, b"b")], 8)
        return d.query([base, base + 1]), d.range_query(base, base + 3)

    rt = Runtime(tree_of(2), seed=0)
    for r, (found, ranged) in enumerate(rt.run(prog)):
        assert found == {4 * r: [], 4 * r + 1: [b"a"]}
        assert ranged == {4 * r + 1: [b"a"], 4 * r + 2: [b"b"]}
    assert rt.ledger.message_count() == 0


def test_range_query_contacts_only_intersecting_owners():
    # key_space 16 over 4 ranks: blocks [0,4) [4,8) [8,12) [12,16).
    per_rank = [[(k, bytes([k]))] for k in (1, 5, 9, 13)]

    def prog(ctx):
        d = Directory.build(ctx, per_rank[ctx.rank], 16)
        return d.range_query(4, 8)

    rt = Runtime(tree_of(4), seed=0)
    res = rt.run(prog)
    assert all(r == {5: [b"\x05"]} for r in res)
    # Range phase: ranks 0,2,3 each send one request to owner 1 and get one
    # reply; rank 1 answers locally. 6 data messages plus the rendezvous.
    pairs = rt.ledger.export()["pairs"]
    # The reply flowed owner -> asker.
    assert any(p["source"] == 1 and p["dest"] == 0 and p["bytes"]
               for p in pairs)


def test_directory_runs_match_oracle_randomized():
    rng = random.Random(77)
    for trial in range(30):
        p = rng.choice([2, 3, 4, 8])
        key_space, per_rank = random_instance(rng, p, 200)
        all_pairs = [(r, k, v) for r, pairs in enumerate(per_rank)
                     for k, v in pairs]
        oracle = sequential_multimap(all_pairs)
        queries = sorted({k for _, k, _ in all_pairs})[:10] + [key_space - 1]
        res, _ = run_directory(key_space, per_rank, seed=trial,
                               queries=queries)
        merged = {}
        for r in res:
            for key, values in r["local"]:
                merged[key] = values
        assert merged == oracle
        for r in res:
            for k in queries:
                assert r["query"][k] == oracle.get(k, [])


def test_per_rank_request_traffic_bounded_by_distinct_owners():
    # A rank with pairs for d distinct owners sends at most d data messages
    # during build (plus the blind_count rendezvous, which uses accumulates).
    rng = random.Random(5)
    p = 8
    key_space, per_rank = random_instance(rng, p, 400)

    def prog(ctx):
        Directory.build(ctx, per_rank[ctx.rank], key_space)

    rt = Runtime(tree_of(p), seed=0)
    rt.run(prog)
    for r in range(p):
        owners = {owner(k, key_space, p) for k, _ in per_rank[r]} - {r}
        assert rt.ledger.rank_message_count(r, kinds=("msg",)) <= len(owners)


def test_a_collective_normalizes_its_team_once_per_call():
    # blind_exchange hands its normalized team on to blind_count, whose
    # window finds that tuple as given: only the window's creation
    # normalizes in the runtime.  co_holders hands its own normalized team
    # on to blind_exchange the same way.
    counts = Counter()

    def counting(module):
        def normalize(team, size):
            counts[module] += 1
            return _normalize_team(team, size)
        return mock.patch(f"hierpart.{module}._normalize_team", normalize)

    p, team = 4, [3, 1, 0, 2, 1]

    def prog(ctx):
        for _ in range(3):
            blind_exchange(ctx, {(ctx.rank + 1) % p: b"x"}, team=team)
        co_holders(ctx, [ctx.rank, 7], 8, team=team)

    with counting("directory"), counting("runtime"):
        Runtime(tree_of(p), seed=0).run(prog)
    # Three exchanges, and co_holders once for its own exchange.
    assert counts == {"directory": 4 * p, "runtime": 1}
