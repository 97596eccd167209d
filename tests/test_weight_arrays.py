"""Weights and owners as arrays against the dict-era code they replaced.

``dict_era`` keeps the loaders, part loads, imbalance, overlap remap and
keyed-value exchange from when weights and owners were dicts.  The array
versions must give the same records and error messages, bit-equal loads
(the per-part sums add in the same order: file order for a loaded
assignment, ascending id for one read off the chunks), the same remap and
byte-equal messages.
"""

from __future__ import annotations

import json
import random
import struct
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_era
from hierpart import _codec
from hierpart import mesh as mesh_module
from hierpart.balance import imbalance, load_imbalance, part_loads
from hierpart.cli import _check_assignment
from hierpart.formats import (FormatError, SCHEMA, load_assignment,
                              load_weights, read_assignment, read_weights)
from hierpart.mesh import exchange_keyed_values
from hierpart.partition import _overlap_remap
from hierpart.runtime import Runtime
from hierpart.topology import build_topology

I64 = st.integers(-2**63, 2**63 - 1)
# Non-integer weights over many magnitudes, so that sums round.
WEIGHT = st.floats(1e-3, 1e6, allow_nan=False) | st.sampled_from(
    [0.1, 0.2, 0.3, 1.1, 1.3, 1.7, 2.0 / 3.0])


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def outcome(load, path):
    """(items in order, None) or (None, error message)."""
    try:
        return list(load(path).items()), None
    except FormatError as err:
        return None, str(err)


# -- loaders ----------------------------------------------------------------------


BAD_ASSIGNMENT = [[1.5, 0], [True, 1], [2, False], [3], [4, 1, 2], "x",
                  [2**63, 1], [-2**64, 0], [3, 2**64], [0, "1"]]
BAD_WEIGHT = [[1.5, 1.0], [False, 1.0], [2, "1"], [3], [4, 0], [5, -2.5],
              [6, float("inf")], [7, float("nan")], [2**63, 1.0],
              [-2**70, 2.0]]


@settings(max_examples=150, deadline=None)
@given(ids=st.lists(st.integers(-10**6, 10**6) | I64, unique=True,
                    max_size=30),
       parts=st.data(), bad=st.sampled_from([None, *BAD_ASSIGNMENT]),
       repeat=st.booleans(), where=st.integers(0, 40))
def test_assignment_loader_matches_the_dict_loader(tmp_path_factory, ids,
                                                   parts, bad, repeat, where):
    rows = [[e, parts.draw(st.integers(-3, 40) | I64)] for e in ids]
    if repeat and rows:
        rows.insert(where % (len(rows) + 1), [rows[where % len(rows)][0], 0])
    if bad is not None:
        rows.insert(where % (len(rows) + 1), bad)
    path = tmp_path_factory.mktemp("a") / "assignment.json"
    path.write_text(json.dumps({"schema": SCHEMA, "assignment": rows}))
    got = outcome(load_assignment, path)
    assert got == outcome(dict_era.load_assignment, path)
    if got[0] is not None:
        ids_a, parts_a = read_assignment(path)
        assert list(zip(ids_a.tolist(), parts_a.tolist())) == got[0]


@settings(max_examples=150, deadline=None)
@given(ids=st.lists(st.integers(-10**6, 10**6) | I64, unique=True,
                    max_size=30),
       weights=st.data(), bad=st.sampled_from([None, *BAD_WEIGHT]),
       repeat=st.booleans(), where=st.integers(0, 40))
def test_weights_loader_matches_the_dict_loader(tmp_path_factory, ids,
                                                weights, bad, repeat, where):
    rows = [[e, weights.draw(WEIGHT | st.integers(1, 10**300))] for e in ids]
    if repeat and rows:
        rows.insert(where % (len(rows) + 1), [rows[where % len(rows)][0], 1.0])
    if bad is not None:
        rows.insert(where % (len(rows) + 1), bad)
    path = tmp_path_factory.mktemp("w") / "weights.json"
    path.write_text(json.dumps({"schema": SCHEMA, "weights": rows}))
    got = outcome(load_weights, path)
    assert got == outcome(dict_era.load_weights, path)
    if got[0] is not None:
        assert all(type(w) is float for _, w in got[0])
        ids_w, w = read_weights(path)
        assert list(zip(ids_w.tolist(), w.tolist())) == got[0]


def test_a_weight_beyond_float64_names_its_record(tmp_path):
    # The dict loader raised OverflowError on it.
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"schema": SCHEMA,
                                "weights": [[0, 1.0], [1, 10**400]]}))
    with pytest.raises(FormatError, match="weight record 1: weight beyond "
                                          "the float64 range"):
        load_weights(path)


# -- loads and imbalance ------------------------------------------------------------


@st.composite
def weighted_assignments(draw):
    """A shuffled element -> part dict, its part count and weights."""
    nparts = draw(st.integers(1, 9))
    ids = draw(st.lists(st.integers(-10**9, 10**9), unique=True, min_size=1,
                        max_size=60))
    random.Random(draw(st.integers(0, 99))).shuffle(ids)
    assignment = {e: draw(st.integers(0, nparts - 1)) for e in ids}
    weights = {e: draw(WEIGHT) for e in ids}
    return assignment, nparts, weights


@settings(max_examples=200, deadline=None)
@given(case=weighted_assignments())
def test_loads_and_imbalance_are_bit_equal_to_the_dict_versions(case):
    assignment, nparts, weights = case
    owner = np.array(list(assignment.values()), dtype=np.int64)
    for w in (None, weights):
        want = dict_era.partition_loads(assignment, nparts, w)
        column = None if w is None else np.array([w[e] for e in assignment])
        got = part_loads(owner, column, nparts).tolist()
        assert list(map(bits, got)) == list(map(bits, want.values()))
        assert bits(imbalance(assignment, w, nparts)) == \
            bits(dict_era.imbalance(assignment, w, nparts))


@settings(max_examples=200, deadline=None)
@given(case=weighted_assignments())
def test_the_cli_loads_add_in_file_then_id_order(case):
    # Before a rebalance the records add in file order; after it, rank by
    # rank with each rank's elements in id order, which per part is id
    # order.  The CLI gets both from one column aligned with the mesh.
    assignment, nparts, weights = case
    ids = np.array(list(assignment), dtype=np.int64)
    parts = np.array(list(assignment.values()), dtype=np.int64)
    mesh_ids = np.sort(ids)
    column = np.array([weights[e] for e in mesh_ids.tolist()])
    mesh = mock.Mock(element_ids=mesh_ids)
    position, owner = _check_assignment("assignment.json", ids, parts, mesh,
                                        nparts)
    before = part_loads(parts, column[position], nparts)
    want = dict_era.partition_loads(assignment, nparts, weights)
    assert list(map(bits, before.tolist())) == list(map(bits, want.values()))
    by_rank = {e: p for p in range(nparts)
               for e in sorted(e for e, q in assignment.items() if q == p)}
    after = part_loads(owner, column, nparts)
    assert bits(load_imbalance(after)) == \
        bits(dict_era.imbalance(by_rank, weights, nparts))


# -- overlap remap ----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(1, 8), n=st.integers(0, 80))
def test_overlap_remap_equals_the_dict_count(data, k, n):
    team = tuple(sorted(data.draw(st.lists(st.integers(0, 63), unique=True,
                                           min_size=k, max_size=k))))
    part = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    holder = data.draw(st.lists(st.integers(0, k - 1), min_size=n,
                                max_size=n))
    got = _overlap_remap(np.array(part, dtype=np.int64),
                         np.array(holder, dtype=np.int64), team)
    want = dict_era._overlap_remap(
        dict(enumerate(part)), {i: team[h] for i, h in enumerate(holder)},
        team)
    assert got.tolist() == [want[p] for p in range(k)]


# -- keyed-value exchange -----------------------------------------------------------


@given(keys=st.lists(I64, unique=True, max_size=12),
       values=st.lists(st.floats(width=64), min_size=12, max_size=12))
def test_kv_f64_messages_are_the_pack_kv_bytes(keys, values):
    values = values[:len(keys)]
    data = _codec.pack_kv_f64(np.array(keys, dtype=np.int64),
                              np.array(values, dtype=np.float64))
    assert data == _codec.pack_kv([(k, dict_era.pack_one_f64(v))
                                   for k, v in zip(keys, values)])
    back_keys, back_values = _codec.unpack_kv_f64(data)
    assert back_keys.tolist() == keys
    assert back_values.tobytes() == np.array(values).tobytes()


def _run_capturing(module, prog, nranks, seed):
    """Run ``prog`` on every rank, recording each blind_exchange's
    outgoing messages by rank."""
    sent = {}
    lock = threading.Lock()
    real = module.blind_exchange

    def spy(ctx, outgoing, team=None):
        with lock:
            sent[ctx.rank] = dict(outgoing)
        return real(ctx, outgoing, team=team)

    tree = build_topology([("node", nranks)])
    with mock.patch.object(module, "blind_exchange", spy):
        res = Runtime(tree, seed=seed).run(prog)
    return res, sent


@settings(max_examples=40, deadline=None)
@given(data=st.data(), nranks=st.integers(2, 4), seed=st.integers(0, 9))
def test_exchange_keyed_values_sends_the_dict_era_bytes(data, nranks, seed):
    keys = data.draw(st.lists(st.integers(-10**12, 10**12), unique=True,
                              max_size=30))
    holder = [data.draw(st.integers(0, nranks - 1)) for _ in keys]
    dest = [data.draw(st.integers(0, nranks - 1)) for _ in keys]
    values = [data.draw(st.floats(width=64)) for _ in keys]

    def mine(rank):
        return [i for i, h in enumerate(holder) if h == rank]

    def new(ctx):
        at = mine(ctx.rank)
        k, v = exchange_keyed_values(
            ctx, np.array([keys[i] for i in at], dtype=np.int64),
            np.array([values[i] for i in at], dtype=np.float64),
            np.array([dest[i] for i in at], dtype=np.int64))
        return k.tolist(), v.tobytes()

    def old(ctx):
        at = mine(ctx.rank)
        got = dict_era.exchange_keyed_values(
            ctx, {keys[i]: dict_era.pack_one_f64(values[i]) for i in at},
            {keys[i]: dest[i] for i in at})
        return list(got), b"".join(got.values())

    got, got_sent = _run_capturing(mesh_module, new, nranks, seed)
    want, want_sent = _run_capturing(dict_era, old, nranks, seed)
    assert got == want
    assert got_sent == want_sent


def test_exchange_keyed_values_takes_any_key_order():
    # Keys need not arrive sorted; each message and the result are.
    def prog(ctx):
        if ctx.rank == 0:
            keys, dest = np.array([9, 4, 7]), np.array([1, 1, 0])
        else:
            keys, dest = np.array([3]), np.array([0])
        got = exchange_keyed_values(ctx, keys, keys / 2, dest)
        return [a.tolist() for a in got]

    res = Runtime(build_topology([("node", 2)]), seed=0).run(prog)
    assert res == [[[3, 7], [1.5, 3.5]], [[4, 9], [2.0, 4.5]]]
