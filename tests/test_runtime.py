"""Runtime scheduler, messaging, fences, and traffic accounting."""

from __future__ import annotations

import hashlib
import random
import sys
import threading

import pytest

from hierpart.runtime import (ACC_BYTES, ANY_SOURCE, ANY_TAG, DeadlockError,
                              EpochError, ProtocolError, Runtime,
                              _normalize_team)
from hierpart.topology import build_topology

TREE4 = build_topology([("node", 2), ("socket", 2)])
TREE2 = build_topology([("node", 2)])


def column_sums(matrix: list[list[int]]) -> list[int]:
    """Oracle for blind_count: receive counts are the transpose's row sums."""
    n = len(matrix)
    return [sum(matrix[i][j] for i in range(n)) for j in range(n)]


def random_send_matrix(rng: random.Random, n: int) -> list[list[int]]:
    # Multiple sends to one target are allowed; diagonal stays empty since a
    # rank never messages itself.
    return [[rng.randint(0, 3) if i != j else 0 for j in range(n)]
            for i in range(n)]


def tree_of(p: int):
    return build_topology([("node", p)])


# -- messaging basics -----------------------------------------------------------


def test_send_recv_roundtrip():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.send(1, b"ping", tag=7)
            source, tag, data = ctx.recv(source=1, tag=9)
            return (source, tag, data)
        ctx.send(0, b"pong", tag=9)
        return ctx.recv(source=0, tag=7)

    res = Runtime(TREE2, seed=1).run(prog)
    assert res[0] == (1, 9, b"pong")
    assert res[1] == (0, 7, b"ping")


def test_recv_fifo_per_source_and_tag():
    def prog(ctx):
        if ctx.rank == 0:
            for i in range(5):
                ctx.send(1, bytes([i]), tag=3)
            return None
        return [ctx.recv(source=0, tag=3)[2] for _ in range(5)]

    res = Runtime(TREE2, seed=0).run(prog)
    assert res[1] == [bytes([i]) for i in range(5)]


def test_recv_any_source_and_probe():
    def prog(ctx):
        if ctx.rank == 3:
            got = []
            for _ in range(3):
                source, tag, nbytes = ctx.probe(source=ANY_SOURCE, tag=5)
                assert nbytes == 1
                src2, _, data = ctx.recv(source=source, tag=5)
                assert src2 == source
                got.append((source, data))
            return sorted(got)
        ctx.send(3, bytes([ctx.rank]), tag=5)
        return None

    res = Runtime(TREE4, seed=2).run(prog)
    assert res[3] == [(0, b"\x00"), (1, b"\x01"), (2, b"\x02")]


def test_recv_wildcard_tag():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.send(1, b"x", tag=42)
            return None
        source, tag, data = ctx.recv(source=0, tag=ANY_TAG)
        return tag

    assert Runtime(TREE2, seed=0).run(prog)[1] == 42


def test_unconsumed_message_is_a_protocol_error():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.send(1, b"orphan")
        return None

    with pytest.raises(ProtocolError, match="unconsumed"):
        Runtime(TREE2, seed=0).run(prog)

    def copy_prog(ctx):
        if ctx.rank == 0:
            ctx.copy_to(1, b"orphan")
        return None

    with pytest.raises(ProtocolError, match=r"unconsumed messages .*\(1, 0, 0, 6\)"):
        Runtime(TREE4, seed=0).run(copy_prog)


def test_runtime_is_one_shot():
    rt = Runtime(TREE2, seed=0)
    rt.run(lambda ctx: None)
    with pytest.raises(ProtocolError, match="one-shot"):
        rt.run(lambda ctx: None)


def test_rank_exception_propagates():
    def prog(ctx):
        if ctx.rank == 1:
            raise RuntimeError("boom on rank 1")
        ctx.barrier()

    with pytest.raises(RuntimeError, match="boom on rank 1"):
        Runtime(TREE2, seed=0).run(prog)


# -- copy channel ----------------------------------------------------------------


def test_copy_channel_same_node_only():
    # TREE4 puts ranks {0,1} on node 0 and {2,3} on node 1.
    def prog(ctx):
        if ctx.rank == 0:
            ctx.copy_to(1, b"handoff")
        elif ctx.rank == 1:
            return ctx.copy_from(0)
        return None

    rt = Runtime(TREE4, seed=0)
    assert rt.run(prog)[1] == b"handoff"
    assert rt.ledger.bytes_total(kinds=("copy",)) == 7
    assert rt.ledger.bytes_total(kinds=("msg",)) == 0


def test_copy_and_network_messages_match_only_their_own_channel():
    # Both channels queue into one mailbox per rank; a copy posted first
    # must stay invisible to probe and recv, and the message to copy_from.
    def prog(ctx):
        if ctx.rank == 0:
            ctx.copy_to(1, b"c", tag=5)
            ctx.send(1, b"n", tag=7)
        elif ctx.rank == 1:
            probed = ctx.probe()
            received = ctx.recv()
            return probed, received, ctx.copy_from(0)
        return None

    for seed in range(4):
        res = Runtime(TREE4, seed=seed).run(prog)
        assert res[1] == ((0, 7, 1), (0, 7, b"n"), b"c")


def test_copy_across_nodes_rejected():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.copy_to(2, b"nope")

    with pytest.raises(ProtocolError, match="share no node"):
        Runtime(TREE4, seed=0).run(prog)


def test_copy_from_any_source_rejected():
    # A copy is matched by its named source; ANY_SOURCE is for messages.
    def prog(ctx):
        if ctx.rank == 1:
            ctx.copy_from(ANY_SOURCE)

    with pytest.raises(ProtocolError, match="copy_from must name its source"):
        Runtime(TREE4, seed=0).run(prog)


# -- deadlock and epoch reporting ---------------------------------------------------


def test_deadlock_report_names_blocked_ranks():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.recv(source=1, tag=99)

    with pytest.raises(DeadlockError) as err:
        Runtime(TREE2, seed=0).run(prog)
    text = str(err.value)
    assert "rank 0" in text and "tag=99" in text


def test_mismatched_fence_counts_raise_epoch_error():
    def prog(ctx):
        win = ctx.window()
        ctx.fence(win)
        if ctx.rank == 0:
            ctx.fence(win)  # partner already finished

    with pytest.raises(EpochError, match="fence"):
        Runtime(TREE2, seed=0).run(prog)


def test_mismatched_barrier_counts_raise_epoch_error():
    def prog(ctx):
        ctx.barrier()
        if ctx.rank == 0:
            ctx.barrier()  # partner already finished

    with pytest.raises(EpochError, match=r"barrier\(team=\[0, 1\]\)"):
        Runtime(TREE2, seed=0).run(prog)


def test_barrier_outside_team_rejected():
    def prog(ctx):
        if ctx.rank == 2:
            ctx.barrier(team=(0, 1))

    with pytest.raises(ProtocolError, match="rank 2 in barrier"):
        Runtime(TREE4, seed=0).run(prog)


@pytest.mark.parametrize("call, message", [
    (lambda ctx: ctx.send(5, b"x"), "destination rank 5 outside 0..1"),
    (lambda ctx: ctx.recv(source=-2), "source rank -2 outside 0..1"),
], ids=["send", "recv"])
def test_a_rank_outside_the_runtime_is_named(call, message):
    with pytest.raises(ProtocolError, match=f"^{message}$"):
        Runtime(TREE2, seed=0).run(lambda ctx: ctx.rank == 0 and call(ctx))


def test_accumulate_to_a_target_outside_the_window_rejected():
    def prog(ctx):
        if ctx.rank == 0:
            win = ctx.window((0,))
            ctx.fence(win)
            ctx.accumulate(win, 1)

    with pytest.raises(ProtocolError, match=r"^accumulate target 1 outside "
                                            r"window members \(0,\)$"):
        Runtime(TREE2, seed=0).run(prog)


@pytest.mark.parametrize("team, message", [
    ([], "empty team"),
    ([0, 4], r"team \(0, 4\) outside rank range 0..3"),
    ([-1, 2], r"team \(-1, 2\) outside rank range 0..3"),
], ids=["empty", "above", "below"])
def test_a_bad_team_is_named(team, message):
    with pytest.raises(ProtocolError, match=f"^{message}$"):
        _normalize_team(team, 4)


def test_accumulate_outside_epoch_rejected():
    def prog(ctx):
        win = ctx.window()
        ctx.accumulate(win, 0, 1)

    with pytest.raises(EpochError):
        Runtime(TREE2, seed=0).run(prog)


def test_barrier_releases_all_ranks():
    order = []

    def prog(ctx):
        ctx.barrier()
        order.append(ctx.rank)
        ctx.barrier()
        return len(order)

    res = Runtime(TREE4, seed=5).run(prog)
    # Everyone passed barrier 1 before anyone passed barrier 2.
    assert all(n == 4 for n in res)


# -- blind count ------------------------------------------------------------------


def test_blind_count_matches_column_sums_small():
    rng = random.Random(20)
    for p in (2, 4, 8):
        matrix = random_send_matrix(rng, p)
        expect = column_sums(matrix)

        def prog(ctx):
            targets = [j for j in range(p)
                       for _ in range(matrix[ctx.rank][j])]
            return ctx.blind_count(targets)

        assert Runtime(tree_of(p), seed=1).run(prog) == expect


def test_blind_count_independent_of_scheduler_seed():
    matrix = random_send_matrix(random.Random(4), 4)
    expect = column_sums(matrix)

    def prog(ctx):
        targets = [j for j in range(4) for _ in range(matrix[ctx.rank][j])]
        return ctx.blind_count(targets)

    for seed in range(10):
        assert Runtime(TREE4, seed=seed).run(prog) == expect


def test_blind_count_self_target_allowed():
    def prog(ctx):
        return ctx.blind_count([ctx.rank])

    assert Runtime(TREE4, seed=0).run(prog) == [1, 1, 1, 1]


def test_blind_count_reusable_back_to_back():
    def prog(ctx):
        first = ctx.blind_count([0])
        second = ctx.blind_count([1])
        return (first, second)

    res = Runtime(TREE4, seed=3).run(prog)
    assert [r[0] for r in res] == [4, 0, 0, 0]
    assert [r[1] for r in res] == [0, 4, 0, 0]


def test_blind_count_team_scoped():
    def prog(ctx):
        team = (0, 1) if ctx.rank < 2 else (2, 3)
        peer = {0: 1, 1: 0, 2: 3, 3: 2}[ctx.rank]
        return ctx.blind_count([peer], team=team)

    assert Runtime(TREE4, seed=0).run(prog) == [1, 1, 1, 1]


def test_window_is_one_per_member_set():
    # A tuple is looked up as given first; any other spelling of the same
    # members, an unsorted tuple included, finds the same window.
    def prog(ctx):
        win = ctx.window()
        return [ctx.window(team) is win
                for team in ((0, 1, 2, 3), (3, 1, 2, 0), [2, 0, 3, 1, 1])]

    assert Runtime(TREE4, seed=0).run(prog) == [[True] * 3] * 4


def test_blind_count_target_outside_window_rejected():
    def prog(ctx):
        ctx.blind_count([3], team=(0, 1))

    with pytest.raises(ProtocolError, match="outside window"):
        Runtime(TREE2, seed=0).run(prog)


# -- ledger accounting ---------------------------------------------------------------


def test_ledger_counts_messages_and_bytes_by_phase():
    def prog(ctx):
        ctx.set_phase("alpha")
        if ctx.rank == 0:
            ctx.send(1, b"12345")
        elif ctx.rank == 1:
            ctx.recv(source=0)
        ctx.barrier()
        ctx.set_phase("beta")
        if ctx.rank == 2:
            ctx.send(3, b"123")
        elif ctx.rank == 3:
            ctx.recv(source=2)

    rt = Runtime(TREE4, seed=0)
    rt.run(prog)
    assert rt.ledger.bytes_total(kinds=("msg",), phase="alpha") == 5
    assert rt.ledger.bytes_total(kinds=("msg",), phase="beta") == 3
    assert rt.ledger.message_count(phase="alpha") == 1
    assert [row["phase"] for row in rt.ledger.phase_totals()] == \
        ["alpha", "beta"]


def test_accumulate_ledger_four_bytes_each_and_self_free():
    def prog(ctx):
        win = ctx.window()
        ctx.fence(win)
        ctx.accumulate(win, (ctx.rank + 1) % 4, 1)
        ctx.accumulate(win, ctx.rank, 1)  # self: no traffic
        ctx.fence(win)
        n = ctx.read_cell(win)
        ctx.reset_cell(win)
        return n

    rt = Runtime(TREE4, seed=1)
    assert rt.run(prog) == [2, 2, 2, 2]
    assert rt.ledger.bytes_total(kinds=("acc",)) == 4 * ACC_BYTES
    assert rt.ledger.message_count(kinds=("acc",)) == 4


def test_ledger_message_totals_agree():
    # Accumulates carry bytes but are not messages in any view of the ledger;
    # copies count only as copy bytes.
    def prog(ctx):
        for phase in ("alpha", "beta"):
            ctx.set_phase(phase)
            peer = (ctx.rank + 1) % 4
            buddy = ctx.rank ^ 1  # the other rank on this node of TREE4
            ctx.copy_to(buddy, b"yy")
            for _ in range(ctx.blind_count([peer])):
                ctx.send(peer, b"x")
                ctx.recv()
            assert ctx.copy_from(buddy) == b"yy"

    rt = Runtime(TREE4, seed=0)
    rt.run(prog)
    out = rt.ledger.export()
    phases, pairs = out["phases"], out["pairs"]
    assert rt.ledger.message_count(kinds=("acc",)) == 8
    assert (sum(row["messages"] for row in phases)
            == sum(row["messages"] for row in pairs)
            == out["total_messages"] == 8)
    # 8 one-byte messages and 8 four-byte accumulates.
    assert (sum(row["internode_bytes"] + row["intranode_bytes"] for row in phases)
            == sum(row["bytes"] for row in pairs)
            == out["total_internode_bytes"] + out["total_intranode_bytes"]
            == rt.ledger.bytes_total() == 8 + 8 * ACC_BYTES)
    assert (sum(row["copy_bytes"] for row in phases)
            == sum(row["copy_bytes"] for row in pairs)
            == out["total_copy_bytes"]
            == rt.ledger.bytes_total(kinds=("copy",)) == 16)
    for row in pairs:
        if row["locality"] == "internode":
            assert row["copy_bytes"] == 0, row


def test_ledger_locality_split():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.send(1, b"aa")   # intranode on TREE4
            ctx.send(2, b"bbb")  # internode
        elif ctx.rank in (1, 2):
            ctx.recv(source=0)

    rt = Runtime(TREE4, seed=0)
    rt.run(prog)
    assert rt.ledger.bytes_total(kinds=("msg",), locality="intranode") == 2
    assert rt.ledger.bytes_total(kinds=("msg",), locality="internode") == 3


def test_results_ordered_by_rank():
    res = Runtime(TREE4, seed=9).run(lambda ctx: ctx.rank * 10)
    assert res == [0, 10, 20, 30]


# -- interleaving golden hashes ---------------------------------------------------
#
# The scheduler's draw must stay a pure function of the seed: each program
# logs (rank, step) after every primitive, and the hash of that log pins the
# exact interleaving a seed gives.  A scheduler change that readies the same
# ranks at the same yields reproduces every hash.

TREE32 = build_topology([("node", 4), ("socket", 2), ("core", 4)])


def _log_hash(log: list[tuple[int, str]]) -> str:
    return hashlib.sha256(repr(log).encode()).hexdigest()


def _mixed_program(log):
    def prog(ctx):
        r, p = ctx.rank, ctx.size
        buddy = r ^ 1  # same core pair, so same node
        ring = (r + 1) % p
        ctx.send(ring, bytes([r]), tag=1)
        log.append((r, "send"))
        src, _, _ = ctx.recv(source=ANY_SOURCE, tag=1)
        log.append((r, f"recv {src}"))
        ctx.send((r + 3) % p, b"pp", tag=2)
        log.append((r, "send 2"))
        src, _, nbytes = ctx.probe(source=ANY_SOURCE, tag=2)
        log.append((r, f"probe {src} {nbytes}"))
        ctx.recv(source=src, tag=2)
        log.append((r, "recv 2"))
        ctx.copy_to(buddy, b"c" * (r % 3 + 1), tag=3)
        log.append((r, "copy_to"))
        ctx.copy_from(buddy, tag=3)
        log.append((r, "copy_from"))
        ctx.barrier(team=ctx.tree.group_of(r, 0))
        log.append((r, "node barrier"))
        targets = [(r * 5 + k) % p for k in range(r % 4)]
        n = ctx.blind_count(targets)
        log.append((r, f"blind_count {n}"))
        for t in targets:
            ctx.send(t, b"b", tag=4)
        for _ in range(n):
            src, _, _ = ctx.recv(source=ANY_SOURCE, tag=4)
            log.append((r, f"drain {src}"))
        ctx.barrier(team=ctx.tree.group_of(r, 1))
        log.append((r, "socket barrier"))

    return prog


def _blind_rounds_program(log, rounds=5):
    def prog(ctx):
        r, p = ctx.rank, ctx.size
        for i in range(rounds):
            n = ctx.blind_count([(r * (i + 3) + k) % p for k in range(3)])
            log.append((r, i, n))

    return prog


MIXED_P32_HASHES = [
    'eda6ad94c4467d36cd96db79964a38e908f8f34ffef55d26a06d222d95395a22',
    'b3c5db1c075fff800e41682b8613a5903b6dbc0f1a45bb9ba44b315cbf38fbac',
    'd9e7c1825df299b8f05f897d0c0050a9d79e0a4e9363be24b1527478299a65b4',
    '75f4126f46e7c0e19d0e758d1d87e9f6645aca992c9f2c505a7a0d27cf337e10',
    '218515b4e775b16c77d82d8fb37a8860bc65cfb8723914f36cf95e963746f86e',
]
BLIND_P256_HASHES = [
    '5a25a651b5e4f1a66823645bfa34feb497cada4d012bdcb30df83cd3c49ee8e0',
    '0f5bdfc8bf92ea9e4503a5a4d9c1e594874548b2247b5c1533cea35034ffa117',
    'd62f2ff3c8b67b1cbd456c646e63f4f2ac4e131dd293748d48dbc5d649f22fb7',
    '4e1300b924bca8e45d56579b47c70f6042fa9df7916386ff04b5f95f59ac4418',
    'ab023fccd390d3c6f8f368a2b36339450d5b05826c2c9a0d5fb5ab29f0bfa53a',
]


@pytest.mark.parametrize("seed", range(5))
def test_mixed_program_interleaving_is_pinned(seed):
    log: list = []
    Runtime(TREE32, seed=seed).run(_mixed_program(log))
    assert _log_hash(log) == MIXED_P32_HASHES[seed]


@pytest.mark.parametrize("seed", range(5))
def test_blind_count_rounds_interleaving_is_pinned(seed):
    log: list = []
    Runtime(tree_of(256), seed=seed).run(_blind_rounds_program(log))
    assert _log_hash(log) == BLIND_P256_HASHES[seed]


def test_interleaving_holds_under_a_short_switch_interval():
    # Rank threads hand over through their own locks; with the interpreter
    # switching threads every microsecond a lost or doubled wake-up would
    # hang the run or change the pinned order.
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        log: list = []
        runner = threading.Thread(
            target=lambda: Runtime(TREE32, seed=3).run(_mixed_program(log)))
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "Runtime.run did not return"
    finally:
        sys.setswitchinterval(old)
    assert _log_hash(log) == MIXED_P32_HASHES[3]


# -- abort paths ------------------------------------------------------------------
#
# Each run goes on its own thread under a join timeout, so a lost wake-up
# fails the test instead of hanging it; afterwards no rank thread may be
# left alive.


def _run_to_error(tree, prog, seed) -> BaseException:
    box: dict[str, BaseException] = {}

    def target():
        try:
            Runtime(tree, seed=seed).run(prog)
        except BaseException as exc:  # noqa: BLE001 - inspected below
            box["error"] = exc

    runner = threading.Thread(target=target)
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive(), "Runtime.run did not return"
    assert not [t.name for t in threading.enumerate()
                if t.name.startswith("rank-")]
    return box["error"]


@pytest.mark.parametrize("seed", range(3))
def test_abort_after_rank_exception(seed):
    def prog(ctx):
        # Ranks block on a barrier, a receive and a fence when rank 5 fails.
        if ctx.rank == 5:
            ctx.send(6, b"x")
            raise RuntimeError("boom on rank 5")
        if ctx.rank == 6:
            ctx.recv(source=5)
        if ctx.rank == 7:
            ctx.recv(source=0, tag=3)
        ctx.barrier()

    err = _run_to_error(TREE32, prog, seed)
    assert type(err) is RuntimeError and str(err) == "boom on rank 5"


@pytest.mark.parametrize("seed", range(3))
def test_abort_after_deadlock(seed):
    def prog(ctx):
        if ctx.rank == 0:
            ctx.recv(source=1, tag=99)
        elif ctx.rank == 2:
            ctx.copy_from(3, tag=4)
        elif ctx.rank == 3:
            ctx.probe(source=ANY_SOURCE, tag=ANY_TAG)

    err = _run_to_error(TREE4, prog, seed)
    assert type(err) is DeadlockError
    assert str(err) == (
        "no runnable rank; blocked state:\n"
        "  rank 0: blocked on recv(source=1, tag=99)\n"
        "  rank 1: finished\n"
        "  rank 2: blocked on copy_from(source=3, tag=4)\n"
        "  rank 3: blocked on recv(source=any, tag=any)")


@pytest.mark.parametrize("seed", range(3))
def test_abort_after_fence_mismatch(seed):
    def prog(ctx):
        win = ctx.window(team=(0, 1, 2))
        if ctx.rank < 3:
            ctx.fence(win)
            if ctx.rank != 1:
                ctx.fence(win)  # rank 1 already finished

    err = _run_to_error(TREE4, prog, seed)
    assert type(err) is EpochError
    assert str(err) == (
        "mismatched fence counts across ranks; "
        "no runnable rank; blocked state:\n"
        "  rank 0: blocked on fence(window members=[0, 1, 2])\n"
        "  rank 1: finished\n"
        "  rank 2: blocked on fence(window members=[0, 1, 2])\n"
        "  rank 3: finished")
