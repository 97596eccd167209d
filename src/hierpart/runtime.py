"""Deterministic in-process simulation of a multi-rank message-passing runtime.

Every rank runs as its own thread, but only one rank executes at a time: each
runtime call is a yield point where control passes back to a scheduler that
picks the next runnable rank from a seeded RNG.  Changing the seed changes the
interleaving; protocol results must not depend on it.  The runtime provides
point-to-point messages with per-(source, tag) FIFO ordering, one-sided
accumulate windows with fence synchronization, a same-node copy channel that
bypasses the network, and a traffic ledger that classifies every byte sent.

Each rank has one mailbox.  A queued message records its channel, network
(``msg``) or same-node copy (``copy``); both channels are posted and taken
by the same code, and a receive only matches messages of its own channel.
``RankContext`` implements every primitive; ``Runtime`` owns the threads, the
scheduler and the state the ranks share.

The scheduler keeps an ascending list of the ranks that can run and draws
the next one from it.  A rank that blocks records what it waits for; the
post that delivers a matching message, or the fence arrival that completes
its window's epoch, puts it back on the list, so a yield costs nothing per
idle rank.  Each rank thread parks on its own lock: the scheduler wakes a
rank by releasing it.

Deadlock is detected, not hung on: if every unfinished rank is blocked, the
run aborts with a report naming each blocked rank and what it waits for.
"""

from __future__ import annotations

import bisect
import random
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

ANY_SOURCE = -1
ANY_TAG = -1

# Byte cost of a single one-sided integer accumulate, mirroring a 32-bit int
# on the wire.
ACC_BYTES = 4


class DeadlockError(RuntimeError):
    """Raised when every unfinished rank is blocked on a runtime call."""


class EpochError(RuntimeError):
    """Raised on window misuse: accumulate outside an epoch, lost fences."""


class ProtocolError(RuntimeError):
    """Raised on malformed runtime usage (bad rank, leftover messages...)."""


class _Aborted(Exception):
    # Internal: unwinds rank threads after a failure elsewhere.
    pass


@dataclass
class _Message:
    source: int
    tag: int
    data: bytes
    channel: str  # "msg" for the network, "copy" for the same-node channel


class Window:
    """One integer cell per member rank, updated by one-sided accumulates.

    Accumulates are only legal inside an epoch, i.e. after the window's first
    fence.  A fence is a barrier over the member ranks; sums accumulated
    before a fence are visible to the owner after it.
    """

    __slots__ = ("members", "cells", "generation", "arrived")

    def __init__(self, members: tuple[int, ...]):
        self.members = members
        self.cells = {r: 0 for r in members}
        self.generation = 0
        self.arrived: set[int] = set()


class TrafficLedger:
    """Byte and message accounting for a single runtime execution.

    Three record kinds are kept per (phase, source, dest) triple:
    ``msg`` for network messages, ``acc`` for one-sided accumulates, and
    ``copy`` for same-node buffer copies which never touch the network.
    Locality of a pair is derived from the topology: intranode when both
    ranks share the same level-0 ancestor.
    """

    def __init__(self, tree):
        self._tree = tree
        # (kind, phase, src, dst) -> [message_count, byte_count]
        self._records: dict[tuple[str, str, int, int], list[int]] = {}

    def locality(self, a: int, b: int) -> str:
        return "intranode" if self._tree.same_node(a, b) else "internode"

    def _bump(self, kind: str, phase: str, src: int, dst: int, nbytes: int) -> None:
        cell = self._records.setdefault((kind, phase, src, dst), [0, 0])
        cell[0] += 1
        cell[1] += nbytes

    # -- queries ----------------------------------------------------------

    def _select(self, kinds, locality=None, phase=None):
        for (kind, ph, src, dst), (msgs, nbytes) in self._records.items():
            if kind not in kinds:
                continue
            if phase is not None and ph != phase:
                continue
            if locality is not None and self.locality(src, dst) != locality:
                continue
            yield (kind, ph, src, dst, msgs, nbytes)

    def bytes_total(self, *, kinds=("msg", "acc"), locality=None,
                    phase=None) -> int:
        return sum(row[5] for row in self._select(kinds, locality, phase))

    def message_count(self, *, kinds=("msg",), locality=None,
                      phase=None) -> int:
        return sum(row[4] for row in self._select(kinds, locality, phase))

    def rank_message_count(self, rank: int, *, kinds=("msg",), phase=None) -> int:
        return sum(row[4] for row in self._select(kinds, None, phase)
                   if row[2] == rank)

    def _grouped(self, key: Callable[[str, int, int], Any]
                 ) -> list[tuple[Any, dict[str, int]]]:
        """Counter rows summed over the records, grouped by ``key(phase, src, dst)``.

        ``messages`` counts network messages only, as ``message_count`` does;
        one-sided accumulates add to the byte columns, as in ``bytes_total``;
        copies add to ``copy_bytes`` only.  Rows are sorted by key.
        """
        rows: dict[Any, dict[str, int]] = {}
        for (kind, ph, src, dst), (msgs, nbytes) in self._records.items():
            row = rows.setdefault(key(ph, src, dst), {
                "messages": 0, "internode_bytes": 0, "intranode_bytes": 0,
                "copy_bytes": 0,
            })
            if kind == "copy":
                row["copy_bytes"] += nbytes
                continue
            if kind == "msg":
                row["messages"] += msgs
            row[f"{self.locality(src, dst)}_bytes"] += nbytes
        return sorted(rows.items())

    def phase_totals(self) -> list[dict[str, Any]]:
        """Per-phase traffic summary, sorted by phase name."""
        return [{"phase": ph, **row}
                for ph, row in self._grouped(lambda ph, src, dst: ph)]

    def export(self) -> dict[str, Any]:
        """Stable dictionary form for reports; sorted, seed-independent."""
        phases = self.phase_totals()
        return {
            "phases": phases,
            "pairs": [
                {"source": s, "dest": d, "locality": self.locality(s, d),
                 "messages": row["messages"],
                 "bytes": row["internode_bytes"] + row["intranode_bytes"],
                 "copy_bytes": row["copy_bytes"]}
                for (s, d), row in self._grouped(lambda ph, src, dst: (src, dst))
            ],
            **{f"total_{name}": sum(row[name] for row in phases)
               for name in ("internode_bytes", "intranode_bytes", "copy_bytes",
                            "messages")},
        }


class RankContext:
    """Per-rank handle passed to the function executed by ``Runtime.run``.

    Every runtime primitive is implemented here, on the shared state that
    the ``Runtime`` owns: its inboxes, windows and ledger.
    """

    def __init__(self, runtime: "Runtime", rank: int):
        self._rt = runtime
        self.rank = rank
        self.size = runtime.size
        self.tree = runtime.tree
        self._phase = ""

    # -- bookkeeping -------------------------------------------------------

    def set_phase(self, name: str) -> None:
        """Label subsequent traffic from this rank in the ledger."""
        self._phase = name

    @property
    def phase(self) -> str:
        return self._phase

    def _check_rank(self, r: int, what: str) -> None:
        if not (0 <= r < self.size):
            raise ProtocolError(f"{what} rank {r} outside 0..{self.size - 1}")

    # -- messaging ---------------------------------------------------------

    def send(self, dest: int, data: bytes, tag: int = 0) -> None:
        self._post(dest, data, tag, "msg")

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> tuple[int, int, bytes]:
        msg = self._take(source, tag, "msg", consume=True)
        return (msg.source, msg.tag, msg.data)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> tuple[int, int, int]:
        """Block until a matching message is pending; return (source, tag, nbytes)."""
        msg = self._take(source, tag, "msg", consume=False)
        return (msg.source, msg.tag, len(msg.data))

    # -- same-node copy channel ---------------------------------------------

    def copy_to(self, dest: int, data: bytes, tag: int = 0) -> None:
        """Hand a buffer to a rank on the same node without network traffic."""
        self._post(dest, data, tag, "copy")

    def copy_from(self, source: int, tag: int = ANY_TAG) -> bytes:
        if source == ANY_SOURCE:
            raise ProtocolError("copy_from must name its source rank; only "
                                "recv and probe take ANY_SOURCE")
        return self._take(source, tag, "copy", consume=True).data

    def _post(self, dest: int, data: bytes, tag: int, channel: str) -> None:
        # ``channel`` is "msg" or "copy", and doubles as the ledger kind.
        self._check_rank(dest, "destination")
        if channel == "copy" and not self.tree.same_node(self.rank, dest):
            raise ProtocolError(
                f"copy_to between ranks {self.rank} and {dest} which share no node")
        payload = bytes(data)
        rt = self._rt
        with rt._mutex:
            if rt._abort:
                raise _Aborted()
            rt._inbox[dest].append(_Message(self.rank, tag, payload, channel))
            rt.ledger._bump(channel, self._phase, self.rank, dest, len(payload))
            # A blocked destination waited for no queued message, so only
            # this one can satisfy it.
            wait = rt._wait[dest]
            if wait is not None and wait[0] == channel and \
               wait[1] in (ANY_SOURCE, self.rank) and wait[2] in (ANY_TAG, tag):
                rt._ready_locked(dest)
        rt._yield_control(self.rank)

    def _take(self, source: int, tag: int, channel: str, consume: bool) -> _Message:
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        rt = self._rt
        rt._yield_control(self.rank, wait=(channel, source, tag))
        with rt._mutex:
            msg = rt._find_message(self.rank, channel, source, tag)
            assert msg is not None
            if consume:
                rt._inbox[self.rank].remove(msg)
        return msg

    # -- synchronization and one-sided ops -----------------------------------

    def barrier(self, team: Sequence[int] | None = None) -> None:
        """Synchronize the team: a fence on its persistent window (default: all)."""
        self._fence(self.window(team), "barrier")

    def window(self, team: Sequence[int] | None = None) -> Window:
        """The persistent accumulate window shared by ``team`` (default: all)."""
        rt = self._rt
        with rt._mutex:
            # The collectives hand their team on normalized, so a tuple is
            # looked up as given first.
            win = rt._windows.get(team) if isinstance(team, tuple) else None
            if win is None:
                members = _normalize_team(team, self.size)
                win = rt._windows.get(members)
                if win is None:
                    win = rt._windows[members] = Window(members)
            return win

    def fence(self, window: Window) -> None:
        self._fence(window, "fence")

    def _fence(self, win: Window, kind: str) -> None:
        # ``kind`` ("fence" or "barrier") only labels the wait in reports.
        rt = self._rt
        with rt._mutex:
            if rt._abort:
                raise _Aborted()
            if self.rank not in win.cells:
                raise ProtocolError(f"rank {self.rank} in {kind} of {win.members}")
            gen0 = win.generation
            win.arrived.add(self.rank)
            if len(win.arrived) == len(win.members):
                win.arrived.clear()
                win.generation += 1
                # Every other member arrived earlier and is parked here.
                for r in win.members:
                    if r != self.rank:
                        rt._ready_locked(r)
        rt._yield_control(self.rank, wait=(kind, win, gen0))

    def accumulate(self, window: Window, target: int, value: int = 1) -> None:
        rt = self._rt
        with rt._mutex:
            if rt._abort:
                raise _Aborted()
            if window.generation == 0:
                raise EpochError(
                    f"rank {self.rank} accumulate before the window's first fence")
            if target not in window.cells:
                raise ProtocolError(f"accumulate target {target} outside window "
                                    f"members {window.members}")
            window.cells[target] += value
            if target != self.rank:
                rt.ledger._bump("acc", self._phase, self.rank, target, ACC_BYTES)
        rt._yield_control(self.rank)

    def read_cell(self, window: Window) -> int:
        with self._rt._mutex:
            return window.cells[self.rank]

    def reset_cell(self, window: Window, value: int = 0) -> None:
        with self._rt._mutex:
            window.cells[self.rank] = value

    def blind_count(self, targets: Iterable[int],
                    team: Sequence[int] | None = None) -> int:
        """How many ranks listed me as a target, without me knowing whom.

        Collective over the team.  Each rank accumulates +1 into every
        target's window cell between two fences, then reads its own cell:
        the column sum of the implicit send matrix.  The cell is cleared
        afterwards so the persistent window can be reused.
        """
        win = self.window(team)
        targets = sorted(targets)
        for t in targets:
            if t not in win.cells:
                raise ProtocolError(f"blind_count target {t} outside window members {win.members}")
        self.fence(win)
        for t in targets:
            self.accumulate(win, t, 1)
        self.fence(win)
        n = self.read_cell(win)
        self.reset_cell(win)
        return n


def _normalize_team(team: Sequence[int] | None, size: int) -> tuple[int, ...]:
    if team is None:
        return tuple(range(size))
    out = tuple(sorted(set(int(r) for r in team)))
    if not out:
        raise ProtocolError("empty team")
    if out[0] < 0 or out[-1] >= size:
        raise ProtocolError(f"team {out} outside rank range 0..{size - 1}")
    return out


class Runtime:
    """Owns the rank threads, the scheduler, deadlock detection and the
    state the ranks share: their inboxes, the windows and the traffic ledger.

    One-shot: a Runtime instance executes a single ``run`` so that its
    ledger describes exactly one SPMD program.
    """

    def __init__(self, tree, *, seed: int = 0):
        self.tree = tree
        self.size = tree.total_ranks
        self.seed = seed
        self.ledger = TrafficLedger(tree)
        self._used = False
        self._mutex = threading.Lock()
        self._windows: dict[tuple[int, ...], Window] = {}

    # -- public entry ---------------------------------------------------------

    def run(self, fn: Callable[[RankContext], Any]) -> list[Any]:
        """Execute ``fn(ctx)`` on every rank; return per-rank results.

        Raises the first rank exception, a DeadlockError with a blocked-state
        report, or a ProtocolError if messages were left unconsumed.
        """
        if self._used:
            raise ProtocolError("Runtime instances are one-shot; build a new one")
        self._used = True

        P = self.size
        # A rank parks by acquiring its own held lock; waking it releases it.
        self._locks = [threading.Lock() for _ in range(P)]
        for lock in self._locks:
            lock.acquire()
        self._state = ["ready"] * P
        self._wait: list[tuple | None] = [None] * P
        # The ranks that may run, ascending; the running rank stays on it.
        self._ready = list(range(P))
        self._done = 0
        # One mailbox per rank; each message records its channel.
        self._inbox: list[deque[_Message]] = [deque() for _ in range(P)]
        self._results: list[Any] = [None] * P
        self._error: BaseException | None = None
        self._deadlock: BaseException | None = None
        self._abort = False
        self._rng = random.Random(self.seed)

        ctxs = [RankContext(self, r) for r in range(P)]
        threads = [
            threading.Thread(target=self._rank_main, args=(fn, ctxs[r]),
                             name=f"rank-{r}", daemon=True)
            for r in range(P)
        ]
        for t in threads:
            t.start()
        with self._mutex:
            self._dispatch_locked()
        # Every thread ends: its rank finished, failed or was aborted.
        for t in threads:
            t.join()

        if self._error is not None:
            raise self._error
        if self._deadlock is not None:
            raise self._deadlock
        leftovers = [(dst, m.source, m.tag, len(m.data))
                     for dst in range(P) for m in self._inbox[dst]]
        if leftovers:
            raise ProtocolError(f"unconsumed messages at end of run: {leftovers}")
        return list(self._results)

    # -- rank thread bodies -----------------------------------------------------

    def _rank_main(self, fn, ctx: RankContext) -> None:
        rank = ctx.rank
        # Wait to be scheduled for the first time.
        self._locks[rank].acquire()
        if self._abort:
            return
        try:
            result = fn(ctx)
        except _Aborted:
            return
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            with self._mutex:
                if self._error is None:
                    self._error = exc
                self._abort_locked()
            return
        with self._mutex:
            self._results[rank] = result
            self._state[rank] = "done"
            self._unready_locked(rank)
            self._done += 1
            self._dispatch_locked()

    # -- scheduler ---------------------------------------------------------------

    def _yield_control(self, rank: int, wait: tuple | None = None) -> None:
        with self._mutex:
            if self._abort:
                raise _Aborted()
            if wait is not None and not self._wait_satisfied(rank, wait):
                self._state[rank] = "blocked"
                self._wait[rank] = wait
                self._unready_locked(rank)
            self._dispatch_locked()
        self._locks[rank].acquire()
        if self._abort:
            raise _Aborted()

    def _ready_locked(self, rank: int) -> None:
        # Called by the post or the fence completion that satisfies the
        # blocked rank's wait.  Conditions are monotone (messages only
        # appear, generations only grow), so it stays runnable until it
        # consumes the event itself.
        self._state[rank] = "ready"
        self._wait[rank] = None
        bisect.insort(self._ready, rank)

    def _unready_locked(self, rank: int) -> None:
        del self._ready[bisect.bisect_left(self._ready, rank)]

    def _dispatch_locked(self) -> None:
        ready = self._ready
        if ready:
            self._locks[ready[self._rng.randrange(len(ready))]].release()
            return
        if self._done == self.size:
            return
        # Everyone alive is blocked: deadlock.
        self._deadlock = self._deadlock_report_locked()
        self._abort_locked()

    def _abort_locked(self) -> None:
        self._abort = True
        for lock in self._locks:
            if lock.locked():
                lock.release()

    def _deadlock_report_locked(self) -> BaseException:
        lines = []
        fence_only = True
        any_blocked = False
        for r in range(self.size):
            if self._state[r] == "done":
                lines.append(f"rank {r}: finished")
                continue
            any_blocked = True
            wait = self._wait[r]
            lines.append(f"rank {r}: blocked on {_describe_wait(wait)}")
            if wait is None or wait[0] not in ("fence", "barrier"):
                fence_only = False
        report = "no runnable rank; blocked state:\n  " + "\n  ".join(lines)
        if any_blocked and fence_only and any(s == "done" for s in self._state):
            # Some ranks left the program while others still wait at a fence:
            # the fence/barrier counts cannot match.
            return EpochError("mismatched fence counts across ranks; " + report)
        return DeadlockError(report)

    def _wait_satisfied(self, rank: int, wait: tuple | None) -> bool:
        if wait is None:
            return True
        kind = wait[0]
        if kind in ("fence", "barrier"):
            _, win, gen0 = wait
            return win.generation > gen0
        # Otherwise the rank waits on a message of channel ``kind``.
        _, source, tag = wait
        return self._find_message(rank, kind, source, tag) is not None

    def _find_message(self, rank: int, channel: str, source: int, tag: int
                      ) -> _Message | None:
        for m in self._inbox[rank]:
            if m.channel == channel and \
               (source == ANY_SOURCE or m.source == source) and \
               (tag == ANY_TAG or m.tag == tag):
                return m
        return None


def _describe_wait(wait: tuple | None) -> str:
    if wait is None:
        return "nothing (not yet scheduled)"
    kind = wait[0]
    if kind in ("msg", "copy"):
        _, source, tag = wait
        src = "any" if source == ANY_SOURCE else source
        tg = "any" if tag == ANY_TAG else tag
        chan = "recv" if kind == "msg" else "copy_from"
        return f"{chan}(source={src}, tag={tg})"
    if kind == "fence":
        _, win, _ = wait
        return f"fence(window members={list(win.members)})"
    if kind == "barrier":
        _, win, _ = wait
        return f"barrier(team={list(win.members)})"
    return repr(wait)
