"""Deterministic in-process simulation of a multi-rank message-passing runtime.

Every rank runs as its own thread, but only one rank executes at a time: each
runtime call is a yield point where control passes back to a scheduler that
picks the next runnable rank from a seeded RNG.  Changing the seed changes the
interleaving; protocol results must not depend on it.  The runtime provides
point-to-point messages with per-(source, tag) FIFO ordering, one-sided
accumulate windows with fence synchronization, a same-node copy channel that
bypasses the network, and a traffic ledger that classifies every byte sent.

Deadlock is detected, not hung on: if every unfinished rank is blocked, the
run aborts with a report naming each blocked rank and what it waits for.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from dataclasses import dataclass, field
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Window(members={self.members}, gen={self.generation})"


class _Barrier:
    __slots__ = ("members", "generation", "arrived")

    def __init__(self, members: tuple[int, ...]):
        self.members = members
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

    def _select(self, kinds, locality=None, phase=None, phase_prefix=None):
        for (kind, ph, src, dst), (msgs, nbytes) in self._records.items():
            if kind not in kinds:
                continue
            if phase is not None and ph != phase:
                continue
            if phase_prefix is not None and not ph.startswith(phase_prefix):
                continue
            if locality is not None and self.locality(src, dst) != locality:
                continue
            yield (kind, ph, src, dst, msgs, nbytes)

    def bytes_total(self, *, kinds=("msg", "acc"), locality=None, phase=None,
                    phase_prefix=None) -> int:
        return sum(row[5] for row in self._select(kinds, locality, phase, phase_prefix))

    def message_count(self, *, kinds=("msg",), locality=None, phase=None,
                      phase_prefix=None) -> int:
        return sum(row[4] for row in self._select(kinds, locality, phase, phase_prefix))

    def rank_message_count(self, rank: int, *, kinds=("msg",), phase=None) -> int:
        return sum(row[4] for row in self._select(kinds, None, phase, None)
                   if row[2] == rank)

    def pair_bytes(self, *, kinds=("msg", "acc"), phase=None, phase_prefix=None
                   ) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for row in self._select(kinds, None, phase, phase_prefix):
            key = (row[2], row[3])
            out[key] = out.get(key, 0) + row[5]
        return out

    def phases(self) -> list[str]:
        return sorted({ph for (_, ph, _, _) in self._records})

    def phase_totals(self) -> list[dict[str, Any]]:
        """Per-phase traffic summary, sorted by phase name."""
        acc: dict[str, dict[str, int]] = {}
        for (kind, ph, src, dst), (msgs, nbytes) in self._records.items():
            row = acc.setdefault(ph, {
                "messages": 0, "internode_bytes": 0, "intranode_bytes": 0,
                "copy_bytes": 0,
            })
            if kind == "copy":
                row["copy_bytes"] += nbytes
                continue
            row["messages"] += msgs
            if self.locality(src, dst) == "internode":
                row["internode_bytes"] += nbytes
            else:
                row["intranode_bytes"] += nbytes
        return [{"phase": ph, **acc[ph]} for ph in sorted(acc)]

    def export(self) -> dict[str, Any]:
        """Stable dictionary form for reports; sorted, seed-independent."""
        pairs: dict[tuple[int, int], dict[str, int]] = {}
        for (kind, _, src, dst), (msgs, nbytes) in self._records.items():
            row = pairs.setdefault((src, dst), {"messages": 0, "bytes": 0, "copy_bytes": 0})
            if kind == "copy":
                row["copy_bytes"] += nbytes
            else:
                row["messages"] += msgs
                row["bytes"] += nbytes
        return {
            "phases": self.phase_totals(),
            "pairs": [
                {"source": s, "dest": d, "locality": self.locality(s, d), **row}
                for (s, d), row in sorted(pairs.items())
            ],
            "total_internode_bytes": self.bytes_total(locality="internode"),
            "total_intranode_bytes": self.bytes_total(locality="intranode"),
            "total_copy_bytes": self.bytes_total(kinds=("copy",)),
            "total_messages": self.message_count(),
        }


class RankContext:
    """Per-rank handle passed to the function executed by ``Runtime.run``."""

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

    # -- messaging ---------------------------------------------------------

    def send(self, dest: int, data: bytes, tag: int = 0) -> None:
        self._rt._send(self.rank, dest, data, tag, self._phase)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> tuple[int, int, bytes]:
        return self._rt._recv(self.rank, source, tag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> tuple[int, int, int]:
        """Block until a matching message is pending; return (source, tag, nbytes)."""
        return self._rt._probe(self.rank, source, tag)

    # -- same-node copy channel ---------------------------------------------

    def copy_to(self, dest: int, data: bytes, tag: int = 0) -> None:
        """Hand a buffer to a rank on the same node without network traffic."""
        self._rt._copy_to(self.rank, dest, data, tag, self._phase)

    def copy_from(self, source: int, tag: int = ANY_TAG) -> bytes:
        return self._rt._copy_from(self.rank, source, tag)

    # -- synchronization and one-sided ops -----------------------------------

    def barrier(self, team: Sequence[int] | None = None) -> None:
        self._rt._barrier(self.rank, _normalize_team(team, self.size))

    def window(self, team: Sequence[int] | None = None) -> Window:
        """The persistent accumulate window shared by ``team`` (default: all)."""
        return self._rt._persistent_window(_normalize_team(team, self.size))

    def fence(self, window: Window) -> None:
        self._rt._fence(self.rank, window)

    def accumulate(self, window: Window, target: int, value: int = 1) -> None:
        self._rt._accumulate(self.rank, window, target, value, self._phase)

    def read_cell(self, window: Window) -> int:
        return self._rt._read_cell(self.rank, window)

    def reset_cell(self, window: Window, value: int = 0) -> None:
        self._rt._reset_cell(self.rank, window, value)

    def blind_count(self, targets: Iterable[int],
                    team: Sequence[int] | None = None,
                    window: Window | None = None) -> int:
        """How many ranks listed me as a target, without me knowing whom.

        Collective over the team.  Each rank accumulates +1 into every
        target's window cell between two fences, then reads its own cell:
        the column sum of the implicit send matrix.  The cell is cleared
        afterwards so the persistent window can be reused.
        """
        team_t = _normalize_team(team, self.size)
        win = window if window is not None else self.window(team_t)
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
    """Owns the rank threads, scheduler, windows, and traffic ledger.

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
        self._barriers: dict[tuple[int, ...], _Barrier] = {}

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
        self._events = [threading.Event() for _ in range(P)]
        self._main_event = threading.Event()
        self._state = ["ready"] * P
        self._wait: list[tuple | None] = [None] * P
        self._inbox: list[deque[_Message]] = [deque() for _ in range(P)]
        self._copy_inbox: list[deque[_Message]] = [deque() for _ in range(P)]
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
        self._main_event.wait()
        for t in threads:
            t.join()

        if self._error is not None:
            raise self._error
        if self._deadlock is not None:
            raise self._deadlock
        leftovers = [
            (dst, m.source, m.tag, len(m.data))
            for dst in range(P)
            for m in list(self._inbox[dst]) + list(self._copy_inbox[dst])
        ]
        if leftovers:
            raise ProtocolError(f"unconsumed messages at end of run: {leftovers}")
        return list(self._results)

    # -- rank thread bodies -----------------------------------------------------

    def _rank_main(self, fn, ctx: RankContext) -> None:
        rank = ctx.rank
        # Wait to be scheduled for the first time.
        self._events[rank].wait()
        self._events[rank].clear()
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
            self._wait[rank] = None
            self._dispatch_locked()

    # -- scheduler ---------------------------------------------------------------

    def _yield_control(self, rank: int, wait: tuple | None = None) -> None:
        with self._mutex:
            if self._abort:
                raise _Aborted()
            if wait is not None and not self._wait_satisfied(rank, wait):
                self._state[rank] = "blocked"
                self._wait[rank] = wait
            else:
                self._state[rank] = "ready"
                self._wait[rank] = None
            self._dispatch_locked()
        self._events[rank].wait()
        self._events[rank].clear()
        if self._abort:
            raise _Aborted()

    def _dispatch_locked(self) -> None:
        # Wake any blocked rank whose condition now holds.  Conditions are
        # monotone (messages only appear, generations only grow), so a rank
        # readied here stays runnable until it consumes the event itself.
        for r in range(self.size):
            if self._state[r] == "blocked" and self._wait_satisfied(r, self._wait[r]):
                self._state[r] = "ready"
                self._wait[r] = None
        ready = [r for r in range(self.size) if self._state[r] == "ready"]
        if ready:
            nxt = ready[self._rng.randrange(len(ready))]
            self._events[nxt].set()
            return
        if all(s == "done" for s in self._state):
            self._main_event.set()
            return
        # Everyone alive is blocked: deadlock.
        self._deadlock = self._deadlock_report_locked()
        self._abort_locked()

    def _abort_locked(self) -> None:
        self._abort = True
        for ev in self._events:
            ev.set()
        self._main_event.set()

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
        if kind == "recv":
            _, source, tag = wait
            return self._find_message(self._inbox[rank], source, tag) is not None
        if kind == "copy":
            _, source, tag = wait
            return self._find_message(self._copy_inbox[rank], source, tag) is not None
        if kind == "fence":
            _, win, gen0 = wait
            return win.generation > gen0
        if kind == "barrier":
            _, bar, gen0 = wait
            return bar.generation > gen0
        raise AssertionError(f"unknown wait descriptor {wait!r}")

    @staticmethod
    def _find_message(box: deque[_Message], source: int, tag: int) -> _Message | None:
        for m in box:
            if (source == ANY_SOURCE or m.source == source) and \
               (tag == ANY_TAG or m.tag == tag):
                return m
        return None

    # -- messaging internals ------------------------------------------------------

    def _check_rank(self, r: int, what: str) -> None:
        if not (0 <= r < self.size):
            raise ProtocolError(f"{what} rank {r} outside 0..{self.size - 1}")

    def _send(self, rank: int, dest: int, data: bytes, tag: int, phase: str) -> None:
        self._check_rank(dest, "destination")
        payload = bytes(data)
        with self._mutex:
            if self._abort:
                raise _Aborted()
            self._inbox[dest].append(_Message(rank, tag, payload))
            self.ledger._bump("msg", phase, rank, dest, len(payload))
        self._yield_control(rank)

    def _recv(self, rank: int, source: int, tag: int) -> tuple[int, int, bytes]:
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        self._yield_control(rank, wait=("recv", source, tag))
        with self._mutex:
            msg = self._find_message(self._inbox[rank], source, tag)
            assert msg is not None
            self._inbox[rank].remove(msg)
        return (msg.source, msg.tag, msg.data)

    def _probe(self, rank: int, source: int, tag: int) -> tuple[int, int, int]:
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        self._yield_control(rank, wait=("recv", source, tag))
        with self._mutex:
            msg = self._find_message(self._inbox[rank], source, tag)
            assert msg is not None
        return (msg.source, msg.tag, len(msg.data))

    def _copy_to(self, rank: int, dest: int, data: bytes, tag: int, phase: str) -> None:
        self._check_rank(dest, "destination")
        if not self.tree.same_node(rank, dest):
            raise ProtocolError(
                f"copy_to between ranks {rank} and {dest} which share no node")
        payload = bytes(data)
        with self._mutex:
            if self._abort:
                raise _Aborted()
            self._copy_inbox[dest].append(_Message(rank, tag, payload))
            self.ledger._bump("copy", phase, rank, dest, len(payload))
        self._yield_control(rank)

    def _copy_from(self, rank: int, source: int, tag: int) -> bytes:
        self._check_rank(source, "source")
        self._yield_control(rank, wait=("copy", source, tag))
        with self._mutex:
            msg = self._find_message(self._copy_inbox[rank], source, tag)
            assert msg is not None
            self._copy_inbox[rank].remove(msg)
        return msg.data

    # -- windows, fences, barriers ---------------------------------------------------

    def _persistent_window(self, team: tuple[int, ...]) -> Window:
        with self._mutex:
            win = self._windows.get(team)
            if win is None:
                win = Window(team)
                self._windows[team] = win
            return win

    def _fence(self, rank: int, win: Window) -> None:
        with self._mutex:
            if self._abort:
                raise _Aborted()
            if rank not in win.cells:
                raise ProtocolError(f"rank {rank} fencing window of {win.members}")
            gen0 = win.generation
            win.arrived.add(rank)
            if len(win.arrived) == len(win.members):
                win.arrived.clear()
                win.generation += 1
        self._yield_control(rank, wait=("fence", win, gen0))

    def _accumulate(self, rank: int, win: Window, target: int, value: int,
                    phase: str) -> None:
        with self._mutex:
            if self._abort:
                raise _Aborted()
            if win.generation == 0:
                raise EpochError(
                    f"rank {rank} accumulate before the window's first fence")
            if target not in win.cells:
                raise ProtocolError(f"accumulate target {target} outside window "
                                    f"members {win.members}")
            win.cells[target] += value
            if target != rank:
                self.ledger._bump("acc", phase, rank, target, ACC_BYTES)
        self._yield_control(rank)

    def _read_cell(self, rank: int, win: Window) -> int:
        with self._mutex:
            return win.cells[rank]

    def _reset_cell(self, rank: int, win: Window, value: int) -> None:
        with self._mutex:
            win.cells[rank] = value

    def _barrier(self, rank: int, team: tuple[int, ...]) -> None:
        with self._mutex:
            if self._abort:
                raise _Aborted()
            bar = self._barriers.get(team)
            if bar is None:
                bar = _Barrier(team)
                self._barriers[team] = bar
            if rank not in bar.members:
                raise ProtocolError(f"rank {rank} in barrier of {team}")
            gen0 = bar.generation
            bar.arrived.add(rank)
            if len(bar.arrived) == len(bar.members):
                bar.arrived.clear()
                bar.generation += 1
        self._yield_control(rank, wait=("barrier", bar, gen0))


def _describe_wait(wait: tuple | None) -> str:
    if wait is None:
        return "nothing (not yet scheduled)"
    kind = wait[0]
    if kind in ("recv", "copy"):
        _, source, tag = wait
        src = "any" if source == ANY_SOURCE else source
        tg = "any" if tag == ANY_TAG else tag
        chan = "recv" if kind == "recv" else "copy_from"
        return f"{chan}(source={src}, tag={tg})"
    if kind == "fence":
        _, win, _ = wait
        return f"fence(window members={list(win.members)})"
    if kind == "barrier":
        _, bar, _ = wait
        return f"barrier(team={list(bar.members)})"
    return repr(wait)
