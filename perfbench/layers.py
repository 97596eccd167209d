"""Per-layer tracing of hierpart from the outside.

:class:`Tracer` wraps the public functions of each hierpart module and
rebinds the wrapper everywhere a caller holds a reference to the original
(``from .mesh import migrate`` keeps its own name in the importing module,
so patching ``hierpart.mesh`` alone would miss it).  No program code is
changed.

Each wrapped call records, on the thread that made it:

* a count and its CPU *self* time: ``time.thread_time`` spent inside the
  call minus the time spent in wrapped calls nested inside it.  Wall time
  is useless for this, because a simulated rank's call also spans the turns
  of every other rank it yields to;
* a span (name, thread, wall start, wall end, parent span), kept in memory
  and written as Chrome trace-event JSON at the end of the run.

Counters are kept per thread and merged at the end, so the brief overlap of
two rank threads during a scheduler hand-off cannot lose an update.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

# Layer calls whose count and self time are reported.  Names are
# "<layer>.<function>", the metric prefix they report under.
FUNCTIONS = {
    "topology": ("aggregate", "cascade"),
    "directory": ("blind_exchange",),
    "mesh": ("pack_chunk", "unpack_chunk", "subset_chunk", "merge_chunks",
             "split_contiguous", "migrate", "exchange_keyed_values",
             "find_shared_nodes", "adjacency_from_elements"),
    "partition": ("rcb", "graph_partition", "hierarchical_partition"),
    "balance": ("rebalance", "imbalance"),
    "halo": ("exchange", "schedule_for_rank"),
    "metrics": ("quality_metrics", "comm_metrics", "write_levels_csv",
                "write_balance_csv"),
    "formats": ("load_mesh", "load_topology", "load_assignment",
                "load_weights", "save_part", "save_assignment", "save_report"),
    "cli": ("main",),
}
# (module, class, method) wrapped on the class itself.
METHODS = (
    ("mesh", "MeshChunk", "centroids"),
    ("directory", "Directory", "build"),
    ("directory", "Directory", "query"),
)
RUNTIME_CALLS = ("send", "recv", "probe", "copy_to", "copy_from", "barrier",
                 "fence", "accumulate", "blind_count")
PHASES = ("collect", "bootstrap", "level1", "level2", "rebalance_level0",
          "shared_nodes", "halo_exchange")
PHASE_COUNTS = ("messages", "internode_bytes", "intranode_bytes", "copy_bytes")


def _path_size(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _result_size(args, kwargs, result):
    return len(result)


# A quantity summed over calls besides count and self time: bytes packed,
# elements partitioned, bytes of each document read or written.
EXTRAS = {
    "mesh.pack_chunk": _result_size,
    "partition.rcb": _result_size,
    "partition.graph_partition": _result_size,
    **{f"formats.{name}": _path_size for name in FUNCTIONS["formats"]},
}


class _ThreadState:
    __slots__ = ("index", "name", "stats", "stack", "spans", "phase",
                 "phase_mark", "phase_cpu")

    def __init__(self, index: int, name: str):
        self.index = index
        self.name = name
        self.stats: dict[str, list] = {}   # name -> [calls, self cpu, extra]
        self.stack: list[list] = []        # [nested cpu, span id] per open call
        self.spans: list[tuple] = []       # (name, id, parent, wall0, wall1)
        self.phase = ""
        self.phase_mark = 0.0
        self.phase_cpu: dict[str, float] = {}

    def close_phase(self) -> None:
        now = time.thread_time()
        self.phase_cpu[self.phase] = (self.phase_cpu.get(self.phase, 0.0)
                                      + now - self.phase_mark)
        self.phase_mark = now


class Tracer:
    """Installs the wrappers into an imported ``hierpart`` and collects."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._origin = time.perf_counter()
        self.phase_totals: list[dict] = []

    # -- per-thread state ------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._threads),
                                  threading.current_thread().name)
                self._threads.append(st)
            self._local.state = st
        return st

    def wrap(self, name: str, fn):
        measure = EXTRAS.get(name)
        state = self._state
        span_ids = self._span_ids

        def traced(*args, **kwargs):
            st = state()
            frame = [0.0, next(span_ids)]
            parent = st.stack[-1][1] if st.stack else 0
            st.stack.append(frame)
            w0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                inclusive = time.thread_time() - c0
                w1 = time.perf_counter()
                st.stack.pop()
                if st.stack:
                    st.stack[-1][0] += inclusive
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [0, 0.0, 0]
                rec[0] += 1
                rec[1] += inclusive - frame[0]
                st.spans.append((name, frame[1], parent, w0, w1))
            if measure is not None:
                rec[2] += measure(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name in every loaded ``hierpart`` module."""
        import hierpart.cli  # noqa: F401 - loads every module it imports
        from hierpart import runtime

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hierpart"
                                         or n.startswith("hierpart."))]
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"hierpart.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"hierpart.{layer}"], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(
                    self.wrap(f"{layer}.{meth}", raw.__func__)))
            else:
                setattr(cls, meth, self.wrap(f"{layer}.{meth}", raw))
        ctx_cls = runtime.RankContext
        for meth in RUNTIME_CALLS:
            setattr(ctx_cls, meth,
                    self.wrap(f"runtime.{meth}", ctx_cls.__dict__[meth]))
        self._hook_phases(runtime)

    def _hook_phases(self, runtime) -> None:
        # CPU is split by ledger phase at RankContext.set_phase.  Runtime.run
        # is hooked to open the first phase when a rank starts and close the
        # last one when it returns, and to keep each run's ledger totals.
        tracer = self
        set_phase = runtime.RankContext.set_phase
        run = runtime.Runtime.run

        def traced_set_phase(ctx, name):
            st = tracer._state()
            st.close_phase()
            st.phase = name
            return set_phase(ctx, name)

        def traced_run(rt, fn):
            def rank_program(ctx):
                st = tracer._state()
                st.phase = ctx.phase
                st.phase_mark = time.thread_time()
                try:
                    return fn(ctx)
                finally:
                    st.close_phase()

            try:
                return run(rt, rank_program)
            finally:
                tracer.phase_totals.extend(rt.ledger.phase_totals())

        runtime.RankContext.set_phase = traced_set_phase
        runtime.Runtime.run = traced_run

    # -- results ------------------------------------------------------------------

    def merged(self) -> dict[str, list]:
        """name -> [calls, self cpu seconds, extra] summed over threads."""
        out: dict[str, list] = {}
        for st in self._threads:
            for name, (calls, cpu, extra) in st.stats.items():
                rec = out.setdefault(name, [0, 0.0, 0])
                rec[0] += calls
                rec[1] += cpu
                rec[2] += extra
        return out

    def layer_metrics(self, process_cpu_s: float, main_wall_s: float,
                      main_cpu_s: float) -> dict[str, float]:
        """The per-layer metrics of one traced run.

        ``process_cpu_s`` is the process CPU time from start to the end of
        ``cli.main``; ``main_wall_s`` and ``main_cpu_s`` are the wall and
        process CPU time spent inside ``cli.main``.
        """
        stats = self.merged()

        def calls(name):
            return stats.get(name, (0, 0.0, 0))[0]

        def cpu(name):
            return stats.get(name, (0, 0.0, 0))[1]

        def extra(name):
            return stats.get(name, (0, 0.0, 0))[2]

        m: dict[str, float] = {}
        runtime_names = [f"runtime.{c}" for c in RUNTIME_CALLS]
        m["runtime.calls"] = sum(calls(n) for n in runtime_names)
        m["runtime.cpu_s"] = sum(cpu(n) for n in runtime_names)
        m["runtime.blind_count.calls"] = calls("runtime.blind_count")
        # One rank runs at a time, so wall time not covered by any thread's
        # CPU is time spent handing control from one rank to the next.
        m["runtime.handoff_s"] = main_wall_s - main_cpu_s

        phase_cpu: dict[str, float] = {}
        for st in self._threads:
            for ph, sec in st.phase_cpu.items():
                phase_cpu[ph] = phase_cpu.get(ph, 0.0) + sec
        totals: dict[str, dict] = {}
        for row in self.phase_totals:
            acc = totals.setdefault(row["phase"], dict.fromkeys(PHASE_COUNTS, 0))
            for key in PHASE_COUNTS:
                acc[key] += row[key]
        for ph in PHASES:
            m[f"phase.{ph}.cpu_s"] = phase_cpu.get(ph, 0.0)
            for key in PHASE_COUNTS:
                m[f"phase.{ph}.{key}"] = totals.get(ph, {}).get(key, 0)

        for layer in ("topology", "directory", "mesh", "partition", "balance",
                      "halo"):
            names = list(FUNCTIONS[layer]) + [meth for lay, _, meth in METHODS
                                               if lay == layer]
            for fname in names:
                m[f"{layer}.{fname}.calls"] = calls(f"{layer}.{fname}")
                m[f"{layer}.{fname}.cpu_s"] = cpu(f"{layer}.{fname}")
        m["mesh.pack_chunk.bytes"] = extra("mesh.pack_chunk")
        m["partition.rcb.elements"] = extra("partition.rcb")
        m["partition.graph_partition.elements"] = extra(
            "partition.graph_partition")
        for layer in ("metrics", "formats"):
            for fname in FUNCTIONS[layer]:
                m[f"{layer}.{fname}.cpu_s"] = cpu(f"{layer}.{fname}")
        m["formats.save_part.calls"] = calls("formats.save_part")
        m["formats.bytes_read"] = sum(extra(f"formats.{f}")
                                      for f in FUNCTIONS["formats"]
                                      if f.startswith("load_"))
        m["formats.bytes_written"] = sum(extra(f"formats.{f}")
                                         for f in FUNCTIONS["formats"]
                                         if f.startswith("save_"))
        m["cli.cpu_s"] = cpu("cli.main")
        m["other.cpu_s"] = process_cpu_s - sum(rec[1] for rec in stats.values())
        return m

    def write_chrome_trace(self, path) -> None:
        """Spans as Chrome trace-event JSON (opens in Perfetto)."""
        events = []
        for st in self._threads:
            events.append({"ph": "M", "name": "thread_name", "pid": 0,
                           "tid": st.index, "args": {"name": st.name}})
            for name, span_id, parent, w0, w1 in st.spans:
                events.append({
                    "ph": "X", "name": name, "cat": name.split(".", 1)[0],
                    "pid": 0, "tid": st.index,
                    "ts": round((w0 - self._origin) * 1e6, 3),
                    "dur": round((w1 - w0) * 1e6, 3),
                    "args": {"id": span_id, "parent": parent},
                })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
