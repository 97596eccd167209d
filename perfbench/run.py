"""hierpart benchmark: times the real CLI verbs on generated meshes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hierpart is imported from ``src``.
Every verb runs in a fresh process, pinned with the whole benchmark to one
CPU, and its outputs are checked (see check.py).  A run that fails a check
adds no timing and counts as failed.

``--trace 0`` times untraced verb runs for S seconds and reports the
end-to-end metrics: relative wall time, set-up time and peak memory as
medians, and the counts, which repeat exactly.  On a shared 2-vCPU VM the
same verb's wall time ranged from 1.4 s to 2.7 s within three minutes, in
slow and fast stretches of up to a minute, with no CPU time stolen; so the
median wall time of one run alone cannot tell two versions of the program
apart.  Each verb run is therefore bracketed by runs of a fixed
reference process (``child.py reference``, which calls no hierpart code),
and ``wall_rel`` is the median over verb runs of the verb's wall time over
the mean wall time of the two reference runs beside it.  The raw medians,
``wall_s`` and ``ref_s``, are printed alongside.

``--trace 1`` alternates untraced and traced runs for S seconds and reports
the per-layer metrics of the traced runs (see layers.py) and the untraced
median ``wall_s``; the spans of the last traced run are written to
``perfbench/out/<workload>.trace.json``.

BENCHMARK.json lists the workloads that gate a change; the others in
workloads.py run the same way when named.

Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result set, with the
environment it was taken in, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from check import check_output, output_counts, quality
from workloads import WORKLOADS, flat_reference, hierpart_env, prepare

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Fewest fresh-process set-ups timed per run; setup_s is their median.
SETUP_REPEATS = 5
# No single verb run of these workloads takes more than a few seconds.
VERB_TIMEOUT_S = 60
# End-to-end metrics that are counts of the output, not timings.
COUNTS = ("edge_cut", "imbalance", "intranode_bytes", "messages",
          "moved_elements")
END_TO_END = ("wall_rel", "setup_s", "peak_rss_mb") + COUNTS


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name.rsplit(".", 1)[-1]:
        return "bytes"
    if name in ("wall_rel", "imbalance", "failed_ratio"):
        return "ratio"
    return "count"


def median(values: list):
    """Median; a whole number for counts, which repeat exactly."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def timing_summary(samples: list[float]) -> str:
    """Median plus the highest percentile with ten samples beyond it."""
    n = len(samples)
    text = f"median of {n}"
    if n > 10:
        ordered = sorted(samples)
        text += (f"; p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.4f}"
                 f" (10 samples beyond)")
    return text


class Bench:
    def __init__(self, workload, seed: int, seconds: int, work_dir: str):
        self.env = hierpart_env(SRC)
        self.work_dir = work_dir
        self.seconds = seconds
        self.inputs = prepare(workload, seed, work_dir, SRC)
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: set[str] = set()
        self.counts: dict = {}
        self._adjacency = None

    # -- processes -----------------------------------------------------------

    def spawn(self, cmd: list[str]) -> tuple[float, float, int, str]:
        """(wall s, peak RSS MB, exit code, stderr) of one fresh process."""
        err_path = os.path.join(self.work_dir, "stderr.txt")
        with open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(VERB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path) as fh:
            stderr = fh.read()
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr

    def setup_sample(self) -> float:
        """Seconds to import hierpart and load the inputs, in a fresh process."""
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "setup",
               *self.inputs.setup_args()]
        done = subprocess.run(cmd, env=self.env, cwd=ROOT, check=True,
                              capture_output=True, text=True,
                              timeout=VERB_TIMEOUT_S)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self._check_package(result["package"])
        return result["setup_s"]

    def reference_sample(self) -> float:
        """Wall seconds of one fresh process doing child.py's fixed work."""
        wall, _, code, stderr = self.spawn(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), "reference"])
        if code != 0:
            raise RuntimeError(f"reference run exited {code}: {stderr.strip()}")
        return wall

    @staticmethod
    def _check_package(path: str) -> None:
        if not os.path.abspath(path).startswith(SRC + os.sep):
            raise RuntimeError(f"imported hierpart from {path}, not from {SRC}")

    # -- one verb run ------------------------------------------------------------

    def run_verb(self, traced: bool) -> dict | None:
        """Run the workload's verb once; return its figures if it passed."""
        self.attempted += 1
        n = self.attempted
        out = os.path.join(self.work_dir, f"run-{n}")
        verb = self.inputs.verb_args(out, self.inputs.scheduler_seeds
                                     .randrange(2 ** 31))
        result_path = os.path.join(self.work_dir, "trace-result.json")
        if traced:
            os.makedirs(OUT_DIR, exist_ok=True)
            chrome = os.path.join(
                OUT_DIR, f"{self.inputs.workload.name}.trace.json")
            cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
                   "trace", "--result", result_path, "--chrome", chrome,
                   "--", *verb]
        else:
            cmd = [sys.executable, "-m", "hierpart.cli", *verb]
        wall, rss, code, stderr = self.spawn(cmd)
        try:
            if code != 0:
                return self._fail(n, f"exit {code}: {stderr.strip()[-300:]}")
            problems, dig, assignment, report = check_output(out, self.inputs)
            if problems:
                return self._fail(n, "; ".join(problems))
            self.digests.add(dig)
            if len(self.digests) > 1:
                return self._fail(n, "output differs from an earlier run "
                                     "with another scheduler seed")
            if not self.counts:
                self.counts = {**output_counts(assignment, report, self.inputs),
                               **quality(assignment, self.inputs,
                                         self.adjacency())}
            figures = {"wall_s": wall, "peak_rss_mb": rss}
            if traced:
                with open(result_path) as fh:
                    traced_result = json.load(fh)
                self._check_package(traced_result["package"])
                figures["layers"] = traced_result["metrics"]
                figures["dump_s"] = traced_result["dump_s"]
            return figures
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _fail(self, n: int, why: str) -> None:
        self.failures.append(f"run {n}: {why}")
        return None

    def adjacency(self) -> dict:
        """The mesh's dual graph, built once, for edge cuts."""
        if self._adjacency is None:
            from hierpart.mesh import local_dual_graph
            self._adjacency = local_dual_graph(self.inputs.mesh)
        return self._adjacency

    # -- modes ------------------------------------------------------------------

    def untraced(self) -> tuple[dict, dict]:
        setup, walls, rss, refs, rel = [], [], [], [], []
        t0 = time.perf_counter()
        refs.append(self.reference_sample())
        # Set-ups are timed between verb runs, so that both sample the same
        # stretch of machine time; the machine's speed drifts over seconds.
        while (time.perf_counter() - t0 < self.seconds
               or len(setup) < SETUP_REPEATS):
            setup.append(self.setup_sample())
            if time.perf_counter() - t0 >= self.seconds:
                continue
            figures = self.run_verb(traced=False)
            refs.append(self.reference_sample())
            if figures:
                walls.append(figures["wall_s"])
                rss.append(figures["peak_rss_mb"])
                rel.append(figures["wall_s"] / ((refs[-2] + refs[-1]) / 2))
        samples = {"wall_rel": rel, "setup_s": setup, "peak_rss_mb": rss,
                   "wall_s": walls, "ref_s": refs}
        if not walls:
            return {}, samples
        metrics = {name: statistics.median(values)
                   for name, values in samples.items()}
        metrics.update({k: self.counts[k] for k in COUNTS})
        return metrics, samples

    def traced(self) -> tuple[dict, dict]:
        flat_cpu, flat_parts = flat_reference(self.inputs)
        flat_cut = quality(flat_parts, self.inputs, self.adjacency())["edge_cut"]
        walls, traced_walls, layers = [], [], []
        t0 = time.perf_counter()
        # At least one run of each kind, unless runs keep failing.
        while (time.perf_counter() - t0 < self.seconds
               or (not (walls and layers) and self.attempted < 8)):
            with_trace = len(walls) > len(layers)
            figures = self.run_verb(traced=with_trace)
            if figures and with_trace:
                layers.append(figures["layers"])
                traced_walls.append(figures["wall_s"] - figures["dump_s"])
            elif figures:
                walls.append(figures["wall_s"])
        if not (walls and layers):
            return {}, {"wall_s": walls, "trace.wall_s": traced_walls}
        metrics = {name: median([run[name] for run in layers])
                   for name in layers[0]}
        metrics["wall_s"] = statistics.median(walls)
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - statistics.median(walls))
        metrics["internode_bytes"] = self.counts["internode_bytes"]
        metrics["failed_ratio"] = len(self.failures) / self.attempted
        metrics["ref.flat_cpu_s"] = flat_cpu
        metrics["ref.flat_edge_cut"] = flat_cut
        samples = {"wall_s": walls, "trace.wall_s": traced_walls}
        return metrics, samples


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpus_used": sorted(os.sched_getaffinity(0)),
            "load1": os.getloadavg()[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hierpart", "__init__.py")):
        print(f"error: no hierpart sources under {SRC}; run from the root of "
              f"a hierpart checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = WORKLOADS[args.workload]

    # The rank threads of a verb run one at a time.  Left free to move
    # between CPUs, every hand-off can wake the next rank on another CPU,
    # which made the same verb take from 2.9 s to 4.1 s on a 2-vCPU VM;
    # on one CPU it ran in 2.9 to 3.4 s.  Every process this benchmark
    # starts inherits this affinity.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env_before = environment()
    work_root = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    try:
        bench = Bench(workload, args.seed, args.seconds, work_dir)
        if args.trace:
            metrics, samples = bench.traced()
        else:
            metrics, samples = bench.untraced()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env = {"before": env_before, "after": environment()}

    print(f"# {workload.name}: {workload.why}")
    hot = bench.inputs.hot_leaf
    print(f"# seed {args.seed}, trace {args.trace}, hot leaf "
          f"{'-' if hot is None else hot}; python {env_before['python']}, numpy "
          f"{env_before['numpy']}, nproc {env_before['nproc']}, load1 "
          f"{env['before']['load1']:.2f} before, {env['after']['load1']:.2f} "
          f"after")
    for failure in bench.failures:
        print(f"# FAILED {failure}")
    if not metrics:
        print("error: no run passed its checks", file=sys.stderr)
        return 3
    shown = {"failed_ratio": len(bench.failures) / bench.attempted,
             "internode_bytes": bench.counts["internode_bytes"], **metrics}
    notes = {"failed_ratio": f"{len(bench.failures)} of {bench.attempted} runs",
             "trace.overhead_s": "traced minus untraced median wall time",
             "ref.flat_cpu_s": "one sequential split",
             "ref.flat_edge_cut": "one sequential split"}
    for name, value in shown.items():
        note = (timing_summary(samples[name]) if name in samples
                else notes.get(name) if name in notes
                else "same in every run" if name in COUNTS + ("internode_bytes",)
                else f"median of {len(samples['trace.wall_s'])} traced runs")
        shown_value = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {shown_value} {unit_of(name)} ({note})")

    names = END_TO_END if not args.trace else tuple(metrics)
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)}
                    for name in names},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(
        OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "hot_leaf": bench.inputs.hot_leaf,
                   "environment": env, "samples": samples,
                   "failures": bench.failures, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
