"""Fresh-process helpers that run.py times.

    python3 perfbench/child.py setup --mesh M --topo T [--assignment A] [--weights W]
        Import hierpart and load the workload's input documents; print the
        elapsed seconds and the imported package's path as JSON.

    python3 perfbench/child.py reference
        Do a fixed amount of work that calls no hierpart code: dict and list
        operations, small numpy arrays, JSON and hand-offs between threads,
        the kinds of work a verb does.  run.py times this process next to
        every verb run, as a measure of how fast the machine is just then.

    python3 perfbench/child.py trace --result R --chrome C -- <hierpart args>
        Run one CLI verb in this process with every layer wrapped; write the
        per-layer metrics to R and the spans to C (Chrome trace-event JSON).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def setup(argv) -> int:
    parser = argparse.ArgumentParser(prog="child.py setup")
    for name in ("--mesh", "--topo", "--assignment", "--weights"):
        parser.add_argument(name)
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    import hierpart
    from hierpart import formats
    formats.load_mesh(args.mesh)
    formats.load_topology(args.topo)
    if args.assignment:
        formats.load_assignment(args.assignment)
    if args.weights:
        formats.load_weights(args.weights)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "package": hierpart.__file__}))
    return 0


def reference(argv) -> int:
    import threading

    import numpy as np

    if argv:
        sys.exit("usage: child.py reference")
    table: dict = {}
    for i in range(200_000):
        key = (i * 2654435761) % 100_003
        table[key] = table.get(key, 0) + 1
    ranked = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    text = json.dumps({str(k): [v, k / 7] for k, v in ranked[:20_000]})
    decoded = json.loads(text)
    values = np.arange(4096, dtype=float)
    for _ in range(3000):
        values = np.sqrt(values * values + 1.0)
    # Four threads pass a token round a ring, one running at a time.
    rounds, ring = 1500, 4
    events = [threading.Event() for _ in range(ring)]

    def member(r: int) -> None:
        for _ in range(rounds):
            events[r].wait()
            events[r].clear()
            events[(r + 1) % ring].set()

    threads = [threading.Thread(target=member, args=(r,))
               for r in range(ring)]
    for t in threads:
        t.start()
    events[0].set()
    for t in threads:
        t.join()
    if len(decoded) != 20_000 or not np.isfinite(values).all():
        sys.exit("reference work gave a wrong result")
    return 0


def trace(argv) -> int:
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="child.py trace")
    parser.add_argument("--result", required=True)
    parser.add_argument("--chrome", required=True)
    args = parser.parse_args(argv[:split])
    cli_argv = argv[split + 1:]

    import hierpart.cli
    from layers import Tracer

    tracer = Tracer()
    tracer.install()
    w0 = time.perf_counter()
    c0 = time.process_time()
    code = hierpart.cli.main(cli_argv)
    c1 = time.process_time()
    w1 = time.perf_counter()
    metrics = tracer.layer_metrics(process_cpu_s=c1, main_wall_s=w1 - w0,
                                   main_cpu_s=c1 - c0)
    d0 = time.perf_counter()
    tracer.write_chrome_trace(args.chrome)
    result = {"metrics": metrics, "dump_s": time.perf_counter() - d0,
              "package": hierpart.__file__}
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    modes = {"setup": setup, "reference": reference, "trace": trace}
    if len(sys.argv) < 2 or sys.argv[1] not in modes:
        sys.exit(f"usage: child.py {{{','.join(modes)}}} ...")
    sys.exit(modes[sys.argv[1]](sys.argv[2:]))
