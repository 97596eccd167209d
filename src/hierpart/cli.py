"""Command line driver: partition, rebalance, and metrics over mesh files.

Each verb loads JSON inputs, boots the simulated runtime over the requested
machine topology, runs the collective program on every rank, and writes the
resulting documents into --out.  Exit codes: 0 success, 1 usage error,
2 invalid input, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys
from typing import Any

import numpy as np

from .balance import derive_weights, load_imbalance, part_loads, rebalance
from .formats import (FormatError, id_array, load_mesh, load_timing,
                      load_topology, read_assignment, read_weights, save_part,
                      save_report, write_assignment)
from .halo import exchange, schedule_for_rank
from .mesh import (MeshChunk, adjacency_from_elements, find_shared_nodes,
                   local_dual_graph, split_chunk, split_contiguous)
from .metrics import (CostModel, comm_metrics, quality_metrics,
                      write_balance_csv, write_levels_csv)
from .partition import HierarchicalPlan, check_method, hierarchical_partition
from .runtime import DeadlockError, EpochError, ProtocolError, Runtime
from .topology import TopologyTree

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); route through our own exit-code scheme.
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hierpart",
                     description="Topology-aware mesh partitioning tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, assignment=False, plan=False, level=False, method=False):
        p.add_argument("--mesh", required=True, help="mesh JSON file")
        p.add_argument("--topo", required=True, help="machine topology JSON file")
        p.add_argument("--out", required=True, help="output directory")
        if assignment:
            p.add_argument("--assignment", required=True,
                           help="element-to-rank assignment JSON file")
        if plan:
            p.add_argument("--approach", type=int, choices=(1, 2), default=2,
                           help="1: split across child leaders; 2: split at the "
                                "group leader (default 2)")
            p.add_argument("--bpl", type=int, default=0, metavar="LEVEL",
                           help="bootstrap level, 0 = machine level (default 0)")
        if method:
            p.add_argument("--method", default="rcb",
                           help="rcb, graph, or a comma list, one per level "
                                "(default rcb)")
            p.add_argument("--tolerance", type=float, default=1.02,
                           help="part weight cap relative to the mean for the "
                                "graph refinement sweep; rcb does not use it "
                                "(default 1.02)")
        if level:
            p.add_argument("--level", type=int, required=True,
                           help="tree level whose groups rebalance internally")
        p.add_argument("--weights", help="element weights JSON file")
        p.add_argument("--timing", help="per-block timing JSON file "
                                        "(converted to element weights)")
        p.add_argument("--cost-intra", type=float, default=1.0 / 3.0,
                       help="relative per-byte cost of intranode traffic "
                            "(default 1/3)")
        p.add_argument("--seed", type=int, default=0,
                       help="scheduler seed; results do not depend on it")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp from report.json")

    p = sub.add_parser("partition", help="partition a mesh over the machine tree")
    common(p, plan=True, method=True)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("rebalance", help="rebalance an existing assignment "
                                         "inside tree groups")
    common(p, assignment=True, level=True, method=True)
    p.set_defaults(func=_cmd_rebalance)

    p = sub.add_parser("metrics", help="report quality metrics for an assignment")
    common(p, assignment=True)
    p.set_defaults(func=_cmd_metrics)
    return parser


def _parse_method(text: str):
    methods = tuple(m.strip() for m in text.split(","))
    for m in methods:
        try:
            check_method(m)
        except ValueError as err:
            raise UsageError(str(err)) from None
    return methods[0] if len(methods) == 1 else methods


def _load_weight_input(args, mesh: MeshChunk, nparts: int
                       ) -> np.ndarray | None:
    """The --weights or --timing input as a float64 column aligned with the
    mesh's element ids, or None when neither is given."""
    if args.weights and args.timing:
        raise UsageError("--weights and --timing are mutually exclusive")
    if args.timing:
        path, source = args.timing, "timing data"
        try:
            table = derive_weights(load_timing(path),
                                   elements=mesh.element_ids.tolist())
        except ValueError as err:
            raise FormatError(path, str(err)) from err
        ids = id_array(list(table))
        weights = np.fromiter(table.values(), dtype=np.float64,
                              count=len(table))
    elif args.weights:
        path, source = args.weights, "weights"
        ids, weights = read_weights(path)
    else:
        return None
    # Every load and imbalance adds weights up, and an rcb cut aims at a
    # team's total times a part count below nparts, so total * nparts must
    # be a float64 too.
    with np.errstate(over="ignore"):
        total = weights.sum()
        if not np.isfinite(total * nparts):
            raise FormatError(path, f"{source} total {total:g} beyond the "
                                    f"float64 range when split {nparts} "
                                    f"ways")
    order = np.argsort(ids, kind="stable")
    if np.array_equal(ids[order], mesh.element_ids):
        return weights[order]
    # The ids have no repeats, so some mesh element is missing or some id
    # is unknown; derive_weights already names elements without timing data.
    elements, keys = set(mesh.element_ids.tolist()), set(ids.tolist())
    what, bad = ("missing for", elements - keys) if elements - keys else \
        ("given for unknown", keys - elements)
    bad = sorted(bad)
    raise FormatError(path, f"{source} {what} elements {bad[:5]}"
                      + ("..." if len(bad) > 5 else ""))


def _check_assignment(path, ids: np.ndarray, parts: np.ndarray,
                      mesh: MeshChunk, nparts: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The mesh position of each record of the assignment file ``path``, in
    file order, and the rank of each mesh element, in id order.

    Raises FormatError unless the records cover exactly the mesh's elements
    with ranks in 0..nparts-1, naming the first bad rank in file order.
    """
    order = np.argsort(ids, kind="stable")
    if not np.array_equal(ids[order], mesh.element_ids):
        elements, keys = set(mesh.element_ids.tolist()), set(ids.tolist())
        missing = sorted(elements - keys)[:5]
        extra = sorted(keys - elements)[:5]
        raise FormatError(path, f"assignment does not match mesh elements "
                                f"(missing {missing}, unknown {extra})")
    outside = (parts < 0) | (parts >= nparts)
    if outside.any():
        i = int(np.argmax(outside))
        raise FormatError(path, f"element {ids[i]} assigned to rank "
                                f"{parts[i]}, but the topology has {nparts} "
                                f"ranks")
    position = np.empty(len(order), dtype=np.intp)
    position[order] = np.arange(len(order))
    return position, parts[order].astype(np.int64)


def _check_groups(path, owner: np.ndarray, tree: TopologyTree,
                  level: int) -> None:
    """Raise FormatError naming the assignment file ``path`` when a
    level-``level`` group of several ranks holds fewer elements than ranks,
    which the group's repartition cannot give one element each."""
    size = tree.group_size(level)
    held = np.bincount(owner // size, minlength=tree.group_count(level))
    if size > 1 and (held < size).any():
        g = int(np.argmax(held < size))
        raise FormatError(path, f"level-{level} group {g} holds {held[g]} "
                                f"elements for its {size} ranks; rebalance "
                                f"needs at least one element per rank")


def _carve(path, split, *args) -> list[MeshChunk]:
    """``split(*args)``: a verb's first carve of the mesh file ``path``,
    which is where a boundary face that no element holds shows."""
    try:
        return split(*args)
    except ValueError as err:
        raise FormatError(path, str(err)) from err


def _owners(mesh: MeshChunk, chunks: list[MeshChunk], verb: str
            ) -> np.ndarray:
    """The rank holding each of the mesh's elements, in id order."""
    ids = np.concatenate([c.element_ids for c in chunks])
    order = np.argsort(ids, kind="stable")
    if not np.array_equal(ids[order], mesh.element_ids):
        raise ProtocolError(f"{verb} lost or duplicated elements")
    ranks = np.repeat(np.arange(len(chunks)), [c.n_elements for c in chunks])
    return ranks[order]


def _config_echo(command: str, args, keys) -> dict[str, Any]:
    # Paths, seed, and timestamp are deliberately not echoed: reports from
    # identical inputs must be byte-identical no matter where or when.
    cfg: dict[str, Any] = {"command": command}
    for key in keys:
        value = getattr(args, key)
        cfg[key.replace("_", "-")] = list(value) if isinstance(value, tuple) else value
    return cfg


def _write_report(args, report: dict[str, Any], runtime: Runtime,
                  model: CostModel) -> None:
    """Create --out, and write report.json there with the run's traffic
    (and, unless --no-timestamp, the time) and levels.csv."""
    report["traffic"] = runtime.ledger.export()
    if not args.no_timestamp:
        report["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds")
    os.makedirs(args.out, exist_ok=True)
    save_report(os.path.join(args.out, "report.json"), report)
    write_levels_csv(os.path.join(args.out, "levels.csv"),
                     runtime.ledger.phase_totals(), model)


def _survey_program(tree: TopologyTree, n_nodes: int):
    """Shared tail: find shared nodes, build the schedule, run one exchange."""

    def tail(ctx, chunk):
        ctx.set_phase("shared_nodes")
        rows = find_shared_nodes(ctx, chunk, n_nodes)
        sched = schedule_for_rank(rows, tree, ctx.rank)
        ctx.set_phase("halo_exchange")
        field = dict(zip(chunk.node_ids.tolist(), chunk.coords[:, 0].tolist()))
        exchange(ctx, sched, field, "replicate_owner")
        return sched

    return tail


def _cmd_partition(args) -> int:
    tree = load_topology(args.topo)
    mesh = load_mesh(args.mesh)
    nparts = tree.total_ranks
    mesh.weights = _load_weight_input(args, mesh, nparts)
    if mesh.n_elements < nparts:
        raise FormatError(args.mesh, f"mesh has {mesh.n_elements} elements; "
                          f"need at least one per rank ({nparts})")
    args.method = _parse_method(args.method)
    plan = HierarchicalPlan(bootstrap_level=args.bpl, method=args.method,
                            approach=args.approach, tolerance=args.tolerance)
    tree.check_level(args.bpl, "--bpl")
    model = CostModel(intranode=args.cost_intra)
    n_nodes = int(mesh.node_ids[-1]) + 1
    initial = _carve(args.mesh, split_contiguous, mesh, nparts)
    runtime = Runtime(tree, seed=args.seed)
    tail = _survey_program(tree, n_nodes)

    def program(ctx):
        chunk, _ = hierarchical_partition(ctx, tree, initial[ctx.rank], plan)
        return chunk, tail(ctx, chunk)

    results = runtime.run(program)
    # The initial split is dead once the ranks hold their parts; freeing it
    # lets the work below reuse its memory instead of raising the peak.
    del initial
    chunks = [chunk for chunk, _ in results]
    schedules = {rank: sched for rank, (_, sched) in enumerate(results)}
    owner = _owners(mesh, chunks, "partition")

    report = {
        "config": _config_echo("partition", args,
                               ("method", "approach", "bpl", "tolerance",
                                "cost_intra")),
        # Each part's weights add in id order, as its rank holds them.
        "quality": quality_metrics(local_dual_graph(mesh), owner, nparts,
                                   mesh.weights),
        "comm": comm_metrics(schedules, model),
    }
    _write_report(args, report, runtime, model)
    write_assignment(os.path.join(args.out, "assignment.json"),
                     mesh.element_ids, owner)
    for rank, chunk in enumerate(chunks):
        save_part(os.path.join(args.out, f"part-{rank:04d}.json"),
                  rank, chunk, schedules[rank].neighbors)

    q = report["quality"]
    print(f"partitioned {q['elements']} elements into {nparts} parts: "
          f"edge cut {q['edge_cut']}, imbalance {q['element_imbalance']:.3f}")
    print(f"wrote assignment.json, report.json, levels.csv and "
          f"{nparts} part files to {args.out}")
    return EXIT_OK


def _cmd_rebalance(args) -> int:
    tree = load_topology(args.topo)
    mesh = load_mesh(args.mesh)
    ids, parts = read_assignment(args.assignment)
    nparts = tree.total_ranks
    mesh.weights = _load_weight_input(args, mesh, nparts)
    position, owner = _check_assignment(args.assignment, ids, parts, mesh,
                                        nparts)
    tree.check_level(args.level, "--level")
    _check_groups(args.assignment, owner, tree, args.level)
    args.method = method = _parse_method(args.method)
    if not isinstance(method, str):
        raise UsageError("rebalance takes a single --method")
    model = CostModel(intranode=args.cost_intra)

    # Loads before add each part's weights in file order, loads after in
    # id order.
    pre_loads = part_loads(
        parts, None if mesh.weights is None else mesh.weights[position],
        nparts)
    initial = _carve(args.mesh, split_chunk, mesh, owner, nparts)
    runtime = Runtime(tree, seed=args.seed)

    def program(ctx):
        chunk, _ = rebalance(ctx, tree, initial[ctx.rank], args.level, method,
                             tolerance=args.tolerance)
        return chunk

    new_owner = _owners(mesh, runtime.run(program), "rebalance")
    del initial  # dead once the ranks hold their parts
    post_loads = part_loads(new_owner, mesh.weights, nparts)
    pre_imb, post_imb = load_imbalance(pre_loads), load_imbalance(post_loads)
    moved = int(np.count_nonzero(new_owner != owner))

    report = {
        "config": _config_echo("rebalance", args,
                               ("level", "method", "tolerance", "cost_intra")),
        "rebalance": {
            "imbalance_before": pre_imb,
            "imbalance_after": post_imb,
            "moved_elements": moved,
            "elements": mesh.n_elements,
        },
    }
    _write_report(args, report, runtime, model)
    write_assignment(os.path.join(args.out, "assignment.json"),
                     mesh.element_ids, new_owner)
    write_balance_csv(os.path.join(args.out, "balance.csv"), pre_loads,
                      post_loads)

    print(f"rebalanced level {args.level}: imbalance {pre_imb:.3f} -> "
          f"{post_imb:.3f}, moved {moved}/{mesh.n_elements} elements")
    print(f"wrote assignment.json, report.json, levels.csv and balance.csv "
          f"to {args.out}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    tree = load_topology(args.topo)
    mesh = load_mesh(args.mesh)
    ids, parts = read_assignment(args.assignment)
    nparts = tree.total_ranks
    weights = _load_weight_input(args, mesh, nparts)
    position, owner = _check_assignment(args.assignment, ids, parts, mesh,
                                        nparts)
    model = CostModel(intranode=args.cost_intra)

    n_nodes = int(mesh.node_ids[-1]) + 1
    initial = _carve(args.mesh, split_chunk, mesh, owner, nparts)
    runtime = Runtime(tree, seed=args.seed)
    tail = _survey_program(tree, n_nodes)
    schedules = dict(enumerate(
        runtime.run(lambda ctx: tail(ctx, initial[ctx.rank]))))
    del initial  # dead once the ranks hold their parts

    # Vertices in file order, so each part's weights add in file order.
    graph = adjacency_from_elements(ids, mesh.conn[position], mesh.kind)
    if weights is not None:
        weights = weights[position]
    report = {
        "config": _config_echo("metrics", args, ("cost_intra",)),
        "quality": quality_metrics(graph, parts, nparts, weights),
        "comm": comm_metrics(schedules, model),
    }
    _write_report(args, report, runtime, model)

    q = report["quality"]
    print(f"metrics for {q['elements']} elements in {nparts} parts: "
          f"edge cut {q['edge_cut']}, imbalance {q['element_imbalance']:.3f}, "
          f"comm imbalance {report['comm']['imbalance']:.3f}")
    print(f"wrote report.json and levels.csv to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, ValueError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (DeadlockError, EpochError, ProtocolError, AssertionError) as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
