"""The benchmark's workloads: generated inputs and the CLI verb each runs.

Meshes are fixed.  The workload seed picks the scheduler ``--seed`` of every
verb run and, for the rebalance workload, which leaf is overloaded.  The
program only ever sees the generated input files.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass

TREE_32 = (("node", 2), ("socket", 4), ("core", 4))
TREE_64 = (("node", 4), ("socket", 4), ("core", 4))

# Weight of every element on the overloaded leaf; all others weigh 1.0.
HOT_WEIGHT = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mesh: tuple          # (meshgen function name, its positional arguments)
    tree: tuple
    verb: str            # "partition" or "rebalance"
    method: str = "rcb"
    approach: int = 2


# BENCHMARK.json gates on tri_graph_p32 and tet_rebalance_p32, which
# between them reach every traced layer.  tri_rcb_p32 and tet_approach1_p64
# run the same way on request; on a shared 2-vCPU VM their wall-time
# medians spread by up to 31% and 27% between seeded runs, beyond any
# usable bound.
WORKLOADS = {w.name: w for w in (
    Workload(
        "tri_rcb_p32",
        "32k-triangle rcb partition on 32 ranks: mesh layer and part writing "
        "dominate, the back-end is small",
        ("triangle_grid", (128, 128)), TREE_32, "partition", "rcb"),
    Workload(
        "tri_graph_p32",
        "8k-triangle graph partition on 32 ranks: graph growing dominates "
        "time and sets the edge cut",
        ("triangle_grid", (64, 64)), TREE_32, "partition", "graph"),
    Workload(
        "tet_rebalance_p32",
        "24k-tet in-node rebalance of one 4x-weighted leaf: overlap remap, "
        "partial migration and weight exchange",
        ("tet_box", (16, 16, 16)), TREE_32, "rebalance", "rcb"),
    Workload(
        "tet_approach1_p64",
        "3k-tet approach-1 partition on 64 ranks: little work per rank, so "
        "runtime, directory and topology calls weigh most",
        ("tet_box", (8, 8, 8)), TREE_64, "partition", "rcb", approach=1),
)}


@dataclass
class Inputs:
    """Everything one benchmark run needs about its workload's inputs."""

    workload: Workload
    mesh_path: str
    topo_path: str
    mesh: object
    tree: object
    # Owner of each element before the verb: the rcb assignment a rebalance
    # starts from, or the contiguous split the partition verb starts from.
    before: dict
    # Draws the scheduler --seed of each verb run.
    scheduler_seeds: random.Random
    weights: dict | None = None
    assignment_path: str | None = None
    weights_path: str | None = None
    hot_leaf: int | None = None

    def setup_args(self) -> list[str]:
        """Arguments naming the input documents, as child.py setup takes them."""
        args = ["--mesh", self.mesh_path, "--topo", self.topo_path]
        if self.assignment_path:
            args += ["--assignment", self.assignment_path]
        if self.weights_path:
            args += ["--weights", self.weights_path]
        return args

    def verb_args(self, out_dir: str, scheduler_seed: int) -> list[str]:
        """The hierpart CLI arguments of one run of the workload's verb."""
        w = self.workload
        args = [w.verb, *self.setup_args(), "--out", out_dir,
                "--method", w.method, "--seed", str(scheduler_seed),
                "--no-timestamp"]
        if w.verb == "partition":
            args += ["--approach", str(w.approach)]
        else:
            args += ["--level", "0"]
        return args


def hierpart_env(src_dir: str) -> dict:
    """Environment for a child that must import hierpart from ``src_dir``."""
    return {**os.environ, "PYTHONPATH": src_dir}


def prepare(workload: Workload, seed: int, work_dir: str, src_dir: str
            ) -> Inputs:
    """Generate and write the workload's input documents under ``work_dir``."""
    from hierpart import formats, meshgen
    from hierpart.mesh import split_ids_evenly
    from hierpart.topology import build_topology

    rng = random.Random(seed)
    gen_name, gen_args = workload.mesh
    mesh = getattr(meshgen, gen_name)(*gen_args)
    tree = build_topology(workload.tree)
    mesh_path = os.path.join(work_dir, "mesh.json")
    topo_path = os.path.join(work_dir, "topology.json")
    formats.save_mesh(mesh_path, mesh)
    formats.save_topology(topo_path, tree)
    nparts = tree.total_ranks

    if workload.verb == "partition":
        blocks = split_ids_evenly(list(mesh.elements), nparts)
        before = {e: rank for rank, ids in enumerate(blocks) for e in ids}
        return Inputs(workload, mesh_path, topo_path, mesh, tree, before, rng)

    # The rebalance starts from the CLI's own rcb partition of the mesh.
    start_dir = os.path.join(work_dir, "start")
    subprocess.run(
        [sys.executable, "-m", "hierpart.cli", "partition", "--mesh",
         mesh_path, "--topo", topo_path, "--out", start_dir, "--method",
         "rcb", "--no-timestamp"],
        env=hierpart_env(src_dir), check=True, stdout=subprocess.DEVNULL,
        timeout=120)
    assignment_path = os.path.join(start_dir, "assignment.json")
    before = formats.load_assignment(assignment_path)
    # The overloaded leaf is the first or last leaf of a node.  These four
    # instances mirror each other; over all 32 leaves the moved-element count
    # ranges from 4748 to 5394, which would make every count metric depend
    # on the seed.
    per_node = tree.group_size(0)
    ends = sorted({n * per_node + i for n in range(tree.group_count(0))
                   for i in (0, per_node - 1)})
    hot = ends[rng.randrange(len(ends))]
    weights = {e: (HOT_WEIGHT if p == hot else 1.0) for e, p in before.items()}
    weights_path = os.path.join(work_dir, "weights.json")
    formats.save_weights(weights_path, weights)
    return Inputs(workload, mesh_path, topo_path, mesh, tree, before, rng,
                  weights=weights, assignment_path=assignment_path,
                  weights_path=weights_path, hot_leaf=hot)


def flat_reference(inputs: Inputs) -> tuple[float, dict]:
    """One sequential k-way split of the whole mesh, with no runtime.

    Returns the CPU seconds of the split (centroids and ``rcb``, or the dual
    graph and ``graph_partition``) and the assignment it produced.
    """
    from hierpart.mesh import local_dual_graph
    from hierpart.partition import graph_partition, rcb

    k = inputs.tree.total_ranks
    weights = inputs.weights
    t0 = time.thread_time()
    if inputs.workload.method == "rcb":
        ids, pts = inputs.mesh.centroids()
        wv = None if weights is None else [weights[int(e)] for e in ids]
        parts = rcb(ids, pts, wv, k)
    else:
        parts = graph_partition(local_dual_graph(inputs.mesh), weights, k)
    return time.thread_time() - t0, parts
