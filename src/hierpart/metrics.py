"""Partition quality metrics and report assembly."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .balance import assignment_columns, load_imbalance, part_loads
from .halo import HaloSchedule
from .mesh import halo_growth

# Halo bytes per shared node: one float64 value, the field the CLI's survey
# exchange sends.
NODE_BYTES = 8
# Dual-graph layers each part is grown by in the halo-growth figures.
GROWTH_LAYERS = (1, 2)


@dataclass(frozen=True)
class CostModel:
    """Relative per-byte cost of the two channels; internode is the unit."""

    internode: float = 1.0
    intranode: float = 1.0 / 3.0

    def __post_init__(self):
        if not (0 < self.intranode <= self.internode):
            raise ValueError(
                f"need 0 < intranode <= internode, got intranode={self.intranode}, "
                f"internode={self.internode}")

    def cost(self, channel: str) -> float:
        if channel == "internode":
            return self.internode
        if channel == "intranode":
            return self.intranode
        raise ValueError(f"unknown channel {channel!r}")


def edge_cut(adjacency: Mapping[int, Sequence[int]],
             assignment: Mapping[int, int]) -> int:
    """Dual-graph edges whose endpoints live in different parts."""
    cut = 0
    for v, nbrs in adjacency.items():
        for u in nbrs:
            if u > v and assignment[u] != assignment[v]:
                cut += 1
    return cut


def partition_comm_costs(schedules: Mapping[int, HaloSchedule],
                         model: CostModel) -> dict[int, float]:
    """Cost-weighted halo bytes each partition sends per exchange."""
    out: dict[int, float] = {}
    for rank, sched in schedules.items():
        total = 0.0
        for _, nodes, channel in sched.neighbors:
            total += len(nodes) * NODE_BYTES * model.cost(channel)
        out[rank] = total
    return out


def comm_imbalance(schedules: Mapping[int, HaloSchedule], model: CostModel
                   ) -> float:
    """Max over mean of per-partition exchange cost; 1.0 when nobody talks."""
    if not schedules:
        return 1.0
    costs = partition_comm_costs(schedules, model)
    mean = sum(costs.values()) / len(costs)
    if mean == 0:
        return 1.0
    return max(costs.values()) / mean


def halo_pairs(schedules: Mapping[int, HaloSchedule]) -> list[dict[str, Any]]:
    """One row per unordered neighbor pair: shared nodes and one-way bytes."""
    rows = []
    for rank in sorted(schedules):
        for other, nodes, channel in schedules[rank].neighbors:
            if other < rank:
                continue
            rows.append({
                "a": rank, "b": other, "channel": channel,
                "shared_nodes": len(nodes),
                "bytes_each_way": len(nodes) * NODE_BYTES,
            })
    return rows


def quality_metrics(adjacency: Mapping[int, Sequence[int]],
                    assignment: Mapping[int, int], nparts: int,
                    weights: Mapping[int, float] | np.ndarray | None = None
                    ) -> dict[str, Any]:
    """The sequential partition-quality block of a report.

    Parts lie in 0..nparts-1.  ``weights`` maps element ids to weights, or
    is a float64 column aligned with the assignment's iteration order; each
    part's weights are added in that order.
    """
    owner, weights = assignment_columns(assignment, weights)
    out: dict[str, Any] = {
        "elements": len(assignment),
        "partitions": nparts,
        "edge_cut": edge_cut(adjacency, assignment),
        "element_imbalance": load_imbalance(part_loads(owner, None, nparts)),
        "halo_growth_pct": {
            str(k): halo_growth(adjacency, assignment, k) for k in GROWTH_LAYERS
        },
    }
    if weights is not None:
        out["weight_imbalance"] = load_imbalance(
            part_loads(owner, weights, nparts))
    return out


def comm_metrics(schedules: Mapping[int, HaloSchedule], model: CostModel
                 ) -> dict[str, Any]:
    """The halo-communication block of a report."""
    return {
        "cost_internode": model.internode,
        "cost_intranode": model.intranode,
        "imbalance": comm_imbalance(schedules, model),
        "pairs": halo_pairs(schedules),
    }


def write_levels_csv(path, phase_rows: Sequence[Mapping[str, Any]],
                     model: CostModel) -> None:
    """Per-phase traffic table: raw network bytes and a cost-weighted proxy."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "bytes", "seconds_proxy"])
        for row in phase_rows:
            raw = row["internode_bytes"] + row["intranode_bytes"]
            proxy = (row["internode_bytes"] * model.internode
                     + row["intranode_bytes"] * model.intranode)
            writer.writerow([row["phase"], raw, f"{proxy:.6g}"])


def write_balance_csv(path, pre_loads: Mapping[int, float],
                      post_loads: Mapping[int, float]) -> None:
    """Per-partition normalized load before and after a rebalance."""
    parts = sorted(set(pre_loads) | set(post_loads))
    pre_mean = sum(pre_loads.values()) / max(len(pre_loads), 1)
    post_mean = sum(post_loads.values()) / max(len(post_loads), 1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["partition", "pre", "post"])
        for p in parts:
            pre = pre_loads.get(p, 0.0) / pre_mean if pre_mean else 0.0
            post = post_loads.get(p, 0.0) / post_mean if post_mean else 0.0
            writer.writerow([p, f"{pre:.6g}", f"{post:.6g}"])


def partition_loads(assignment: Mapping[int, int], nparts: int,
                    weights: Mapping[int, float] | None = None
                    ) -> dict[int, float]:
    """Load of each part 0..nparts-1, its weights added in the
    assignment's order."""
    owner, weights = assignment_columns(assignment, weights)
    return dict(enumerate(part_loads(owner, weights, nparts).tolist()))
