"""Partition quality metrics, as array passes over a ``mesh.DualGraph`` and
the verbs' owner and weight columns, and report assembly."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .balance import load_imbalance, part_loads
from .halo import HaloSchedule
from .mesh import DualGraph, _graph_and_owner, _halo_growths

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
             assignment: Mapping[int, int] | np.ndarray) -> int:
    """Dual-graph edges whose endpoints live in different parts, counted
    over the CSR entries, two per edge; arguments as ``halo_growth``'s."""
    graph, owner = _graph_and_owner(adjacency, assignment)
    crossing = np.repeat(owner, np.diff(graph.xadj)) != owner[graph.adjncy]
    return int(np.count_nonzero(crossing)) // 2


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


def quality_metrics(graph: DualGraph, owner: np.ndarray, nparts: int,
                    weights: np.ndarray | None = None) -> dict[str, Any]:
    """The sequential partition-quality block of a report.  ``owner``
    (parts 0..nparts-1) and ``weights`` align with the graph's ids, and
    each part's weights are added in that order."""
    out: dict[str, Any] = {
        "elements": len(owner),
        "partitions": nparts,
        "edge_cut": edge_cut(graph, owner),
        "element_imbalance": load_imbalance(part_loads(owner, None, nparts)),
        "halo_growth_pct": dict(zip(
            map(str, GROWTH_LAYERS),
            _halo_growths(graph, owner, GROWTH_LAYERS))),
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


def write_balance_csv(path, pre_loads: np.ndarray,
                      post_loads: np.ndarray) -> None:
    """Per-partition normalized load before and after a rebalance, from
    the loads of parts 0..k-1; each mean adds the loads in part order."""
    columns = []
    for loads in (pre_loads.tolist(), post_loads.tolist()):
        mean = sum(loads) / max(len(loads), 1)
        columns.append([f"{x / mean if mean else 0.0:.6g}" for x in loads])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["partition", "pre", "post"])
        writer.writerows(zip(range(len(pre_loads)), *columns))
