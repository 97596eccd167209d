"""Quality metrics, the channel cost model, and the CSV exports."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from hierpart.balance import part_loads
from hierpart.halo import HaloSchedule
from hierpart.mesh import local_dual_graph
from hierpart.meshgen import triangle_grid
from hierpart.metrics import (CostModel, comm_imbalance, comm_metrics,
                              edge_cut, halo_pairs, partition_comm_costs,
                              quality_metrics, write_balance_csv,
                              write_levels_csv)


def brute_edge_cut(adjacency, assignment) -> int:
    """Oracle: count each cut edge once by enumerating unordered pairs."""
    seen = set()
    for v, nbrs in adjacency.items():
        for u in nbrs:
            pair = (min(u, v), max(u, v))
            if pair not in seen and assignment[u] != assignment[v]:
                seen.add(pair)
    return len(seen)


def test_cost_model_defaults_and_validation():
    model = CostModel()
    assert model.cost("internode") == 1.0
    assert model.cost("intranode") == pytest.approx(1 / 3)
    with pytest.raises(ValueError, match="intranode"):
        CostModel(internode=1.0, intranode=0.0)
    with pytest.raises(ValueError, match="intranode"):
        CostModel(internode=0.5, intranode=0.8)
    with pytest.raises(ValueError, match="unknown channel"):
        CostModel().cost("shared_memory")


def test_edge_cut_hand_case_and_oracle():
    square = {0: [1, 2], 1: [0, 3], 2: [0, 3], 3: [1, 2]}
    assignment = {0: 0, 1: 0, 2: 1, 3: 1}
    assert edge_cut(square, assignment) == 2
    mesh = triangle_grid(5, 5)
    adj = local_dual_graph(mesh)
    split = {e: (0 if e % 3 else 1) for e in adj}
    assert edge_cut(adj, split) == brute_edge_cut(adj, split)


def test_comm_imbalance_arithmetic_example():
    # Two partitions: one sends 24 cost units, the other 8; mean 16 -> 1.5.
    model = CostModel(internode=1.0, intranode=1.0)
    schedules = {
        0: HaloSchedule(neighbors=((1, (0, 1, 2), "internode"),), leader=0),
        1: HaloSchedule(neighbors=((0, (5,), "internode"),), leader=1),
    }
    # widths: 3 nodes * 8 bytes = 24 vs 1 node * 8 bytes = 8.
    assert comm_imbalance(schedules, model) == pytest.approx(1.5)


def test_comm_imbalance_conventions():
    assert comm_imbalance({}, CostModel()) == 1.0
    silent = {0: HaloSchedule(neighbors=(), leader=0)}
    assert comm_imbalance(silent, CostModel()) == 1.0


def test_partition_comm_costs_weight_channels():
    model = CostModel(internode=1.0, intranode=0.25)
    schedules = {
        0: HaloSchedule(neighbors=(
            (1, (4, 5), "intranode"), (2, (9,), "internode")), leader=0),
    }
    costs = partition_comm_costs(schedules, model)
    assert costs[0] == pytest.approx(2 * 8 * 0.25 + 1 * 8 * 1.0)


def test_halo_pairs_deduplicate():
    schedules = {
        0: HaloSchedule(neighbors=((1, (4, 5), "internode"),), leader=0),
        1: HaloSchedule(neighbors=((0, (4, 5), "internode"),), leader=1),
    }
    rows = halo_pairs(schedules)
    assert rows == [{"a": 0, "b": 1, "channel": "internode",
                     "shared_nodes": 2, "bytes_each_way": 16}]


def test_quality_metrics_block():
    mesh = triangle_grid(4, 4)
    adj = local_dual_graph(mesh)
    owner = (adj.ids >= 16).astype(np.int64)
    out = quality_metrics(adj, owner, 2)
    assert out["elements"] == 32
    assert out["partitions"] == 2
    assert out["edge_cut"] == brute_edge_cut(
        adj, dict(zip(adj.ids.tolist(), owner.tolist())))
    assert out["element_imbalance"] == pytest.approx(1.0)
    assert set(out["halo_growth_pct"]) == {"1", "2"}
    assert out["halo_growth_pct"]["1"] > 0
    assert "weight_imbalance" not in out
    weighted = quality_metrics(adj, owner, 2, weights=1.0 + adj.ids % 2)
    assert "weight_imbalance" in weighted


def test_comm_metrics_block():
    schedules = {
        0: HaloSchedule(neighbors=((1, (4,), "internode"),), leader=0),
        1: HaloSchedule(neighbors=((0, (4,), "internode"),), leader=1),
    }
    out = comm_metrics(schedules, CostModel())
    assert out["cost_internode"] == 1.0
    assert out["imbalance"] == pytest.approx(1.0)
    assert len(out["pairs"]) == 1


def test_part_loads_counts_and_weights():
    owner = np.array([0, 0, 1])
    assert part_loads(owner, None, 2).tolist() == [2.0, 1.0]
    assert part_loads(owner, None, 3).tolist() == [2.0, 1.0, 0.0]
    wgt = np.array([0.5, 0.5, 4.0])
    assert part_loads(owner, wgt, 2).tolist() == [1.0, 4.0]


def test_write_levels_csv(tmp_path):
    rows = [
        {"phase": "bootstrap", "messages": 4, "internode_bytes": 100,
         "intranode_bytes": 30, "copy_bytes": 0},
        {"phase": "level1", "messages": 2, "internode_bytes": 0,
         "intranode_bytes": 60, "copy_bytes": 10},
    ]
    path = tmp_path / "levels.csv"
    write_levels_csv(path, rows, CostModel(internode=1.0, intranode=0.5))
    got = list(csv.reader(path.read_text().splitlines()))
    assert got[0] == ["level", "bytes", "seconds_proxy"]
    assert got[1] == ["bootstrap", "130", "115"]
    assert got[2] == ["level1", "60", "30"]


def test_write_balance_csv(tmp_path):
    path = tmp_path / "balance.csv"
    write_balance_csv(path, np.array([4.0, 1.0]), np.array([2.4, 2.6]))
    got = list(csv.reader(path.read_text().splitlines()))
    assert got[0] == ["partition", "pre", "post"]
    assert [row[0] for row in got[1:]] == ["0", "1"]
    assert float(got[1][1]) == pytest.approx(1.6)   # 4 / 2.5
    assert float(got[1][2]) == pytest.approx(0.96)  # 2.4 / 2.5
