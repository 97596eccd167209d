"""Coordinate bisection, greedy graph growing, and the level-by-level driver."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierpart.mesh import local_dual_graph, split_contiguous
from hierpart.meshgen import triangle_grid
from hierpart.partition import (HierarchicalPlan, graph_partition,
                                hierarchical_partition, rcb)
from hierpart.runtime import Runtime
from hierpart.topology import build_topology


def best_contiguous_split_deviation(weights: list[float], frac: float) -> float:
    """Oracle for one bisection step: smallest |prefix - frac*total| over all
    proper splits of the sorted sequence."""
    total = sum(weights)
    target = total * frac
    best = float("inf")
    prefix = 0.0
    for wgt in weights[:-1]:
        prefix += wgt
        best = min(best, abs(prefix - target))
    return best


def grid_graph(n: int) -> dict[int, list[int]]:
    """n x n four-connected lattice, vertex v = row * n + col."""
    adj: dict[int, list[int]] = {v: [] for v in range(n * n)}
    for r in range(n):
        for c in range(n):
            v = r * n + c
            if c + 1 < n:
                adj[v].append(v + 1)
                adj[v + 1].append(v)
            if r + 1 < n:
                adj[v].append(v + n)
                adj[v + n].append(v)
    return adj


def cut_of(adj: dict[int, list[int]], part: dict[int, int]) -> int:
    return sum(1 for v in adj for u in adj[v] if u > v and part[u] != part[v])


def brute_force_bisection_cut(adj: dict[int, list[int]]) -> int:
    """Oracle: exact minimum cut over all balanced bipartitions."""
    vertices = sorted(adj)
    n = len(vertices)
    best = float("inf")
    fixed = vertices[0]  # break the symmetry: part 0 contains vertex 0
    rest = vertices[1:]
    for side0 in combinations(rest, n // 2 - 1):
        part = {v: 1 for v in vertices}
        part[fixed] = 0
        for v in side0:
            part[v] = 0
        best = min(best, cut_of(adj, part))
    return int(best)


def loads_of(part: dict[int, int], weights=None, k=None):
    k = k if k is not None else 1 + max(part.values())
    loads = [0.0] * k
    for v, p in part.items():
        loads[p] += 1.0 if weights is None else weights[v]
    return loads


# -- rcb --------------------------------------------------------------------------


def test_rcb_eight_points_on_a_line():
    ids = np.arange(8)
    pts = np.array([[float(i), 0.0] for i in range(8)])
    part = rcb(ids, pts, None, 2)
    assert [part[i] for i in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]


def test_rcb_k1_is_identity():
    ids = [3, 7]
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert rcb(ids, pts, None, 1) == {3: 0, 7: 0}


def test_rcb_weighted_split_isolates_heavy_point():
    # Weights 1,1,1,3 at x = 0..3: best halving puts the heavy point alone.
    ids = np.arange(4)
    pts = np.array([[float(i), 0.0] for i in range(4)])
    part = rcb(ids, pts, np.array([1.0, 1.0, 1.0, 3.0]), 2)
    assert part == {0: 0, 1: 0, 2: 0, 3: 1}


def test_rcb_bisection_matches_contiguous_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        x = np.sort(rng.random(n)) * 10
        wgt = rng.integers(1, 5, size=n).astype(float)
        part = rcb(np.arange(n), np.column_stack([x, np.zeros(n)]), wgt, 2)
        split = [part[i] for i in range(n)]
        assert split == sorted(split)  # contiguous in x
        lo = sum(wgt[i] for i in range(n) if split[i] == 0)
        dev = abs(lo - wgt.sum() / 2)
        assert dev == pytest.approx(
            best_contiguous_split_deviation(list(wgt), 0.5))


def test_rcb_unit_weights_near_equal_sizes():
    mesh = triangle_grid(8, 8)
    ids, pts = mesh.centroids()
    for k in (2, 4, 8, 16):
        part = rcb(ids, pts, None, k)
        sizes = loads_of(part, k=k)
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == len(ids)


def test_rcb_splits_longest_axis_first():
    # 4 points stretched in y: first cut must separate bottom from top.
    ids = np.arange(4)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 10.0], [1.0, 10.0]])
    part = rcb(ids, pts, None, 2)
    assert part[0] == part[1] and part[2] == part[3] and part[0] != part[2]


def test_rcb_deterministic_under_coordinate_ties():
    ids = np.array([4, 2, 9, 7])
    pts = np.zeros((4, 2))  # all coincident: ids alone decide
    part = rcb(ids, pts, None, 2)
    assert part == {2: 0, 4: 0, 7: 1, 9: 1}


def test_rcb_rejects_bad_input():
    with pytest.raises(ValueError, match="non-positive weight"):
        rcb([0, 1], np.zeros((2, 2)), np.array([1.0, 0.0]), 2)
    with pytest.raises(ValueError, match="empty point set"):
        rcb([0], np.zeros((1, 2)), None, 2)


def test_rcb_heavy_point_leaves_every_part_an_element():
    # The weighted median puts the heavy point alone on the low side of the
    # first cut, which needs two parts; the split keeps two points there.
    pts = np.array([[float(i), 0.0] for i in range(4)])
    part = rcb([0, 1, 2, 3], pts, np.array([100.0, 1.0, 1.0, 1.0]), 4)
    assert part == {0: 0, 1: 1, 2: 2, 3: 3}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rcb_skewed_weights_fill_every_part(data):
    n = data.draw(st.integers(1, 40))
    k = data.draw(st.integers(1, n))
    exps = data.draw(st.lists(st.floats(0.0, 6.0), min_size=n, max_size=n))
    coords = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=2 * n,
                                max_size=2 * n))
    part = rcb(np.arange(n), np.array(coords).reshape(n, 2),
               10.0 ** np.array(exps), k)
    assert sorted(part) == list(range(n))
    assert set(part.values()) == set(range(k))


# -- graph growing -----------------------------------------------------------------


def test_graph_partition_path_cut_one():
    path = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
    part = graph_partition(path, None, 2)
    assert cut_of(path, part) == 1
    assert sorted(loads_of(part, k=2)) == [2.0, 2.0]


def test_graph_partition_4x4_grid_matches_brute_force():
    adj = grid_graph(4)
    optimum = brute_force_bisection_cut(adj)
    assert optimum == 4  # cut a 4x4 lattice in half: 4 rungs
    part = graph_partition(adj, None, 2)
    assert sorted(loads_of(part, k=2)) == [8.0, 8.0]
    assert cut_of(adj, part) == optimum


def test_graph_partition_k_equals_n_singletons():
    adj = grid_graph(3)
    part = graph_partition(adj, None, 9)
    assert sorted(part.values()) == list(range(9))


def test_graph_partition_k1_single_part():
    adj = grid_graph(3)
    assert set(graph_partition(adj, None, 1).values()) == {0}


def test_graph_partition_balance_on_larger_grids():
    for n, k in ((16, 4), (16, 8), (20, 16)):
        adj = grid_graph(n)
        part = graph_partition(adj, None, k, tolerance=1.02)
        loads = loads_of(part, k=k)
        assert max(loads) <= 1.02 * (n * n / k)
        assert min(loads) > 0


def test_graph_partition_every_vertex_assigned_once():
    adj = grid_graph(5)
    part = graph_partition(adj, None, 3)
    assert sorted(part) == sorted(adj)
    assert set(part.values()) == {0, 1, 2}


def test_graph_partition_weighted_respects_tolerance():
    path = {i: [j for j in (i - 1, i + 1) if 0 <= j < 8] for i in range(8)}
    wgt = {i: (5.0 if i == 0 else 1.0) for i in range(8)}
    part = graph_partition(path, wgt, 2, tolerance=1.1)
    loads = loads_of(part, weights=wgt, k=2)
    assert max(loads) <= 1.1 * (sum(wgt.values()) / 2) + 5.0  # seed granularity
    assert min(loads) > 0


def test_graph_partition_disconnected_graph_still_covers():
    adj = {0: [1], 1: [0], 2: [3], 3: [2], 4: []}
    part = graph_partition(adj, None, 2)
    assert sorted(part) == [0, 1, 2, 3, 4]
    loads = loads_of(part, k=2)
    assert min(loads) >= 2.0


def test_graph_partition_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError, match="not symmetric"):
        graph_partition({0: [1], 1: []}, None, 1)


def test_graph_partition_refinement_never_raises_cut():
    # Refinement is a strict-improvement sweep, so the final cut can only be
    # lower than or equal to the grown partition's cut.  Spot-check by
    # recomputing the cut on meshes of varied shape.
    for nx, ny, k in ((6, 6, 2), (9, 4, 3), (8, 8, 4)):
        mesh = triangle_grid(nx, ny)
        adj = local_dual_graph(mesh)
        part = graph_partition(adj, None, k)
        loads = loads_of(part, k=k)
        assert min(loads) > 0
        assert sorted(part) == sorted(adj)


# -- plan validation -----------------------------------------------------------------


def test_plan_validates_fields():
    with pytest.raises(ValueError, match="unknown method"):
        HierarchicalPlan(method="metis")
    with pytest.raises(ValueError, match="approach"):
        HierarchicalPlan(approach=3)
    with pytest.raises(ValueError, match="tolerance"):
        HierarchicalPlan(tolerance=0.9)


def test_plan_method_schedule():
    plan = HierarchicalPlan(method=("graph", "rcb"))
    assert plan.method_for(0) == "graph"
    assert plan.method_for(1) == "rcb"
    assert plan.method_for(5) == "rcb"  # last entry repeats


# -- hierarchical driver ---------------------------------------------------------------


def run_hierarchical(mesh, tree, plan, weights=None, seed=0):
    chunks = split_contiguous(mesh, tree.total_ranks)

    def prog(ctx):
        wgt = None
        if weights is not None:
            wgt = {e: weights[e] for e in chunks[ctx.rank].elements}
        out_chunk, out_w = hierarchical_partition(ctx, tree, chunks[ctx.rank],
                                                  plan, wgt)
        return out_chunk

    rt = Runtime(tree, seed=seed)
    return rt.run(prog), rt


@pytest.mark.parametrize("method", ["rcb", "graph"])
@pytest.mark.parametrize("approach", [1, 2])
def test_hierarchical_uniform_mesh_even_sizes(method, approach):
    mesh = triangle_grid(8, 5)  # 80 elements over 8 ranks
    tree = build_topology([("node", 2), ("socket", 2), ("core", 2)])
    plan = HierarchicalPlan(method=method, approach=approach)
    res, _ = run_hierarchical(mesh, tree, plan)
    sizes = [r.n_elements for r in res]
    assert sum(sizes) == 80
    assert max(sizes) <= 1.02 * 10 + 1
    all_ids = sorted(e for r in res for e in r.elements)
    assert all_ids == sorted(mesh.elements)
    for r in res:
        r.validate()


def test_hierarchical_single_rank_identity():
    mesh = triangle_grid(3, 3)
    tree = build_topology([("node", 1)])
    res, _ = run_hierarchical(mesh, tree, HierarchicalPlan())
    assert res[0].elements == mesh.elements


def test_hierarchical_phases_labeled():
    mesh = triangle_grid(8, 4)
    tree = build_topology([("node", 2), ("core", 2)])
    _, rt = run_hierarchical(mesh, tree, HierarchicalPlan())
    assert rt.ledger.phases() == sorted(["collect", "bootstrap", "level1"])


def test_hierarchical_approach2_sub_levels_off_network():
    mesh = triangle_grid(8, 8)
    tree = build_topology([("node", 2), ("socket", 2), ("core", 2)])
    _, rt = run_hierarchical(mesh, tree, HierarchicalPlan(approach=2))
    for row in rt.ledger.phase_totals():
        if row["phase"].startswith("level"):
            assert row["internode_bytes"] == 0, row


def test_hierarchical_approach1_spreads_split_work():
    # Approach 1 runs the split among the child leaders instead of at the
    # parent leader, so sub-node phases do carry partitioning messages.
    mesh = triangle_grid(8, 8)
    tree = build_topology([("node", 2), ("core", 2)])
    _, rt = run_hierarchical(mesh, tree, HierarchicalPlan(approach=1))
    level1 = [row for row in rt.ledger.phase_totals()
              if row["phase"] == "level1"]
    assert level1 and level1[0]["messages"] > 0


def test_hierarchical_weighted_balance():
    mesh = triangle_grid(8, 4)
    heavy = {e: (4.0 if e < 8 else 1.0) for e in mesh.elements}
    tree = build_topology([("node", 2), ("core", 2)])
    res, _ = run_hierarchical(mesh, tree, HierarchicalPlan(), weights=heavy)
    loads = [sum(heavy[e] for e in r.elements) for r in res]
    mean = sum(loads) / len(loads)
    assert max(loads) / mean <= 1.35  # element granularity limits exactness


def test_hierarchical_bootstrap_below_root():
    mesh = triangle_grid(8, 4)
    tree = build_topology([("node", 2), ("core", 2)])
    plan = HierarchicalPlan(bootstrap_level=1)
    res, rt = run_hierarchical(mesh, tree, plan)
    assert sorted(e for r in res for e in r.elements) == sorted(mesh.elements)
    # Leaf-level bootstrap degenerates to one flat split over all ranks: the
    # collect phase moves nothing and no per-level phases remain.
    assert rt.ledger.phases() == ["bootstrap"]
    sizes = [r.n_elements for r in res]
    assert max(sizes) - min(sizes) <= 2


def test_hierarchical_error_carries_context():
    # 3 elements cannot fill 4 ranks: the level split must name its location.
    mesh = triangle_grid(1, 1)
    tree = build_topology([("node", 2), ("core", 2)])
    chunks = split_contiguous(mesh, 4)

    def prog(ctx):
        return hierarchical_partition(ctx, tree, chunks[ctx.rank],
                                      HierarchicalPlan())

    with pytest.raises(ValueError, match="bootstrap split|level"):
        Runtime(tree, seed=0).run(prog)
