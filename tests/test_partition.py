"""Coordinate bisection, greedy graph growing, and the level-by-level driver."""

from __future__ import annotations

import re
import warnings
from dataclasses import replace
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_era
from hierpart import _codec, partition
from hierpart.balance import rebalance
from hierpart.mesh import (DualGraph, _even_sizes, adjacency_from_elements,
                           gather_mean, kind_info, local_dual_graph,
                           split_chunk, split_contiguous, subset_chunk)
from hierpart.meshgen import tet_box, triangle_grid
from hierpart.partition import (HierarchicalPlan, _backend,
                                _overlap_remap, _pack_payload,
                                _refine_once, _team_assignment,
                                _team_partition, _unpack_payload,
                                graph_partition, hierarchical_partition, rcb)
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
    with pytest.raises(ValueError, match="too few points"):
        rcb([0], np.zeros((1, 2)), None, 2)
    with pytest.raises(ValueError, match="^part count must be >= 1, got 0$"):
        rcb([0], np.zeros((1, 2)), None, 0)
    with pytest.raises(ValueError, match="^weights must align with ids$"):
        rcb([0, 1], np.zeros((2, 2)), np.ones(3), 2)


@pytest.mark.parametrize("bad, message", [
    (0.0, "non-positive weight 0.0 on element 9"),
    (-2.0, "non-positive weight -2.0 on element 9"),
    (float("nan"), "non-finite weight nan on element 9"),
    (float("inf"), "non-finite weight inf on element 9"),
])
def test_backends_name_the_element_of_a_bad_weight(bad, message):
    ids = [4, 9, 2]
    weights = np.array([1.0, bad, 1.0])
    with pytest.raises(ValueError, match=message):
        rcb(ids, np.zeros((3, 2)), weights, 2)
    weight_of = dict(zip(ids, weights.tolist()))
    graph = DualGraph.of({4: [9], 9: [2, 4], 2: [9]})
    with pytest.raises(ValueError, match=message):
        graph_partition(graph, weight_of, 2)
    with pytest.raises(ValueError, match=message):
        graph_partition(graph, np.array([weight_of[v]
                                         for v in graph.ids.tolist()]), 2)


def _split_four_ways(method, weights):
    """Split a 2x2 point grid, or a 4-cycle graph, 4 ways."""
    ids = [0, 1, 2, 3]
    if method == "rcb":
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        return rcb(ids, pts, weights, 4)
    return graph_partition(DualGraph.of({0: [1, 2], 1: [0, 3], 2: [0, 3],
                                         3: [1, 2]}), weights, 4)


@pytest.mark.parametrize("method", ["rcb", "graph"])
def test_backends_refuse_a_weight_total_beyond_float64(method):
    # Each weight is finite, but their total is not: a cut would aim at
    # inf.  The check comes before any sum that warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^weights total inf beyond the "
                                             "float64 range when split 4 "
                                             "ways$"):
            _split_four_ways(method, np.full(4, 1e308))
        # 2^1022 is finite, but not 4 times it.
        with pytest.raises(ValueError, match=re.escape(
                f"weights total {2.0 ** 1022:g} beyond")):
            _split_four_ways(method, np.full(4, 2.0 ** 1020))


@pytest.mark.parametrize("method", ["rcb", "graph"])
def test_a_weight_total_within_float64_when_split_runs_clean(method):
    # A 2^1021 total on 4 parts: 4 times it is 2^1023, still a float64.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        part = _split_four_ways(method, np.full(4, 2.0 ** 1019))
    assert sorted(part.values()) == [0, 1, 2, 3]


@pytest.mark.parametrize("method", ["rcb", "graph"])
def test_hierarchical_refuses_a_weight_total_beyond_float64(method):
    mesh = triangle_grid(4, 2)
    tree = build_topology([("node", 2), ("core", 2)])
    plan = HierarchicalPlan(method=method)
    heavy = {e: 1e308 for e in mesh.element_ids.tolist()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^bootstrap split: weights total "
                                             "inf beyond the float64 range "
                                             "when split 2 ways$"):
            run_hierarchical(mesh, tree, plan, heavy)
        # 2^1021 over the 16 elements: every split stays finite.
        res, _ = run_hierarchical(mesh, tree, plan, {
            e: 2.0 ** 1017 for e in mesh.element_ids.tolist()})
    assert sum(r.n_elements for r in res) == mesh.n_elements


def test_hierarchical_names_an_element_without_weight():
    # A weight mapping that misses the last element of each rank's chunk
    # fails on every rank, naming that element, before any traffic.
    mesh = triangle_grid(4, 2)
    tree = build_topology([("node", 2), ("core", 2)])
    chunks = split_contiguous(mesh, 4)

    def prog(ctx):
        ids = chunks[ctx.rank].element_ids.tolist()
        with pytest.raises(ValueError,
                           match=f"^no weight for element {ids[-1]}$"):
            hierarchical_partition(ctx, tree, chunks[ctx.rank],
                                   HierarchicalPlan(),
                                   {e: 1.0 for e in ids[:-1]})

    rt = Runtime(tree, seed=0)
    rt.run(prog)
    assert rt.ledger.phase_totals() == []


@pytest.mark.parametrize("bad, what", [
    (0.0, "non-positive"), (-2.0, "non-positive"),
    (float("nan"), "non-finite"), (float("inf"), "non-finite"),
])
@pytest.mark.parametrize("form", ["column", "mapping", "own"])
@pytest.mark.parametrize("entry", ["hierarchical", "rebalance"])
def test_a_bad_weight_is_refused_on_the_rank_that_holds_it(entry, form, bad,
                                                           what):
    # Every rank holds one bad weight, its chunk's second, as a column, as a
    # mapping or as the chunk's own column.  Each rank refuses its own,
    # unprefixed, before any traffic.
    mesh = triangle_grid(8, 4)
    tree = build_topology([("node", 2), ("core", 2)])
    chunks = split_contiguous(mesh, 4)

    def prog(ctx):
        chunk = chunks[ctx.rank]
        column = np.ones(chunk.n_elements)
        column[1] = bad
        weights = {"column": column, "own": None,
                   "mapping": dict(zip(chunk.element_ids.tolist(),
                                       column.tolist()))}[form]
        if form == "own":
            chunk = replace(chunk, weights=column)
        with pytest.raises(ValueError) as err:
            if entry == "hierarchical":
                hierarchical_partition(ctx, tree, chunk, HierarchicalPlan(),
                                       weights)
            else:
                rebalance(ctx, tree, chunk, 0, weights=weights)
        return str(err.value)

    rt = Runtime(tree, seed=0)
    assert rt.run(prog) == [f"{what} weight {bad} on element "
                            f"{ch.element_ids[1]}" for ch in chunks]
    assert rt.ledger.phase_totals() == []


@pytest.mark.parametrize("weights", [np.ones(3), np.ones((4, 1))],
                         ids=["short", "2-d"])
def test_a_weight_column_of_the_wrong_shape_is_named(weights):
    chunk = triangle_grid(2, 1)
    with pytest.raises(ValueError, match=re.escape(
            f"{weights.shape} weights for 4 elements")):
        partition._with_weights(chunk, weights)


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


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rcb_minimum_count_fills_every_part(data):
    m = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(k * m, k * m + 20))
    exps = data.draw(st.lists(st.floats(0.0, 6.0), min_size=n, max_size=n))
    coords = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=2 * n,
                                max_size=2 * n))
    part = rcb(np.arange(n), np.array(coords).reshape(n, 2),
               10.0 ** np.array(exps), k, m)
    assert sorted(part) == list(range(n))
    assert min(loads_of(part, k=k)) >= m


def test_rcb_minimum_count_needs_enough_points():
    with pytest.raises(ValueError,
                       match="too few points: 5 left for 2 parts of at least 3 each"):
        rcb(np.arange(5), np.zeros((5, 2)), None, 2, m=3)


def _outcome(fn, *args):
    """The call's result as a list of items, or its ValueError text."""
    try:
        return list(fn(*args).items())
    except ValueError as err:
        return str(err)


# Few values, so coordinates repeat, tie and meet both zeros.
_TIED = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0, 5e-324])


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_rcb_matches_the_per_bisection_lexsort_oracle(data):
    n = data.draw(st.integers(1, 16))
    dim = data.draw(st.integers(1, 3))
    coords = data.draw(st.lists(_TIED | st.floats(-10.0, 10.0),
                                min_size=n * dim, max_size=n * dim))
    points = np.array(coords, dtype=np.float64).reshape(n, dim)
    ids = np.array(data.draw(st.lists(st.integers(0, 10 ** 6), min_size=n,
                                      max_size=n, unique=True)))
    form = data.draw(st.sampled_from(["none", "unit", "integer", "log"]))
    if form == "none":
        weights = None
    elif form == "unit":
        weights = np.ones(n)
    elif form == "integer":
        weights = np.array(data.draw(st.lists(
            st.integers(1, 9), min_size=n, max_size=n)), dtype=np.float64)
    else:
        weights = 10.0 ** np.array(data.draw(st.lists(
            st.floats(0.0, 6.0), min_size=n, max_size=n)))
    for k in range(1, n + 1):
        for m in (1, 2, 3):
            assert _outcome(rcb, ids, points, weights, k, m) == \
                _outcome(dict_era.rcb, ids, points, weights, k, m)


def test_rcb_refuses_points_without_coordinates():
    # No axis to sort or cut along, whatever the part count.
    for k in (1, 2):
        with pytest.raises(ValueError, match=r"^points must be \(n, dim\) "
                                             r"aligned with ids, dim >= 1$"):
            rcb([0, 1], np.zeros((2, 0)), None, k)


def test_rcb_sorts_each_axis_once_per_call():
    mesh = tet_box(4, 4, 4)
    ids, points = mesh.centroids()
    with mock.patch.object(partition.np, "lexsort",
                           wraps=np.lexsort) as lexsort:
        part = rcb(ids, points, None, 16)
    assert lexsort.call_count == 3
    assert list(part.items()) == list(dict_era.rcb(ids, points, None,
                                                   16).items())


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


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_graph_partition_minimum_count_fills_every_part(data):
    mesh = triangle_grid(data.draw(st.integers(1, 6)),
                         data.draw(st.integers(1, 4)))
    adj = local_dual_graph(mesh)
    n = len(adj)
    m = data.draw(st.integers(1, max(1, n // 2)))
    k = data.draw(st.integers(1, n // m))
    exps = data.draw(st.lists(st.floats(-3.0, 6.0), min_size=n, max_size=n))
    wgt = {v: 10.0 ** x for v, x in zip(sorted(adj), exps)}
    part = graph_partition(adj, wgt, k, m=m)
    assert sorted(part) == sorted(adj)
    assert min(loads_of(part, k=k)) >= m


def test_graph_partition_minimum_count_needs_enough_vertices():
    with pytest.raises(ValueError, match=r"part count 3 outside 1\.\.2"):
        graph_partition(grid_graph(2), None, 3, m=2)


@pytest.mark.parametrize("m, moved", [(1, True), (2, False)])
def test_refinement_keeps_minimum_count(m, moved):
    # Vertex 1 links once into its own part and three times into part 1, so
    # the sweep moves it unless that leaves part 0 below m vertices.
    adj = [[1], [0, 2, 3, 4], [1], [1], [1]]
    part = [0, 0, 1, 1, 1]
    w = [1.0] * 5
    count = [2, 3]
    _refine_once(range(5), adj, part, w, [2.0, 3.0], count, 2, 10.0, m)
    assert (part[1] == 1) == moved
    assert min(count) >= m and count == [part.count(0), part.count(1)]


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
    assert [row["phase"] for row in rt.ledger.phase_totals()] == \
        sorted(["collect", "bootstrap", "level1"])


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


@pytest.mark.parametrize("bpl", [0, 1])
@pytest.mark.parametrize("method", ["rcb", "graph"])
@pytest.mark.parametrize("weighted", [False, True])
def test_a_leader_never_packs_its_own_piece(bpl, method, weighted):
    # Approach 2 sends mesh payloads only at collect and in the level
    # phases, one message each; every _pack_payload call is one of them.
    mesh = triangle_grid(8, 8)
    tree = build_topology([("node", 2), ("socket", 2), ("core", 2)])
    weights = {e: 1.0 + e % 3 for e in mesh.elements} if weighted else None
    packed = []

    def spy(chunk):
        packed.append(chunk.n_elements)
        return _pack_payload(chunk)

    plan = HierarchicalPlan(bootstrap_level=bpl, method=method)
    with mock.patch.object(partition, "_pack_payload", spy):
        res, rt = run_hierarchical(mesh, tree, plan, weights)
    sent = sum(row["messages"] for row in rt.ledger.phase_totals()
               if row["phase"] == "collect" or row["phase"].startswith("level"))
    assert len(packed) == sent
    # Rank 0 leads at every level, so it ends with the first piece of the
    # last split as split_chunk carved it, its node rows already found.
    assert res[0]._conn_rows is not None
    assert sorted(e for r in res for e in r.elements) == sorted(mesh.elements)


@pytest.mark.parametrize("bpl", [0, 1])
@pytest.mark.parametrize("as_array", [False, True])
def test_hierarchical_gives_weights_back_in_the_form_given(bpl, as_array):
    # Every rank, the group leaders included, gets a dict keyed by its final
    # chunk's ids for a mapping and an aligned column for an array.
    mesh = triangle_grid(8, 4)
    weights = {e: 1 + (e % 7) / 10 for e in mesh.elements}
    tree = build_topology([("node", 2), ("core", 2)])
    plan = HierarchicalPlan(bootstrap_level=bpl)
    chunks = split_contiguous(mesh, tree.total_ranks)

    def prog(ctx):
        chunk = chunks[ctx.rank]
        ids = chunk.element_ids.tolist()
        given = np.array([weights[e] for e in ids]) if as_array else \
            {e: weights[e] for e in ids}
        return hierarchical_partition(ctx, tree, chunk, plan, given)

    for out_chunk, out_w in Runtime(tree, seed=0).run(prog):
        ids = out_chunk.element_ids.tolist()
        want = [weights[e] for e in ids]
        if as_array:
            assert isinstance(out_w, np.ndarray) and out_w.tolist() == want
        else:
            assert type(out_w) is dict and list(out_w) == ids
            assert list(out_w.values()) == want


def test_hierarchical_bootstrap_below_root():
    mesh = triangle_grid(8, 4)
    tree = build_topology([("node", 2), ("core", 2)])
    plan = HierarchicalPlan(bootstrap_level=1)
    res, rt = run_hierarchical(mesh, tree, plan)
    assert sorted(e for r in res for e in r.elements) == sorted(mesh.elements)
    # Leaf-level bootstrap degenerates to one flat split over all ranks: the
    # collect phase moves nothing and no per-level phases remain.
    assert [row["phase"] for row in rt.ledger.phase_totals()] == \
        ["bootstrap"]
    sizes = [r.n_elements for r in res]
    assert max(sizes) - min(sizes) <= 2


def test_hierarchical_rejects_more_methods_than_splits():
    # Three levels from bootstrap level 0 make three splits; a fourth entry
    # would never be used.  A shorter list repeats its last entry.
    mesh = triangle_grid(8, 4)
    tree = build_topology([("node", 2), ("socket", 2), ("core", 2)])
    too_long = HierarchicalPlan(method=("graph", "rcb", "graph", "rcb"))
    with pytest.raises(ValueError, match="method lists 4 back-ends, one per "
                                         "split, but the hierarchy makes only "
                                         "3$"):
        run_hierarchical(mesh, tree, too_long)
    below = HierarchicalPlan(bootstrap_level=1, method=("rcb",) * 3)
    with pytest.raises(ValueError, match="lists 3 back-ends.*makes only 2$"):
        run_hierarchical(mesh, tree, below)
    res, _ = run_hierarchical(mesh, tree, HierarchicalPlan(
        method=("graph", "rcb", "graph")))
    assert sum(r.n_elements for r in res) == mesh.n_elements


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


@st.composite
def skewed_instances(draw):
    """A topology of up to three levels, a triangle grid with at least one
    element per leaf, and log-uniform weights spanning up to 1e6."""
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    tree = build_topology([(f"l{i}", a) for i, a in enumerate(arities)])
    ranks = tree.total_ranks
    nx = draw(st.integers(1, 6))
    lo = max(1, -(-ranks // (2 * nx)))
    ny = draw(st.integers(lo, max(lo, 6)))
    mesh = triangle_grid(nx, ny)
    exps = draw(st.lists(st.floats(0.0, 6.0), min_size=mesh.n_elements,
                         max_size=mesh.n_elements))
    weights = {e: 10.0 ** x for e, x in zip(sorted(mesh.elements), exps)}
    plan = HierarchicalPlan(method=draw(st.sampled_from(["rcb", "graph"])),
                            approach=draw(st.sampled_from([1, 2])))
    return mesh, tree, weights, plan


@settings(max_examples=40, deadline=None)
@given(case=skewed_instances())
def test_hierarchical_skewed_weights_leave_no_rank_empty(case):
    mesh, tree, weights, plan = case
    res, rt = run_hierarchical(mesh, tree, plan, weights=weights, seed=0)
    assert all(r.n_elements > 0 for r in res)
    assert sorted(e for r in res for e in r.elements) == sorted(mesh.elements)
    for row in rt.ledger.phase_totals():
        if row["phase"].startswith("level"):
            assert row["internode_bytes"] == 0, row
    again, _ = run_hierarchical(mesh, tree, plan, weights=weights, seed=7)
    assert [r.elements for r in again] == [r.elements for r in res]


# -- wire sizes ---------------------------------------------------------------------


@pytest.mark.parametrize("weight_of, extra", [
    # 1.0 to 4.5: bit patterns 2^51 and more apart, 8 bytes a weight.
    (lambda ids: 1.0 + ids / 4, 9 + 8 * 5),
    # One value: 1 byte a weight.
    (lambda ids: np.full(len(ids), 4.0), 9 + 5),
], ids=["distinct", "equal"])
def test_weighted_payload_adds_one_weight_block(weight_of, extra):
    # The weights follow the chunk's own ascending id order, so a weighted
    # payload carries no second copy of the element ids; the block is a
    # width byte, the minimum bit pattern and one offset per element.
    chunk = subset_chunk(tet_box(2, 2, 1), [9, 2, 5, 14, 0])
    weighted = replace(chunk, weights=weight_of(chunk.element_ids))
    plain = _pack_payload(chunk)
    packed = _pack_payload(weighted)
    assert len(packed) - len(plain) == extra
    back = _unpack_payload(packed)
    assert back == weighted and _unpack_payload(plain) == chunk
    assert back.weights.tobytes() == \
        weight_of(np.array([0, 2, 5, 9, 14])).tobytes()


@pytest.mark.parametrize("method", ["rcb", "graph"])
@pytest.mark.parametrize("weighted", [False, True])
def test_leader_reply_is_one_owner_per_member_element(monkeypatch, method,
                                                      weighted):
    # Each member already holds its element ids, so the leader's reply is
    # the new owner of each of them (one int64 apiece) and nothing else.
    replies = []
    real = partition._leader_assign

    def spy(*args):
        out = real(*args)
        replies.extend(out)
        return out

    monkeypatch.setattr(partition, "_leader_assign", spy)
    mesh = triangle_grid(6, 4)
    if weighted:
        mesh = replace(mesh, weights=1.0 + mesh.element_ids % 5)
    tree = build_topology([("node", 1), ("core", 3)])
    n = mesh.n_elements
    chunks = split_chunk(mesh, [0] * 5 + [1] * 17 + [2] * (n - 22), 3)

    def prog(ctx):
        return _team_partition(ctx, range(3), chunks[ctx.rank], method, 1.02,
                               where="test split")

    res = Runtime(tree, seed=0).run(prog)
    owners = [_codec.unpack_i64(r).tolist() for r in replies]
    assert [len(d) for d in owners] == [c.n_elements for c in chunks]
    assert [len(r) for r in replies] == [len(_codec.pack_i64(d))
                                         for d in owners]
    # Decoded in each member's id order, the owners route every element.
    for chunk, dest in zip(chunks, owners):
        for e, d in zip(sorted(chunk.elements), dest):
            assert e in res[d].elements


# -- rcb team summaries -------------------------------------------------------------


def scrambled(mesh, rng):
    """``mesh`` with non-grid float coordinates, and its element and node
    ids shuffled over a wide range; no boundary faces."""
    node_ids = rng.permutation(len(mesh.node_ids)) * 7919 + 3
    conn = node_ids[np.searchsorted(mesh.node_ids, mesh.conn)]
    coords = (mesh.coords * rng.uniform(0.1, 10.0)
              + rng.standard_normal(mesh.coords.shape) * 0.3) * \
        10.0 ** rng.uniform(-3, 3)
    element_ids = rng.permutation(mesh.n_elements) * 104729 - 5
    return type(mesh).from_arrays(mesh.kind, element_ids, conn, node_ids,
                                  coords, [], [])


@st.composite
def team_summaries(draw):
    """A scrambled tri or tet mesh split among a random team of a 6-rank
    node, by element id blocks or at random, maybe weighted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        mesh = triangle_grid(draw(st.integers(1, 8)), draw(st.integers(2, 8)))
    else:
        mesh = tet_box(*(draw(st.integers(1, 4)) for _ in range(3)))
    mesh = scrambled(mesh, rng)
    team = tuple(sorted(draw(st.sets(st.integers(0, 5), min_size=1,
                                     max_size=min(6, mesh.n_elements)))))
    if draw(st.booleans()):
        holder = np.repeat(np.arange(len(team)),
                           _even_sizes(mesh.n_elements, len(team)))
    else:
        holder = rng.integers(0, len(team), mesh.n_elements)
    if draw(st.booleans()):
        mesh = replace(mesh, weights=rng.uniform(0.1, 10.0, mesh.n_elements))
    chunks = split_chunk(mesh, holder, len(team))
    return team, chunks, draw(st.booleans()), draw(st.integers(0, 3))


def run_team_assignment(team, chunks, remap, seed):
    """Each member's new owners, and the centroids and weights the leader
    split."""
    seen = []

    def spy(kind, method, ids, rows, weights, *args):
        seen.append((rows, weights))
        return _backend(kind, method, ids, rows, weights, *args)

    def prog(ctx):
        if ctx.rank in team:
            return _team_assignment(ctx, team, chunks[team.index(ctx.rank)],
                                    "rcb", 1.02, "test split", remap, 1)

    with mock.patch.object(partition, "_backend", spy):
        res = Runtime(build_topology([("node", 1), ("core", 6)]),
                      seed=seed).run(prog)
    return [res[r] for r in team], seen[0]


@settings(max_examples=60, deadline=None)
@given(case=team_summaries())
def test_rcb_team_split_equals_the_split_of_the_members_centroids(case):
    team, chunks, remap, seed = case
    got, (rows, _) = run_team_assignment(team, chunks, remap, seed)

    # The oracle: the back-end on the members' own centroids, in member
    # order, then the same part-to-rank match; with the remap, a split whose
    # largest part is no lighter than the largest member keeps every element.
    centroids = np.concatenate([c.centroids()[1] for c in chunks])
    assert rows.tobytes() == centroids.tobytes()
    weights = None if chunks[0].weights is None else \
        np.concatenate([c.weights for c in chunks])
    part = _backend(chunks[0].kind, "rcb",
                    np.concatenate([c.element_ids for c in chunks]),
                    centroids, weights, len(team), 1.02, "oracle", 1)
    sizes = [c.n_elements for c in chunks]
    holder = np.repeat(np.arange(len(team)), sizes)
    rank_of_part = _overlap_remap(part, holder, team) if remap else \
        np.array(team)
    dest = rank_of_part[part]
    k = len(team)
    if remap and (np.bincount(part, weights, k).max()
                  >= np.bincount(holder, weights, k).max()):
        dest = np.array(team)[holder]
    want = np.split(dest, np.cumsum(sizes)[:-1])
    assert [g.tolist() for g in got] == [w.tolist() for w in want]


def summary_payloads(team, chunks):
    """Each member's rcb summary, in member order: what the leader gathers."""
    sent = {}
    real = partition.aggregate

    def spy(ctx, members, data):
        sent[ctx.rank] = data
        return real(ctx, members, data)

    with mock.patch.object(partition, "aggregate", spy):
        run_team_assignment(team, chunks, False, 0)
    return [sent[r] for r in team]


def summary_blocks(team, chunks):
    """Each member's rcb summary blocks, in member order."""
    return [_codec.unpack_blocks(p) for p in summary_payloads(team, chunks)]


def per_member_rows(kind, method, blocks):
    """Oracle for ``_unpack_rows`` on rcb summaries: one ``gather_mean``
    per member over its own coordinates and node rows."""
    _, dim, npe, _ = kind_info(kind)
    out = []
    for block in blocks:
        coords, rows = _codec.unpack_blocks(block)
        out.append(gather_mean(_codec.unpack_f64(coords).reshape(-1, dim),
                               _codec.unpack_i64(rows).reshape(-1, npe)))
    return np.concatenate(out)


@settings(max_examples=40, deadline=None)
@given(case=team_summaries())
def test_leader_gathers_every_members_centroids_at_once(case):
    # One gather over the members' concatenated coordinates gives each
    # centroid bit for bit, so the replies equal a per-member gather's.
    team, chunks, remap, _ = case
    gathered = summary_payloads(team, chunks)
    kind = chunks[0].kind
    blocks = [_codec.unpack_blocks(p)[1] for p in gathered]
    assert partition._unpack_rows(kind, "rcb", blocks).tobytes() == \
        per_member_rows(kind, "rcb", blocks).tobytes()
    args = (gathered, team, kind, chunks[0].weights is not None, "rcb", 1.02,
            "test split", remap, 1)
    got = partition._leader_assign(*args)
    with mock.patch.object(partition, "_unpack_rows", per_member_rows):
        assert got == partition._leader_assign(*args)


@pytest.mark.parametrize("method", ["rcb", "graph"])
def test_backend_reads_each_result_in_its_key_order(method):
    # Ids in no order: rcb keys its result in the order of the ids, the
    # graph back-end in ascending id, and _backend aligns both with ids.
    rng = np.random.default_rng(11)
    mesh = scrambled(tet_box(3, 3, 2), rng)
    order = rng.permutation(mesh.n_elements)
    ids = mesh.element_ids[order]
    if method == "rcb":
        rows = mesh.centroids()[1][order]
        part_of = rcb(ids, rows, None, 5)
    else:
        rows = mesh.conn[order]
        part_of = graph_partition(
            adjacency_from_elements(ids, rows, mesh.kind), None, 5)
    got = _backend(mesh.kind, method, ids, rows, None, 5, 1.02, "test", 1)
    assert got.tolist() == [part_of[e] for e in ids.tolist()]


@pytest.mark.parametrize("mesh", [tet_box(4, 4, 4), triangle_grid(8, 8),
                                  triangle_grid(12, 1)],
                         ids=["tet", "triangle", "triangle-strip"])
def test_each_member_sends_its_nodes_and_rows(mesh):
    team = (0, 1, 2, 3)
    chunks = split_contiguous(mesh, len(team))
    for chunk, blocks in zip(chunks, summary_blocks(team, chunks)):
        ids, geometry, weights = blocks
        assert ids == _codec.pack_i64(chunk.element_ids) and weights == b""
        rows = np.searchsorted(chunk.node_ids, chunk.conn)
        coords_block, rows_block = _codec.unpack_blocks(geometry)
        assert coords_block == chunk.coords.astype("<f8").tobytes()
        assert np.array_equal(_codec.unpack_i64(rows_block).reshape(
            rows.shape), rows)
        # A block count, then each block's length and bytes.
        assert len(geometry) == (8 + 8 + 8 * chunk.coords.size
                                 + 8 + len(_codec.pack_i64(rows)))


def test_each_member_sends_a_hot_leaf_weight_in_one_byte_an_element():
    # An in-node rebalance of one 4x-weighted leaf: each member's weights
    # hold one value, so its block is a width byte, that value's bit
    # pattern and a zero byte per element, and the leader splits on the
    # members' own columns.
    team = (0, 1, 2, 3)
    chunks = [replace(c, weights=np.full(c.n_elements, 4.0 if i == 0 else 1.0))
              for i, c in enumerate(split_contiguous(tet_box(4, 4, 4), 4))]
    for chunk, blocks in zip(chunks, summary_blocks(team, chunks)):
        assert len(blocks[2]) == 9 + chunk.n_elements
        assert _codec.unpack_weights(blocks[2]).tobytes() == \
            chunk.weights.tobytes()
    _, (_, weights) = run_team_assignment(team, chunks, True, 0)
    assert weights.tobytes() == \
        np.concatenate([c.weights for c in chunks]).tobytes()
