"""Weight derivation, imbalance measurement, and in-group rebalancing."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from hierpart.balance import (WEIGHT_FLOOR, derive_weights, imbalance,
                              rebalance)
from hierpart.formats import load_mesh, load_topology, load_weights
from hierpart.mesh import merge_chunks, split_contiguous
from hierpart.meshgen import triangle_grid
from hierpart.partition import (HierarchicalPlan, _backend, _overlap_remap,
                                hierarchical_partition)
from hierpart.runtime import Runtime
from hierpart.topology import build_topology


def group_imbalance(res, weights, group) -> float:
    loads = [sum(weights[e] for e in res[r].elements) for r in group]
    return max(loads) / (sum(loads) / len(loads))


# -- derive_weights ---------------------------------------------------------------


def test_derive_weights_splits_block_time_evenly():
    wgt = derive_weights([([0, 1], 4.0), ([2], 1.0)])
    assert wgt == {0: 2.0, 1: 2.0, 2: 1.0}


def test_derive_weights_clamps_zero_measurements():
    wgt = derive_weights([([5], 0.0)])
    assert wgt[5] == WEIGHT_FLOOR


def test_derive_weights_rejects_duplicates_and_gaps():
    with pytest.raises(ValueError, match="more than one timing block"):
        derive_weights([([0, 1], 1.0), ([1], 1.0)])
    with pytest.raises(ValueError, match="^element 1 repeats in timing "
                                         "block 1$"):
        derive_weights([([0], 1.0), ([2, 1, 3, 1], 1.0)])
    with pytest.raises(ValueError, match="no timing data for elements"):
        derive_weights([([0], 1.0)], elements=[0, 1, 2])
    with pytest.raises(ValueError, match="negative time"):
        derive_weights([([0], -1.0)])
    with pytest.raises(ValueError, match="^timing block 0 has non-finite "
                                         "time nan$"):
        derive_weights([([0, 1], float("nan"))])
    with pytest.raises(ValueError, match="^timing block 1 has non-finite "
                                         "time inf$"):
        derive_weights([([0], 1.0), ([1], float("inf"))])
    with pytest.raises(ValueError, match="lists no elements"):
        derive_weights([([], 1.0)])


# -- imbalance --------------------------------------------------------------------


def test_imbalance_examples():
    # Loads {3} and {1}: mean 2, max 3.
    assert imbalance({0: 0, 1: 0, 2: 0, 3: 1}) == pytest.approx(1.5)
    assert imbalance({0: 0, 1: 1}) == pytest.approx(1.0)


def test_imbalance_weighted():
    wgt = {0: 1.0, 1: 1.0, 2: 6.0}
    # Loads: part0 = 2, part1 = 6; mean 4.
    assert imbalance({0: 0, 1: 0, 2: 1}, wgt) == pytest.approx(1.5)


def test_imbalance_counts_empty_parts():
    assert imbalance({0: 0, 1: 0}, nparts=2) == pytest.approx(2.0)


def test_imbalance_rejects_bad_input():
    with pytest.raises(ValueError, match="empty assignment"):
        imbalance({})
    with pytest.raises(ValueError, match="outside"):
        imbalance({0: 2}, nparts=2)


@pytest.mark.parametrize("weights, message", [
    ({1: 1.0}, "no weight for element 2"),
    ({1: float("nan"), 2: 1.0}, "non-finite weight nan on element 1"),
    ({1: 1.0, 2: float("inf")}, "non-finite weight inf on element 2"),
    ({1: -1.0, 2: 1.0}, "negative weight -1.0 on element 1"),
    ({1: 0.0, 2: 0.0}, "total weight is zero"),
])
def test_imbalance_names_the_element_whose_weight_is_missing_or_bad(
        weights, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        imbalance({1: 0, 2: 1}, weights)


def test_imbalance_allows_zero_weights():
    assert imbalance({1: 0, 2: 1, 3: 1}, {1: 0.0, 2: 1.0, 3: 0.0}) == 2.0


# -- rebalance --------------------------------------------------------------------


def run_rebalance(chunks, tree, level, weights_of, method="rcb", seed=0):
    def prog(ctx):
        wgt = {e: weights_of(e) for e in chunks[ctx.rank].elements}
        new_chunk, _ = rebalance(ctx, tree, chunks[ctx.rank], level,
                                 method=method, weights=wgt)
        return new_chunk

    rt = Runtime(tree, seed=seed)
    return rt.run(prog), rt


def test_rebalance_flattens_skewed_group():
    # One leaf in a 2-leaf group carries 4x the per-element weight.  With
    # every element at weight 1 except rank 0's at 4, the group's pre split
    # is 4:1 by load; after rebalancing within the node both leaves should
    # land within a few percent of each other.
    mesh = triangle_grid(8, 4)
    tree = build_topology([("node", 2), ("core", 2)])
    chunks = split_contiguous(mesh, 4)
    heavy = set(chunks[0].elements)
    weights_of = lambda e: 4.0 if e in heavy else 1.0

    groups = [tree.group_members(0, g) for g in range(tree.group_count(0))]
    wgt_all = {e: weights_of(e) for e in mesh.elements}
    pre = [0.0, 0.0, 0.0, 0.0]
    for r, ch in enumerate(chunks):
        pre[r] = sum(wgt_all[e] for e in ch.elements)
    g0 = pre[0] / ((pre[0] + pre[1]) / 2)
    assert g0 >= 1.5  # the skew is real before rebalancing

    res, _ = run_rebalance(chunks, tree, 0, weights_of)
    for group in groups:
        assert group_imbalance(res, wgt_all, group) <= 1.1


def test_rebalance_keeps_elements_inside_their_group():
    mesh = triangle_grid(8, 4)
    tree = build_topology([("node", 2), ("core", 2)])
    chunks = split_contiguous(mesh, 4)
    before = [set(ch.elements) for ch in chunks]
    res, _ = run_rebalance(chunks, tree, 0, lambda e: 1.0 + (e % 7))
    for g in range(tree.group_count(0)):
        group = tree.group_members(0, g)
        had = set().union(*(before[r] for r in group))
        have = set().union(*(set(res[r].elements) for r in group))
        assert have == had


def test_rebalance_balanced_input_is_a_fixed_point():
    # An assignment already produced by the method, with uniform weights,
    # must come back unchanged: same split, labels matched by overlap.
    from hierpart.partition import HierarchicalPlan, hierarchical_partition

    mesh = triangle_grid(8, 4)
    tree = build_topology([("node", 2), ("core", 2)])
    chunks = split_contiguous(mesh, 4)

    def prog(ctx):
        owned, _ = hierarchical_partition(ctx, tree, chunks[ctx.rank],
                                          HierarchicalPlan(method="rcb"))
        before = set(owned.elements)
        after, _ = rebalance(ctx, tree, owned, 0, method="rcb",
                             weights={e: 1.0 for e in owned.elements})
        return len(before ^ set(after.elements))

    assert Runtime(tree, seed=0).run(prog) == [0, 0, 0, 0]


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def demo_rcb_start():
    """The demo mesh on its 2x2x2 tree: each rank's chunk of the rcb
    partition, and the tree."""
    mesh = load_mesh(FIXTURES / "demo_mesh.json")
    tree = load_topology(FIXTURES / "topo_2x2x2.json")
    chunks = split_contiguous(mesh, tree.total_ranks)

    def prog(ctx):
        return hierarchical_partition(ctx, tree, chunks[ctx.rank],
                                      HierarchicalPlan(method="rcb"))[0]

    return Runtime(tree, seed=0).run(prog), tree


@pytest.mark.parametrize("weighted", [False, True])
def test_rebalance_keeps_a_group_whose_split_cannot_lower_its_peak(weighted):
    # On the balanced rcb start, the grower's split of a node group is no
    # lighter at its heaviest than the group's heaviest rank, so the group
    # is left as it is; a scratch split with the overlap remap alone moved
    # 226 of the 512 elements.
    start, tree = demo_rcb_start()
    given = load_weights(FIXTURES / "demo_weights.json") if weighted else {}
    weight_of = lambda e: given.get(e, 1.0)
    res, _ = run_rebalance(start, tree, 0, weight_of, method="graph")
    for g in range(tree.group_count(0)):
        group = tree.group_members(0, g)
        loads = [[sum(map(weight_of, chunks[r].elements)) for r in group]
                 for chunks in (start, res)]
        moved = sum(res[r].elements != start[r].elements for r in group)
        assert max(loads[1]) <= max(loads[0])
        assert moved == 0 or max(loads[1]) < max(loads[0])
    if not weighted:
        assert [r.elements for r in res] == [r.elements for r in start]


def test_rebalance_moves_a_group_whose_split_lowers_its_peak():
    # Rank 0's elements weigh 4, so its node's split lowers the peak: the
    # elements go where the overlap-matched split puts them.
    mesh = triangle_grid(8, 4)
    tree = build_topology([("node", 2), ("core", 2)])
    chunks = split_contiguous(mesh, 4)
    heavy = set(chunks[0].elements)
    weight_of = lambda e: 4.0 if e in heavy else 1.0
    res, _ = run_rebalance(chunks, tree, 0, weight_of)

    group = merge_chunks(mesh.kind, chunks[:2])
    weights = np.array([weight_of(e) for e in group.element_ids.tolist()])
    part = _backend(mesh.kind, "rcb", group.element_ids,
                    group.centroids()[1], weights, 2, 1.02, "oracle", 1)
    holder = np.repeat([0, 1], [ch.n_elements for ch in chunks[:2]])
    dest = _overlap_remap(part, holder, (0, 1))[part]
    assert (dest != holder).any()
    for r in (0, 1):
        assert sorted(res[r].elements) == \
            group.element_ids[dest == r].tolist()
    # The other node's loads are equal already; it keeps its elements.
    assert [res[r].elements for r in (2, 3)] == \
        [chunks[r].elements for r in (2, 3)]


def test_rebalance_leaf_level_is_a_no_op():
    mesh = triangle_grid(4, 4)
    tree = build_topology([("node", 2), ("core", 2)])
    chunks = split_contiguous(mesh, 4)
    res, rt = run_rebalance(chunks, tree, 1, lambda e: float(1 + e))
    for r in range(4):
        assert res[r].elements == chunks[r].elements
    assert rt.ledger.message_count() == 0


def test_rebalance_traffic_stays_inside_the_node():
    mesh = triangle_grid(8, 8)
    tree = build_topology([("node", 2), ("socket", 2)])
    chunks = split_contiguous(mesh, 4)
    _, rt = run_rebalance(chunks, tree, 0, lambda e: 1.0 + (e % 5),
                          method="graph")
    for row in rt.ledger.phase_totals():
        assert row["phase"] == "rebalance_level0"
        assert row["internode_bytes"] == 0


def test_rebalance_conserves_the_mesh():
    mesh = triangle_grid(8, 4)
    tree = build_topology([("node", 2), ("core", 2)])
    chunks = split_contiguous(mesh, 4)
    res, _ = run_rebalance(chunks, tree, 0, lambda e: 1.0 + (e % 3))
    whole = merge_chunks(mesh.kind, res)
    assert whole.elements == mesh.elements
    assert sorted(whole.boundary) == sorted(mesh.boundary)
    for r in res:
        r.validate()


def test_rebalance_rejects_bad_level():
    mesh = triangle_grid(2, 2)
    tree = build_topology([("node", 2)])
    chunks = split_contiguous(mesh, 2)

    def prog(ctx):
        rebalance(ctx, tree, chunks[ctx.rank], 5)

    with pytest.raises(ValueError, match="level 5 outside"):
        Runtime(tree, seed=0).run(prog)


@pytest.mark.parametrize("kwargs, message", [
    ({"method": "spectral"},
     "unknown method 'spectral'; expected one of ('rcb', 'graph')"),
    ({"tolerance": float("nan")},
     "tolerance must be a finite number >= 1.0, got nan"),
    ({"tolerance": float("inf")},
     "tolerance must be a finite number >= 1.0, got inf"),
    ({"tolerance": 0.5}, "tolerance must be a finite number >= 1.0, got 0.5"),
    ({"weights": {}}, "no weight for element {first}"),
], ids=["spectral", "nan", "inf", "0.5", "no-weights"])
def test_rebalance_rejects_bad_input_before_any_traffic(kwargs, message):
    mesh = triangle_grid(8, 4)
    tree = build_topology([("node", 1), ("core", 4)])
    chunks = split_contiguous(mesh, 4)

    def prog(ctx):
        with pytest.raises(ValueError) as err:
            rebalance(ctx, tree, chunks[ctx.rank], 0, **kwargs)
        return str(err.value)

    rt = Runtime(tree, seed=0)
    assert rt.run(prog) == [message.format(first=int(ch.element_ids[0]))
                            for ch in chunks]
    assert rt.ledger.phase_totals() == []
