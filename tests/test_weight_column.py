"""A chunk's weight column stays with its elements.

``MeshChunk.weights`` is None for unit weights or one float64 per element,
aligned with ``element_ids``.  The carve, the merge, the hierarchy's
payloads and ``migrate`` keep it aligned, so after any partition or
rebalance every element carries the weight it came in with, bit for bit,
and the public entry points give it back in the form it was given.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hierpart.balance import rebalance
from hierpart.mesh import (MeshChunk, merge_chunks, migrate, split_chunk,
                           split_contiguous, subset_chunk)
from hierpart.meshgen import tet_box, triangle_grid
from hierpart.partition import HierarchicalPlan, hierarchical_partition
from hierpart.runtime import RankContext, Runtime
from hierpart.topology import build_topology

# Non-integer weights, so a weight read from the wrong element or rounded
# on the way shows.
WEIGHT = st.floats(0.01, 1e3, allow_nan=False).filter(
    lambda w: w != int(w))


def weighted(mesh: MeshChunk, start: float = 0.5) -> MeshChunk:
    return replace(mesh, weights=start + mesh.element_ids / 7)


def weights_of(mesh: MeshChunk, chunk: MeshChunk) -> np.ndarray:
    """The mesh's weights of the chunk's elements, in the chunk's order."""
    return mesh.weights[np.searchsorted(mesh.element_ids, chunk.element_ids)]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()


# -- the column in the chunk operations ---------------------------------------------


def test_from_arrays_sorts_the_weights_with_the_ids():
    mesh = triangle_grid(2, 2)
    order = np.array([5, 2, 7, 0, 3, 6, 1, 4])
    ids = mesh.element_ids[order]
    chunk = MeshChunk.from_arrays(mesh.kind, ids, mesh.conn[order],
                                  mesh.node_ids, mesh.coords,
                                  mesh.boundary_tags, mesh.boundary_conn,
                                  weights=0.25 + ids)
    assert chunk.element_ids.tolist() == sorted(ids.tolist())
    assert chunk.weights.tolist() == [0.25 + e for e in sorted(ids.tolist())]
    unweighted = MeshChunk.from_arrays(mesh.kind, ids, mesh.conn[order],
                                       mesh.node_ids, mesh.coords,
                                       mesh.boundary_tags, mesh.boundary_conn)
    assert unweighted.weights is None and unweighted == mesh


def test_equality_compares_the_weights():
    mesh = tet_box(2, 1, 1)
    assert weighted(mesh) == weighted(mesh)
    assert weighted(mesh) != mesh and mesh != weighted(mesh)
    assert weighted(mesh) != weighted(mesh, start=0.75)


def test_split_and_subset_carve_the_weights():
    mesh = weighted(tet_box(2, 2, 1))
    owner = np.arange(mesh.n_elements) % 3 - 1
    subs = split_chunk(mesh, owner, 2)
    for g, sub in enumerate(subs):
        assert sub.element_ids.tolist() == \
            mesh.element_ids[owner == g].tolist()
        assert same_bits(sub.weights, mesh.weights[owner == g])
    for sub in split_contiguous(mesh, 3):
        assert same_bits(sub.weights, weights_of(mesh, sub))
    sub = subset_chunk(mesh, [11, 3, 7])
    assert same_bits(sub.weights, mesh.weights[[3, 7, 11]])
    assert all(s.weights is None
               for s in split_chunk(replace(mesh, weights=None), owner, 2))


def test_merge_keeps_each_weight_with_its_element():
    mesh = weighted(triangle_grid(3, 2))
    parts = split_contiguous(mesh, 3)
    assert merge_chunks(mesh.kind, reversed(parts)) == mesh
    # As for the records, the last chunk holding an id gives its weight.
    again = replace(parts[0], weights=parts[0].weights + 1)
    merged = merge_chunks(mesh.kind, [*parts, again])
    assert same_bits(merged.weights[:parts[0].n_elements], again.weights)


def test_merge_rejects_weighted_and_unweighted_chunks_together():
    parts = split_contiguous(weighted(triangle_grid(3, 2)), 2)
    parts[1] = replace(parts[1], weights=None)
    with pytest.raises(ValueError,
                       match="weights given on some ranks but not all"):
        merge_chunks("triangle", parts)


def test_partition_rejects_weights_on_some_ranks_only():
    mesh = triangle_grid(4, 4)
    tree = build_topology([("node", 2), ("core", 2)])
    chunks = split_contiguous(mesh, tree.total_ranks)

    def prog(ctx):
        chunk = chunks[ctx.rank]
        weights = None if ctx.rank == 1 else 1.5 + chunk.element_ids
        return hierarchical_partition(ctx, tree, chunk, HierarchicalPlan(),
                                      weights)

    with pytest.raises(ValueError,
                       match="weights given on some ranks but not all"):
        Runtime(tree, seed=0).run(prog)


# -- migration ------------------------------------------------------------------------


def counting_blind_count(calls: dict):
    real = RankContext.blind_count

    def spy(self, *args, **kwargs):
        calls[self.rank] = calls.get(self.rank, 0) + 1
        return real(self, *args, **kwargs)

    return spy


@settings(max_examples=40, deadline=None)
@given(data=st.data(), nranks=st.integers(1, 5), tet=st.booleans(),
       weighted_run=st.booleans(), seed=st.integers(0, 3))
def test_migrate_conserves_id_weight_pairs(data, nranks, tet, weighted_run,
                                           seed):
    mesh = tet_box(2, 2, 1) if tet else triangle_grid(3, 3)
    n = mesh.n_elements
    if weighted_run:
        mesh = replace(mesh, weights=np.array(
            data.draw(st.lists(WEIGHT, min_size=n, max_size=n))))
    start = data.draw(st.lists(st.integers(0, nranks - 1), min_size=n,
                               max_size=n))
    dest = data.draw(st.lists(st.integers(0, nranks - 1), min_size=n,
                              max_size=n))
    chunks = split_chunk(mesh, start, nranks)
    tree = build_topology([("node", nranks)])
    calls: dict[int, int] = {}

    def prog(ctx):
        chunk = chunks[ctx.rank]
        mine = np.searchsorted(mesh.element_ids, chunk.element_ids)
        return migrate(ctx, chunk, np.array(dest)[mine])

    with mock.patch.object(RankContext, "blind_count",
                           counting_blind_count(calls)):
        res = Runtime(tree, seed=seed).run(prog)
    # Unweighted: one blind_count, the chunks'; weighted: one more for the
    # leaving weights.
    assert calls == {r: 1 + weighted_run for r in range(nranks)}
    for rank, chunk in enumerate(res):
        want = mesh.element_ids[np.array(dest, dtype=np.int64) == rank]
        assert chunk.element_ids.tolist() == want.tolist()
        if weighted_run:
            assert same_bits(chunk.weights, weights_of(mesh, chunk))
        else:
            assert chunk.weights is None


# -- partition, then rebalance ---------------------------------------------------------


@st.composite
def hierarchy_cases(draw):
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    tree = build_topology([(f"l{i}", a) for i, a in enumerate(arities)])
    if draw(st.booleans()):
        mesh = triangle_grid(draw(st.integers(1, 5)), draw(st.integers(1, 4)))
    else:
        mesh = tet_box(draw(st.integers(1, 3)), draw(st.integers(1, 2)), 1)
    assume(mesh.n_elements >= tree.total_ranks)
    n = mesh.n_elements
    mesh = replace(mesh, weights=np.array(
        draw(st.lists(WEIGHT, min_size=n, max_size=n))))
    bpl = draw(st.integers(0, tree.n_levels - 1))
    method = draw(st.sampled_from(["rcb", "graph", ("graph", "rcb")]))
    if not isinstance(method, str):
        method = method[:tree.n_levels - bpl]
    plan = HierarchicalPlan(bootstrap_level=bpl, method=method,
                            approach=draw(st.sampled_from([1, 2])))
    start = draw(st.lists(st.integers(0, tree.total_ranks - 1), min_size=n,
                          max_size=n))
    level = draw(st.integers(0, tree.n_levels - 1))
    return (mesh, tree, plan, start, level,
            draw(st.sampled_from(["rcb", "graph"])),
            draw(st.sampled_from(["dict", "column"])),
            draw(st.sampled_from(["given", "none"])))


def check_form(chunk: MeshChunk, out, form: str) -> None:
    """``out`` is the chunk's column in the form ``form`` names."""
    if form == "dict":
        assert type(out) is dict and list(out) == chunk.element_ids.tolist()
        assert same_bits(np.array(list(out.values()), dtype=np.float64),
                         chunk.weights)
    else:
        assert same_bits(out, chunk.weights)


@settings(max_examples=60, deadline=None)
@given(case=hierarchy_cases(), seed=st.integers(0, 3))
def test_weights_follow_their_elements_through_partition_and_rebalance(
        case, seed):
    mesh, tree, plan, start, level, re_method, form, re_given = case
    chunks = split_chunk(mesh, start, tree.total_ranks)
    columns = [c.weights for c in chunks]
    bare = [replace(c, weights=None) for c in chunks]

    def prog(ctx):
        column = columns[ctx.rank]
        weights = column if form == "column" else dict(
            zip(bare[ctx.rank].element_ids.tolist(), column.tolist()))
        part, out = hierarchical_partition(ctx, tree, bare[ctx.rank], plan,
                                           weights)
        again, out2 = rebalance(ctx, tree, part, level, re_method,
                                out if re_given == "given" else None)
        return part, out, again, out2

    res = Runtime(tree, seed=seed).run(prog)
    for stage in (0, 2):
        got = np.concatenate([r[stage].element_ids for r in res])
        assert sorted(got.tolist()) == mesh.element_ids.tolist()
    for part, out, again, out2 in res:
        assert part.n_elements > 0
        assert same_bits(part.weights, weights_of(mesh, part))
        assert same_bits(again.weights, weights_of(mesh, again))
        check_form(part, out, form)
        # None keeps the chunk's own column and gives it back as the array.
        check_form(again, out2, form if re_given == "given" else "column")
