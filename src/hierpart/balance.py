"""Runtime load measurement and hierarchical rebalancing.

Rebalancing at tree level L runs one independent repartition inside every
level-L group: summaries go to the group leader, the leader computes a fresh
assignment over the group's leaves, and only elements whose owner changed
actually move.  Elements never leave their level-L group, so all rebalance
traffic stays below that tree vertex.

Each rank's weights are its chunk's own column (``MeshChunk.weights``),
which the migration keeps with the elements, and part loads are sums over
owner and weight arrays.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .mesh import MeshChunk
from .partition import (Weights, _as_given, _team_partition, _with_weights,
                        check_method, check_tolerance)
from .runtime import RankContext
from .topology import TopologyTree

WEIGHT_FLOOR = 1e-9


def derive_weights(blocks: Sequence[tuple[Sequence[int], float]],
                   elements: Sequence[int] | None = None) -> dict[int, float]:
    """Per-element weights from per-block compute times.

    Each block is (element ids, measured seconds); every element in a block
    gets seconds / block size.  Zero or tiny measurements are clamped to
    ``WEIGHT_FLOOR`` so downstream partitioners never see a zero weight.  When
    ``elements`` is given, every listed element must appear in exactly one
    block.
    """
    weights: dict[int, float] = {}
    block_of: dict[int, int] = {}
    for i, (eids, seconds) in enumerate(blocks):
        if not eids:
            raise ValueError(f"timing block {i} lists no elements")
        if not math.isfinite(seconds):
            raise ValueError(f"timing block {i} has non-finite time {seconds}")
        if seconds < 0:
            raise ValueError(f"timing block {i} has negative time {seconds}")
        per = max(seconds / len(eids), WEIGHT_FLOOR)
        for e in eids:
            e = int(e)
            if e in block_of:
                raise ValueError(
                    f"element {e} repeats in timing block {i}"
                    if block_of[e] == i else
                    f"element {e} appears in more than one timing block")
            block_of[e] = i
            weights[e] = per
    if elements is not None:
        missing = sorted(set(int(e) for e in elements) - weights.keys())
        if missing:
            raise ValueError(f"no timing data for elements {missing[:5]}"
                             + ("..." if len(missing) > 5 else ""))
    return weights


def part_loads(owner: np.ndarray, weights: np.ndarray | None,
               nparts: int) -> np.ndarray:
    """Load of each part 0..nparts-1: the weights of its elements added in
    array order, or its element count.  ``owner`` and ``weights`` are
    aligned, with owners in 0..nparts-1."""
    if weights is None:
        return np.bincount(owner, minlength=nparts).astype(np.float64)
    return np.bincount(owner, weights=weights, minlength=nparts)


def load_imbalance(loads: np.ndarray) -> float:
    """Max part load over mean part load; 1.0 is perfect.  The mean adds
    the loads in part order, as Python's ``sum`` does."""
    loads = loads.tolist()
    mean = sum(loads) / len(loads)
    if mean <= 0:
        raise ValueError("total weight is zero")
    return max(loads) / mean


def imbalance(assignment: Mapping[int, int],
              weights: Mapping[int, float] | None = None,
              nparts: int | None = None) -> float:
    """Max part load over mean part load; 1.0 is perfect.  Each part's
    weights are added in the assignment's order."""
    if not assignment:
        raise ValueError("empty assignment")
    owner = np.array(list(assignment.values()), dtype=np.int64)
    if weights is not None:
        weights = np.array([weights[e] for e in assignment], dtype=np.float64)
    if nparts is None:
        nparts = int(owner.max()) + 1
    outside = (owner < 0) | (owner >= nparts)
    if outside.any():
        i = int(np.argmax(outside))
        e = list(assignment)[i]
        raise ValueError(f"element {e} assigned to part {owner[i]}, "
                         f"outside 0..{nparts - 1}")
    return load_imbalance(part_loads(owner, weights, nparts))


def rebalance(ctx: RankContext, tree: TopologyTree, chunk: MeshChunk,
              level: int, method: str = "rcb", weights: Weights = None,
              tolerance: float = 1.02) -> tuple[MeshChunk, Weights]:
    """Repartition within this rank's level-``level`` group; collective.

    ``weights`` is a float64 column aligned with the chunk's element ids or
    a mapping from element id to weight, and becomes the chunk's column;
    None keeps the chunk's own column (None for unit weights).  Returns the
    rank's new chunk and its column in the form given.  Part labels are
    matched to the leaves already holding the bulk of each part, so a group
    that is still balanced sees little or no element movement.  The
    method and tolerance are checked as ``HierarchicalPlan`` checks them.
    """
    check_method(method)
    check_tolerance(tolerance)
    group = tree.group_of(ctx.rank, level)
    ctx.set_phase(f"rebalance_level{level}")
    new_chunk = _team_partition(
        ctx, group, _with_weights(chunk, weights), method, tolerance,
        where=f"rebalance at {tree.level_name(level)} level", remap_overlap=True)
    return new_chunk, _as_given(new_chunk, weights)
