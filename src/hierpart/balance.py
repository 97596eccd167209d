"""Runtime load measurement and hierarchical rebalancing.

Rebalancing at tree level L runs one independent repartition inside every
level-L group: summaries go to the group leader, the leader computes a fresh
assignment over the group's leaves, and only elements whose owner changed
actually move.  Elements never leave their level-L group, so all rebalance
traffic stays below that tree vertex.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .mesh import MeshChunk
from .partition import _team_partition
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
    for i, (eids, seconds) in enumerate(blocks):
        if not eids:
            raise ValueError(f"timing block {i} lists no elements")
        if seconds < 0:
            raise ValueError(f"timing block {i} has negative time {seconds}")
        per = max(seconds / len(eids), WEIGHT_FLOOR)
        for e in eids:
            e = int(e)
            if e in weights:
                raise ValueError(f"element {e} appears in more than one timing block")
            weights[e] = per
    if elements is not None:
        missing = sorted(set(int(e) for e in elements) - weights.keys())
        if missing:
            raise ValueError(f"no timing data for elements {missing[:5]}"
                             + ("..." if len(missing) > 5 else ""))
    return weights


def imbalance(assignment: Mapping[int, int],
              weights: Mapping[int, float] | None = None,
              nparts: int | None = None) -> float:
    """Max part load over mean part load; 1.0 is perfect."""
    if not assignment:
        raise ValueError("empty assignment")
    if nparts is None:
        nparts = max(assignment.values()) + 1
    loads = [0.0] * nparts
    for e, p in assignment.items():
        if not (0 <= p < nparts):
            raise ValueError(f"element {e} assigned to part {p}, outside 0..{nparts - 1}")
        loads[p] += 1.0 if weights is None else float(weights[e])
    mean = sum(loads) / nparts
    if mean <= 0:
        raise ValueError("total weight is zero")
    return max(loads) / mean


def rebalance(ctx: RankContext, tree: TopologyTree, chunk: MeshChunk,
              level: int, method: str = "rcb",
              weights: Mapping[int, float] | None = None,
              tolerance: float = 1.02,
              ) -> tuple[MeshChunk, dict[int, float] | None]:
    """Repartition within this rank's level-``level`` group; collective.

    Returns the rank's new chunk and weights.  Part labels are matched to
    the leaves already holding the bulk of each part, so a group that is
    still balanced sees little or no element movement.
    """
    group = tree.group_of(ctx.rank, level)
    ctx.set_phase(f"rebalance_level{level}")
    return _team_partition(
        ctx, group, chunk, weights, method, tolerance,
        where=f"rebalance at {tree.level_name(level)} level", remap_overlap=True)
