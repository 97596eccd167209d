"""Topology-aware mesh partitioning over a simulated message-passing runtime."""

from .balance import derive_weights, imbalance, rebalance
from .directory import Directory, blind_exchange, block_size, owner
from .formats import SCHEMA, FormatError
from .halo import HaloSchedule, exchange, schedule_for_rank
from .mesh import (MeshChunk, build_dual_graph, find_shared_nodes,
                   halo_growth, local_dual_graph, merge_chunks, migrate,
                   split_contiguous, subset_chunk)
from .meshgen import tet_box, triangle_grid
from .metrics import CostModel, comm_imbalance, edge_cut, quality_metrics
from .partition import (HierarchicalPlan, graph_partition,
                        hierarchical_partition, rcb)
from .runtime import (ANY_SOURCE, ANY_TAG, DeadlockError, EpochError,
                      ProtocolError, RankContext, Runtime, TrafficLedger)
from .topology import TopologyTree, aggregate, build_topology, cascade

__version__ = "0.1.0"
