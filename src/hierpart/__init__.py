"""Topology-aware mesh partitioning over a simulated message-passing runtime.

The package exports the library entry points; everything else is imported
from its module (``hierpart.mesh``, ``hierpart.formats``, ...).
"""

from .balance import rebalance
from .partition import HierarchicalPlan, hierarchical_partition
from .runtime import Runtime
from .topology import build_topology

__version__ = "0.1.0"
