"""Topology-aware mesh partitioning over a simulated message-passing runtime.

The package exports the library entry points; everything else is imported
from its module (``hierpart.mesh``, ``hierpart.formats``, ...).  Each export
is imported from its module on first use, so importing the package, or
only ``hierpart.formats``, loads neither the partitioner nor the balancer.
"""

from importlib import import_module

__version__ = "0.1.0"

# export -> the module that defines it
_EXPORTS = {
    "HierarchicalPlan": "partition",
    "Runtime": "runtime",
    "build_topology": "topology",
    "hierarchical_partition": "partition",
    "rebalance": "balance",
}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
