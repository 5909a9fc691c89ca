"""Network substrate: pluggable fabrics and sliding-window flow control.

The paper's fixed-latency model is :class:`IdealFabric` (the default,
also reachable under its historical name :class:`NetworkFabric`);
topology-aware crossbar/mesh/torus models plug in through the fabric
registry, selected by ``MachineParams.fabric`` (grammar in
:mod:`repro.network.fabricspec`).
"""

from repro.network.fabric import (
    AbstractFabric,
    IdealFabric,
    NetworkError,
    NetworkFabric,
    SlidingWindow,
)
from repro.network.fabricspec import FabricError, FabricSpec
from repro.network.registry import (
    FabricInfo,
    available_fabrics,
    create_fabric,
    fabric_class,
    parse_fabric,
    register_fabric,
    unregister_fabric,
)
from repro.network.topology import CrossbarFabric, MeshFabric, TorusFabric

__all__ = [
    "AbstractFabric",
    "IdealFabric",
    "NetworkFabric",
    "CrossbarFabric",
    "MeshFabric",
    "TorusFabric",
    "NetworkError",
    "FabricError",
    "FabricSpec",
    "FabricInfo",
    "SlidingWindow",
    "parse_fabric",
    "fabric_class",
    "register_fabric",
    "unregister_fabric",
    "available_fabrics",
    "create_fabric",
]
