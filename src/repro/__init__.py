"""repro — reproduction of "Coherent Network Interfaces for Fine-Grain
Communication" (Mukherjee, Falsafi, Hill & Wood, ISCA 1996).

The package is organised as:

* :mod:`repro.sim` — discrete-event simulation kernel,
* :mod:`repro.common` — machine parameters (Table 2), address map, enums,
* :mod:`repro.coherence` — MOESI snooping caches, buses, main memory,
* :mod:`repro.network` — pluggable interconnect fabrics (the paper's ideal
  fixed-latency model plus crossbar/mesh/torus with contention) and
  sliding-window flow control,
* :mod:`repro.ni` — the composable network-interface kit: port primitives
  (:mod:`repro.ni.primitives`), three device families over them, and a
  generative device registry (:mod:`repro.ni.registry`) that plans *any*
  legal taxonomy point, the five evaluated devices (NI2w, CNI4, CNI16Q,
  CNI512Q, CNI16Qm) included,
* :mod:`repro.node` — processor, node and machine assembly,
* :mod:`repro.msglayer` — Tempest-like active-message layer,
* :mod:`repro.apps` — the five macrobenchmark communication skeletons,
* :mod:`repro.experiments` — micro/macro benchmarks and figure/table
  regeneration,
* :mod:`repro.api` — the unified experiment layer: declarative
  :class:`~repro.api.ExperimentSpec`/:class:`~repro.api.SweepSpec` sweeps,
  a parallel, caching :class:`~repro.api.SweepRunner`, and structured
  :class:`~repro.api.ResultSet` results.
"""

from repro.api import (
    ExperimentSpec,
    ResultSet,
    RunResult,
    SweepRunner,
    SweepSpec,
    run_point,
)
from repro.common.params import DEFAULT_PARAMS, MachineParams
from repro.common.types import BusKind
from repro.network import (
    FabricSpec,
    available_fabrics,
    parse_fabric,
    register_fabric,
    unregister_fabric,
)
from repro.node.machine import Machine
from repro.node.node import NodeConfig
from repro.ni.registry import DeviceSpec
from repro.ni.taxonomy import (
    EVALUATED_DEVICES,
    available_devices,
    parse_ni_name,
    register_device,
    unregister_device,
)

__version__ = "1.2.0"

__all__ = [
    "MachineParams",
    "DEFAULT_PARAMS",
    "BusKind",
    "Machine",
    "NodeConfig",
    "EVALUATED_DEVICES",
    "parse_ni_name",
    "available_devices",
    "register_device",
    "unregister_device",
    "DeviceSpec",
    "FabricSpec",
    "parse_fabric",
    "available_fabrics",
    "register_fabric",
    "unregister_fabric",
    "ExperimentSpec",
    "SweepSpec",
    "SweepRunner",
    "RunResult",
    "ResultSet",
    "run_point",
    "__version__",
]
