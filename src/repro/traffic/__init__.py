"""Synthetic traffic generators as first-class workloads.

The paper's five macro skeletons are 1996 applications; ROADMAP item 3
asks whether its coherent-NI conclusions generalize to *wider* traffic.
This package answers with two families of seeded, deterministic pattern
workloads, registered under the ``traffic`` and ``fine-grain`` tags and
runnable through ``ExperimentSpec(kind="traffic", workload=<pattern>)``:

* **synthetic contention patterns** (:mod:`repro.traffic.synthetic`) —
  ``uniform`` random, ``hotspot``, ``transpose`` permutation and
  ``bursty`` on/off, the classic interconnect stress set that hammers
  mesh/torus link contention in ways the paper skeletons cannot;
* **modern fine-grain patterns** (:mod:`repro.traffic.finegrain`) —
  ``allreduce`` recursive doubling, ``halo`` exchange, ``psrpc``
  parameter-server RPC and ``kv`` key-value request/response.

Every pattern derives from :class:`repro.traffic.base.TrafficWorkload`,
which turns a per-node *plan* of paced sends and expected arrivals into
deterministic node programs (same seed, same messages — serially, under
``--jobs`` and through the experiment service).
"""

from repro.apps.registry import _WORKLOADS
from repro.traffic.base import Phase, Send, TrafficWorkload
from repro.traffic.finegrain import (
    AllreduceTraffic,
    HaloExchangeTraffic,
    KeyValueTraffic,
    ParameterServerTraffic,
)
from repro.traffic.measure import run_traffic_point
from repro.traffic.synthetic import (
    BurstyTraffic,
    HotspotTraffic,
    TransposeTraffic,
    UniformRandomTraffic,
)

# The shipped patterns are sealed built-ins whichever of repro.apps and
# repro.traffic is imported first; a plugin registered before this import
# stays a plugin.
_WORKLOADS.seal(*(cls.name for cls in (
    UniformRandomTraffic, HotspotTraffic, TransposeTraffic, BurstyTraffic,
    AllreduceTraffic, HaloExchangeTraffic, ParameterServerTraffic, KeyValueTraffic,
)))

__all__ = [
    "Phase",
    "Send",
    "TrafficWorkload",
    "UniformRandomTraffic",
    "HotspotTraffic",
    "TransposeTraffic",
    "BurstyTraffic",
    "AllreduceTraffic",
    "HaloExchangeTraffic",
    "ParameterServerTraffic",
    "KeyValueTraffic",
    "run_traffic_point",
]
