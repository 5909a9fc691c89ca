"""Macrobenchmark communication skeletons (Table 3 of the paper).

Workloads are looked up through the generative registry in
:mod:`repro.apps.registry`: ``workload_names("macro")`` lists the paper's
five in Table-3 order, ``workload_names("diagnostic")`` the rest.
Synthetic traffic generators register under their own tags from
:mod:`repro.traffic`.
"""

from repro.apps.appbt import AppbtWorkload
from repro.apps.em3d import Em3dWorkload
from repro.apps.gauss import GaussWorkload
from repro.apps.hang import HangWorkload
from repro.apps.moldyn import MoldynWorkload
from repro.apps.registry import (
    WorkloadError,
    WorkloadInfo,
    available_workloads,
    create_workload,
    register_workload,
    unregister_workload,
    workload_class,
    workload_names,
)
from repro.apps.registry import _WORKLOADS
from repro.apps.spsolve import SpsolveWorkload
from repro.apps.workload import Workload, WorkloadResult, poll_until

# The five paper macrobenchmarks register in the paper's (Table 3) order —
# registration order is enumeration order everywhere downstream.  ``hang``
# deliberately never completes (watchdog / chaos testing) and is tagged
# diagnostic: runnable through specs and ``create_workload`` but excluded
# from Table 3 and the figure sweeps.
for _cls, _tags in (
    (SpsolveWorkload, ("macro",)),
    (GaussWorkload, ("macro",)),
    (Em3dWorkload, ("macro",)),
    (MoldynWorkload, ("macro",)),
    (AppbtWorkload, ("macro",)),
    (HangWorkload, ("diagnostic",)),
):
    register_workload(tags=_tags)(_cls)
_WORKLOADS.seal()


__all__ = [
    "Workload",
    "WorkloadResult",
    "poll_until",
    "SpsolveWorkload",
    "GaussWorkload",
    "Em3dWorkload",
    "HangWorkload",
    "MoldynWorkload",
    "AppbtWorkload",
    "WorkloadError",
    "WorkloadInfo",
    "available_workloads",
    "create_workload",
    "register_workload",
    "unregister_workload",
    "workload_class",
    "workload_names",
]
