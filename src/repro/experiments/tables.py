"""Regeneration of the paper's tables (1–4) from the implementation.

Tables 1–3 are derived from the actual configuration objects and workload
metadata in this package (so they stay truthful to what the simulator
runs); Table 4 is the paper's qualitative comparison, reproduced verbatim
as structured data.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps import available_workloads
from repro.common.params import (
    CACHE_TO_CACHE_FROM_CNI_CYCLES,
    CACHE_TO_CACHE_TO_CNI_CYCLES,
    MEMORY_TO_CACHE_CYCLES,
    UNCACHED_LOAD_CYCLES,
    UNCACHED_STORE_CYCLES,
)
from repro.common.types import BusKind
from repro.ni.taxonomy import EVALUATED_DEVICES, available_devices


def table1_device_summary() -> List[Dict[str, str]]:
    """Table 1: summary of the five evaluated network interface devices.

    Derived from the device registry's parsed metadata, so the table stays
    truthful to what :func:`repro.ni.taxonomy.create_ni` actually builds.
    """
    metadata = {info.name: info for info in available_devices()}
    rows = []
    for name in EVALUATED_DEVICES:
        spec = metadata[name].spec
        unit = "cache blocks" if spec.unit == "blocks" else "words"
        rows.append(
            {
                "device": name,
                "exposed_queue_size": f"{spec.exposed_size} {unit}",
                "queue_pointers": "explicit" if spec.queue else "-",
                "home": "main memory" if spec.home == "memory" else "device",
                "coherent": "yes" if spec.coherent else "no",
            }
        )
    return rows


def table2_bus_occupancy() -> List[Dict[str, object]]:
    """Table 2: bus occupancy for NI and memory accesses, processor cycles."""
    def row(operation, table, io=True):
        return {
            "operation": operation,
            "cache_bus": table.get(BusKind.CACHE, ""),
            "memory_bus": table[BusKind.MEMORY],
            "io_bus": table[BusKind.IO] if io else "",
        }

    return [
        row("Uncached 8-byte load from NI", UNCACHED_LOAD_CYCLES),
        row("Uncached 8-byte store to NI", UNCACHED_STORE_CYCLES),
        row("Cache-to-cache transfer from CNI to processor (64 bytes)", CACHE_TO_CACHE_FROM_CNI_CYCLES),
        row("Cache-to-cache transfer from processor to CNI (64 bytes)", CACHE_TO_CACHE_TO_CNI_CYCLES),
        # The paper lists memory-to-cache transfers on the memory bus only.
        row("Memory-to-cache transfer (64 bytes)", MEMORY_TO_CACHE_CYCLES, io=False),
    ]


def table3_macrobenchmarks() -> List[Dict[str, str]]:
    """Table 3: macrobenchmark summary (name, key communication, input)."""
    rows = []
    for name, info in available_workloads("macro").items():
        workload = info.cls()
        rows.append(
            {
                "benchmark": name,
                "key_communication": workload.key_communication,
                "paper_input": workload.paper_input,
                "skeleton_input": workload.describe_input(),
            }
        )
    return rows


def table4_related_work() -> List[Dict[str, str]]:
    """Table 4: comparison of CNI with other network interfaces."""
    return [
        {"interface": "CNI", "coherence": "Yes", "caching": "Yes", "uniform_interface": "Memory Interface"},
        {"interface": "TMC CM-5", "coherence": "No", "caching": "No", "uniform_interface": "No"},
        {"interface": "Typhoon", "coherence": "Possible", "caching": "Possible", "uniform_interface": "Possible"},
        {"interface": "FLASH", "coherence": "Possible", "caching": "Possible", "uniform_interface": "Possible"},
        {"interface": "Meiko CS2", "coherence": "Possible", "caching": "No", "uniform_interface": "Possible"},
        {"interface": "Alewife", "coherence": "No", "caching": "No", "uniform_interface": "No"},
        {"interface": "FUGU", "coherence": "No", "caching": "No", "uniform_interface": "No"},
        {"interface": "StarT-NG", "coherence": "No", "caching": "Maybe", "uniform_interface": "No"},
        {"interface": "AP1000", "coherence": "No", "caching": "Sender", "uniform_interface": "No"},
        {"interface": "T-Zero", "coherence": "Partial", "caching": "Partial", "uniform_interface": "No"},
        {"interface": "SHRIMP", "coherence": "Yes", "caching": "Write Through", "uniform_interface": "No"},
        {"interface": "DI Multicomputer", "coherence": "No", "caching": "No", "uniform_interface": "Network Interface"},
    ]
