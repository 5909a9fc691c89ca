"""A single node: processor, caches, buses, memory and network interface."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.coherence.bus import NodeInterconnect
from repro.coherence.cache import CoherentCache, MainMemory
from repro.coherence.protocols import protocol_spec
from repro.common.addrmap import AddressMap, RegionAllocator
from repro.common.params import DRAM_BASE, DRAM_SIZE, MachineParams
from repro.common.types import AddressRange, AgentKind, BusKind
from repro.network.fabric import AbstractFabric
from repro.ni.taxonomy import TaxonomyError, create_ni, parse_ni_name, validate_ni_kwargs
from repro.node.processor import Processor
from repro.sim import Simulator


class NodeConfigError(ValueError):
    """Raised for invalid node configurations."""


#: Offset (in blocks) of the first workload/pointer DRAM allocation.  Chosen
#: so that DRAM allocations and the device-homed queue region never collide
#: in the direct-mapped processor cache (which would add conflict misses the
#: paper's system does not have).
DRAM_ALLOC_OFFSET_BLOCKS = 2048


@dataclass
class NodeConfig:
    """Per-node configuration: which NI to build and where to attach it."""

    ni_name: str = "CNI16Qm"
    ni_bus: BusKind = BusKind.MEMORY
    snarfing: bool = False
    ni_kwargs: Dict = field(default_factory=dict)

    def validate(self, protocol: str = "moesi") -> "NodeConfig":
        """Check the device, its bus placement and snarfing under coherence
        ``protocol``, for machine construction and spec validation alike."""
        # Bus-placement rules follow the parsed taxonomy axes, so they hold
        # across the whole generative space, not just the five paper names.
        # Custom registered devices with grammar-free names are conservative:
        # they skip the I/O-bus Qm rule (their homing is unknown) but are
        # rejected on the cache bus, which only models uncached word NIs.
        try:
            spec = parse_ni_name(self.ni_name)
        except TaxonomyError:
            spec = None
        if self.ni_bus is BusKind.CACHE and (
            spec is None or spec.coherent or spec.unit != "words"
        ):
            raise NodeConfigError(
                f"{self.ni_name}: only uncached word-exposed NIs (NI2w-style "
                f"NI{{n}}w devices) are modelled on the cache bus (paper Section 5)"
            )
        if self.ni_bus is BusKind.IO and spec is not None and spec.queue == "Qm":
            raise NodeConfigError(
                f"{self.ni_name}: memory-homed queues cannot be implemented on "
                f"current coherent I/O buses (paper Section 2.3)"
            )
        if self.snarfing and protocol_spec(protocol).directory:
            # Snarfing picks data off *broadcast* transactions, which a
            # directory protocol filters away from non-holders.
            raise NodeConfigError(
                f"{self.ni_name}: snarfing needs broadcast snoops; directory "
                f"protocol {protocol!r} filters them"
            )
        # Fail on unknown devices / unsupported device kwargs here, with a
        # TaxonomyError, rather than as a TypeError deep in create_ni().
        validate_ni_kwargs(self.ni_name, self.ni_kwargs)
        return self


class Node:
    """One node of the simulated parallel machine."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        params: MachineParams,
        fabric: AbstractFabric,
        config: Optional[NodeConfig] = None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.config = config or NodeConfig()  # validated by the machine
        self.addrmap = AddressMap.for_params(params)

        self.interconnect = NodeInterconnect(
            sim,
            params,
            self.addrmap,
            name=f"node{node_id}",
            with_io_bus=self.config.ni_bus is BusKind.IO,
            with_cache_bus=self.config.ni_bus is BusKind.CACHE,
        )
        self.memory = MainMemory(
            sim, f"node{node_id}.mem", self.interconnect, params, self.addrmap
        )
        self.proc_cache = CoherentCache(
            sim,
            f"node{node_id}.L1",
            self.interconnect,
            params,
            self.addrmap,
            size_bytes=params.processor_cache_bytes,
            agent_kind=AgentKind.PROCESSOR,
            bus_kind=BusKind.MEMORY,
            snarfing=self.config.snarfing,
        )
        self.processor = Processor(sim, node_id, self.proc_cache, params)

        # Main-memory allocator for queue pages, pointer blocks, software
        # buffers and workload data structures.
        alloc_start = DRAM_BASE + DRAM_ALLOC_OFFSET_BLOCKS * params.cache_block_bytes
        self.dram_allocator = RegionAllocator(
            AddressRange(alloc_start, DRAM_BASE + DRAM_SIZE), params.cache_block_bytes
        )

        self.ni = create_ni(
            self.config.ni_name,
            sim,
            node_id,
            params,
            self.addrmap,
            self.interconnect,
            fabric,
            bus_kind=self.config.ni_bus,
            dram_allocator=self.dram_allocator,
            **self.config.ni_kwargs,
        )
        self.ni.bind_processor_cache(self.proc_cache)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the NI device processes."""
        self.ni.start()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def memory_bus_occupancy(self) -> int:
        return self.interconnect.memory_bus_occupancy()

    def io_bus_occupancy(self) -> int:
        return self.interconnect.io_bus_occupancy()

    def stats_snapshot(self) -> Dict[str, Dict[str, int]]:
        return {
            "bus": self.interconnect.stats.as_dict(),
            "proc_cache": self.proc_cache.stats.as_dict(),
            "processor": self.processor.stats.as_dict(),
            "ni": self.ni.stats.as_dict(),
        }

    def __repr__(self) -> str:
        return f"<Node {self.node_id} {self.config.ni_name} on {self.config.ni_bus}>"
