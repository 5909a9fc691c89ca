"""Physical address-map helpers.

Each simulated node has a private physical address space split into three
regions:

* main memory (DRAM), home = the node's memory controller,
* device-homed coherent blocks (CDRs and device-homed CQs), home = the NI,
* uncached NI registers (status, control, FIFO data ports).

The network interface only ever shares addresses with its local processor,
so the same layout is reused on every node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.common.params import (
    DRAM_BASE,
    DRAM_SIZE,
    NI_HOMED_BASE,
    NI_HOMED_SIZE,
    NI_UNCACHED_BASE,
    NI_UNCACHED_SIZE,
    MachineParams,
)
from repro.common.types import AddressRange


@dataclass(frozen=True)
class AddressMap:
    """Node-local physical address map."""

    dram: AddressRange
    ni_homed: AddressRange
    ni_uncached: AddressRange
    block_bytes: int

    @classmethod
    def for_params(cls, params: MachineParams) -> "AddressMap":
        return cls(
            dram=AddressRange(DRAM_BASE, DRAM_BASE + DRAM_SIZE),
            ni_homed=AddressRange(NI_HOMED_BASE, NI_HOMED_BASE + NI_HOMED_SIZE),
            ni_uncached=AddressRange(NI_UNCACHED_BASE, NI_UNCACHED_BASE + NI_UNCACHED_SIZE),
            block_bytes=params.cache_block_bytes,
        )

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def is_dram(self, address: int) -> bool:
        return self.dram.contains(address)

    def is_ni_homed(self, address: int) -> bool:
        return self.ni_homed.contains(address)

    def is_uncached(self, address: int) -> bool:
        return self.ni_uncached.contains(address)

    def is_cachable(self, address: int) -> bool:
        return self.is_dram(address) or self.is_ni_homed(address)

    # ------------------------------------------------------------------
    # Block arithmetic
    # ------------------------------------------------------------------
    def block_address(self, address: int) -> int:
        """Round an address down to its cache-block base."""
        return address - (address % self.block_bytes)

    def block_offset(self, address: int) -> int:
        return address % self.block_bytes

    def blocks_covering(self, address: int, size: int) -> Iterator[int]:
        """Yield the block base addresses touched by [address, address+size)."""
        if size <= 0:
            return
        first = self.block_address(address)
        last = self.block_address(address + size - 1)
        block = first
        while block <= last:
            yield block
            block += self.block_bytes


class RegionAllocator:
    """Simple bump allocator for carving buffers out of an address region."""

    def __init__(self, region: AddressRange, block_bytes: int):
        self._region = region
        self._block_bytes = block_bytes
        self._next = region.start

    def allocate(self, size: int, align_to_block: bool = True) -> int:
        """Allocate ``size`` bytes; returns the base address."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if align_to_block and self._next % self._block_bytes:
            self._next += self._block_bytes - (self._next % self._block_bytes)
        base = self._next
        if base + size > self._region.end:
            raise MemoryError(
                f"region exhausted: need {size} bytes at {base:#x}, "
                f"region ends at {self._region.end:#x}"
            )
        self._next = base + size
        return base

    def allocate_blocks(self, num_blocks: int) -> int:
        return self.allocate(num_blocks * self._block_bytes, align_to_block=True)
