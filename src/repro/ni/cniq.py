"""The cachable-queue family: CNI16Q, CNI512Q, CNI16Qm and every CNI{n}Q[m].

Each direction (send and receive) is a cachable queue of 256-byte network
messages (4 cache blocks per entry).  The processor and the device
communicate purely through coherent block accesses plus one uncached
"message ready" store per send (paper Section 3):

* **send queue** (processor → device): the processor checks its lazy shadow
  of the device-written head pointer, writes the message blocks, bumps its
  private tail pointer and issues the uncached message-ready store.  The
  device pulls the blocks out of the processor cache and injects them.
* **receive queue** (device → processor): the device checks its lazy shadow
  of the processor-written head pointer, writes the message blocks (whole
  blocks, so misses cost only an invalidation) and commits the valid word
  last.  The processor polls the valid word of the head entry — a cache hit
  while the queue is empty — and reads the message blocks on arrival.

``CNI16Q`` and ``CNI512Q`` home both queues on the device; ``CNI16Qm``
homes the receive queue in main memory with a 16-block device cache in
front of it, so bursts overflow smoothly to memory instead of backing up
the network (the paper studies memory buffering on the receive side only;
the send queue stays device-homed).  Each name's sizing is its plan in
:mod:`repro.ni.registry`.  The mechanisms themselves (lazy pointers, valid words, sense
reverse) live in :mod:`repro.ni.primitives` and :mod:`repro.ni.cq`; this
module only decides the address layout and the queue/cache sizing.
"""

from __future__ import annotations

from typing import Literal, Optional

from repro.coherence.cache import CoherentCache
from repro.common.types import AGENT_NI_DEVICE
from repro.ni.base import AbstractNI, NIError
from repro.ni.cq import CachableQueue
from repro.ni.primitives import CqRecvPort, CqSendPort


class CoherentQueueNI(AbstractNI):
    """Generic CQ-based CNI, parameterized by queue and device-cache sizes."""

    def __init__(
        self,
        *args,
        send_queue_blocks: int = 16,
        recv_queue_blocks: int = 16,
        recv_cache_blocks: Optional[int] = None,
        recv_home: Literal["device", "memory"] = "device",
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if recv_home not in ("device", "memory"):
            raise NIError(f"unknown receive-queue home {recv_home!r}")
        self.recv_home = recv_home
        blocks_per_entry = self.params.blocks_per_network_message
        if send_queue_blocks % blocks_per_entry or recv_queue_blocks % blocks_per_entry:
            raise NIError("queue sizes must be whole network messages")
        if recv_cache_blocks is None:
            recv_cache_blocks = recv_queue_blocks
        block_bytes = self.params.cache_block_bytes

        # --- Address allocation ----------------------------------------
        # Layout order is part of the device's observable behaviour (it
        # determines conflict misses), so it is decided here, not in ports.
        send_base = self.allocate_device_blocks(send_queue_blocks)
        if recv_home == "device":
            recv_base = self.allocate_device_blocks(recv_queue_blocks)
        else:
            recv_base = self.allocate_dram_blocks(recv_queue_blocks)
        # Pointer blocks live in ordinary main memory (they are plain
        # cachable memory shared by processor and device).
        self.send_head_ptr_addr = self.allocate_dram_blocks(1)
        self.send_tail_ptr_addr = self.allocate_dram_blocks(1)
        self.recv_head_ptr_addr = self.allocate_dram_blocks(1)
        self.msg_ready_reg = self.allocate_uncached_register()

        # --- Functional queue state --------------------------------------
        self.send_q = CachableQueue(
            name=f"{self.name}.sendq",
            base_addr=send_base,
            num_blocks=send_queue_blocks,
            blocks_per_entry=blocks_per_entry,
            block_bytes=block_bytes,
            head_ptr_addr=self.send_head_ptr_addr,
            tail_ptr_addr=self.send_tail_ptr_addr,
        )
        self.recv_q = CachableQueue(
            name=f"{self.name}.recvq",
            base_addr=recv_base,
            num_blocks=recv_queue_blocks,
            blocks_per_entry=blocks_per_entry,
            block_bytes=block_bytes,
            head_ptr_addr=self.recv_head_ptr_addr,
            tail_ptr_addr=0,  # the device tail is internal device state
        )

        # --- Device caches ------------------------------------------------
        self.send_cache = CoherentCache(
            self.sim,
            f"{self.name}.send-cache",
            self.interconnect,
            self.params,
            self.addrmap,
            size_bytes=send_queue_blocks * block_bytes,
            agent_kind=AGENT_NI_DEVICE,
            bus_kind=self.bus_kind,
        )
        self.recv_cache = CoherentCache(
            self.sim,
            f"{self.name}.recv-cache",
            self.interconnect,
            self.params,
            self.addrmap,
            size_bytes=recv_cache_blocks * block_bytes,
            agent_kind=AGENT_NI_DEVICE,
            bus_kind=self.bus_kind,
        )
        self.ptr_cache = CoherentCache(
            self.sim,
            f"{self.name}.ptr-cache",
            self.interconnect,
            self.params,
            self.addrmap,
            size_bytes=4 * block_bytes,
            agent_kind=AGENT_NI_DEVICE,
            bus_kind=self.bus_kind,
        )

        self.send_port = CqSendPort(
            self, self.send_q, self.send_cache, self.ptr_cache, self.msg_ready_reg,
        )
        self.recv_port = CqRecvPort(self, self.recv_q, self.recv_cache, self.ptr_cache)

