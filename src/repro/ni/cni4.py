"""The cachable-device-register family: CNI4 and its taxonomy relatives.

CDR devices extend the conventional NI with cachable device-register
blocks, so whole messages move across the bus in cache-block units, but
keep uncached status/control registers and therefore pay:

* an uncached status-register load on every poll and space check, and
* the explicit *three-cycle handshake* to reuse the receive CDRs after each
  message (uncached clear store, store-buffer drain, and an uncached status
  read that confirms the device's invalidation).

:class:`CdrNI` is the family: ``cdr_blocks`` cachable blocks per
direction, divided into message-sized slots with implicit round-robin
pointers.  ``CNI4`` — the paper's device — exposes a single message
per direction, so the processor must wait for the device to finish pulling
a sent message before the send CDRs can be reused: the source of CNI4's
bandwidth knee in Figure 7.  Larger family members (``CNI16``, ``CNI64``,
...) expose several slots and push that knee out without ever growing
explicit queue pointers.
"""

from __future__ import annotations

from repro.coherence.cache import CoherentCache
from repro.common.types import AGENT_NI_DEVICE
from repro.ni.base import AbstractNI, NIError
from repro.ni.primitives import CdrRecvPort, CdrSendPort


class CdrNI(AbstractNI):
    """CDR-based coherent NI exposing ``cdr_blocks`` blocks per direction."""

    #: CDR blocks per direction when not overridden (one 256-byte message).
    DEFAULT_CDR_BLOCKS = 4
    #: Messages the device can buffer internally behind the receive CDRs.
    DEFAULT_RECV_BUFFER_MESSAGES = 4

    def __init__(
        self,
        *args,
        cdr_blocks: int = DEFAULT_CDR_BLOCKS,
        recv_buffer_messages: int = DEFAULT_RECV_BUFFER_MESSAGES,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if recv_buffer_messages < 1:
            raise NIError(f"{self.taxonomy_name} needs at least one receive buffer slot")
        if self.params.blocks_per_network_message > cdr_blocks:
            raise NIError(
                f"{self.name}: a network message spans "
                f"{self.params.blocks_per_network_message} blocks but only "
                f"{cdr_blocks} CDR blocks are exposed per direction"
            )
        if cdr_blocks % self.params.blocks_per_network_message:
            raise NIError(
                f"{self.name}: {cdr_blocks} CDR blocks is not a whole number "
                f"of {self.params.blocks_per_network_message}-block message slots"
            )
        self.cdr_blocks = cdr_blocks
        self.recv_buffer_messages = recv_buffer_messages
        block_bytes = self.params.cache_block_bytes

        # Device-homed CDR blocks (send and receive directions).
        self.send_cdr_blocks = [
            self.allocate_device_blocks(1) for _ in range(cdr_blocks)
        ]
        self.recv_cdr_blocks = [
            self.allocate_device_blocks(1) for _ in range(cdr_blocks)
        ]

        # Uncached status/control registers.
        self.send_status_reg = self.allocate_uncached_register()
        self.send_ready_reg = self.allocate_uncached_register()
        self.recv_status_reg = self.allocate_uncached_register()
        self.recv_pop_reg = self.allocate_uncached_register()

        # The device cache backs both CDR sets.
        self.device_cache = CoherentCache(
            self.sim,
            f"{self.name}.cache",
            self.interconnect,
            self.params,
            self.addrmap,
            size_bytes=2 * cdr_blocks * block_bytes,
            agent_kind=AGENT_NI_DEVICE,
            bus_kind=self.bus_kind,
        )

        self.send_port = CdrSendPort(
            self, self.send_cdr_blocks, self.send_status_reg,
            self.send_ready_reg, self.device_cache,
        )
        self.recv_port = CdrRecvPort(
            self, self.recv_cdr_blocks, self.recv_status_reg,
            self.recv_pop_reg, self.device_cache, recv_buffer_messages,
        )

