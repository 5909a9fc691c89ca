"""The uncached-register device family: NI2w and its taxonomy relatives.

All processor/NI communication uses *uncached* loads and stores:

* send: uncached load of the send-status register to check for space, then
  one uncached 8-byte store per double word of the (header + payload)
  network message,
* receive: uncached load of the receive-status register to poll, then one
  uncached 8-byte load per double word of the message (reading the data
  register implicitly pops the hardware FIFO).

The device contains hardware FIFOs in both directions; when the receive
FIFO is full, arriving messages back up into the network (the extraction
process withholds the acknowledgement), which is what forces the software
flow-control buffering the paper describes.

:class:`UncachedNI` is the family: every ``NI{n}w``, ``NI{n}`` and
explicit-pointer ``NI{n}Q`` point of the taxonomy is an instance with
different FIFO sizing (see :mod:`repro.ni.registry`).  The paper's
CM-5-like ``NI2w`` is the instance with 4-message FIFOs.
"""

from __future__ import annotations

from typing import Optional

from repro.ni.base import AbstractNI, NIError
from repro.ni.primitives import UncachedRecvPort, UncachedSendPort


class UncachedNI(AbstractNI):
    """Program-controlled NI with uncached device registers.

    ``fifo_messages`` sizes the hardware FIFO per direction directly;
    alternatively ``queue_blocks`` sizes it as a whole number of network
    messages (the ``NI{n}``/``NI{n}Q`` block-exposed devices).  With
    ``explicit_pointers`` the device keeps memory-based queue pointers the
    processor must publish with one extra uncached store per send and per
    receive (the *T-NG ``NI{n}Q`` style).
    """

    #: Hardware FIFO capacity per direction, in network messages.  The CM-5
    #: NI buffers only a handful of messages in the device.
    DEFAULT_FIFO_MESSAGES = 4

    #: Alternative sizing axes; declared so ``validate_ni_kwargs`` rejects
    #: specs naming both *before* any machine assembly starts.
    EXCLUSIVE_NI_KWARGS = (("fifo_messages", "queue_blocks"),)

    def __init__(
        self,
        *args,
        fifo_messages: Optional[int] = None,
        queue_blocks: Optional[int] = None,
        explicit_pointers: bool = False,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if fifo_messages is not None and queue_blocks is not None:
            raise NIError(
                f"{self.name}: give either fifo_messages or queue_blocks, "
                f"not both (the word-exposed family is sized by "
                f"fifo_messages, the block-exposed family by queue_blocks)"
            )
        if fifo_messages is None:
            if queue_blocks is not None:
                bpm = self.params.blocks_per_network_message
                if queue_blocks < bpm or queue_blocks % bpm:
                    raise NIError(
                        f"{self.name}: a {queue_blocks}-block queue is not a "
                        f"whole positive number of {bpm}-block network messages"
                    )
                fifo_messages = queue_blocks // bpm
            else:
                fifo_messages = self.DEFAULT_FIFO_MESSAGES
        if fifo_messages < 1:
            raise NIError(f"{self.taxonomy_name} needs at least one FIFO slot per direction")
        self.fifo_messages = fifo_messages
        self.explicit_pointers = explicit_pointers

        # Device registers (addresses only; values are modelled functionally).
        self.send_status_reg = self.allocate_uncached_register()
        self.send_data_reg = self.allocate_uncached_register()
        self.recv_status_reg = self.allocate_uncached_register()
        self.recv_data_reg = self.allocate_uncached_register()
        tail_ptr_reg = head_ptr_reg = None
        if explicit_pointers:
            tail_ptr_reg = self.allocate_uncached_register()
            head_ptr_reg = self.allocate_uncached_register()

        self.send_port = UncachedSendPort(
            self, self.send_data_reg, self.send_status_reg,
            fifo_messages, tail_ptr_reg=tail_ptr_reg,
        )
        self.recv_port = UncachedRecvPort(
            self, self.recv_data_reg, self.recv_status_reg,
            fifo_messages, head_ptr_reg=head_ptr_reg,
        )
