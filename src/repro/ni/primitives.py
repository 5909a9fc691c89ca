"""Primitive mechanisms of the NI taxonomy, as composable ports.

The paper's design space (Section 3) is spanned by a handful of orthogonal
mechanisms, not by whole devices:

* how the message region is **exposed** to the processor — uncached device
  registers sized in words, cachable device registers (CDRs) sized in
  blocks, or cachable queues (CQs);
* the **pointer policy** — implicit pointers (hardware FIFO order, CDR
  slots) versus explicit queue pointers, optionally read lazily through a
  shadow copy;
* the **homing** of the exposed region — on the device or in main memory;
* whether accesses are **coherent** (cached, snooped) or uncached.

This module implements each mechanism once, as a *send port* or *receive
port* primitive.  A network interface is then just a pairing of ports over
the shared :class:`~repro.ni.base.AbstractNI` infrastructure, and every
point of the taxonomy is built from the plan :mod:`repro.ni.registry`
derives from its name.  The five devices evaluated in the paper
(``NI2w``, ``CNI4``, ``CNI16Q``, ``CNI512Q``, ``CNI16Qm``) are pinned to
golden stats in the test suite, so the ports are held cycle-exact.

Ports do **not** allocate addresses or build caches themselves: address
layout is decided by the owning device (allocation order determines cache
conflict behaviour, which must stay reproducible), and the resulting
registers, CDR block lists, queues and device caches are handed to the
port constructors.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.common.params import BLOCK_COPY_CYCLES, UNCACHED_WORD_PROCESSING_CYCLES
from repro.common.types import STATE_INVALID, NetworkMessage
from repro.ni.base import DEVICE_PROCESSING_CYCLES
from repro.sim import Signal


def slot_block_prefixes(blocks: List[int], blocks_per_slot: int) -> List[List[List[int]]]:
    """Per-slot prefix lists of block addresses.

    ``result[slot][n - 1]`` is the first ``n`` block addresses of ``slot``;
    the lists are shared, callers iterate but never mutate them.  The same
    layout trick :class:`~repro.ni.cq.CachableQueue` uses internally, here
    for CDR regions.
    """
    prefixes: List[List[List[int]]] = []
    for start in range(0, len(blocks) - blocks_per_slot + 1, blocks_per_slot):
        addrs = blocks[start:start + blocks_per_slot]
        prefixes.append([addrs[:n] for n in range(1, blocks_per_slot + 1)])
    return prefixes


class SendPort(abc.ABC):
    """Processor→network half of a device: accepts messages, injects them."""

    #: True when a *blocked* send retry is a pure cached check, so the
    #: retry spin can be elided into a blocking wait on the device's
    #: arrival signal (see :mod:`repro.sim.spinwait`).  Ports whose space
    #: check is an uncached register access must keep spinning.
    elidable = False

    def __init__(self, ni):
        self.ni = ni

    def spin_steady(self) -> bool:
        """True while a blocked-send retry would provably fail identically.

        Only meaningful on ``elidable`` ports; the default is never steady.
        """
        return False

    def device_idle(self) -> bool:
        """True while the injection side cannot use the node bus until the
        processor hands it another message.

        An uncached-status poller sleeps only while this holds (see
        :class:`UncachedRecvPort` and :class:`CdrRecvPort`); the default,
        never idle, keeps it spinning beside an unknown send port.
        """
        return False

    @abc.abstractmethod
    def proc_try_send(self, message: NetworkMessage):
        """Generator: processor-side send; returns True if accepted."""

    @abc.abstractmethod
    def injection_process(self):
        """Generator process moving accepted messages onto the wire."""

    def uncached_write(self, address: int) -> None:
        """Uncached-register write hook (dispatched from the device)."""

    def uncached_read(self, address: int) -> None:
        """Uncached-register read hook (dispatched from the device)."""


class RecvPort(abc.ABC):
    """Network→processor half of a device: accepts arrivals, hands them up."""

    #: True when a steady *empty*-poll spin can be elided into a blocking
    #: wait on the device's arrival signal (see :mod:`repro.sim.spinwait`).
    #: A cached empty poll (the paper's virtual polling) touches no bus and
    #: elides as it is.  An uncached status poll occupies the bus on every
    #: iteration; it elides only with delivery notices (``polls_uncached``):
    #: the wait sleeps until the fabric announces a message to the node,
    #: and arms only when the poll observes sooner after its start than an
    #: announced message can become visible.
    elidable = False
    #: True when the empty poll is an uncached status-register read, so its
    #: guard needs delivery notices and a lead (see above).
    polls_uncached = False

    def __init__(self, ni):
        self.ni = ni

    def spin_steady(self) -> bool:
        """True while an empty poll would provably repeat identically.

        Only meaningful on ``elidable`` ports; the default is never steady.
        """
        return False

    @abc.abstractmethod
    def proc_poll(self):
        """Generator: processor-side poll; returns a message or None."""

    @abc.abstractmethod
    def extraction_process(self):
        """Generator process accepting network arrivals into the port."""

    def uncached_write(self, address: int) -> None:
        """Uncached-register write hook (dispatched from the device)."""

    def uncached_read(self, address: int) -> None:
        """Uncached-register read hook (dispatched from the device)."""


# ----------------------------------------------------------------------
# Uncached word-at-a-time exposure (NI2w, NI16w, NI128Q, ...)
# ----------------------------------------------------------------------
class UncachedSendPort(SendPort):
    """Program-controlled send through uncached device registers.

    One uncached status load checks for space, then one uncached 8-byte
    store per double word of the message.  With ``tail_ptr_reg`` set the
    queue is *explicitly pointed* (the *T-NG style ``NI{n}Q`` devices): the
    processor additionally publishes its new tail with one uncached store
    per message.
    """

    def __init__(
        self,
        ni,
        data_reg: int,
        status_reg: int,
        fifo_messages: int,
        tail_ptr_reg: Optional[int] = None,
    ):
        super().__init__(ni)
        self.data_reg = data_reg
        self.status_reg = status_reg
        self.fifo_messages = fifo_messages
        self.tail_ptr_reg = tail_ptr_reg
        self.fifo: Deque[NetworkMessage] = deque()
        self.fifo_signal = Signal(ni.sim, name=f"{ni.name}.send-fifo")

    def device_idle(self) -> bool:
        # Injection moves words from the device FIFO to the wire: no bus.
        return True

    def proc_try_send(self, message: NetworkMessage):
        ni = self.ni
        # 1. Check the send-status register for space in the hardware FIFO
        #    (for explicit-pointer devices this is the head-pointer read).
        yield from ni.uncached_load(self.status_reg)
        if len(self.fifo) >= self.fifo_messages:
            ni.stats.add("send_full")
            return False
        # 2. Write the message, one uncached double-word store at a time
        #    (each word also costs the user-buffer load and loop overhead).
        for _ in range(ni.words_for(message)):
            yield from ni.uncached_store(self.data_reg)
            yield UNCACHED_WORD_PROCESSING_CYCLES
        # 3. Explicit-pointer devices publish the new tail pointer.
        if self.tail_ptr_reg is not None:
            yield from ni.uncached_store(self.tail_ptr_reg)
        message.send_time = ni.sim.now
        self.fifo.append(message)
        ni.stats.add("messages_sent")
        self.fifo_signal.fire()
        return True

    def injection_process(self):
        ni = self.ni
        while True:
            if not self.fifo:
                yield self.fifo_signal
                continue
            message = self.fifo[0]
            yield from ni._wait_for_window(message.dest)
            yield DEVICE_PROCESSING_CYCLES
            self.fifo.popleft()
            ni._inject(message)
            # Removing the message frees FIFO space for the processor.
            self.fifo_signal.fire()


class UncachedRecvPort(RecvPort):
    """Program-controlled receive through uncached device registers.

    One uncached status load polls for a message, then one uncached 8-byte
    load per double word (reading the data register implicitly pops the
    hardware FIFO).  With ``head_ptr_reg`` set the pop is *explicit*: the
    processor publishes the consumed head with one more uncached store.
    """

    elidable = True
    polls_uncached = True

    def __init__(
        self,
        ni,
        data_reg: int,
        status_reg: int,
        fifo_messages: int,
        head_ptr_reg: Optional[int] = None,
    ):
        super().__init__(ni)
        self.data_reg = data_reg
        self.status_reg = status_reg
        self.fifo_messages = fifo_messages
        self.head_ptr_reg = head_ptr_reg
        self.fifo: Deque[NetworkMessage] = deque()
        self.space_signal = Signal(ni.sim, name=f"{ni.name}.recv-space")

    def spin_steady(self) -> bool:
        """An empty poll repeats identically while the FIFO is empty,
        nothing announced to this node is still on its way (in the fabric,
        in ``_net_in`` or being accepted) and the send side is idle.  The
        device side then has no work, so the poller is the only agent on
        its bus."""
        ni = self.ni
        return not self.fifo and not ni.announced and ni.send_port.device_idle()

    def proc_poll(self):
        ni = self.ni
        # 1. Poll the receive-status register.
        yield from ni.uncached_load(self.status_reg)
        ni._counts["polls"] += 1
        if not self.fifo:
            ni._counts["empty_polls"] += 1
            return None
        # 2. Read the message out of the hardware FIFO (implicit pop), one
        #    uncached double-word load at a time plus the user-buffer store.
        message = self.fifo.popleft()
        for _ in range(ni.words_for(message)):
            yield from ni.uncached_load(self.data_reg)
            yield UNCACHED_WORD_PROCESSING_CYCLES
        # 3. Explicit-pointer devices publish the consumed head pointer.
        if self.head_ptr_reg is not None:
            yield from ni.uncached_store(self.head_ptr_reg)
        ni.stats.add("messages_received")
        self.space_signal.fire()
        return message

    def extraction_process(self):
        ni = self.ni
        while True:
            if not ni._net_in:
                yield ni._net_in_signal
                continue
            if len(self.fifo) >= self.fifo_messages:
                # Receive FIFO full: the message stays in the network until
                # the processor drains the FIFO (backpressure).
                ni.stats.add("recv_fifo_full_stalls")
                yield self.space_signal
                continue
            message = ni._net_in.popleft()
            yield DEVICE_PROCESSING_CYCLES
            self.fifo.append(message)
            ni._note_visible()
            ni.stats.add("messages_accepted")
            ni._ack(message)
            ni.arrival_signal.fire()


# ----------------------------------------------------------------------
# Cachable device registers with implicit pointers (CNI4, CNI16, ...)
# ----------------------------------------------------------------------
class CdrSendPort(SendPort):
    """Send through cachable device registers (implicit slot pointers).

    The CDR region is divided into message-sized slots used in round-robin
    order (one slot for ``CNI4``).  Whole messages move across the bus in
    cache-block units, but the device keeps uncached status/control
    registers, so every space check pays an uncached load and every commit
    an uncached message-ready store behind a store-buffer drain.
    """

    def __init__(
        self,
        ni,
        cdr_blocks: List[int],
        status_reg: int,
        ready_reg: int,
        device_cache,
    ):
        super().__init__(ni)
        blocks_per_slot = ni.params.blocks_per_network_message
        self.cdr_blocks = cdr_blocks
        self.slots = len(cdr_blocks) // blocks_per_slot
        self.status_reg = status_reg
        self.ready_reg = ready_reg
        self.cache = device_cache
        self._slot_prefixes = slot_block_prefixes(cdr_blocks, blocks_per_slot)
        self._pending: Deque[Tuple[NetworkMessage, int]] = deque()
        self._next_slot = 0
        self.ready_signal = Signal(ni.sim, name=f"{ni.name}.send-ready")

    def uncached_write(self, address: int) -> None:
        if address == self.ready_reg:
            self.ni.stats.add("send_ready_signals")
            self.ready_signal.fire()

    def proc_try_send(self, message: NetworkMessage):
        ni = self.ni
        proc = ni._processor_agent()
        # 1. Check the uncached send-status register: is a send slot free?
        yield from ni.uncached_load(self.status_reg)
        if len(self._pending) >= self.slots:
            ni.stats.add("send_full")
            return False
        # 2. Write the message into the slot's CDR blocks, a whole block at
        #    a time, copying the data out of the user buffer.
        slot = self._next_slot
        for addr in self._slot_prefixes[slot][ni.blocks_for(message) - 1]:
            yield from proc.write_block(addr)
            yield BLOCK_COPY_CYCLES
        message.send_time = ni.sim.now
        self._pending.append((message, slot))
        self._next_slot = (slot + 1) % self.slots
        # 3. Commit with an uncached store (and drain the store buffer so
        #    the device is guaranteed to observe it).
        yield from ni.memory_barrier()
        yield from ni.uncached_store(self.ready_reg)
        ni.stats.add("messages_sent")
        return True

    def injection_process(self):
        ni = self.ni
        while True:
            if not self._pending:
                yield self.ready_signal
                continue
            message, slot = self._pending[0]
            yield from ni._wait_for_window(message.dest)
            # Pull the CDR blocks out of the processor cache.  Injection is
            # cut-through: the message starts down the wire after the first
            # block; the remaining blocks stream behind it (but the slot is
            # not free for reuse until the whole pull has finished).
            blocks = self._slot_prefixes[slot][ni.blocks_for(message) - 1]
            yield from self.cache.read_block(blocks[0])
            yield DEVICE_PROCESSING_CYCLES
            ni._inject(message)
            for addr in blocks[1:]:
                yield from self.cache.read_block(addr)
            self._pending.popleft()
            # Freeing the slot lets a spinning sender proceed.
            self.ready_signal.fire()

    def device_idle(self) -> bool:
        # A committed message stays pending until its pull has finished.
        return not self._pending


class CdrRecvPort(RecvPort):
    """Receive through cachable device registers with the explicit pop
    handshake of paper Section 2.1.

    The device buffers arrivals internally and exposes them, one per CDR
    slot, in round-robin order.  After reading a message the processor must
    explicitly pop it — an uncached clear store, a store-buffer drain and
    an uncached status read confirming the device's invalidation — before
    the slot can carry the next message.
    """

    elidable = True
    polls_uncached = True

    def __init__(
        self,
        ni,
        cdr_blocks: List[int],
        status_reg: int,
        pop_reg: int,
        device_cache,
        buffer_messages: int,
    ):
        super().__init__(ni)
        blocks_per_slot = ni.params.blocks_per_network_message
        self.cdr_blocks = cdr_blocks
        self.slots = len(cdr_blocks) // blocks_per_slot
        self.status_reg = status_reg
        self.pop_reg = pop_reg
        self.cache = device_cache
        self.buffer_messages = buffer_messages
        self._slot_prefixes = slot_block_prefixes(cdr_blocks, blocks_per_slot)
        self._buffer: Deque[NetworkMessage] = deque()
        self._exposed: Deque[Tuple[NetworkMessage, int]] = deque()
        self._next_slot = 0
        self.pop_signal = Signal(ni.sim, name=f"{ni.name}.recv-pop")
        self.drained_signal = Signal(ni.sim, name=f"{ni.name}.recv-drained")

    def spin_steady(self) -> bool:
        """An empty poll repeats identically while no message is exposed,
        nothing announced to this node is still on its way and the send
        side is idle.  The device side then has no bus work: the announced
        count also covers a message sitting in the buffer or being written
        into a CDR slot, since it drops only at exposure."""
        ni = self.ni
        return not self._exposed and not ni.announced and ni.send_port.device_idle()

    def uncached_write(self, address: int) -> None:
        if address == self.pop_reg:
            self.ni.stats.add("recv_pops")
            if self._exposed:
                self._exposed.popleft()
            self.pop_signal.fire()

    def proc_poll(self):
        ni = self.ni
        proc = ni._processor_agent()
        # 1. Poll the uncached receive-status register (28 cycles on the
        #    memory bus every time — the cost CDR-only designs cannot avoid).
        yield from ni.uncached_load(self.status_reg)
        ni._counts["polls"] += 1
        if not self._exposed:
            ni._counts["empty_polls"] += 1
            return None
        # 2. Read the message out of the slot's CDR blocks (cache-to-cache
        #    transfers from the device cache), copying to the user buffer.
        message, slot = self._exposed[0]
        for addr in self._slot_prefixes[slot][ni.blocks_for(message) - 1]:
            yield from proc.read_block(addr)
            yield BLOCK_COPY_CYCLES
        # 3. Explicit pop: the three-cycle handshake of Section 2.1.
        yield from ni.uncached_store(self.pop_reg)
        yield from ni.memory_barrier()
        yield from ni.uncached_load(self.status_reg)
        ni.stats.add("messages_received")
        return message

    def extraction_process(self):
        ni = self.ni
        while True:
            # Accept arrivals into the device buffer while there is room.
            if ni._net_in and len(self._buffer) < self.buffer_messages:
                message = ni._net_in.popleft()
                yield DEVICE_PROCESSING_CYCLES
                self._buffer.append(message)
                ni.stats.add("messages_accepted")
                ni._ack(message)
                self.drained_signal.fire()
                continue
            # Expose the next buffered message through a free CDR slot.
            if self._buffer and len(self._exposed) < self.slots:
                message = self._buffer.popleft()
                slot = self._next_slot
                # Writing the CDR blocks invalidates the processor's stale
                # copies — the device side of the reuse handshake.
                for addr in self._slot_prefixes[slot][ni.blocks_for(message) - 1]:
                    yield from self.cache.write_block_full(addr)
                yield DEVICE_PROCESSING_CYCLES
                self._exposed.append((message, slot))
                ni._note_visible()
                self._next_slot = (slot + 1) % self.slots
                self.drained_signal.fire()
                ni.arrival_signal.fire()
                continue
            # Nothing to do: wait for an arrival or a pop.
            if not ni._net_in and not self._buffer:
                yield ni._net_in_signal
            elif len(self._exposed) >= self.slots:
                yield self.pop_signal
            else:
                yield ni._net_in_signal


# ----------------------------------------------------------------------
# Cachable queues with explicit lazy pointers (CNI16Q, CNI512Q, CNI16Qm)
# ----------------------------------------------------------------------
class CqSendPort(SendPort):
    """Send through a cachable queue with lazy explicit pointers.

    The processor checks its lazy shadow of the device-written head
    pointer, writes the message blocks, bumps its private tail pointer and
    issues one uncached message-ready store.  The device pulls the blocks
    out of the processor cache and injects them.
    """

    #: A blocked retry re-reads the tail pointer and the head-pointer shadow
    #: — cache hits while the device has not advanced the head — so the
    #: retry spin is elidable (virtual polling on the send side).
    elidable = True

    def __init__(self, ni, queue, device_cache, ptr_cache, ready_reg: int):
        super().__init__(ni)
        self.queue = queue
        self.cache = device_cache
        self.ptr_cache = ptr_cache
        self.ready_reg = ready_reg
        self.ready_signal = Signal(ni.sim, name=f"{ni.name}.send-ready")
        #: True while the injection process is mid-message (pulling blocks /
        #: about to dequeue).  A retry a cycle or two into an iteration can
        #: already observe the dequeue, so a blocked sender must spin for
        #: real — not sleep — while a pull is in flight.
        self._pulling = False

    def spin_steady(self) -> bool:
        """A retry stays a pure failure while the queue is actually full,
        the device is not mid-pull, and the pointer blocks the retry reads
        are still cached (a device head advance invalidates the head-pointer
        block and wakes the waiter)."""
        sq = self.queue
        if self._pulling or sq.occupancy < sq.capacity:
            return False
        cache = self.ni._proc_cache
        return (
            cache.probe_state(sq.head_ptr_addr) is not STATE_INVALID
            and cache.probe_state(sq.tail_ptr_addr) is not STATE_INVALID
        )

    def device_idle(self) -> bool:
        # The device pulls every queued message over the bus, and _pulling
        # covers the head-pointer write after the dequeue.
        return not self._pulling and self.queue.empty()

    def uncached_write(self, address: int) -> None:
        if address == self.ready_reg:
            self.ni.stats.add("message_ready_signals")
            self.ready_signal.fire()

    def proc_try_send(self, message: NetworkMessage):
        ni = self.ni
        proc = ni._processor_agent()
        sq = self.queue
        # 1. Space check against the lazy shadow of the device-written head.
        #    The tail pointer and shadow live in the sender's private block.
        yield from proc.read_block(sq.tail_ptr_addr)
        if sq.full_by_shadow():
            ni.stats.add("send_shadow_refreshes")
            yield from proc.read_block(sq.head_ptr_addr)
            sq.refresh_shadow()
            if sq.full_by_shadow():
                ni.stats.add("send_full")
                return False
        # 2. Write the message into the queue entry, one block at a time,
        #    copying the data out of the user buffer.
        slot = sq.tail_index()
        for addr in sq.entry_block_addrs(slot, ni.blocks_for(message)):
            yield from proc.write_block(addr)
            yield BLOCK_COPY_CYCLES
        message.send_time = ni.sim.now
        sq.enqueue(message)
        # 3. Bump the private tail pointer (cache hit).
        yield from proc.write_block(sq.tail_ptr_addr)
        # 4. Message-ready signal: one uncached store to the device.
        yield from ni.uncached_store(self.ready_reg)
        ni.stats.add("messages_sent")
        return True

    def injection_process(self):
        ni = self.ni
        sq = self.queue
        while True:
            if sq.empty():
                yield self.ready_signal
                continue
            slot = sq.head_index()
            message = sq.entries[slot].message
            yield from ni._wait_for_window(message.dest)
            # Pull the message blocks out of the processor cache.  Injection
            # is cut-through: once the first block has been read the message
            # starts down the wire and the remaining blocks stream behind it.
            # The pull's first bus read snoops the processor cache, so a
            # sleeping blocked sender is woken before the dequeue below can
            # become observable; _pulling keeps it spinning for real until
            # the whole hand-off (including the pointer write) is done.
            self._pulling = True
            blocks = sq.entry_block_addrs(slot, ni.blocks_for(message))
            yield from self.cache.read_block(blocks[0])
            yield DEVICE_PROCESSING_CYCLES
            ni._inject(message)
            for addr in blocks[1:]:
                yield from self.cache.read_block(addr)
            sq.dequeue()
            # The freed slot is observable immediately: a retry whose
            # head-pointer block is still cached refreshes its shadow from
            # the functional queue state before the pointer write below
            # lands on the bus.  Wake blocked senders now, not at snoop
            # time, so an elided wait resumes at the same iteration the
            # spinning sender would have.
            ni.arrival_signal.fire()
            # Advance the device-written head pointer so the processor's
            # lazy shadow can eventually observe the free space.
            yield from self.ptr_cache.write_block(sq.head_ptr_addr)
            self._pulling = False


class CqRecvPort(RecvPort):
    """Receive through a cachable queue with valid words and sense reverse.

    The device checks its lazy shadow of the processor-written head
    pointer, writes the message blocks (whole blocks, so misses cost only
    an invalidation) and commits the valid word last.  The processor polls
    the valid word of the head entry — a cache hit while the queue is
    empty — and reads the message blocks on arrival.  The queue may be
    homed on the device or in main memory; homing is an address-layout
    decision made by the owning device, invisible to this port.
    """

    #: An empty poll examines the valid word of the head entry — a cache
    #: hit while the queue is empty (the paper's virtual polling) — so the
    #: poll spin is elidable into a blocking wait.
    elidable = True

    def __init__(self, ni, queue, device_cache, ptr_cache):
        super().__init__(ni)
        self.queue = queue
        self.cache = device_cache
        self.ptr_cache = ptr_cache
        self.head_advanced = Signal(ni.sim, name=f"{ni.name}.head-advanced")

    def spin_steady(self) -> bool:
        """A poll stays a pure empty hit while no message is visible at the
        head entry and the processor still caches its valid-word block (the
        device's message write invalidates that block and wakes the
        waiter)."""
        rq = self.queue
        if rq.peek() is not None:
            return False
        state = self.ni._proc_cache.probe_state(rq.valid_word_addr(rq.head_index()))
        return state is not STATE_INVALID

    def proc_poll(self):
        ni = self.ni
        proc = ni._processor_agent()
        rq = self.queue
        slot = rq.head_index()
        # 1. Examine the valid word of the head entry; hits in the cache
        #    while the queue is empty, misses when the device wrote a new
        #    message (the write invalidated our copy).
        yield from proc.read_block(rq.valid_word_addr(slot))
        ni._counts["polls"] += 1
        message = rq.peek()
        if message is None:
            ni._counts["empty_polls"] += 1
            return None
        # 2. Read the rest of the message blocks, copying each into the
        #    user-level buffer.
        yield BLOCK_COPY_CYCLES
        for addr in rq.entry_block_addrs(slot, ni.blocks_for(message))[1:]:
            yield from proc.read_block(addr)
            yield BLOCK_COPY_CYCLES
        rq.dequeue()
        # 3. Advance the head pointer (receiver-private block, usually a hit).
        yield from proc.write_block(rq.head_ptr_addr)
        self.head_advanced.fire()
        ni.stats.add("messages_received")
        return message

    def extraction_process(self):
        ni = self.ni
        rq = self.queue
        while True:
            if not ni._net_in:
                yield ni._net_in_signal
                continue
            # Space check against the device's lazy shadow of the processor
            # head pointer.
            if rq.full_by_shadow():
                ni.stats.add("recv_shadow_refreshes")
                yield from self.ptr_cache.read_block(rq.head_ptr_addr)
                rq.refresh_shadow()
                if rq.full_by_shadow():
                    # Receive queue genuinely full: back-pressure the network
                    # until the processor drains a message.
                    ni.stats.add("recv_queue_full_stalls")
                    yield self.head_advanced
                    continue
            message = ni._net_in.popleft()
            slot = rq.tail_index()
            blocks = rq.entry_block_addrs(slot, ni.blocks_for(message))
            # Write the message body first, then commit the valid word by
            # re-touching the first block (normally a device-cache hit).
            for addr in blocks:
                yield from self.cache.write_block_full(addr)
            yield from self.cache.write_block(blocks[0])
            yield DEVICE_PROCESSING_CYCLES
            rq.enqueue(message)
            ni.stats.add("messages_accepted")
            ni._ack(message)
            ni.arrival_signal.fire()
