"""Tempest-like user-level messaging layer built on the NI devices.

The macrobenchmarks in the paper run on the Tempest parallel programming
interface and communicate through active messages (plus custom protocols
built from them).  This module provides that layer:

* **active messages** — ``send_active_message`` fragments a user message
  into fixed 256-byte network messages (12-byte header), sends them through
  the NI and invokes the registered handler on the receiving node once the
  whole user message has arrived;
* **software flow control** — when a send cannot make progress (the NI send
  interface is full because the hardware window or the remote queue backed
  up), the sender drains incoming messages from its own NI and buffers them
  in user-space memory, as the paper requires to avoid fetch deadlock.
  Devices whose receive queue overflows to main memory (CNI16Qm) do not
  need this buffering;
* **barriers and broadcasts** — helpers used by the macrobenchmark
  skeletons (gauss' one-to-all pivot broadcast, moldyn's reduction, the
  end-of-phase barriers of all five applications);
* **blocking waits** — every poll/backoff loop (``poll_wait``, ``poll_n``,
  barriers, the blocked-send retry) runs through
  :func:`repro.sim.spin_wait`, which elides steady cached-poll spins into
  event-driven sleeps on the device's arrival signal with bit-identical
  simulated timing (the paper's virtual-polling argument, Sections 3-5),
  and uncached status-poll spins into sleeps until the fabric announces
  a message to the node.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.common.params import MachineParams
from repro.common.types import NetworkMessage
from repro.ni.base import AbstractNI
from repro.node.processor import Processor
from repro.sim import (
    SPIN_EMPTY,
    SPIN_PROGRESS,
    SPIN_TRANSIENT,
    Counter,
    Samples,
    Simulator,
    SpinGuard,
    spin_wait,
)


class MessagingError(RuntimeError):
    """Raised for messaging-layer protocol violations."""


#: Cycles spent by the messaging layer per send/receive for argument
#: marshalling, handler dispatch and loop overhead.
SOFTWARE_OVERHEAD_CYCLES = 10

#: Cycles the processor waits between retries when its send is blocked and
#: there is nothing to drain.
SEND_RETRY_BACKOFF_CYCLES = 20

#: Number of failed send attempts tolerated before the deadlock-avoidance
#: drain kicks in.  A send interface is frequently busy for only a few tens
#: of cycles (e.g. CNI4 finishing its pull of the previous message); draining
#: on the very first failure would charge an extra NI poll for what is really
#: just a short spin on the status register.
DRAIN_AFTER_RETRIES = 2

#: Number of cache blocks reserved per node for user-space message buffering.
SOFTWARE_BUFFER_BLOCKS = 256


@dataclass
class _Fragment:
    """Bookkeeping for one fragment of a user-level message."""

    msg_id: int
    index: int
    count: int
    handler: str
    user_bytes: int
    body: Tuple = ()


@dataclass
class _Reassembly:
    fragments_seen: int = 0
    total: int = 0
    handler: str = ""
    user_bytes: int = 0
    body: Tuple = ()


#: Marker heading the body tuple of an end-to-end ack control frame.
_E2E_ACK = "__e2e_ack"

#: Cap on the exponential-backoff shift, so one retransmission interval
#: never exceeds ``retransmit_timeout_cycles << _MAX_BACKOFF_SHIFT``.
_MAX_BACKOFF_SHIFT = 5

#: Accepted data fragments per source before a cumulative ack is sent
#: (deferred acks also flush on a deadline, so the sender's timeout is
#: never starved).  Batching keeps the ack traffic well under one control
#: frame per data fragment.
_ACK_BATCH = 4

#: Retransmissions attempted per reliability tick.  Retransmitting every
#: due fragment at once floods the per-destination hardware window and
#: wedges the poll loop inside a blocked send; spreading them across
#: ticks lets acks flow back between attempts.
_RETRANSMITS_PER_TICK = 2


@dataclass
class _PendingTx:
    """An unacknowledged reliable fragment, kept until acked or given up."""

    payload_bytes: int
    msg_seq: int
    fragment: _Fragment
    first_sent: int
    deadline: int
    attempts: int = 0


class MessagingLayer:
    """Per-node user-level messaging layer (one per processor)."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        processor: Processor,
        ni: AbstractNI,
        params: MachineParams,
        dram_allocator,
    ):
        self.sim = sim
        self.node_id = node_id
        self.processor = processor
        self.ni = ni
        self.params = params
        self.stats = Counter()
        self._counts = self.stats.raw
        self._handlers: Dict[str, Callable] = {}
        self._msg_ids = itertools.count()
        self._reassembly: Dict[Tuple[int, int], _Reassembly] = {}
        #: ``(message, buffer address)`` pairs drained from the NI while a
        #: send was blocked; the address is where the copy was written, so
        #: the later poll re-reads the same cache lines.
        self._software_buffer: "deque[Tuple[NetworkMessage, int]]" = deque()
        self._software_buffer_base = dram_allocator.allocate_blocks(SOFTWARE_BUFFER_BLOCKS)
        self._software_buffer_next = 0
        # End-to-end reliability state (inert when reliable_messaging off:
        # the gated branches add no simulated events, so the off path is
        # bit-identical to the pre-reliability layer).
        self._reliable_on = params.reliable_messaging
        self._tx_next: Dict[int, int] = {}
        self._tx_pending: Dict[Tuple[int, int], _PendingTx] = {}
        self._rx_cursor: Dict[int, int] = {}
        self._rx_seen: Dict[int, set] = {}
        self._ack_owed: Dict[int, int] = {}
        self._ack_deadline: Dict[int, int] = {}
        self._last_rx_activity = 0
        #: Cycles from first send to ack for fragments that needed at least
        #: one retransmission (the recovery-latency histogram).
        self.recovery_samples = Samples()
        # Spin-wait elision guards (None when disabled or the device's
        # polls are not elidable; see repro.sim.spinwait).
        self._recv_spin_guard, self._send_spin_guard = self._build_spin_guards()
        # Barrier state.
        self._barrier_seq = 0
        self._barrier_arrivals: Dict[int, int] = {}
        self._barrier_released: Dict[int, bool] = {}
        self.register_handler("__barrier_arrive", self._on_barrier_arrive)
        self.register_handler("__barrier_release", self._on_barrier_release)
        # Filled in by the machine so barriers know the world size and the
        # root node's messaging layer is addressable.
        self.num_nodes = params.num_nodes

    # ------------------------------------------------------------------
    # Spin-wait elision wiring
    # ------------------------------------------------------------------
    def _build_spin_guards(self) -> Tuple[Optional[SpinGuard], Optional[SpinGuard]]:
        """Build the (receive, blocked-send) elision guards for this node.

        A guard exists only when ``params.spin_elision`` is on and the
        device's port declares its spin iterations elidable.  Cached polls
        (the CQ family) elide as pure iterations.  Uncached-status polls
        (the NI2w and CNI4 families) get a guard woken by delivery
        notices, with the fabric's lead; it arms only where the poll body
        is shorter than that lead.  A port that declares nothing elidable
        (the default for a plugin's own ports) gets no guard and simply
        spins, and so do all blocked senders except the drain-free CQ ones.
        """
        if not self.params.spin_elision:
            return None, None
        if self.params.reliable_messaging:
            # A poller parked on the arrival signal would never wake to
            # observe a retransmission deadline (the signal for a dropped
            # message never fires), so reliability keeps the spinning
            # loops and their periodic timeout checks.
            return None, None
        ni = self.ni
        signal = ni.arrival_signal
        cache = ni._proc_cache
        interconnect = ni.interconnect
        recv_port = ni.recv_port
        send_port = ni.send_port
        # Counters a pure spin iteration can touch; their measured deltas
        # are replayed arithmetically for elided iterations.
        counters = (
            cache.stats.raw,
            ni.stats.raw,
            self.stats.raw,
            self.processor.stats.raw,
        )
        txn_counts = interconnect.stats.raw
        device_stats = ni.stats.raw
        # Asynchronous activity that leaves no bus transaction behind but
        # could pollute a measured iteration's counter deltas: fabric
        # deliveries, window acks, and device-side arrival transitions.
        ni_counts = ni.stats.raw
        window = ni.window
        probes = [
            lambda _c=ni_counts: _c.get("network_arrivals", 0),
            lambda _c=ni_counts: _c.get("window_stalls", 0),
            lambda: signal.fire_count,
            lambda _s=window.slot_freed: _s.fire_count,
            lambda _c=window.stats.raw: _c.get("reservations", 0),
        ]
        recv_guard = None
        if recv_port.elidable and recv_port.polls_uncached:
            # The poll's own bus transactions are part of the iteration:
            # replay the interconnect counters and the buses' tallies too.
            buses = (interconnect.membus, interconnect.iobus, interconnect.cachebus)
            recv_guard = SpinGuard(
                self.sim, signal, recv_port.spin_steady, counters + (txn_counts,),
                txn_counts, device_stats, probes,
                lead=ni.wire_delivery_notices(),
                resources=[bus for bus in buses if bus is not None],
            )
        elif recv_port.elidable:
            recv_guard = SpinGuard(
                self.sim, signal, recv_port.spin_steady, counters,
                txn_counts, device_stats, probes,
            )
        send_guard = None
        if send_port.elidable and ni.recv_home == "memory":
            # Only the drain-free blocked-send loop is elidable: devices
            # that overflow to memory (CNI16Qm) never drain, so a blocked
            # iteration is just the cached tail/head check and its head
            # observation sits one cycle into the iteration (resume_margin).
            # Devices whose blocked sender drains through proc_poll observe
            # the receive queue several cycles into each iteration — too
            # deep to resume exactly from a sleep — so they keep spinning.
            send_guard = SpinGuard(
                self.sim, signal, send_port.spin_steady, counters,
                txn_counts, device_stats, probes, resume_margin=1,
            )
        return recv_guard, send_guard

    # ------------------------------------------------------------------
    # Handler registry
    # ------------------------------------------------------------------
    def register_handler(self, name: str, handler: Callable) -> None:
        """Register an active-message handler.

        ``handler(ml, source, user_bytes, body)`` is invoked on the
        receiving node; it may return a generator (run inside the polling
        process) or ``None``.
        """
        if name in self._handlers:
            raise MessagingError(f"handler {name!r} already registered on node {self.node_id}")
        self._handlers[name] = handler

    def has_handler(self, name: str) -> bool:
        return name in self._handlers

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def fragments_needed(self, user_bytes: int) -> int:
        capacity = self.params.network_payload_bytes
        return max(1, (user_bytes + capacity - 1) // capacity)

    def send_active_message(self, dest: int, handler: str, user_bytes: int, body: Tuple = ()):
        """Send one user-level active message (generator).

        The message is fragmented into network messages; each fragment is
        pushed through the NI with the deadlock-avoidance drain loop.
        """
        if dest == self.node_id:
            # Local delivery uses the same memory-based interface: hand the
            # message straight to the local reassembly path (the uniform
            # local/remote abstraction of Section 2.2).
            yield from self.processor.compute(SOFTWARE_OVERHEAD_CYCLES)
            yield from self._deliver_local(handler, user_bytes, body)
            return
        msg_id = next(self._msg_ids)
        count = self.fragments_needed(user_bytes)
        capacity = self.params.network_payload_bytes
        remaining = user_bytes
        for index in range(count):
            chunk = min(capacity, remaining) if count > 1 else min(capacity, user_bytes)
            remaining -= chunk
            fragment = _Fragment(
                msg_id=msg_id,
                index=index,
                count=count,
                handler=handler,
                user_bytes=user_bytes,
                body=body if index == count - 1 else (),
            )
            netmsg = NetworkMessage(
                source=self.node_id,
                dest=dest,
                payload_bytes=chunk,
                seq=msg_id,
                body=fragment,
            )
            yield from self.processor.compute(SOFTWARE_OVERHEAD_CYCLES)
            yield from self._send_network_message(netmsg)
        self._counts["user_messages_sent"] += 1
        self._counts["user_bytes_sent"] += user_bytes

    def broadcast(self, handler: str, user_bytes: int, body: Tuple = ()):
        """One-to-all broadcast (a loop of point-to-point sends)."""
        for dest in range(self.num_nodes):
            if dest == self.node_id:
                continue
            yield from self.send_active_message(dest, handler, user_bytes, body)
        self.stats.add("broadcasts")

    def _send_network_message(self, netmsg: NetworkMessage):
        """Push one network message into the NI, draining if blocked.

        The retry loop runs through :func:`repro.sim.spin_wait`: once the
        blocked attempt settles into a pure cached spin (CQ devices whose
        space check and drain poll both hit in the processor cache), the
        sender blocks on the device's arrival signal instead of spinning,
        cycle-for-cycle identical to the spinning loop.
        """
        if (
            self._reliable_on
            and isinstance(netmsg.body, _Fragment)
            and netmsg.e2e_seq < 0
        ):
            # First transmission of a reliable data fragment: stamp the
            # per-destination sequence number and remember it until acked.
            seq = self._tx_next.get(netmsg.dest, 0)
            self._tx_next[netmsg.dest] = seq + 1
            netmsg.e2e_seq = seq
            now = self.sim.now
            self._tx_pending[(netmsg.dest, seq)] = _PendingTx(
                payload_bytes=netmsg.payload_bytes,
                msg_seq=netmsg.seq,
                fragment=netmsg.body,
                first_sent=now,
                deadline=now + self.params.retransmit_timeout_cycles,
            )
        sent = [False]
        attempts = [0]

        def attempt():
            accepted = yield from self.ni.proc_try_send(netmsg)
            if accepted:
                self._counts["network_messages_sent"] += 1
                sent[0] = True
                return SPIN_PROGRESS
            attempts[0] += 1
            self._counts["send_blocked"] += 1
            if attempts[0] <= DRAIN_AFTER_RETRIES:
                # Transient busy (e.g. the device is still pulling the
                # previous message): just spin on the send interface.
                return SPIN_TRANSIENT
            return (yield from self._drain_while_blocked())

        yield from spin_wait(
            self.sim,
            lambda: sent[0],
            attempt,
            SEND_RETRY_BACKOFF_CYCLES,
            self._send_spin_guard,
        )

    def _drain_while_blocked(self):
        """Deadlock avoidance while a send is blocked.

        Devices that overflow to main memory automatically (CNI16Qm) do not
        require the processor to extract messages; everything else drains
        one message from the NI into the user-space software buffer.
        Returns :data:`SPIN_PROGRESS` when a message was buffered (the
        caller retries immediately) and :data:`SPIN_EMPTY` otherwise (the
        caller backs off).
        """
        if self.ni.recv_home == "memory":
            return SPIN_EMPTY
        message = yield from self.ni.proc_poll()
        if message is None:
            return SPIN_EMPTY
        # Copy the message into user-space memory (paying the store traffic).
        buffer_addr = self._next_buffer_addr()
        yield from self.processor.touch_write(buffer_addr, self.ni.wire_bytes(message))
        self._software_buffer.append((message, buffer_addr))
        self.stats.add("messages_software_buffered")
        return SPIN_PROGRESS

    def _next_buffer_addr(self) -> int:
        block = self.params.cache_block_bytes
        addr = self._software_buffer_base + (self._software_buffer_next % SOFTWARE_BUFFER_BLOCKS) * block
        self._software_buffer_next += self.params.blocks_per_network_message
        return addr

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def poll(self):
        """Poll for one incoming network message (generator).

        Returns True if a message was consumed (and its handler run when it
        completed a user-level message), False if nothing was available.
        """
        if self._software_buffer:
            message, buffer_addr = self._software_buffer.popleft()
            # Re-read the buffered copy from the user-space address it was
            # written to (not the buffer base — reading the wrong lines
            # used to touch a cache set the copy never occupied).
            yield from self.processor.touch_read(
                buffer_addr, self.ni.wire_bytes(message)
            )
            self.stats.add("software_buffer_polls")
        else:
            message = yield from self.ni.proc_poll()
            if message is None:
                if self._reliable_on:
                    yield from self._check_retransmits()
                return False
        yield from self.processor.compute(SOFTWARE_OVERHEAD_CYCLES)
        if self._reliable_on:
            consumed = yield from self._reliable_receive(message)
            yield from self._check_retransmits()
            return consumed
        yield from self._handle_fragment(message)
        return True

    def poll_wait(self, predicate, backoff: int = SEND_RETRY_BACKOFF_CYCLES):
        """Poll until ``predicate()`` is true (generator).

        The blocking-wait form of the classic poll/backoff spin: on devices
        whose empty poll is a pure cached read, or an uncached status read
        woken by delivery notices, steady spins are elided into an
        event-driven sleep on the device's arrival signal, with
        bit-identical simulated timing (see :mod:`repro.sim.spinwait`).
        """
        yield from spin_wait(self.sim, predicate, self.poll, backoff, self._recv_spin_guard)

    def poll_n(self, count: int):
        """Poll until ``count`` messages have been consumed."""
        consumed = [0]

        def body():
            got = yield from self.poll()
            if got:
                consumed[0] += 1
            return got

        yield from spin_wait(
            self.sim,
            lambda: consumed[0] >= count,
            body,
            SEND_RETRY_BACKOFF_CYCLES,
            self._recv_spin_guard,
        )

    def _handle_fragment(self, message: NetworkMessage):
        fragment = message.body
        if not isinstance(fragment, _Fragment):
            raise MessagingError(
                f"node {self.node_id}: received a non-messaging-layer payload {fragment!r}"
            )
        key = (message.source, fragment.msg_id)
        state = self._reassembly.setdefault(key, _Reassembly(total=fragment.count))
        state.fragments_seen += 1
        state.handler = fragment.handler
        state.user_bytes = fragment.user_bytes
        if fragment.body:
            state.body = fragment.body
        self._counts["network_messages_received"] += 1
        if state.fragments_seen < state.total:
            return
        del self._reassembly[key]
        self._counts["user_messages_received"] += 1
        self._counts["user_bytes_received"] += state.user_bytes
        yield from self._dispatch(state.handler, message.source, state.user_bytes, state.body)

    # ------------------------------------------------------------------
    # End-to-end reliability (sequence numbers, ack/retransmit, dedup)
    # ------------------------------------------------------------------
    def _reliable_receive(self, message: NetworkMessage):
        """Classify one incoming frame under reliable messaging (generator).

        Returns True only when an original data fragment was accepted and
        processed — ack control frames, duplicates and corrupted frames
        return False, so ``poll_n`` counts match the fault-free run.
        """
        body = message.body
        if isinstance(body, tuple) and body and body[0] == _E2E_ACK:
            if not message.corrupted:
                self._process_ack(message.source, body[1], body[2])
            return False
        if message.corrupted:
            # Damaged in flight: discard without acking; the sender's
            # timeout recovers it.
            self._counts["corrupt_discarded"] += 1
            return False
        seq = message.e2e_seq
        if seq < 0:
            # Not a reliability-tracked frame (shouldn't happen when every
            # node shares MachineParams); process as-is.
            yield from self._handle_fragment(message)
            return True
        src = message.source
        cursor = self._rx_cursor.get(src, 0)
        seen = self._rx_seen.setdefault(src, set())
        self._last_rx_activity = self.sim.now
        if seq < cursor or seq in seen:
            # A duplicate (fault-injected copy or a retransmission whose
            # ack was lost): discard, but re-ack immediately so the sender
            # stops.
            self._counts["duplicates_discarded"] += 1
            yield from self._send_e2e_ack(src)
            return False
        seen.add(seq)
        while cursor in seen:
            seen.discard(cursor)
            cursor += 1
        self._rx_cursor[src] = cursor
        yield from self._handle_fragment(message)
        owed = self._ack_owed.get(src, 0) + 1
        if owed >= _ACK_BATCH:
            yield from self._send_e2e_ack(src)
        else:
            # Defer: the cumulative ack covers this fragment too, and the
            # deadline keeps the batching delay far below the sender's
            # retransmission timeout.
            self._ack_owed[src] = owed
            self._ack_deadline.setdefault(
                src, self.sim.now + self.params.retransmit_timeout_cycles // 4
            )
        return True

    def _send_e2e_ack(self, dest: int):
        """Send a cumulative ack control frame to ``dest`` (generator).

        Carries the receive cursor (everything below it is acked) plus the
        out-of-order set, so a lost ack is repaired by any later one.
        """
        self._ack_owed.pop(dest, None)
        self._ack_deadline.pop(dest, None)
        cursor = self._rx_cursor.get(dest, 0)
        extra = tuple(sorted(self._rx_seen.get(dest, ())))
        ack = NetworkMessage(
            source=self.node_id,
            dest=dest,
            payload_bytes=8,
            body=(_E2E_ACK, cursor, extra),
        )
        self._counts["e2e_acks_sent"] += 1
        yield from self._send_network_message(ack)

    def _process_ack(self, acker: int, cursor: int, extra: Tuple[int, ...]) -> None:
        self._counts["e2e_acks_received"] += 1
        extras = set(extra)
        now = self.sim.now
        for key in [
            k for k in self._tx_pending if k[0] == acker and (k[1] < cursor or k[1] in extras)
        ]:
            entry = self._tx_pending.pop(key)
            if entry.attempts:
                self._counts["recoveries"] += 1
                self.recovery_samples.record(now - entry.first_sent)

    def _check_retransmits(self):
        """Retransmit every pending fragment whose deadline passed (generator).

        Backoff doubles per attempt (capped); a fragment that exhausts
        ``max_retransmits`` is dropped with a ``retransmit_giveups`` count
        rather than raising — by then the data almost certainly arrived
        with its acks lost, and a true loss surfaces as a workload hang
        that the engine watchdog diagnoses with full context.
        """
        if self._ack_deadline:
            now = self.sim.now
            for src in [s for s, d in self._ack_deadline.items() if d <= now]:
                yield from self._send_e2e_ack(src)
        if not self._tx_pending:
            return
        now = self.sim.now
        due = sorted(
            (
                (entry.deadline, key, entry)
                for key, entry in self._tx_pending.items()
                if entry.deadline <= now
            ),
        )[:_RETRANSMITS_PER_TICK]
        for _, key, entry in due:
            if self._tx_pending.get(key) is not entry:
                continue  # acked while an earlier retransmission blocked
            if entry.attempts >= self.params.max_retransmits:
                del self._tx_pending[key]
                self._counts["retransmit_giveups"] += 1
                continue
            entry.attempts += 1
            shift = min(entry.attempts, _MAX_BACKOFF_SHIFT)
            entry.deadline = self.sim.now + (
                self.params.retransmit_timeout_cycles << shift
            )
            self._counts["retransmits"] += 1
            fresh = NetworkMessage(
                source=self.node_id,
                dest=key[0],
                payload_bytes=entry.payload_bytes,
                seq=entry.msg_seq,
                body=entry.fragment,
                e2e_seq=key[1],
            )
            yield from self._send_network_message(fresh)

    def reliable_flush(self):
        """Drive the reliability machinery to completion (generator).

        Run after a node's program body finishes: first drain this node's
        own unacked fragments (retransmitting as needed), then linger,
        re-acking peers' retransmissions, until the link has been quiet
        for a couple of timeout windows.  Bounded: every pending fragment
        is either acked or gives up after ``max_retransmits``.
        """
        if not self._reliable_on:
            return
        backoff = SEND_RETRY_BACKOFF_CYCLES
        while self._tx_pending:
            got = yield from self.poll()
            if not got:
                yield backoff
        # Everything we owe is acked; push out any deferred acks now so
        # peers' flushes terminate without waiting for retransmissions.
        for src in list(self._ack_owed):
            yield from self._send_e2e_ack(src)
        self._last_rx_activity = self.sim.now
        linger = 2 * self.params.retransmit_timeout_cycles
        while self.sim.now - self._last_rx_activity < linger:
            got = yield from self.poll()
            if not got:
                yield backoff
        self.stats.add("reliable_flushes")

    def fault_stats(self) -> Dict[str, int]:
        """Per-node reliability/recovery counters (all zero under a
        zero-rate plan); the recovery latencies are ``recovery_samples``."""
        raw = self.stats.raw
        return {
            key: raw.get(key, 0)
            for key in (
                "retransmits",
                "retransmit_giveups",
                "recoveries",
                "duplicates_discarded",
                "corrupt_discarded",
                "e2e_acks_sent",
                "e2e_acks_received",
            )
        }

    def _deliver_local(self, handler: str, user_bytes: int, body: Tuple):
        self._counts["user_messages_sent"] += 1
        self._counts["user_messages_received"] += 1
        self.stats.add("local_deliveries")
        yield from self._dispatch(handler, self.node_id, user_bytes, body)

    def _dispatch(self, handler_name: str, source: int, user_bytes: int, body: Tuple):
        handler = self._handlers.get(handler_name)
        if handler is None:
            raise MessagingError(
                f"node {self.node_id}: no handler registered for {handler_name!r}"
            )
        result = handler(self, source, user_bytes, body)
        if result is not None:
            yield from result
        else:
            yield 0

    # ------------------------------------------------------------------
    # Barrier
    # ------------------------------------------------------------------
    def barrier(self, participants: Optional[int] = None):
        """A simple AM-based barrier across all nodes (root = node 0)."""
        world = participants if participants is not None else self.num_nodes
        seq = self._barrier_seq
        self._barrier_seq += 1
        if world <= 1:
            return
        if self.node_id == 0:
            # Root: count arrivals from everyone else, then release.
            self._barrier_arrivals.setdefault(seq, 0)
            yield from self.poll_wait(
                lambda: self._barrier_arrivals.get(seq, 0) >= world - 1
            )
            for dest in range(1, world):
                yield from self.send_active_message(dest, "__barrier_release", 8, (seq,))
            self._barrier_arrivals.pop(seq, None)
        else:
            yield from self.send_active_message(0, "__barrier_arrive", 8, (seq,))
            yield from self.poll_wait(lambda: self._barrier_released.get(seq, False))
            self._barrier_released.pop(seq, None)
        self.stats.add("barriers")

    def _on_barrier_arrive(self, ml, source, user_bytes, body):
        seq = body[0] if body else 0
        self._barrier_arrivals[seq] = self._barrier_arrivals.get(seq, 0) + 1
        return None

    def _on_barrier_release(self, ml, source, user_bytes, body):
        seq = body[0] if body else 0
        self._barrier_released[seq] = True
        return None
