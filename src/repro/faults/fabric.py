"""Deterministic fault-injecting wrapper around any network fabric.

:class:`FaultyFabric` wraps an :class:`repro.network.fabric.AbstractFabric`
(ideal/xbar/mesh/torus — anything honoring the fabric surface) and applies
a :class:`repro.faults.plan.FaultPlan` at the link level.  The inner
fabric is unmodified: the wrapper intercepts ``inject`` and shims each
endpoint's delivery/ack callbacks at ``attach`` time.

Determinism: every fault decision for a message is drawn from a fresh
``random.Random`` seeded by an explicit integer mix of
``(fault_seed, source, dest, per-link message index)``.  No use of
``hash()`` (randomized across processes) and no shared stream — the
decision sequence for a link depends only on how many messages that link
has carried, so serial and ``--jobs`` parallel runs are bit-identical.

Semantics (documented simplifications):

* **Drops** happen *after* link-level accept: the wrapper counts the drop
  and returns a hardware ack to the sender so the sliding-window slot is
  freed (credit/control wiring is modelled as reliable).  Recovery is
  purely the end-to-end reliability layer's job.
* **Duplicates** are delivered as a second copy; the receiving NI
  hardware-acks both, and the wrapper's ack shim absorbs the extra ack so
  the sender's window never sees a spurious credit.
* **Corruption** flags ``message.corrupted``; delivery and hardware acks
  proceed normally, and the reliable messaging layer discards the payload
  (forcing a retransmission).
* **Jitter/reorder** add extra delay at the delivery boundary; the inner
  fabric's latency samples record the pre-jitter arrival.
* **Link-down windows** are a deterministic schedule (no RNG): messages
  injected while the link is down are dropped (window slot still freed).

Links with an all-zero profile take a synchronous pass-through path that
adds no events and no delays, so a zero-rate plan is bit-identical to
running without the wrapper.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Dict, Optional, Tuple

from repro.common.types import NetworkMessage
from repro.faults.plan import FaultPlan, FaultRule
from repro.network.fabric import AbstractFabric
from repro.sim import Counter, Samples

_MIX_MULT = 1_000_003
_MIX_MASK = 0xFFFF_FFFF_FFFF_FFFF


def _stream_key(seed: int, src: int, dst: int, uid: int) -> int:
    """Explicit integer mix — stable across processes and Python builds."""
    key = seed & _MIX_MASK
    for value in (src, dst, uid):
        key = (key * _MIX_MULT + value + 1) & _MIX_MASK
    return key


class FaultyFabric:
    """Wrap ``inner`` so it injects the faults described by ``plan``.

    Presents the full fabric surface (attach/inject/send_ack/stats/...),
    sharing the inner fabric's ``stats`` counter so machine-level network
    statistics are unchanged; fault events are tallied separately in
    ``fault_counts`` and recovery-free extra delays in ``delay_samples``.
    """

    def __init__(self, inner: AbstractFabric, plan: FaultPlan, seed: int = 0):
        self.inner = inner
        self.plan = plan
        self.seed = seed
        self.sim = inner.sim
        self.params = inner.params
        self.fault_counts = Counter()
        self.delay_samples = Samples()
        #: Per directed link: resolved FaultRule or None (pass-through).
        self._profiles: Dict[Tuple[int, int], Optional[FaultRule]] = {}
        #: Per directed link: messages seen (the RNG stream index).
        self._uids: Dict[Tuple[int, int], int] = {}
        #: Extra delivery delay for in-flight messages, keyed by identity
        #: (the message object is kept alive by the scheduled event).
        self._pending: Dict[int, int] = {}
        #: (sender, dest) -> hardware acks to absorb (from duplicates).
        self._extra_acks: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Forwarded fabric surface
    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return self.inner.kind

    @property
    def spec(self):
        return self.inner.spec

    @property
    def stats(self) -> Counter:
        return self.inner.stats

    @property
    def latency_samples(self) -> Samples:
        return self.inner.latency_samples

    @property
    def node_ids(self):
        return self.inner.node_ids

    def detach(self, node_id: int) -> None:
        self.inner.detach(node_id)

    def wire_bytes(self, message: NetworkMessage) -> int:
        return self.inner.wire_bytes(message)

    def serialization_cycles(self, wire_bytes: int) -> int:
        return self.inner.serialization_cycles(wire_bytes)

    def delivery_delay(self, message: NetworkMessage) -> int:
        return self.inner.delivery_delay(message)

    def ack_delay(self, from_node: int, to_node: int) -> int:
        return self.inner.ack_delay(from_node, to_node)

    def min_delivery_delay(self) -> int:
        # Jitter and reordering only ever add delay.
        return self.inner.min_delivery_delay()

    def announce_to(self, node_id: int, on_notice) -> None:
        # Dropped messages never reach the inner inject, so they are never
        # announced; a duplicate is a second inner inject, so it is.
        self.inner.announce_to(node_id, on_notice)

    def send_ack(self, from_node: int, to_node: int) -> None:
        self.inner.send_ack(from_node, to_node)

    def describe(self) -> str:
        return f"{self.inner.describe()} + faults[{self.plan.name}]"

    def __repr__(self) -> str:
        return f"<FaultyFabric {self.describe()}>"

    # ------------------------------------------------------------------
    # Endpoint shims
    # ------------------------------------------------------------------
    def attach(
        self,
        node_id: int,
        on_message: Callable[[NetworkMessage], None],
        on_ack: Callable[[int], None],
    ) -> None:
        self.inner.attach(
            node_id,
            self._make_on_message(on_message),
            self._make_on_ack(node_id, on_ack),
        )

    def _make_on_message(self, real: Callable[[NetworkMessage], None]):
        pending = self._pending

        def deliver(message: NetworkMessage) -> None:
            extra = pending.pop(id(message), 0)
            if extra:
                self.sim.schedule_call(extra, self._deliver_delayed, (real, message))
            else:
                real(message)

        return deliver

    def _deliver_delayed(self, real: Callable[[NetworkMessage], None], message: NetworkMessage) -> None:
        message.deliver_time = self.sim.now
        real(message)

    def _make_on_ack(self, node_id: int, real: Callable[[int], None]):
        extra_acks = self._extra_acks

        def on_ack(from_node: int) -> None:
            key = (node_id, from_node)
            owed = extra_acks.get(key, 0)
            if owed:
                extra_acks[key] = owed - 1
                self.fault_counts.add("dup_acks_absorbed")
                return
            real(from_node)

        return on_ack

    # ------------------------------------------------------------------
    # Fault decisions (all drawn at injection time)
    # ------------------------------------------------------------------
    def _profile(self, src: int, dst: int) -> Optional[FaultRule]:
        key = (src, dst)
        try:
            return self._profiles[key]
        except KeyError:
            profile = self.plan.rule_for(src, dst)
            self._profiles[key] = profile
            return profile

    def _link_down(self, profile: FaultRule) -> bool:
        if not profile.down_cycles:
            return False
        return (self.sim.now - profile.down_phase) % profile.down_period < profile.down_cycles

    def inject(self, message: NetworkMessage) -> None:
        profile = self._profile(message.source, message.dest)
        if profile is None:
            self.inner.inject(message)
            return
        link = (message.source, message.dest)
        uid = self._uids.get(link, 0)
        self._uids[link] = uid + 1
        if self._link_down(profile):
            self.fault_counts.add("link_down_drops")
            self.fault_counts.add("drops")
            # Free the sender's hardware window slot: the link-level accept
            # succeeded, the message was lost past it.
            self.inner.send_ack(message.dest, message.source)
            return
        rng = random.Random(_stream_key(self.seed, message.source, message.dest, uid))
        if profile.drop and rng.random() < profile.drop:
            self.fault_counts.add("drops")
            self.inner.send_ack(message.dest, message.source)
            return
        if profile.corrupt and rng.random() < profile.corrupt:
            message.corrupted = True
            self.fault_counts.add("corruptions")
        extra = 0
        if profile.jitter:
            extra += rng.randint(0, profile.jitter)
        if profile.reorder and rng.random() < profile.reorder:
            extra += rng.randint(1, profile.reorder_window)
            self.fault_counts.add("reordered")
        duplicate = bool(profile.duplicate) and rng.random() < profile.duplicate
        if extra:
            self._pending[id(message)] = extra
            self.fault_counts.add("delayed")
            self.delay_samples.record(extra)
        self.inner.inject(message)
        if duplicate:
            copy = replace(message, inject_time=0, deliver_time=0)
            self.fault_counts.add("duplicates")
            # The receiver hardware-acks both copies; absorb the second ack
            # so the sender's sliding window stays balanced.
            self._extra_acks[link] = self._extra_acks.get(link, 0) + 1
            trail = rng.randint(1, max(8, profile.reorder_window, profile.jitter))
            self._pending[id(copy)] = extra + trail
            self.delay_samples.record(extra + trail)
            self.inner.inject(copy)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def fault_stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {"plan": self.plan.name, "seed": self.seed}
        out.update(self.fault_counts.as_dict())
        if self.delay_samples.count:
            out["extra_delay_mean"] = round(self.delay_samples.mean, 3)
            out["extra_delay_max"] = self.delay_samples.maximum
        return out


def wrap_fabric(inner: AbstractFabric, faults: str, seed: int = 0) -> FaultyFabric:
    """Resolve ``faults`` (registry name or inline grammar) and wrap."""
    from repro.faults.plan import resolve_plan

    return FaultyFabric(inner, resolve_plan(faults), seed=seed)
