"""Deterministic fault injection inside any network fabric.

:class:`FaultInjector` applies a :class:`repro.faults.plan.FaultPlan` at
the link level.  It is a policy the fabric consults, not a second fabric:
:func:`repro.network.registry.create_fabric` sets it as
``AbstractFabric.faults`` when ``MachineParams.faults`` names a plan, and
:meth:`~repro.network.fabric.AbstractFabric.inject` then hands every
message to :meth:`FaultInjector.inject`, which transmits whatever survives
through the fabric's unfaulted body.

Determinism: every fault decision for a message is drawn from a fresh
``random.Random`` seeded by an explicit integer mix of
``(fault_seed, source, dest, per-link message index)``.  No use of
``hash()`` (randomized across processes) and no shared stream — the
decision sequence for a link depends only on how many messages that link
has carried, so serial and ``--jobs`` parallel runs are bit-identical.

Semantics (documented simplifications):

* **Drops** happen *after* link-level accept: the injector counts the drop
  and returns a hardware ack to the sender so the sliding-window slot is
  freed (credit/control wiring is modelled as reliable).  Recovery is
  purely the end-to-end reliability layer's job.
* **Duplicates** are delivered as a second copy; the receiving NI
  hardware-acks both, and the fabric asks :meth:`FaultInjector.absorbs_ack`
  about every ack, so the extra one never reaches the sender's window.
* **Corruption** flags ``message.corrupted``; delivery and hardware acks
  proceed normally, and the reliable messaging layer discards the payload
  (forcing a retransmission).
* **Jitter/reorder** set ``message.fault_delay``, the extra cycles the
  fabric holds the message back at the delivery boundary; the fabric's
  latency samples record the pre-jitter arrival.
* **Link-down windows** are a deterministic schedule (no RNG): messages
  injected while the link is down are dropped (window slot still freed).

Links with an all-zero profile pass straight through to the fabric, adding
no events and no delays, so a zero-rate plan is bit-identical to no plan.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.common.types import NetworkMessage
from repro.faults.plan import FaultPlan, FaultRule
from repro.network.fabric import AbstractFabric
from repro.sim import Counter, Summary

_MIX_MULT = 1_000_003
_MIX_MASK = 0xFFFF_FFFF_FFFF_FFFF


def _stream_key(seed: int, src: int, dst: int, uid: int) -> int:
    """Explicit integer mix — stable across processes and Python builds."""
    key = seed & _MIX_MASK
    for value in (src, dst, uid):
        key = (key * _MIX_MULT + value + 1) & _MIX_MASK
    return key


class FaultInjector:
    """The fault decisions of one ``plan`` and ``seed`` on one fabric.

    Fault events are tallied in ``counts``; the extra delays it adds are
    summarised in ``delays`` (count, total and maximum), which
    :meth:`fault_stats` reports as their mean and maximum.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.seed = seed
        self.counts = Counter()
        self.delays = Summary()
        #: Per directed link: resolved FaultRule or None (pass-through).
        self._profiles: Dict[Tuple[int, int], Optional[FaultRule]] = {}
        #: Per directed link: messages seen (the RNG stream index).
        self._uids: Dict[Tuple[int, int], int] = {}
        #: (sender, dest) -> hardware acks to absorb (from duplicates).
        self._extra_acks: Dict[Tuple[int, int], int] = {}

    def _delay(self, message: NetworkMessage, extra: int) -> None:
        message.fault_delay = extra
        self.delays.record(extra)

    # ------------------------------------------------------------------
    # Fault decisions (all drawn at injection time)
    # ------------------------------------------------------------------
    def inject(self, fabric: AbstractFabric, message: NetworkMessage) -> None:
        """Apply the plan to ``message`` and transmit what survives on ``fabric``."""
        link = (message.source, message.dest)
        try:
            profile = self._profiles[link]
        except KeyError:
            profile = self._profiles[link] = self.plan.rule_for(*link)
        if profile is None:
            fabric._transmit(message)
            return
        uid = self._uids.get(link, 0)
        self._uids[link] = uid + 1
        if profile.down_cycles and (
            (fabric.sim.now - profile.down_phase) % profile.down_period < profile.down_cycles
        ):
            self.counts.add("link_down_drops")
            self.counts.add("drops")
            # Free the sender's hardware window slot: the link-level accept
            # succeeded, the message was lost past it.
            fabric.send_ack(message.dest, message.source)
            return
        rng = random.Random(_stream_key(self.seed, *link, uid))
        if profile.drop and rng.random() < profile.drop:
            self.counts.add("drops")
            fabric.send_ack(message.dest, message.source)
            return
        if profile.corrupt and rng.random() < profile.corrupt:
            message.corrupted = True
            self.counts.add("corruptions")
        extra = 0
        if profile.jitter:
            extra += rng.randint(0, profile.jitter)
        if profile.reorder and rng.random() < profile.reorder:
            extra += rng.randint(1, profile.reorder_window)
            self.counts.add("reordered")
        duplicate = bool(profile.duplicate) and rng.random() < profile.duplicate
        if extra:
            self.counts.add("delayed")
            self._delay(message, extra)
        fabric._transmit(message)
        if duplicate:
            copy = replace(message, inject_time=0, deliver_time=0)
            self.counts.add("duplicates")
            # The receiver hardware-acks both copies; absorb the second ack
            # so the sender's sliding window stays balanced.
            self._extra_acks[link] = self._extra_acks.get(link, 0) + 1
            trail = rng.randint(1, max(8, profile.reorder_window, profile.jitter))
            self._delay(copy, extra + trail)
            fabric._transmit(copy)

    def absorbs_ack(self, sender: int, dest: int) -> bool:
        """Whether an ack from ``dest`` to ``sender`` acks a duplicate (and is
        dropped before it reaches the sender's sliding window)."""
        key = (sender, dest)
        owed = self._extra_acks.get(key, 0)
        if not owed:
            return False
        self._extra_acks[key] = owed - 1
        self.counts.add("dup_acks_absorbed")
        return True

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def fault_stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {"plan": self.plan.name, "seed": self.seed}
        out.update(self.counts.as_dict())
        if self.delays.count:
            out["extra_delay_mean"] = round(self.delays.mean, 3)
            out["extra_delay_max"] = float(self.delays.maximum)
        return out
