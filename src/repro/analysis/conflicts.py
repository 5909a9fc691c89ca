"""Dynamic same-cycle conflict detector (the PDES merge work-list).

An :class:`InstrumentedSimulator` runs any machine through the kernel's
hooked drain, tagging every event with its owning partition (resolved from
the scheduling object — see :mod:`repro.analysis.partitions`) and recording
per-cycle read/write footprints on the shared structures that cross
partitions:

* NI receive queues (``ni_queue``) — written by fabric deliveries, drained
  by the node's extraction process,
* sliding windows (``window``) — reserved by the node, credited by fabric
  acks,
* cross-partition signals (``signal``) — waited on by node processes,
  fired by fabric deliveries,
* bus transactions and directory lookups (``bus``/``directory``) — via the
  interconnect's ``access_probe``; per-node buses should never show
  cross-partition edges.

Two accesses *conflict* when they touch the same structure in the same
cycle from **different** partitions, at least one is a write, and neither
event is an intra-cycle ancestor of the other (a delivery that wakes the
process which then reads the queue is causally ordered, not a race).  The
resulting per-edge counts are exactly the event pairs a conservative PDES
merge (ROADMAP item 1) must order, reported as
``partition_conflict_report.json``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.partitions import EXTERNAL, PartitionResolver, partition_from_name
from repro.sim.engine import Simulator
from repro.sim.process import Signal

#: Structure categories that are mediation layers by construction: a
#: cross-partition edge through them is expected and PDES-orderable.
MEDIATION_CATEGORIES = frozenset({"bus", "directory", "fabric"})
#: The partition label of the fabric itself.
FABRIC_PARTITION = "fabric"


@dataclass
class ConflictEdge:
    """Aggregated conflicts between two partitions on one structure kind."""

    partition_a: str
    partition_b: str
    category: str
    count: int = 0
    first_cycle: Optional[int] = None
    example_key: str = ""

    def to_dict(self) -> Dict:
        return {
            "partitions": [self.partition_a, self.partition_b],
            "category": self.category,
            "count": self.count,
            "first_cycle": self.first_cycle,
            "example_key": self.example_key,
        }


class ConflictTracker:
    """Per-cycle read/write footprint recorder and conflict aggregator."""

    def __init__(self) -> None:
        self._cycle: Optional[int] = None
        self._current_token: Optional[int] = None
        self._current_partition: Optional[str] = None
        #: (category, key) -> [(token, partition, is_write)] for this cycle.
        self._accesses: Dict[Tuple[str, str], List[Tuple[int, str, bool]]] = {}
        #: token -> parent token (intra-cycle causality; cleared per cycle).
        self._parents: Dict[int, int] = {}
        self.edges: Dict[Tuple[str, str, str], ConflictEdge] = {}
        self.events_by_partition: Dict[str, int] = {}
        self.cycles_with_conflicts = 0
        self.access_count = 0

    # -- driven by the instrumented simulator ---------------------------
    def note_parent(self, token: int, parent_token: int) -> None:
        self._parents[token] = parent_token

    def begin_event(self, cycle: int, token: Optional[int], partition: str) -> None:
        if cycle != self._cycle:
            self.flush()
            self._cycle = cycle
        self._current_token = token
        self._current_partition = partition
        self.events_by_partition[partition] = self.events_by_partition.get(partition, 0) + 1

    # -- driven by the tracked structures --------------------------------
    def access(self, category: str, key: str, write: bool) -> None:
        """Record one structure access by the currently executing event."""
        if self._current_token is None:
            return  # construction/teardown code outside any simulated event
        self.access_count += 1
        entry = (self._current_token, self._current_partition, write)
        bucket = self._accesses.get((category, key))
        if bucket is None:
            self._accesses[(category, key)] = [entry]
        else:
            bucket.append(entry)

    def run_as(self, partition: str, action: Callable[[], None]) -> None:
        """Run ``action()`` with its accesses attributed to ``partition``."""
        saved = self._current_partition
        self._current_partition = partition
        try:
            action()
        finally:
            self._current_partition = saved

    # -- aggregation -----------------------------------------------------
    def _related(self, token_a: int, token_b: int) -> bool:
        """Whether one event is an intra-cycle ancestor of the other."""
        parents = self._parents
        seen = token_a
        while seen is not None:
            if seen == token_b:
                return True
            seen = parents.get(seen)
        seen = token_b
        while seen is not None:
            if seen == token_a:
                return True
            seen = parents.get(seen)
        return False

    def flush(self) -> None:
        """Close the current cycle: turn its footprints into conflict edges."""
        cycle = self._cycle
        found = False
        for (category, key), accesses in self._accesses.items():
            if len(accesses) < 2:
                continue
            partitions = {p for (_, p, _) in accesses}
            if len(partitions) < 2:
                continue
            # Pairwise over partitions: an edge exists when some pair of
            # accesses from different partitions includes a write and is
            # not causally ordered within the cycle.
            reported: set = set()
            for i, (tok_a, part_a, w_a) in enumerate(accesses):
                for tok_b, part_b, w_b in accesses[i + 1:]:
                    if part_a == part_b or not (w_a or w_b):
                        continue
                    pair = (min(part_a, part_b), max(part_a, part_b))
                    if pair in reported:
                        continue
                    if self._related(tok_a, tok_b):
                        continue
                    reported.add(pair)
                    edge_key = (pair[0], pair[1], category)
                    edge = self.edges.get(edge_key)
                    if edge is None:
                        edge = self.edges[edge_key] = ConflictEdge(
                            pair[0], pair[1], category
                        )
                    edge.count += 1
                    if edge.first_cycle is None:
                        edge.first_cycle = cycle
                        edge.example_key = key
                    found = True
        if found:
            self.cycles_with_conflicts += 1
        self._accesses.clear()
        self._parents.clear()
        self._current_token = None
        self._current_partition = None

    # -- reporting --------------------------------------------------------
    def constraint_pairs(self) -> set:
        """The partition pairs a PDES merge (or shuffle) must keep ordered."""
        return {frozenset((e.partition_a, e.partition_b)) for e in self.edges.values()}

    def non_mediation_edges(self) -> List[ConflictEdge]:
        """Edges that do NOT go through a mediation layer: direct node-to-
        node sharing the partition claim says must not exist."""
        out = []
        for edge in self.edges.values():
            if edge.category in MEDIATION_CATEGORIES:
                continue
            if FABRIC_PARTITION in (edge.partition_a, edge.partition_b):
                continue
            out.append(edge)
        return out

    def to_dict(self) -> Dict:
        edges = sorted(
            self.edges.values(), key=lambda e: (-e.count, e.partition_a, e.partition_b)
        )
        return {
            "edges": [e.to_dict() for e in edges],
            "non_mediation_edges": [e.to_dict() for e in self.non_mediation_edges()],
            "mediation_only": not self.non_mediation_edges(),
            "events_by_partition": dict(sorted(self.events_by_partition.items())),
            "cycles_with_conflicts": self.cycles_with_conflicts,
            "accesses_recorded": self.access_count,
        }


# ----------------------------------------------------------------------
# Tracked structure wrappers
# ----------------------------------------------------------------------
class TrackedDeque(deque):
    """A deque reporting every append/popleft/inspection to the tracker."""

    def __init__(self, tracker: ConflictTracker, category: str, key: str, items=()):
        super().__init__(items)
        self._tracker = tracker
        self._category = category
        self._key = key

    def append(self, item) -> None:
        self._tracker.access(self._category, self._key, True)
        deque.append(self, item)

    def popleft(self):
        self._tracker.access(self._category, self._key, True)
        return deque.popleft(self)

    def __bool__(self) -> bool:
        self._tracker.access(self._category, self._key, False)
        return len(self) > 0


class _TrackedWaiters(list):
    """Signal waiter list: enqueueing a waiter is a write to the signal."""

    def __init__(self, tracker: ConflictTracker, key: str, items=()):
        super().__init__(items)
        self._tracker = tracker
        self._key = key

    def append(self, item) -> None:
        self._tracker.access("signal", self._key, True)
        list.append(self, item)


def _track_signal(signal: Signal, tracker: ConflictTracker, key: str) -> None:
    """Record waiter enqueues and fires on ``signal`` as signal accesses.

    ``Signal.fire`` replaces ``_waiters`` with a fresh plain list, so the
    wrapped fire re-installs a tracked list after delegating.
    """
    signal._waiters = _TrackedWaiters(tracker, key, signal._waiters)
    original_fire = signal.fire

    def tracked_fire(payload=None):
        tracker.access("signal", key, True)
        original_fire(payload)
        if not isinstance(signal._waiters, _TrackedWaiters):
            signal._waiters = _TrackedWaiters(tracker, key, signal._waiters)

    signal.fire = tracked_fire


def _track_window(window, tracker: ConflictTracker, key: str) -> None:
    original_reserve = window.reserve
    original_on_ack = window.on_ack
    original_can_send = window.can_send

    def reserve(dest):
        tracker.access("window", key, True)
        original_reserve(dest)

    def on_ack(dest):
        tracker.access("window", key, True)
        original_on_ack(dest)

    def can_send(dest):
        tracker.access("window", key, False)
        return original_can_send(dest)

    window.reserve = reserve
    window.on_ack = on_ack
    window.can_send = can_send


def _track_directory(directory, tracker: ConflictTracker, key: str) -> None:
    original_holders = directory.holders
    original_record = directory.record

    def holders(txn, home):
        # holders() prunes stale entries, so it mutates as it reads.
        tracker.access("directory", key, True)
        return original_holders(txn, home)

    def record(txn):
        tracker.access("directory", key, True)
        original_record(txn)

    directory.holders = holders
    directory.record = record


def _track_fabric(fabric, tracker: ConflictTracker) -> None:
    """Record injections and ack sends as writes to one shared fabric key.

    Injection order *is* fabric state: delivery/ack events are sequenced
    (and, on topology fabrics, links reserved) at injection time, so two
    nodes injecting in the same cycle conflict through the fabric even when
    their messages target different destinations.  One conservative shared
    key makes every same-cycle injection pair a ``fabric``-category edge —
    a mediation-layer edge, and exactly the arbitration a PDES merge must
    make deterministic.
    """
    key = "fabric.arbitration"
    original_inject = fabric.inject
    original_send_ack = fabric.send_ack

    def inject(message):
        tracker.access("fabric", key, True)
        original_inject(message)

    def send_ack(from_node, to_node):
        tracker.access("fabric", key, True)
        original_send_ack(from_node, to_node)

    fabric.inject = inject
    fabric.send_ack = send_ack


def _track_spin_guard(guard, tracker: ConflictTracker, keys) -> None:
    """Record a spin guard's asynchronous-activity probes as reads.

    ``SpinGuard.probe_state`` samples monotonic activity counters — fabric
    delivery counts, ack/window signal fire counts — whose writers are
    fabric-partition events.  Sampling them is a genuine cross-partition
    read: whether a same-cycle fabric delivery lands before or after the
    sample flips the elision arming decision (one more or one fewer real
    poll iteration).  The sample is recorded as a read of every structure
    the probes observe, so those races surface as ordinary conflict edges.
    ``probe_state`` evaluates every probe, so wrapping the first one is
    enough to cover each sample exactly once.
    """
    if guard is None or not guard.probes:
        return
    first = guard.probes[0]

    def tracked_first(_first=first, _keys=tuple(keys)):
        for category, key in _keys:
            tracker.access(category, key, False)
        return _first()

    guard.probes = (tracked_first,) + tuple(guard.probes[1:])


def _track_notices(fabric, tracker: ConflictTracker) -> None:
    """Run each delivery notice as a fabric action.

    A notice (``AbstractFabric.announce_to``) runs inside the source node's
    injection event, but it is the fabric telling the destination NI that
    a message is on its way: it counts the message in the NI's
    ``announced`` and fires the NI's arrival signal.  Like a delivery, it
    is attributed to the fabric partition, and its count update is a
    ``fabric``-category write of the destination's announce key.
    """
    fabric = getattr(fabric, "inner", fabric)
    notices = fabric._notices
    for node_id, notice in list(notices.items()):

        def tracked(_notice=notice, _key=f"node{node_id}.announced"):
            def action():
                tracker.access("fabric", _key, True)
                _notice()

            tracker.run_as(FABRIC_PARTITION, action)

        notices[node_id] = tracked


def _track_announced_reads(guard, tracker: ConflictTracker, key: str) -> None:
    """Record a lead guard's ``steady()`` calls as reads of the announce key.

    The steady predicate of an uncached-poll guard reads the NI's
    ``announced`` count, which delivery notices from other nodes' injection
    events write (see :func:`_track_notices`); whether a same-cycle notice
    lands before or after the read flips the arming decision, so the read
    must surface as a mediation edge, as :func:`_track_spin_guard` does for
    the probes.
    """
    if guard is None or guard.lead is None:
        return
    steady = guard.steady

    def tracked_steady(_steady=steady):
        tracker.access("fabric", key, False)
        return _steady()

    guard.steady = tracked_steady


def instrument_machine(machine, tracker: ConflictTracker) -> None:
    """Install tracked wrappers on every shared structure of ``machine``."""
    _track_fabric(machine.fabric, tracker)
    _track_notices(machine.fabric, tracker)
    for node in machine.nodes:
        ni = node.ni
        ni._net_in = TrackedDeque(
            tracker, "ni_queue", f"{ni.name}.net_in", ni._net_in
        )
        _track_window(ni.window, tracker, f"node{node.node_id}.window")
        _track_signal(ni.arrival_signal, tracker, ni.arrival_signal.name)
        _track_signal(ni._net_in_signal, tracker, ni._net_in_signal.name)
        _track_signal(ni.window.slot_freed, tracker, f"node{node.node_id}.window-freed")
        interconnect = node.interconnect
        bus_key = f"{interconnect.name}.bus"

        def probe(txn, timing_bus, _tracker=tracker, _key=bus_key):
            _tracker.access("bus", f"{_key}.{timing_bus.value}", True)

        interconnect.access_probe = probe
        if interconnect.directory is not None:
            _track_directory(
                interconnect.directory, tracker, f"{interconnect.name}.directory"
            )
    for layer in machine.messaging:
        ni = layer.ni
        node_id = layer.node_id
        guard_keys = (
            ("ni_queue", f"{ni.name}.net_in"),
            ("window", f"node{node_id}.window"),
            ("signal", ni.arrival_signal.name),
            ("signal", f"node{node_id}.window-freed"),
        )
        _track_spin_guard(layer._recv_spin_guard, tracker, guard_keys)
        _track_spin_guard(layer._send_spin_guard, tracker, guard_keys)
        _track_announced_reads(layer._recv_spin_guard, tracker, f"node{node_id}.announced")


# ----------------------------------------------------------------------
# The instrumented simulator
# ----------------------------------------------------------------------
class InstrumentedSimulator(Simulator):
    """Simulator that attributes every event to a partition and feeds the
    conflict tracker through the kernel's hooked drain."""

    def __init__(self) -> None:
        super().__init__()
        self.tracker = ConflictTracker()
        self._resolver: Optional[PartitionResolver] = None
        self._tokens: Dict[int, int] = {}
        self._next_token = 0
        self._current_token: Optional[int] = None
        self.enable_hooks()

    def bind_machine(self, machine) -> ConflictTracker:
        """Resolve partitions against ``machine`` and instrument it.

        Must be called after the machine is built (on this simulator) and
        before it runs.
        """
        self._resolver = PartitionResolver(machine)
        instrument_machine(machine, self.tracker)
        return self.tracker

    def _partition_of(self, callback) -> str:
        resolver = self._resolver
        if resolver is not None:
            return resolver.resolve_callback(callback)
        owner = getattr(callback, "__self__", None)
        name = getattr(owner, "name", "") if owner is not None else ""
        return partition_from_name(name) or EXTERNAL

    # -- kernel hooks -----------------------------------------------------
    def on_enqueue(self, event, parent) -> None:
        token = self._next_token
        self._next_token = token + 1
        self._tokens[id(event)] = token
        if parent is not None and self._current_token is not None:
            self.tracker.note_parent(token, self._current_token)
            if event.time == self.now:
                # Same-cycle schedule fan-in: a partition executes its
                # same-cycle events in creation order, so two events (in
                # any partitions) that each enqueue a same-cycle child
                # into partition P fix those children's relative order.
                # The children share P's node state, so the parents'
                # order is physics — record the enqueue as a write to a
                # per-target-partition scheduling key and let it surface
                # as an ordinary conflict edge.
                target = self._partition_of(event.callback)
                self.tracker.access("schedule", f"{target}.schedule", True)

    def on_execute(self, event) -> None:
        token = self._tokens.pop(id(event), None)
        self._current_token = token
        self.tracker.begin_event(event.time, token, self._partition_of(event.callback))

    def finish(self) -> ConflictTracker:
        """Flush the last cycle and return the tracker."""
        self.tracker.flush()
        return self.tracker


# ----------------------------------------------------------------------
# Spec-level entry point and report assembly
# ----------------------------------------------------------------------
class AnalysisError(RuntimeError):
    """Raised for unsupported analysis requests."""


def run_spec_machine(spec, simulator: Optional[Simulator] = None):
    """Build and run one macro :class:`ExperimentSpec` point.

    Returns ``(machine, workload_result)``.  The run is the macro kind's
    own :func:`~repro.apps.workload.run_spec`, on a machine built around
    the injected simulator so the instrumented/shuffled kernels drive the
    identical workload.
    """
    from repro.apps.workload import run_spec
    from repro.node.machine import Machine

    spec = spec.validate()
    if spec.kind != "macro":
        raise AnalysisError(
            f"partition analysis runs macro specs only, got kind={spec.kind!r}"
        )
    machine = Machine.from_spec(spec, simulator=simulator)
    bind = getattr(simulator, "bind_machine", None)
    if bind is not None:
        bind(machine)
    return run_spec(spec, machine)


def analyze_spec(spec) -> Tuple[ConflictTracker, object]:
    """Run one spec under the instrumented kernel; returns (tracker, result)."""
    sim = InstrumentedSimulator()
    _machine, result = run_spec_machine(spec, simulator=sim)
    return sim.finish(), result


@dataclass
class ConflictReport:
    """Merged conflict analysis over a set of experiment points."""

    points: List[Dict] = field(default_factory=list)

    def add_point(self, spec, tracker: ConflictTracker, cycles: int) -> None:
        self.points.append(
            {
                "spec": {
                    "workload": spec.workload,
                    "device": spec.device,
                    "bus": spec.bus,
                    "num_nodes": spec.num_nodes,
                    "scale": spec.scale,
                    "fabric": spec.params.get("fabric", "ideal"),
                },
                "cycles": cycles,
                **tracker.to_dict(),
            }
        )

    @property
    def mediation_only(self) -> bool:
        return all(point["mediation_only"] for point in self.points)

    def to_dict(self) -> Dict:
        merged: Dict[Tuple[str, str, str], int] = {}
        for point in self.points:
            for edge in point["edges"]:
                key = (edge["partitions"][0], edge["partitions"][1], edge["category"])
                merged[key] = merged.get(key, 0) + edge["count"]
        return {
            "schema": "partition_conflict_report/v1",
            "mediation_only": self.mediation_only,
            "merged_edges": [
                {"partitions": [a, b], "category": cat, "count": count}
                for (a, b, cat), count in sorted(
                    merged.items(), key=lambda kv: (-kv[1], kv[0])
                )
            ],
            "points": self.points,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


# ----------------------------------------------------------------------
# Deterministic two-partition fixture (self-test + unit tests)
# ----------------------------------------------------------------------
def conflict_fixture(conflict_cycle: int = 100):
    """A minimal two-partition run with one known conflicting cycle.

    Two processes — partitions ``node0`` and ``node1`` by name — touch one
    tracked queue in the same cycle: node0 appends (write), node1 polls
    (read), with no causal link.  Returns the finished tracker; the
    expected edge is ``node0 <-> node1`` on ``ni_queue`` first seen at
    ``conflict_cycle``.
    """
    from repro.sim.process import start_process

    sim = InstrumentedSimulator()
    queue = TrackedDeque(sim.tracker, "ni_queue", "fixture.queue")

    def writer():
        yield conflict_cycle
        queue.append("payload")
        yield 10

    def reader():
        yield conflict_cycle
        if queue:
            queue.popleft()
        yield 10

    start_process(sim, writer(), name="node0.fixture")
    start_process(sim, reader(), name="node1.fixture")
    sim.run()
    return sim.finish()
