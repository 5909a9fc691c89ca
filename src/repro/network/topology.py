"""Topology-aware fabric models: crossbar and 2D mesh/torus.

These models open the axis the paper deliberately idealizes (Section 4.1):
instead of a fixed 100-cycle latency for every message, a message now pays
for the *path* it takes and for the traffic it shares that path with.
All contention is resolved arithmetically at injection time — fabrics see
injections in simulation-time order, so reserving a link's next-free time
with ``max(now, busy)`` is causally sound and costs no extra kernel
events (deliveries remain ordinary scheduled events, whatever their
latency; spin-wait elision of uncached polls only needs each model's
``min_delivery_delay`` lower bound).

Common modelling choices, shared via :class:`.fabric.AbstractFabric`:

* Messages are cut-through streamed: a message of ``w`` wire bytes
  occupies each link/port it crosses for
  ``ser = ceil(w / fabric_link_bytes_per_cycle)`` cycles, and its tail
  arrives ``ser`` cycles after its head.
* Acknowledgements are header-sized messages taking the same path in the
  reverse direction (links are full-duplex: the two directions of a
  channel are independent resources).
* Per-pair ordering is preserved: routes are deterministic
  (dimension-order on the grids) and link reservation is FIFO, so a later
  injection to the same destination can never overtake an earlier one.

Statistics: on top of the base fabric counters, these models count
``hops`` (links crossed) and ``contention_cycles`` (cycles spent queued
for busy links/ports), so experiments can report *why* a topology is slow.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.params import MachineParams
from repro.common.types import NetworkMessage
from repro.network.fabric import AbstractFabric
from repro.network.fabricspec import FabricSpec
from repro.sim import Simulator


class CrossbarFabric(AbstractFabric):
    """A full crossbar: contention only at the endpoint ports.

    Every source has a dedicated injection port and every destination a
    dedicated ejection port; any pair can communicate without interfering
    with other pairs, but a node streaming many messages serializes on its
    own ports.  The crossbar itself is flown through in
    ``params.network_latency_cycles`` (the same wire-latency knob the
    ideal fabric uses), so an uncontended crossbar message costs exactly
    ``latency + serialization``.
    """

    kind = "xbar"

    def __init__(self, sim: Simulator, params: MachineParams, spec: Optional[FabricSpec] = None):
        super().__init__(sim, params, spec)
        self._out_free: Dict[int, int] = {}
        self._in_free: Dict[int, int] = {}

    def _port_transit(self, source: int, dest: int, wire_bytes: int) -> int:
        """Reserve both ports; return the delay until the tail is delivered."""
        now = self.sim.now
        ser = self.serialization_cycles(wire_bytes)
        depart = max(now, self._out_free.get(source, 0))
        self._out_free[source] = depart + ser
        head_arrival = depart + self.params.network_latency_cycles
        accept = max(head_arrival, self._in_free.get(dest, 0))
        self._in_free[dest] = accept + ser
        contention = (depart - now) + (accept - head_arrival)
        if contention:
            self.stats.add("contention_cycles", contention)
        return accept + ser - now

    def delivery_delay(self, message: NetworkMessage) -> int:
        return self._port_transit(message.source, message.dest, self.wire_bytes(message))

    def ack_delay(self, from_node: int, to_node: int) -> int:
        return self._port_transit(from_node, to_node, self.params.network_header_bytes)

    def min_delivery_delay(self) -> int:
        return self.params.network_latency_cycles


class MeshFabric(AbstractFabric):
    """A 2D mesh with dimension-order (X-then-Y) routing.

    Nodes are laid out row-major on a ``width x height`` grid (node ``i``
    sits at ``(i % width, i // width)``).  A message crosses one link per
    hop, paying ``params.fabric_hop_cycles`` of router-plus-wire latency
    per hop, and reserves each directed link for its serialization time —
    two messages crossing the same link in the same direction queue; the
    opposite direction is an independent resource.  The grid shape comes
    from the parsed :class:`~repro.network.fabricspec.FabricSpec`
    (``mesh4x4``), or a near-square factorization of ``num_nodes`` for a
    bare ``mesh``.
    """

    kind = "mesh"
    #: Grid edges do not wrap; :class:`TorusFabric` flips this.
    wraps = False

    def __init__(self, sim: Simulator, params: MachineParams, spec: Optional[FabricSpec] = None):
        super().__init__(sim, params, spec)
        shape_spec = spec if spec is not None and spec.is_grid else FabricSpec(self.kind, self.kind)
        self.width, self.height = shape_spec.resolve_dims(params.num_nodes)
        self.hop_cycles = params.fabric_hop_cycles
        #: Next-free cycle per directed link ``(from_node, to_node)``.
        self._link_free: Dict[Tuple[int, int], int] = {}
        #: Route memo: paths are deterministic and pairs repeat constantly.
        self._routes: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {}

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def coords(self, node: int) -> Tuple[int, int]:
        return node % self.width, node // self.width

    def _axis_step(self, position: int, target: int, size: int) -> int:
        """The +-1 step from ``position`` toward ``target`` along one axis."""
        if target == position:
            return 0
        return 1 if target > position else -1

    def route(self, source: int, dest: int) -> Tuple[Tuple[int, int], ...]:
        """The directed links a message crosses, in order (dimension-order)."""
        key = (source, dest)
        path = self._routes.get(key)
        if path is None:
            links: List[Tuple[int, int]] = []
            x, y = self.coords(source)
            dest_x, dest_y = self.coords(dest)
            node = source
            while x != dest_x:
                x = (x + self._axis_step(x, dest_x, self.width)) % self.width
                nxt = y * self.width + x
                links.append((node, nxt))
                node = nxt
            while y != dest_y:
                y = (y + self._axis_step(y, dest_y, self.height)) % self.height
                nxt = y * self.width + x
                links.append((node, nxt))
                node = nxt
            path = self._routes[key] = tuple(links)
        return path

    def hops(self, source: int, dest: int) -> int:
        return len(self.route(source, dest))

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def _grid_transit(self, source: int, dest: int, wire_bytes: int) -> int:
        """Walk the route reserving links; return delay until tail delivery."""
        now = self.sim.now
        ser = self.serialization_cycles(wire_bytes)
        hop = self.hop_cycles
        head = now
        path = self.route(source, dest)
        contention = 0
        link_free = self._link_free
        for link in path:
            depart = max(head, link_free.get(link, 0))
            link_free[link] = depart + ser
            contention += depart - head
            head = depart + hop
        if not path:  # self-send: loop back through the local router once
            head = now + hop
        self.stats.add("hops", len(path))
        if contention:
            self.stats.add("contention_cycles", contention)
        return head + ser - now

    def delivery_delay(self, message: NetworkMessage) -> int:
        return self._grid_transit(message.source, message.dest, self.wire_bytes(message))

    def ack_delay(self, from_node: int, to_node: int) -> int:
        return self._grid_transit(from_node, to_node, self.params.network_header_bytes)

    def min_delivery_delay(self) -> int:
        # One hop (a self-send loops through the local router) plus at
        # least one cycle of serialization.
        return self.hop_cycles + 1

    def describe(self) -> str:
        return (
            f"{self.kind}{self.width}x{self.height}: dimension-order routing, "
            f"{self.hop_cycles} cycles/hop, "
            f"{self.params.fabric_link_bytes_per_cycle} B/cycle links"
        )


class TorusFabric(MeshFabric):
    """A 2D torus: a mesh whose rows and columns wrap around.

    Dimension-order routing picks the shorter way around each ring (ties
    break toward increasing coordinates), halving worst-case hop counts
    and removing the mesh's edge/center asymmetry.
    """

    kind = "torus"
    wraps = True

    def _axis_step(self, position: int, target: int, size: int) -> int:
        if target == position:
            return 0
        forward = (target - position) % size
        backward = (position - target) % size
        return 1 if forward <= backward else -1
