"""The simulated parallel machine: N nodes plus the network fabric."""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Union

from repro.common.params import DEFAULT_PARAMS, MachineParams
from repro.common.types import BusKind
from repro.msglayer.messaging import MessagingLayer
from repro.network.registry import create_fabric
from repro.node.node import Node, NodeConfig
from repro.sim import Samples, Simulator, Watchdog

# Re-exported from the kernel's watchdog module (historical home); the
# structured subclass SimulationHangError is caught by existing
# ``except WorkloadHangError`` call sites.
from repro.sim.watchdog import SimulationHangError, WorkloadHangError  # noqa: F401


class Machine:
    """A 16-node (by default) parallel machine built from :class:`Node`s."""

    def __init__(
        self,
        params: Optional[MachineParams] = None,
        node_config: Optional[NodeConfig] = None,
        node_configs: Optional[Sequence[NodeConfig]] = None,
        num_nodes: Optional[int] = None,
    ):
        base_params = params or DEFAULT_PARAMS
        if num_nodes is not None:
            base_params = base_params.with_overrides(num_nodes=num_nodes)
        self.params = base_params.validate()
        self.sim = Simulator()
        self.fabric = create_fabric(self.sim, self.params)

        if node_configs is not None:
            if len(node_configs) != self.params.num_nodes:
                raise ValueError(
                    f"expected {self.params.num_nodes} node configs, got {len(node_configs)}"
                )
            configs = list(node_configs)
        else:
            configs = [node_config or NodeConfig() for _ in range(self.params.num_nodes)]
        for config in configs:  # before any node is assembled
            config.validate(self.params.protocol)

        self.nodes: List[Node] = [
            Node(self.sim, node_id, self.params, self.fabric, config)
            for node_id, config in enumerate(configs)
        ]
        self.messaging: List[MessagingLayer] = [
            MessagingLayer(
                self.sim,
                node.node_id,
                node.processor,
                node.ni,
                self.params,
                node.dram_allocator,
            )
            for node in self.nodes
        ]
        for layer in self.messaging:
            layer.num_nodes = len(self.nodes)
        self._started = False

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        ni_name: str = "CNI16Qm",
        bus: Union[BusKind, str] = BusKind.MEMORY,
        num_nodes: int = 16,
        snarfing: bool = False,
        params: Optional[MachineParams] = None,
        ni_kwargs: Optional[Dict] = None,
    ) -> "Machine":
        """Build a homogeneous machine with the given NI on the given bus."""
        bus_kind = bus if isinstance(bus, BusKind) else BusKind(bus)
        config = NodeConfig(
            ni_name=ni_name,
            ni_bus=bus_kind,
            snarfing=snarfing,
            ni_kwargs=dict(ni_kwargs or {}),
        )
        return cls(params=params, node_config=config, num_nodes=num_nodes)

    @classmethod
    def from_spec(cls, spec) -> "Machine":
        """Build the machine an :class:`repro.api.ExperimentSpec` describes.

        This is the counterpart of :meth:`describe`: a declarative spec in,
        a machine out.  Only the machine-shaped fields are consulted
        (``device``, ``bus``, ``num_nodes``, ``snarfing``, ``ni_kwargs``
        and the ``params`` overrides); measurement fields such as
        ``message_bytes`` or ``workload`` are the runner's concern.
        """
        # spec.machine_params() merges the spec's node count into the
        # overrides before validation, so shape-dependent parameters (an
        # explicit grid fabric like "torus2x2") validate against the
        # machine being built, not the default 16-node shape.
        machine_params = spec.machine_params()
        return cls.build(
            spec.device,
            spec.bus,
            num_nodes=spec.num_nodes,
            snarfing=spec.snarfing,
            params=machine_params,
            ni_kwargs=dict(spec.ni_kwargs),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for node in self.nodes:
            node.start()

    def run(self, until: Optional[int] = None) -> int:
        self.start()
        return self.sim.run(until=until)

    def run_programs(
        self,
        programs: Union[Sequence[Generator], Dict[int, Generator]],
        max_cycles: Optional[int] = None,
    ) -> int:
        """Run one workload program per node and return the completion time.

        ``programs`` is either a sequence with one generator per node or a
        mapping from node id to generator (nodes without a program idle).
        Raises :class:`WorkloadHangError` if the programs do not all finish.
        """
        self.start()
        if isinstance(programs, dict):
            items = programs.items()
        else:
            if len(programs) != len(self.nodes):
                raise ValueError(
                    f"expected {len(self.nodes)} programs, got {len(programs)}"
                )
            items = enumerate(programs)
        if self.params.reliable_messaging:
            # Append the reliability flush to each program: drain unacked
            # fragments and linger re-acking peers' retransmissions, so a
            # lossy run terminates cleanly (two-generals cut off by the
            # capped give-up + the watchdog).
            items = [
                (node_id, self._with_reliable_flush(node_id, program))
                for node_id, program in items
            ]
        processes = [
            self.nodes[node_id].processor.run_program(program, name=f"workload-cpu{node_id}")
            for node_id, program in items
        ]
        end_time = Watchdog(
            self.sim,
            processes,
            max_cycles=max_cycles,
            progress=self._progress_fingerprint,
            holders=self._waitable_holders(),
        ).run()
        unfinished = [p.name for p in processes if not p.finished]
        if unfinished:
            raise WorkloadHangError(
                f"workload did not complete by cycle {end_time}: "
                f"{len(unfinished)} stuck processes ({', '.join(unfinished[:4])}...)"
            )
        return max(p.finished_at for p in processes) if processes else end_time

    def _with_reliable_flush(self, node_id: int, program: Generator) -> Generator:
        yield from program
        yield from self.messaging[node_id].reliable_flush()

    def _progress_fingerprint(self) -> tuple:
        """Workload-progress fingerprint for the engine watchdog.

        Deliberately excludes raw event/poll counters (a spinning poller
        executes events forever without progressing) in favor of delivered
        traffic and completed user-level messages.
        """
        net = self.fabric.stats
        user = 0
        for layer in self.messaging:
            raw = layer.stats.raw
            user += (
                raw.get("user_messages_sent", 0)
                + raw.get("user_messages_received", 0)
                + raw.get("barriers", 0)
            )
        return (net.get("messages_delivered"), net.get("acks_delivered"), user)

    def _waitable_holders(self) -> List[object]:
        """Each node's NI, window, send port, receive port and interconnect:
        between them they own every signal and resource a process parks on."""
        return [
            holder
            for node in self.nodes
            for holder in (
                node.ni, node.ni.window, node.ni.send_port, node.ni.recv_port, node.interconnect
            )
        ]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def total_memory_bus_occupancy(self) -> int:
        return sum(node.memory_bus_occupancy() for node in self.nodes)

    def total_io_bus_occupancy(self) -> int:
        return sum(node.io_bus_occupancy() for node in self.nodes)

    def network_stats(self) -> Dict[str, int]:
        return self.fabric.stats.as_dict()

    def fault_stats(self) -> Dict[str, object]:
        """Machine-wide fault-injection and recovery totals.

        Merges the fabric's fault-injection counters (drops, duplicates,
        corruptions, delays) with every node's reliability counters
        (retransmits, recoveries, dedup discards) and the combined
        recovery-latency histogram.  Returns ``{"plan": ""}`` plus zeroed
        recovery counters when no fault plan is active.
        """
        out: Dict[str, object] = {"plan": self.params.faults}
        if self.fabric.faults is not None:
            out.update(self.fabric.faults.fault_stats())
        recovery = Samples()
        for layer in self.messaging:
            for key, value in layer.fault_stats().items():
                out[key] = out.get(key, 0) + value
            recovery.extend(layer.recovery_samples.values())
        if recovery.count:
            out["recovery_latency"] = {
                "count": recovery.count,
                "mean": round(recovery.mean, 1),
                "p50": recovery.percentile(0.5),
                "p95": recovery.percentile(0.95),
                "max": recovery.maximum,
            }
        return out

    def coherence_stats(self) -> Dict[str, Union[str, int]]:
        """Machine-wide coherence-protocol activity totals.

        Sums the protocol counters of every coherent cache on every node
        (processor caches and NI device caches alike):

        * ``protocol_transitions`` — all state transitions (fills, silent
          hit promotions, snoop reactions, invalidations),
        * ``protocol_snoop_transitions`` / ``protocol_invalidations`` —
          transitions forced by snooped remote transactions, and the subset
          that dropped the block,
        * ``protocol_writebacks`` — dirty data reflected home (evictions,
          explicit flushes and snooped-read reflections),
        * ``protocol_races`` — guarded bus transactions aborted because a
          concurrent transaction invalidated their premise while they
          waited for the bus.
        """
        from repro.coherence.cache import CoherentCache

        transitions = snoops = invalidations = writebacks = races = 0
        for node in self.nodes:
            for agent in node.interconnect.agents:
                if not isinstance(agent, CoherentCache):
                    continue
                raw = agent.stats.raw
                transitions += raw.get("state_transitions", 0)
                snoops += raw.get("snoop_transitions", 0)
                invalidations += raw.get("snoop_invalidations", 0)
                writebacks += (
                    raw.get("writebacks", 0)
                    + raw.get("explicit_flushes", 0)
                    + raw.get("snoop_writebacks", 0)
                )
                races += (
                    raw.get("upgrade_races", 0)
                    + raw.get("writeback_races", 0)
                    + raw.get("flush_races", 0)
                )
        return {
            "protocol": self.params.protocol,
            "protocol_transitions": transitions,
            "protocol_snoop_transitions": snoops,
            "protocol_invalidations": invalidations,
            "protocol_writebacks": writebacks,
            "protocol_races": races,
        }

    def spin_elision_stats(self) -> Dict[str, int]:
        """Machine-wide spin-wait elision totals (kernel + per-device).

        ``elided_events`` / ``elided_cycles`` are the kernel events and
        simulated cycles that busy-poll spins would have executed but did
        not (see :mod:`repro.sim.spinwait`); ``elided_spins`` counts the
        reconstructed poll-loop iterations across all devices.  All three
        are zero when ``params.spin_elision`` is off or no device qualifies.
        """
        return {
            "elided_events": self.sim.elided_events,
            "elided_cycles": self.sim.elided_cycles,
            "elided_spins": sum(
                node.ni.stats.get("elided_spins") for node in self.nodes
            ),
        }

    def describe(self) -> str:
        ni_names = {node.config.ni_name for node in self.nodes}
        buses = {node.config.ni_bus.value for node in self.nodes}
        fabric = "" if self.params.fabric == "ideal" else f", fabric={self.params.fabric}"
        protocol = (
            "" if self.params.protocol == "moesi" else f", protocol={self.params.protocol}"
        )
        return (
            f"Machine: {len(self.nodes)} nodes, NI={'/'.join(sorted(ni_names))}, "
            f"bus={'/'.join(sorted(buses))}{fabric}{protocol}"
        )

    def __repr__(self) -> str:
        return f"<{self.describe()}>"
