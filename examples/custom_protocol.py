#!/usr/bin/env python
"""Build a custom communication protocol AND a custom device on the public
API: a work-stealing task pool in which idle nodes steal tasks from a
master node with active messages, run on the standard devices *and* on a
user-defined network interface plugged in through ``@register_device``.

The plugin, ``HybridNI``, is assembled from the same port primitives the
built-in devices use (:mod:`repro.ni.primitives`): a coherent cachable
queue on the send side paired with a conventional uncached register FIFO
on the receive side — a taxonomy point the paper never named.  Once
registered, its name works everywhere a standard name does: machines are
declared as :class:`repro.ExperimentSpec` configurations and built with
:meth:`repro.Machine.from_spec`, so the same spec objects could drive the
sweep runner for the built-in measurements.

Run with::

    python examples/custom_protocol.py [--nodes 8] [--tasks 64]
"""

import argparse

from repro import ExperimentSpec, Machine
from repro.coherence.cache import CoherentCache
from repro.common.types import AgentKind
from repro.ni import AbstractNI, CachableQueue, register_device
from repro.ni.primitives import CqSendPort, UncachedRecvPort


@register_device("HybridNI")
class HybridNI(AbstractNI):
    """Coherent-queue send path + uncached-FIFO receive path.

    Sends enjoy the cachable queue's block transfers and lazy pointers;
    receives pay the conventional uncached word-at-a-time cost.  ~40 lines
    of address layout — the timing-critical mechanisms are all primitives.
    """

    def __init__(self, *args, send_queue_blocks: int = 16, fifo_messages: int = 4, **kwargs):
        super().__init__(*args, **kwargs)
        blocks_per_entry = self.params.blocks_per_network_message
        block_bytes = self.params.cache_block_bytes

        # Send side: a device-homed cachable queue with memory-based pointers.
        send_base = self.allocate_device_blocks(send_queue_blocks)
        self.send_head_ptr_addr = self.allocate_dram_blocks(1)
        self.send_tail_ptr_addr = self.allocate_dram_blocks(1)
        self.msg_ready_reg = self.allocate_uncached_register()
        self.send_q = CachableQueue(
            name=f"{self.name}.sendq",
            base_addr=send_base,
            num_blocks=send_queue_blocks,
            blocks_per_entry=blocks_per_entry,
            block_bytes=block_bytes,
            head_ptr_addr=self.send_head_ptr_addr,
            tail_ptr_addr=self.send_tail_ptr_addr,
        )
        self.send_cache = CoherentCache(
            self.sim, f"{self.name}.send-cache", self.interconnect, self.params,
            self.addrmap, size_bytes=send_queue_blocks * block_bytes,
            agent_kind=AgentKind.NI_DEVICE, bus_kind=self.bus_kind,
        )
        self.ptr_cache = CoherentCache(
            self.sim, f"{self.name}.ptr-cache", self.interconnect, self.params,
            self.addrmap, size_bytes=4 * block_bytes,
            agent_kind=AgentKind.NI_DEVICE, bus_kind=self.bus_kind,
        )

        # Receive side: plain uncached status/data registers.
        self.recv_status_reg = self.allocate_uncached_register()
        self.recv_data_reg = self.allocate_uncached_register()

        self.send_port = CqSendPort(
            self, self.send_q, self.send_cache, self.ptr_cache, self.msg_ready_reg,
        )
        self.recv_port = UncachedRecvPort(
            self, self.recv_data_reg, self.recv_status_reg, fifo_messages,
        )


def run_work_stealing(ni_name: str, nodes: int, tasks: int, task_cycles: int = 4000) -> dict:
    spec = ExperimentSpec(device=ni_name, bus="memory", num_nodes=nodes)
    machine = Machine.from_spec(spec)
    master_ml = machine.messaging[0]

    pool = list(range(tasks))
    executed = {node_id: 0 for node_id in range(nodes)}
    done = {"workers": 0}

    # --- master-side handlers -------------------------------------------
    def on_steal_request(ml, source, nbytes, body):
        if pool:
            task_id = pool.pop()
            yield from ml.send_active_message(source, "task", 64, (task_id,))
        else:
            yield from ml.send_active_message(source, "no_more_work", 8)

    master_ml.register_handler("steal", on_steal_request)
    master_ml.register_handler(
        "worker_done", lambda ml, s, n, b: done.__setitem__("workers", done["workers"] + 1)
    )

    # --- worker-side handlers and programs ------------------------------
    def make_worker(node_id):
        ml = machine.messaging[node_id]
        state = {"task": None, "finished": False}

        def on_task(_ml, source, nbytes, body):
            state["task"] = body[0]

        def on_no_more_work(_ml, source, nbytes, body):
            state["finished"] = True

        ml.register_handler("task", on_task)
        ml.register_handler("no_more_work", on_no_more_work)

        def program():
            while not state["finished"]:
                state["task"] = None
                yield from ml.send_active_message(0, "steal", 16)
                while state["task"] is None and not state["finished"]:
                    got = yield from ml.poll()
                    if not got:
                        yield 20
                if state["task"] is not None:
                    yield from ml.processor.compute(task_cycles)
                    executed[node_id] += 1
            yield from ml.send_active_message(0, "worker_done", 8)

        return program()

    def master_program():
        while done["workers"] < nodes - 1:
            got = yield from master_ml.poll()
            if not got:
                yield 20

    programs = {0: master_program()}
    for node_id in range(1, nodes):
        programs[node_id] = make_worker(node_id)
    cycles = machine.run_programs(programs)

    return {
        "cycles": cycles,
        "executed": dict(executed),
        "network_messages": machine.network_stats()["messages_injected"],
        "memory_bus_occupancy": machine.total_memory_bus_occupancy(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--tasks", type=int, default=64)
    args = parser.parse_args()

    print(f"Work-stealing pool: {args.tasks} tasks over {args.nodes} nodes\n")
    cycles = {}
    for ni_name in ("NI2w", "CNI4", "CNI16Qm", "HybridNI"):
        result = run_work_stealing(ni_name, args.nodes, args.tasks)
        cycles[ni_name] = result["cycles"]
        total = sum(result["executed"].values())
        print(f"{ni_name:<9} cycles={result['cycles']:>10,}  tasks run={total:>4}  "
              f"net msgs={result['network_messages']:>5}  "
              f"speedup over NI2w={cycles['NI2w'] / result['cycles']:.2f}")
    print("\nThe steal latency (request + task reply) is exactly the fine-grain")
    print("request/response traffic that coherent network interfaces accelerate.")
    print("HybridNI is a plugin registered with @register_device and assembled")
    print("from the same port primitives as the built-in devices; its")
    print("coherent-send/uncached-receive split predicts performance between")
    if cycles["CNI16Qm"] <= cycles["HybridNI"] <= cycles["NI2w"]:
        print("NI2w and CNI16Qm — which is where this run landed "
              f"({cycles['NI2w'] / cycles['HybridNI']:.2f}x NI2w).")
    else:
        print(f"NI2w and CNI16Qm; this run measured {cycles['NI2w'] / cycles['HybridNI']:.2f}x "
              "NI2w (small pools are dominated by steal round-trips, not send cost).")


if __name__ == "__main__":
    main()
