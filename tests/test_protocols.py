"""Tests for the pluggable coherence-protocol kit.

Covers the declarative rule-table registry and spec validation, the
per-protocol cache behaviour of the shipped tables, guarded-transaction
races, the stale-tag snarf regression, the home-node directory protocol
(``dir-msi``), the exhaustive reachability model checker (including its
mutation self-test), and the machine/API surfacing of protocol counters.
"""

from dataclasses import replace

import pytest

from repro.api import ExperimentSpec, SpecError
from repro.apps import create_workload
from repro.coherence.bus import NodeInterconnect
from repro.coherence.cache import CacheError, CoherentCache, MainMemory, _BlockEntry
from repro.coherence.modelcheck import (
    CheckResult,
    _broken_tables,
    check_all,
    check_protocol,
    main as modelcheck_main,
)
from repro.coherence.protocols import (
    ProtocolError,
    ProtocolSpec,
    SnoopRule,
    Unsafe,
    available_protocols,
    protocol_spec,
    register_protocol,
    unregister_protocol,
)
from repro.common.addrmap import AddressMap
from repro.common.params import DEFAULT_PARAMS
from repro.common.types import AgentKind, BusKind, BusOp, BusTransaction, CoherenceState
from repro.node.machine import Machine
from repro.node.node import NodeConfigError
from repro.sim import Simulator, start_process

I = CoherenceState.INVALID
S = CoherenceState.SHARED
E = CoherenceState.EXCLUSIVE
O = CoherenceState.OWNED  # noqa: E741
M = CoherenceState.MODIFIED

SHIPPED = ("moesi", "mesi", "msi", "illinois", "dir-msi")

ADDR = 0x0010_0000  # a block-aligned DRAM address
BLOCK = DEFAULT_PARAMS.cache_block_bytes


def make_system(num_caches=2, protocol="moesi", snarfing=False, cache_blocks=4,
                **overrides):
    """A small single-node coherence system under the given protocol."""
    sim = Simulator()
    params = DEFAULT_PARAMS.with_overrides(protocol=protocol, **overrides).validate()
    addrmap = AddressMap.for_params(params)
    interconnect = NodeInterconnect(sim, params, addrmap, name="test")
    memory = MainMemory(sim, "mem", interconnect, params, addrmap)
    caches = [
        CoherentCache(
            sim,
            f"cache{i}",
            interconnect,
            params,
            addrmap,
            size_bytes=cache_blocks * params.cache_block_bytes,
            agent_kind=AgentKind.PROCESSOR,
            bus_kind=BusKind.MEMORY,
            snarfing=snarfing,
        )
        for i in range(num_caches)
    ]
    return sim, interconnect, memory, caches


def run(sim, gen):
    process = start_process(sim, gen)
    sim.run()
    assert process.finished, "generator did not finish"
    if process.exception:
        raise process.exception
    return process.result


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_shipped_tables_registered_as_builtins(self):
        names = [spec.name for spec in available_protocols()]
        for name in SHIPPED:
            assert name in names
            with pytest.raises(ProtocolError, match="built in"):
                unregister_protocol(name)
        assert names == sorted(names)

    def test_unknown_protocol_names_the_registered_ones(self):
        with pytest.raises(ProtocolError, match="unknown coherence protocol.*moesi"):
            protocol_spec("futurebus")

    def test_register_and_unregister_round_trip(self):
        spec = replace(protocol_spec("msi"), name="test-msi-clone")
        try:
            assert register_protocol(spec) is spec
            assert protocol_spec("test-msi-clone") is spec
            with pytest.raises(ProtocolError, match="already registered"):
                register_protocol(spec)
        finally:
            unregister_protocol("test-msi-clone")
        with pytest.raises(ProtocolError):
            protocol_spec("test-msi-clone")
        with pytest.raises(ProtocolError, match="unknown coherence protocol"):
            unregister_protocol("test-msi-clone")

    def test_decorator_rebinds_builder_to_the_spec(self):
        try:
            @register_protocol
            def test_deco():
                return replace(protocol_spec("msi"), name="test-deco")

            assert isinstance(test_deco, ProtocolSpec)
            assert protocol_spec("test-deco") is test_deco
        finally:
            unregister_protocol("test-deco")

    def test_builtin_table_cannot_be_shadowed(self):
        original = protocol_spec("msi")
        shadow = replace(original, description="shadowed for the test")
        with pytest.raises(ProtocolError, match="built in"):
            register_protocol(shadow)
        with pytest.raises(ProtocolError, match="built in"):
            unregister_protocol("msi")
        assert protocol_spec("msi") is original

    def test_reregistered_plugin_table_drives_fresh_caches(self):
        # The compiled-engine cache keys on spec identity, so a plugin name
        # freed and registered again must recompile instead of serving the
        # old engine.
        first = replace(protocol_spec("msi"), name="test-msi-again")
        second = replace(first, description="fills never exclusive (unchanged), relabelled")
        register_protocol(first)
        try:
            _, _, _, (c0,) = make_system(num_caches=1, protocol="test-msi-again")
            assert c0.protocol is first
        finally:
            unregister_protocol("test-msi-again")
        register_protocol(second)
        try:
            _, _, _, (c1,) = make_system(num_caches=1, protocol="test-msi-again")
            assert c1.protocol is second
        finally:
            unregister_protocol("test-msi-again")

    def test_register_rejects_non_specs(self):
        with pytest.raises(ProtocolError, match="expects a ProtocolSpec"):
            register_protocol(42)
        with pytest.raises(ProtocolError, match="not a ProtocolSpec"):
            register_protocol(lambda: 42)


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
class TestSpecValidation:
    def test_states_must_include_invalid(self):
        with pytest.raises(ProtocolError, match="must include INVALID"):
            ProtocolSpec(name="x", states=(S, M)).validate()

    def test_writable_states_need_silent_hit_transitions(self):
        bad = replace(protocol_spec("msi"), name="x",
                      writable_states=frozenset({S, M}))
        with pytest.raises(ProtocolError, match="lack a write_hit_next entry"):
            bad.validate()

    def test_fill_rules_must_end_with_always(self):
        bad = replace(protocol_spec("mesi"), name="x",
                      read_fill=(("memory_unshared", E),))
        with pytest.raises(ProtocolError, match="must end with an 'always' rule"):
            bad.validate()

    def test_unknown_fill_condition_rejected(self):
        bad = replace(protocol_spec("msi"), name="x",
                      read_fill=(("maybe", S), ("always", S)))
        with pytest.raises(ProtocolError, match="'maybe'"):
            bad.validate()

    def test_snoop_rule_cannot_leave_the_state_set(self):
        rules = dict(protocol_spec("msi").snoop_rules)
        rules[(S, BusOp.READ_SHARED)] = SnoopRule(E)  # E not an MSI state
        bad = replace(protocol_spec("msi"), name="x", snoop_rules=rules)
        with pytest.raises(ProtocolError, match="leaves the state set"):
            bad.validate()

    def test_unsafe_predicate_letters_must_be_states(self):
        bad = replace(protocol_spec("msi"), name="x",
                      unsafe=(Unsafe("phantom", "E >= 2"),))
        with pytest.raises(ProtocolError, match="only state letters"):
            bad.validate()

    def test_unsafe_predicate_must_parse(self):
        bad = replace(protocol_spec("msi"), name="x",
                      unsafe=(Unsafe("broken", "M >="),))
        with pytest.raises(ProtocolError, match="does not parse"):
            bad.validate()

    def test_directory_tables_must_fill_msi_shaped(self):
        bad = replace(protocol_spec("moesi"), name="x", directory=True)
        with pytest.raises(ProtocolError, match="directory protocols need"):
            bad.validate()


# ----------------------------------------------------------------------
# Per-protocol cache behaviour
# ----------------------------------------------------------------------
class TestProtocolBehaviour:
    def test_default_protocol_is_the_papers_moesi(self):
        assert DEFAULT_PARAMS.protocol == "moesi"
        _, _, _, (c0,) = make_system(num_caches=1)
        assert c0.protocol.name == "moesi"

    def test_msi_cold_read_fills_shared(self):
        sim, _, _, (c0, c1) = make_system(protocol="msi")
        run(sim, c0.read_block(ADDR))
        assert c0.probe_state(ADDR) is S  # never EXCLUSIVE in MSI

    @pytest.mark.parametrize("protocol", ["mesi", "illinois", "moesi"])
    def test_exclusive_capable_cold_read_fills_exclusive(self, protocol):
        sim, _, _, (c0, c1) = make_system(protocol=protocol)
        run(sim, c0.read_block(ADDR))
        assert c0.probe_state(ADDR) is E

    @pytest.mark.parametrize("protocol", ["mesi", "illinois"])
    def test_exclusive_write_hit_is_silent(self, protocol):
        sim, ic, _, (c0, c1) = make_system(protocol=protocol)
        run(sim, c0.read_block(ADDR))
        before = ic.stats.get("txn_total")
        run(sim, c0.write_block(ADDR))
        assert c0.probe_state(ADDR) is M
        assert ic.stats.get("txn_total") == before

    def test_msi_write_to_shared_copy_needs_an_upgrade(self):
        sim, ic, _, (c0, c1) = make_system(protocol="msi")
        run(sim, c0.read_block(ADDR))
        run(sim, c0.write_block(ADDR))
        assert c0.probe_state(ADDR) is M
        assert ic.stats.get("txn_upgrade") == 1

    def test_moesi_snooped_read_of_dirty_keeps_ownership(self):
        sim, _, memory, (c0, c1) = make_system(protocol="moesi")
        run(sim, c0.write_block(ADDR))
        run(sim, c1.read_block(ADDR))
        assert c0.probe_state(ADDR) is O  # dirty sharing: memory stays stale
        assert memory.stats.get("writebacks_accepted") == 0

    @pytest.mark.parametrize("protocol", ["mesi", "msi", "illinois"])
    def test_ownerless_snooped_read_of_dirty_reflects_to_memory(self, protocol):
        sim, _, _, (c0, c1) = make_system(protocol=protocol)
        run(sim, c0.write_block(ADDR))
        run(sim, c1.read_block(ADDR))
        assert c0.probe_state(ADDR) is S
        assert c1.probe_state(ADDR) is S
        assert c0.stats.get("snoop_writebacks") == 1

    def test_illinois_clean_shared_copies_supply_data(self):
        # The distinguishing Illinois feature lives in the rule table: clean
        # SHARED copies answer snooped reads with data (MESI's do not).
        assert protocol_spec("illinois").snoop_rules[(S, BusOp.READ_SHARED)].supplies_data
        assert not protocol_spec("mesi").snoop_rules[(S, BusOp.READ_SHARED)].supplies_data

    def test_forbidden_rule_raises_cache_error(self):
        sim, ic, _, (c0, c1) = make_system(protocol="msi")
        run(sim, c0.write_block(ADDR))
        txn = BusTransaction(
            BusOp.WRITEBACK, ADDR, BLOCK, c1, AgentKind.PROCESSOR, sim.now,
            ADDR, True, ic.home_agent(ADDR),
        )
        with pytest.raises(CacheError, match="we own dirty"):
            c0.snoop(txn)

    @pytest.mark.parametrize("protocol", SHIPPED)
    def test_home_node_access_pattern(self, protocol):
        """Write, remote read, flush: what does each table ask of the home?"""
        sim, ic, memory, (c0, c1) = make_system(protocol=protocol)
        run(sim, c0.write_block(ADDR))   # READ_EXCLUSIVE from memory
        run(sim, c1.read_block(ADDR))    # READ_SHARED, c0 supplies
        assert memory.stats.get("reads_observed") == 2
        run(sim, c0.flush_block(ADDR))
        if protocol == "moesi":
            # Only MOESI leaves c0 dirty (OWNED) after the snooped read, so
            # only its flush carries data home.
            assert memory.stats.get("writebacks_accepted") == 1
        else:
            # The MSI-family tables reflected the data to memory during the
            # snooped read; the flush finds a clean copy and stays silent.
            assert memory.stats.get("writebacks_accepted") == 0
            assert c0.stats.get("snoop_writebacks") == 1
        assert c0.probe_state(ADDR) is I


# ----------------------------------------------------------------------
# Stale-tag snarf regression (matches vs tag_matches asymmetry)
# ----------------------------------------------------------------------
class TestStaleTagSnarf:
    def test_matches_requires_validity_tag_matches_does_not(self):
        entry = _BlockEntry()
        entry.tag = 7
        entry.state = I
        assert not entry.matches(7)
        assert entry.tag_matches(7)

    def test_no_snarf_into_a_frame_with_a_refill_pending(self):
        """Regression: a miss repurposing an invalid-but-tagged frame must
        clear the stale tag before arbitrating, or a writeback flying by
        during the bus wait would snarf into the frame the refill is about
        to overwrite (asserting ``shared`` for a block this cache then
        instantly loses)."""
        sim, ic, _, (c0, c1) = make_system(snarfing=True, cache_blocks=4)
        conflict = ADDR + 4 * BLOCK  # same set as ADDR in a 4-block cache
        run(sim, c0.read_block(ADDR))
        run(sim, c1.write_block(ADDR))
        assert c0.probe_state(ADDR) is I  # invalid frame, tag intact

        # Park c0's refill of the conflicting block at the bus wait.
        assert ic.membus.try_acquire_now()
        refill = c0.read_block(conflict)
        assert next(refill) is ic.membus

        # c1's eviction writeback of ADDR now appears on the bus.
        txn = BusTransaction(
            BusOp.WRITEBACK, ADDR, BLOCK, c1, AgentKind.PROCESSOR, sim.now,
            ADDR, True, ic.home_agent(ADDR),
        )
        response = c0.snoop(txn)
        assert response is None  # the stale tag was cleared: no snarf
        assert c0.stats.get("snarfed_blocks") == 0
        refill.close()
        ic.membus.release()

    def test_snarf_still_works_without_a_pending_refill(self):
        sim, _, _, (c0, c1) = make_system(snarfing=True, cache_blocks=4)
        conflict = ADDR + 4 * BLOCK
        run(sim, c0.read_block(ADDR))
        run(sim, c1.write_block(ADDR))
        run(sim, c1.write_block(conflict))  # evicts ADDR -> writeback
        assert c0.probe_state(ADDR) is S
        assert c0.stats.get("snarfed_blocks") == 1


# ----------------------------------------------------------------------
# Guarded-transaction races
# ----------------------------------------------------------------------
class TestGuardedRaces:
    def test_upgrade_race_falls_back_to_write_miss(self):
        """Two sharers upgrade simultaneously: the loser's UPGRADE aborts at
        bus grant and the write retries as a full miss."""
        sim, ic, _, (c0, c1) = make_system()
        run(sim, c0.read_block(ADDR))
        run(sim, c1.read_block(ADDR))
        start_process(sim, c1.write_block(ADDR))
        start_process(sim, c0.write_block(ADDR))
        sim.run()
        races = c0.stats.get("upgrade_races") + c1.stats.get("upgrade_races")
        assert races == 1
        assert ic.stats.get("txn_aborted") == 1
        assert ic.stats.get("txn_upgrade") == 1  # only the winner's appeared
        # The aborted upgrade retried as READ_EXCLUSIVE and won in the end.
        assert ic.stats.get("txn_read_exclusive") == 1
        states = {c0.probe_state(ADDR), c1.probe_state(ADDR)}
        assert states == {M, I}

    def test_eviction_writeback_aborts_when_snoop_takes_the_block(self):
        """A dirty victim's writeback queues behind the transaction that
        invalidates it; the guard must keep the stale writeback off the bus
        (two dirty owners otherwise)."""
        sim, ic, memory, (c0, c1) = make_system(cache_blocks=4)
        conflict = ADDR + 4 * BLOCK
        run(sim, c0.write_block(ADDR))  # c0 dirty
        start_process(sim, c1.write_block(ADDR))       # invalidating RE first
        start_process(sim, c0.write_block(conflict))   # eviction WB queues
        sim.run()
        assert c0.stats.get("writeback_races") == 1
        assert c0.stats.get("writebacks") == 0
        assert memory.stats.get("writebacks_accepted") == 0
        assert ic.stats.get("txn_aborted") == 1
        assert c1.probe_state(ADDR) is M  # the new owner kept the only copy

    def test_flush_aborts_when_snoop_takes_the_block(self):
        sim, ic, memory, (c0, c1) = make_system()
        run(sim, c0.write_block(ADDR))
        start_process(sim, c1.write_block(ADDR))
        start_process(sim, c0.flush_block(ADDR))
        sim.run()
        assert c0.stats.get("flush_races") == 1
        assert c0.stats.get("explicit_flushes") == 0
        assert memory.stats.get("writebacks_accepted") == 0
        assert c0.probe_state(ADDR) is I

    def test_writeback_racing_read_shared_survives_via_owned(self):
        """The benign half of the race: a READ_SHARED demotes the victim
        M->O while its writeback arbitrates.  OWNED is still dirty, so the
        guard passes and the writeback proceeds."""
        sim, ic, memory, (c0, c1) = make_system(cache_blocks=4)
        conflict = ADDR + 4 * BLOCK
        run(sim, c0.write_block(ADDR))
        start_process(sim, c1.read_block(ADDR))        # demotes c0 to OWNED
        start_process(sim, c0.write_block(conflict))   # eviction WB queues
        sim.run()
        assert c0.stats.get("writeback_races") == 0
        assert c0.stats.get("writebacks") == 1
        assert memory.stats.get("writebacks_accepted") == 1
        assert ic.stats.get("txn_aborted") == 0
        assert c1.probe_state(ADDR) is S


# ----------------------------------------------------------------------
# Directory protocol (dir-msi)
# ----------------------------------------------------------------------
class TestDirectoryProtocol:
    def test_broadcast_protocols_have_no_directory(self):
        _, ic, _, _ = make_system(protocol="moesi")
        assert ic.directory is None

    def test_directory_tracks_sharers_and_owner(self):
        sim, ic, _, (c0, c1) = make_system(protocol="dir-msi")
        run(sim, c0.read_block(ADDR))
        assert ic.directory.entry(ADDR) == (None, frozenset({c0}))
        run(sim, c1.read_block(ADDR))
        assert ic.directory.entry(ADDR) == (None, frozenset({c0, c1}))
        run(sim, c1.write_block(ADDR))
        assert ic.directory.entry(ADDR) == (c1, frozenset())
        assert c0.probe_state(ADDR) is I

    def test_writeback_clears_the_recorded_owner(self):
        sim, ic, _, (c0, c1) = make_system(protocol="dir-msi", cache_blocks=4)
        conflict = ADDR + 4 * BLOCK
        run(sim, c0.write_block(ADDR))
        assert ic.directory.entry(ADDR) == (c0, frozenset())
        run(sim, c0.write_block(conflict))  # evicts ADDR -> WRITEBACK
        assert ic.directory.entry(ADDR) == (None, frozenset())

    def test_lookups_consult_only_recorded_holders_plus_home(self):
        sim, ic, _, caches = make_system(num_caches=4, protocol="dir-msi")
        c0, c1, c2, c3 = caches
        run(sim, c0.read_block(ADDR))
        # Cold read: nothing recorded, only the home is consulted.
        assert ic.stats.get("dir_lookups") == 1
        assert ic.stats.get("dir_agents_consulted") == 1
        run(sim, c1.read_block(ADDR))
        # Second read: the one recorded sharer plus the home — never the
        # other two caches, however many agents are attached.
        assert ic.stats.get("dir_agents_consulted") == 3

    def test_silently_dropped_sharers_are_pruned(self):
        sim, ic, _, (c0, c1) = make_system(protocol="dir-msi")
        run(sim, c0.read_block(ADDR))
        c0.invalidate_block(ADDR)  # silent local drop; directory is stale
        run(sim, c1.read_block(ADDR))
        owner, sharers = ic.directory.entry(ADDR)
        assert owner is None
        assert sharers == frozenset({c1})  # c0 was pruned, not consulted
        assert ic.stats.get("dir_agents_consulted") == 2  # home twice

    def test_directory_lookup_costs_bus_occupancy(self):
        def occupancy_of_one_read(lookup_cycles):
            sim, ic, _, (c0,) = make_system(
                num_caches=1, protocol="dir-msi",
                directory_lookup_cycles=lookup_cycles,
            )
            run(sim, c0.read_block(ADDR))
            return ic.memory_bus_occupancy()

        assert occupancy_of_one_read(8) - occupancy_of_one_read(0) == 8

    def test_data_snarfing_is_not_a_machine_param(self):
        # Snarfing is a per-node option (ExperimentSpec.snarfing); a machine
        # parameter of that name would change the spec hash and do nothing.
        spec = ExperimentSpec(
            kind="macro", workload="em3d", device="CNI16Qm", num_nodes=4,
            scale=0.25, params={"data_snarfing": True},
        )
        with pytest.raises(SpecError, match="unknown MachineParams override"):
            spec.validate()

    def test_per_node_snarfing_rejected(self):
        params = DEFAULT_PARAMS.with_overrides(protocol="dir-msi")
        with pytest.raises(NodeConfigError, match="broadcast snoops"):
            Machine.build("CNI16Qm", "memory", num_nodes=2, snarfing=True,
                          params=params)

    @pytest.mark.parametrize("fabric", ["mesh", "torus"])
    def test_dir_msi_runs_macro_workloads_at_64_nodes(self, fabric):
        params = DEFAULT_PARAMS.with_overrides(protocol="dir-msi", fabric=fabric)
        machine = Machine.build("CNI16Qm", "memory", num_nodes=64, params=params)
        workload = create_workload("em3d", scale=0.25, seed=12345)
        cycles = machine.run_programs(workload.programs(machine),
                                      max_cycles=200_000_000)
        assert cycles > 0
        stats = machine.coherence_stats()
        assert stats["protocol"] == "dir-msi"
        assert stats["protocol_transitions"] > 0
        assert machine.nodes[0].interconnect.stats.get("dir_lookups") > 0


# ----------------------------------------------------------------------
# Model checker
# ----------------------------------------------------------------------
class TestModelCheck:
    def test_every_registered_table_is_safe(self):
        results = check_all()
        assert [r.protocol for r in results] == [
            s.name for s in available_protocols()
        ]
        for result in results:
            assert result.ok, result.describe()
            assert result.configs_explored > 0

    def test_moesi_reachable_set_is_the_hand_derived_one(self):
        result = check_protocol("moesi")
        assert result.ok
        # I*, S+, E, M, O, OS+, and the two stale-memory variants of the
        # dirty singletons' S-sharing: the exact MOESI invariant set.
        assert result.configs_explored == 8

    def test_checker_rejects_each_broken_table(self):
        for description, spec, expected in _broken_tables():
            result = check_protocol(spec)
            assert not result.ok, f"{spec.name} ({description}) wrongly proved safe"
            assert any(expected in v.name for v in result.violations), (
                f"{spec.name}: expected {expected!r}, got "
                f"{[v.name for v in result.violations]}"
            )
            # Counterexamples come with a concrete event trace.
            assert all(v.trace for v in result.violations)

    def test_violation_traces_replay_from_cold(self):
        _, spec, _ = _broken_tables()[0]
        result = check_protocol(spec)
        trace = result.violations[0].trace
        assert trace[0].startswith(("read miss", "write miss", "full-block write"))

    def test_check_protocol_accepts_spec_objects(self):
        result = check_protocol(protocol_spec("msi"))
        assert isinstance(result, CheckResult)
        assert result.ok

    def test_cli_reports_safe_tables(self, capsys):
        assert modelcheck_main(["--all"]) == 0
        out = capsys.readouterr().out
        for name in SHIPPED:
            assert f"{name}: SAFE" in out

    def test_cli_self_test_exit_code(self, capsys):
        assert modelcheck_main(["--self-test"]) == 0
        assert "every broken table rejected" in capsys.readouterr().out

    def test_cli_unknown_protocol_fails(self, capsys):
        assert modelcheck_main(["no-such-table"]) == 1
        assert "ERROR" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Machine and API surfacing
# ----------------------------------------------------------------------
class TestMachineIntegration:
    def test_coherence_stats_sum_protocol_activity(self):
        from tests.conftest import build_machine, run_ping_pong

        machine = build_machine(num_nodes=2)
        run_ping_pong(machine)
        stats = machine.coherence_stats()
        assert stats["protocol"] == "moesi"
        assert stats["protocol_transitions"] > 0
        assert stats["protocol_snoop_transitions"] >= stats["protocol_invalidations"]

    def test_describe_names_non_default_protocols(self):
        params = DEFAULT_PARAMS.with_overrides(protocol="msi")
        machine = Machine.build("CNI16Qm", "memory", num_nodes=2, params=params)
        assert "protocol=msi" in machine.describe()
        default = Machine.build("CNI16Qm", "memory", num_nodes=2)
        assert "protocol" not in default.describe()

    def test_protocol_sweep_covers_every_shipped_table(self):
        from repro.api import SHIPPED_PROTOCOLS, protocol_sweep

        assert tuple(SHIPPED_PROTOCOLS) == SHIPPED
        specs = list(protocol_sweep())
        assert len(specs) == len(SHIPPED) * 3  # macro trio x protocols
        assert {spec.params["protocol"] for spec in specs} == set(SHIPPED)
        for spec in specs:
            assert spec.kind == "macro"
