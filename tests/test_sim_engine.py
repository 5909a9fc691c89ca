"""Tests for the discrete-event simulation engine."""

import pytest

from repro.sim import SimulationError, Simulator


class TestScheduling:
    def test_initial_time_is_zero(self):
        assert Simulator().now == 0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(20, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_in_fifo_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(5, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(100, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [100]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(50, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(10, lambda: None)

    def test_zero_delay_event_runs(self):
        sim = Simulator()
        seen = []
        sim.schedule(0, seen.append, 1)
        sim.run()
        assert seen == [1]

    def test_events_scheduled_from_events(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(("first", sim.now))
            sim.schedule(5, second)

        def second():
            seen.append(("second", sim.now))

        sim.schedule(10, first)
        sim.run()
        assert seen == [("first", 10), ("second", 15)]

    def test_event_count_tracks_executions(self):
        sim = Simulator()
        for _ in range(7):
            sim.schedule(1, lambda: None)
        sim.run()
        assert sim.event_count == 7


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(10, seen.append, "x")
        sim.cancel(handle)
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.cancel(handle)
        sim.cancel(handle)
        sim.run()

    def test_peek_skips_cancelled_events(self):
        sim = Simulator()
        first = sim.schedule(5, lambda: None)
        sim.schedule(9, lambda: None)
        sim.cancel(first)
        assert sim.peek() == 9


class TestRunLimits:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, seen.append, "early")
        sim.schedule(100, seen.append, "late")
        sim.run(until=50)
        assert seen == ["early"]
        assert sim.now == 50

    def test_run_until_resumable(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, seen.append, "a")
        sim.schedule(100, seen.append, "b")
        sim.run(until=50)
        sim.run()
        assert seen == ["a", "b"]

    def test_max_events_limit(self):
        sim = Simulator()
        seen = []
        for i in range(10):
            sim.schedule(i + 1, seen.append, i)
        sim.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_run_empty_queue_returns_current_time(self):
        sim = Simulator()
        assert sim.run() == 0

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1, nested)
        sim.run()
        assert len(errors) == 1

    def test_peek_returns_none_when_idle(self):
        assert Simulator().peek() is None

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False


class TestFractionalDelays:
    """Regression: float delays used to be silently truncated by int()."""

    def test_fractional_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(0.5, lambda: None)

    def test_fractional_schedule_at_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(10.5, lambda: None)

    def test_integral_float_delay_accepted(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2]

    def test_non_numeric_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule("soon", lambda: None)

    def test_process_fractional_yield_rejected(self):
        from repro.sim import start_process

        sim = Simulator()

        def program():
            yield 0.5

        start_process(sim, program())
        with pytest.raises(SimulationError):
            sim.run()

    def test_delay_object_rejects_fractional_cycles(self):
        from repro.sim import Delay

        with pytest.raises(SimulationError):
            Delay(0.5)

    def test_delay_object_accepts_integral_float(self):
        from repro.sim import Delay

        assert Delay(3.0).cycles == 3


class TestSameCycleLane:
    """The zero-delay FIFO lane must preserve exact (time, seq) order
    against events that reached the same timestamp through the heap."""

    def test_lane_event_runs_after_earlier_heap_event_same_cycle(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            # Scheduled at t=5 with a *later* seq than "second" below, so it
            # must run after it even though it goes through the fast lane.
            sim.schedule(0, lambda: order.append("zero-delay"))

        sim.schedule(5, first)
        sim.schedule(5, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "zero-delay"]

    def test_zero_delay_events_fifo_among_themselves(self):
        sim = Simulator()
        order = []
        for label in "abcd":
            sim.schedule(0, order.append, label)
        sim.run()
        assert order == list("abcd")

    def test_cancel_zero_delay_event(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(0, seen.append, "x")
        sim.cancel(handle)
        sim.run()
        assert seen == []

    def test_schedule_at_current_time_uses_lane_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(0, order.append, "a")
        sim.schedule(0, order.append, "b")
        sim.run()
        assert order == ["a", "b"]

    def test_schedule_call_fast_path_runs_in_order(self):
        sim = Simulator()
        order = []
        sim.schedule_call(0, order.append, ("lane",))
        sim.schedule_call(3, order.append, ("heap",))
        sim.schedule_call(0, order.append, ("lane2",))
        sim.run()
        assert order == ["lane", "lane2", "heap"]
        assert sim.event_count == 3


class TestRunProfile:
    def test_profile_reports_events_and_throughput(self):
        from repro.sim import start_process

        sim = Simulator()

        def program():
            for _ in range(10):
                yield 3
                yield 0

        start_process(sim, program())
        profile = sim.run_profile()
        assert profile["events"] == sim.event_count
        assert profile["events_per_sec"] > 0
        assert profile["lane_events"] + profile["heap_events"] == profile["events"]
        assert profile["lane_events"] >= 10  # the zero-delay yields + start
        assert profile["end_time"] == sim.now

    def test_event_pool_is_reused(self):
        from repro.sim import start_process

        sim = Simulator()

        def program():
            for _ in range(50):
                yield 1

        start_process(sim, program())
        profile = sim.run_profile()
        assert profile["pool_reuses"] > 0

    def test_profile_composes_across_runs(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        first = sim.run_profile()
        sim.schedule(1, lambda: None)
        second = sim.run_profile()
        assert first["events"] == 1
        assert second["events"] == 1
        assert sim.event_count == 2


class TestCycleExactness:
    """Golden numbers captured on the pre-overhaul kernel (seed commit
    b4f2178).  The kernel rewrite must keep simulations bit-identical:
    same event count, same cycle times, same Figure 6 latencies."""

    #: (device, bus) -> (event_count, final sim time, completion time) for a
    #: 12-round 64-byte ping-pong between two nodes.
    PING_PONG_GOLDEN = {
        ("NI2w", "memory"): (3714, 20760, 20760),
        ("CNI16Qm", "memory"): (4312, 14751, 14751),
        ("CNI512Q", "io"): (5404, 21316, 21316),
        ("NI2w", "cache"): (4758, 8592, 8592),
    }

    #: (device, bus) -> mean round-trip cycles for the Figure 6 latency
    #: microbenchmark at 64 bytes, iterations=10, warmup=4.
    FIG6_GOLDEN = {
        ("NI2w", "memory"): 1730.0,
        ("CNI16Qm", "memory"): 1194.8,
        ("CNI512Q", "io"): 1754.0,
    }

    @staticmethod
    def _ping_pong(device, bus, rounds=12, payload=64):
        from repro.node.machine import Machine

        machine = Machine.build(device, bus, num_nodes=2)
        ml0, ml1 = machine.messaging
        state = {"pings": 0, "pongs": 0}

        def on_ping(ml, src, nbytes, body):
            state["pings"] += 1
            yield from ml.send_active_message(src, "pong", nbytes)

        ml1.register_handler("ping", on_ping)
        ml0.register_handler(
            "pong", lambda ml, s, n, b: state.__setitem__("pongs", state["pongs"] + 1)
        )

        def sender():
            for i in range(rounds):
                yield from ml0.send_active_message(1, "ping", payload)
                while state["pongs"] <= i:
                    got = yield from ml0.poll()
                    if not got:
                        yield 10

        def responder():
            while state["pings"] < rounds:
                got = yield from ml1.poll()
                if not got:
                    yield 10

        end = machine.run_programs({0: sender(), 1: responder()}, max_cycles=50_000_000)
        return machine.sim.event_count, machine.sim.now, end

    @pytest.mark.parametrize("config", sorted(PING_PONG_GOLDEN))
    def test_ping_pong_bit_identical_to_seed_kernel(self, config):
        assert self._ping_pong(*config) == self.PING_PONG_GOLDEN[config]

    @pytest.mark.parametrize("config", sorted(FIG6_GOLDEN))
    def test_fig6_latency_bit_identical_to_seed_kernel(self, config):
        from repro.api import ExperimentSpec, run_point

        device, bus = config
        spec = ExperimentSpec(
            kind="latency", device=device, bus=bus, message_bytes=64, iterations=10, warmup=4
        )
        assert run_point(spec).metrics["round_trip_cycles"] == self.FIG6_GOLDEN[config]
