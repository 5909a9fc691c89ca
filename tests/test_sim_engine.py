"""Tests for the discrete-event simulation engine."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SimulationError, Simulator, start_process


def _noop():
    pass


class TestScheduling:
    def test_initial_time_is_zero(self):
        assert Simulator().now == 0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_call(30, order.append, ("c",))
        sim.schedule_call(10, order.append, ("a",))
        sim.schedule_call(20, order.append, ("b",))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_in_fifo_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule_call(5, order.append, (label,))
        sim.run()
        assert order == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_call(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_negative_float_delay_rejected(self):
        sim = Simulator()

        def program():
            yield -1.0

        start_process(sim, program())
        with pytest.raises(SimulationError):
            sim.run()

    def test_zero_delay_event_runs(self):
        sim = Simulator()
        seen = []
        sim.schedule_call(0, seen.append, (1,))
        sim.run()
        assert seen == [1]

    def test_events_scheduled_from_events(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(("first", sim.now))
            sim.schedule_call(5, second)

        def second():
            seen.append(("second", sim.now))

        sim.schedule_call(10, first)
        sim.run()
        assert seen == [("first", 10), ("second", 15)]

    def test_event_count_tracks_executions(self):
        sim = Simulator()
        for _ in range(7):
            sim.schedule_call(1, _noop)
        sim.run()
        assert sim.event_count == 7


class TestRunLimits:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule_call(10, seen.append, ("early",))
        sim.schedule_call(100, seen.append, ("late",))
        sim.run(until=50)
        assert seen == ["early"]
        assert sim.now == 50

    def test_run_until_resumable(self):
        sim = Simulator()
        seen = []
        sim.schedule_call(10, seen.append, ("a",))
        sim.schedule_call(100, seen.append, ("b",))
        sim.run(until=50)
        sim.run()
        assert seen == ["a", "b"]

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

        sim.schedule_call(1, nested)
        sim.run()
        assert len(errors) == 1

    def test_peek_returns_none_when_idle(self):
        assert Simulator().peek() is None

    def test_peek_returns_next_pending_time(self):
        sim = Simulator()
        sim.schedule_call(9, _noop)
        sim.schedule_call(5, _noop)
        assert sim.peek() == 5
        sim.run(until=5)
        sim.schedule_call(0, _noop)  # a lane event at the current cycle
        assert sim.peek() == 5
        sim.run(until=6)
        assert sim.peek() == 9

    @pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
    def test_run_until_runs_events_at_the_horizon(self, hooked):
        # run(until=t) executes exactly the events with time <= t; the
        # watchdog's chunked driving relies on it on both drains.
        sim = Simulator()
        if hooked:
            sim.enable_hooks()
        seen = []
        sim.schedule_call(10, seen.append, ("early",))
        sim.schedule_call(50, seen.append, ("edge",))
        sim.schedule_call(51, seen.append, ("late",))
        assert sim.run(until=50) == 50
        assert seen == ["early", "edge"]
        assert sim.peek() == 51
        sim.run()
        assert seen == ["early", "edge", "late"]

    @pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
    def test_raising_callback_leaves_later_events_pending(self, hooked):
        # The raising event is counted; its same-cycle sibling (already in
        # the hooked drain's batch, which peek must report) and the child it
        # scheduled before raising stay pending for the next run.
        sim = Simulator()
        if hooked:
            sim.enable_hooks()
        order = []

        def boom():
            order.append("boom")
            sim.schedule_call(1, order.append, ("child",))
            raise ValueError("boom")

        sim.schedule_call(5, boom)
        sim.schedule_call(5, order.append, ("sibling",))
        sim.schedule_call(9, order.append, ("later",))
        with pytest.raises(ValueError):
            sim.run()
        assert (sim.now, sim.event_count, sim.peek()) == (5, 1, 5)
        sim.run()
        assert order == ["boom", "sibling", "child", "later"]
        assert sim.event_count == 4

    @pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
    def test_run_until_before_now_is_rejected(self, hooked):
        # Simulated time never moves backwards: a horizon behind the clock is
        # refused and leaves the clock and the queue as they were.
        sim = Simulator()
        if hooked:
            sim.enable_hooks()
        seen = []
        sim.schedule_call(100, seen.append, ("late",))
        assert sim.run(until=50) == 50
        with pytest.raises(SimulationError, match="backwards"):
            sim.run(until=10)
        assert (sim.now, sim.peek(), seen) == (50, 100, [])
        assert sim.run(until=50) == 50
        sim.schedule_call(5, seen.append, ("soon",))
        assert sim.run() == 100
        assert seen == ["soon", "late"]


class TestFractionalDelays:
    """Regression: float delays used to be silently truncated by int()."""

    def test_integral_float_delay_accepted(self):
        sim = Simulator()
        seen = []

        def program():
            yield 2.0
            seen.append(sim.now)

        start_process(sim, program())
        sim.run()
        assert seen == [2]

    def test_non_numeric_delay_rejected(self):
        sim = Simulator()

        def program():
            yield True  # a bool is an int subclass, not a delay

        start_process(sim, program())
        with pytest.raises(SimulationError):
            sim.run()

    def test_process_fractional_yield_rejected(self):
        sim = Simulator()

        def program():
            yield 0.5

        start_process(sim, program())
        with pytest.raises(SimulationError):
            sim.run()


class TestSameCycleLane:
    """The zero-delay lane must preserve exact (time, seq) order against
    events that reached the same cycle through its bucket."""

    def test_lane_event_runs_after_earlier_heap_event_same_cycle(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            # Scheduled at t=5 with a *later* seq than "second" below, so it
            # must run after it, although "second" waited in a bucket.
            sim.schedule_call(0, order.append, ("zero-delay",))

        sim.schedule_call(5, first)
        sim.schedule_call(5, order.append, ("second",))
        sim.run()
        assert order == ["first", "second", "zero-delay"]

    def test_zero_delay_events_fifo_among_themselves(self):
        sim = Simulator()
        order = []
        for label in "abcd":
            sim.schedule_call(0, order.append, (label,))
        sim.run()
        assert order == list("abcd")

    def test_schedule_call_fast_path_runs_in_order(self):
        sim = Simulator()
        order = []
        sim.schedule_call(0, order.append, ("lane",))
        sim.schedule_call(3, order.append, ("heap",))
        sim.schedule_call(0, order.append, ("lane2",))
        sim.run()
        assert order == ["lane", "lane2", "heap"]
        assert sim.event_count == 3


class _ReferenceKernel:
    """The order the kernel must keep: one global heap of ``(time, seq)``."""

    def __init__(self):
        self.heap = []
        self.seq = 0
        self.now = 0
        self.event_count = 0

    def schedule_call(self, delay, callback, args=()):
        heapq.heappush(self.heap, (self.now + delay, self.seq, callback, args))
        self.seq += 1

    def peek(self):
        return self.heap[0][0] if self.heap else None

    def run(self, until=None):
        while self.heap:
            if until is not None and self.heap[0][0] > until:
                self.now = until
                break
            self.now, _, callback, args = heapq.heappop(self.heap)
            self.event_count += 1
            callback(*args)
        return self.now


class _Boom(Exception):
    pass


def _drive(sim, chunks, boom):
    """Run ``chunks`` on ``sim`` the way the watchdog does; return the trace.

    Each chunk schedules its root trees from outside the drain, then runs
    ``run(until=now + step)`` (``run()`` for a ``None`` step); a last
    ``run()`` drains the rest.  A tree is ``(delay, children)``: when its
    callback runs it schedules its children, and the ``boom``-th callback to
    run then raises.
    """
    trace = []

    def make(label, children):
        def callback():
            trace.append((sim.now, label))
            for i, (delay, grandchildren) in enumerate(children):
                sim.schedule_call(delay, make(label + (i,), grandchildren))
            if len(trace) - 1 == boom:
                raise _Boom()

        return callback

    for c, (roots, step) in enumerate(chunks + [((), None)]):
        for r, (delay, children) in enumerate(roots):
            sim.schedule_call(delay, make((c, r), children))
        try:
            sim.run(None if step is None else sim.now + step)
        except _Boom:
            trace.append("boom")
        trace.append(("run", sim.now, sim.event_count, sim.peek()))
    return trace


_delays = st.integers(min_value=0, max_value=3)
_trees = st.recursive(
    st.tuples(_delays, st.just(())),
    lambda kids: st.tuples(_delays, st.lists(kids, max_size=3).map(tuple)),
    max_leaves=6,
)
_chunks = st.lists(
    st.tuples(st.lists(_trees, max_size=4), st.none() | st.integers(min_value=0, max_value=4)),
    min_size=1,
    max_size=5,
)


class TestRandomizedOrder:
    """Both drains keep the reference kernel's order under random schedules:
    zero and small delays, from outside the drain and from callbacks,
    ``run(until=...)`` chunks and at most one raising callback."""

    @pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
    @settings(max_examples=150, deadline=None)
    @given(chunks=_chunks, boom=st.none() | st.integers(min_value=0, max_value=20))
    def test_matches_one_global_heap(self, hooked, chunks, boom):
        sim = Simulator()
        if hooked:
            sim.enable_hooks()
        assert _drive(sim, chunks, boom) == _drive(_ReferenceKernel(), chunks, boom)


class TestRunProfile:
    """Kernel bookkeeping across runs: hooked-drain records and ``event_count``."""

    def test_hooked_drain_runs_one_fresh_record_per_event(self):
        # Hooks key side tables by record identity, so every event the hooked
        # drain runs is its own record; it carries its cycle as ``time``, and
        # under the default pick_next its ``seq`` rises in execution order.
        class Recorder(Simulator):
            def __init__(self):
                super().__init__()
                self.runs = []
                self.enable_hooks()

            def on_execute(self, event):
                self.runs.append((event, self.now))

        sim = Recorder()

        def parent(depth):
            sim.schedule_call(0, _noop)
            if depth:
                sim.schedule_call(depth % 3, parent, (depth - 1,))

        for i in range(40):
            sim.schedule_call(i % 4, parent, (i % 5,))
        sim.run(until=2)
        sim.schedule_call(0, _noop)
        sim.run()
        records = [event for event, _ in sim.runs]
        # parent(d) runs 2 * (d + 1) events; depths 0-4 start 8 times each.
        assert len(records) == sim.event_count == 8 * (2 + 4 + 6 + 8 + 10) + 1
        assert len({id(event) for event in records}) == len(records)
        assert all(event.time == now for event, now in sim.runs)
        seqs = [event.seq for event in records]
        assert seqs == sorted(set(seqs))

    def test_profile_composes_across_runs(self):
        sim = Simulator()
        sim.schedule_call(1, _noop)
        assert sim.run() == 1
        assert sim.event_count == 1
        sim.schedule_call(1, _noop)
        assert sim.run() == 2
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
