"""Tests for generator-based processes, signals and resources."""

import pytest

from repro.sim import Resource, Signal, SimulationError, Simulator, start_process


class TestDelays:
    def test_plain_number_delay(self):
        sim = Simulator()
        trace = []

        def proc():
            yield 10
            trace.append(sim.now)
            yield 5
            trace.append(sim.now)

        start_process(sim, proc())
        sim.run()
        assert trace == [10, 15]

    def test_negative_delay_rejected(self):
        sim = Simulator()

        def proc():
            yield -3

        start_process(sim, proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_return_value_captured(self):
        sim = Simulator()

        def proc():
            yield 1
            return "result"

        process = start_process(sim, proc())
        sim.run()
        assert process.finished
        assert process.result == "result"

    def test_subgenerator_composition(self):
        sim = Simulator()
        trace = []

        def inner():
            yield 5
            return 42

        def outer():
            value = yield from inner()
            trace.append((sim.now, value))

        start_process(sim, outer())
        sim.run()
        assert trace == [(5, 42)]

    def test_unsupported_yield_raises(self):
        sim = Simulator()

        def proc():
            yield object()

        start_process(sim, proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_process_exception_propagates(self):
        sim = Simulator()

        def bad():
            yield 1
            raise ValueError("boom")

        process = start_process(sim, bad())
        with pytest.raises(ValueError):
            sim.run()
        assert process.finished
        assert isinstance(process.exception, ValueError)


class TestSignals:
    def test_wait_receives_payload(self):
        sim = Simulator()
        signal = Signal(sim)
        got = []

        def waiter():
            payload = yield signal
            got.append(payload)

        def firer():
            yield 20
            signal.fire("hello")

        start_process(sim, waiter())
        start_process(sim, firer())
        sim.run()
        assert got == ["hello"]

    def test_yield_signal_directly(self):
        sim = Simulator()
        signal = Signal(sim)
        got = []

        def waiter():
            payload = yield signal
            got.append(payload)

        start_process(sim, waiter())
        sim.schedule_call(5, signal.fire, ("direct",))
        sim.run()
        assert got == ["direct"]

    def test_fire_wakes_all_waiters(self):
        sim = Simulator()
        signal = Signal(sim)
        woken = []

        def waiter(name):
            yield signal
            woken.append(name)

        for name in ("a", "b", "c"):
            start_process(sim, waiter(name))
        sim.schedule_call(1, signal.fire)
        sim.run()
        assert sorted(woken) == ["a", "b", "c"]

    def test_waiters_wake_in_the_order_they_began_waiting(self):
        sim = Simulator()
        signal = Signal(sim)
        woken = []

        def waiter(name, delay):
            yield delay
            yield signal
            woken.append(name)

        # Started a, b, c; parked c (t=1), a (t=2), b (t=3).
        for name, delay in (("a", 2), ("b", 3), ("c", 1)):
            start_process(sim, waiter(name, delay))
        sim.schedule_call(10, signal.fire)
        sim.run()
        assert woken == ["c", "a", "b"]

    def test_fire_is_not_latched(self):
        # A process that parks after a firing sleeps until the next one and
        # gets that firing's payload, not the earlier one.
        sim = Simulator()
        signal = Signal(sim)
        got = []

        def late_waiter():
            yield 10
            payload = yield signal
            got.append((sim.now, payload))

        start_process(sim, late_waiter())
        sim.schedule_call(5, signal.fire, ("early",))
        sim.schedule_call(20, signal.fire, ("late",))
        sim.run()
        assert got == [(20, "late")]

    def test_fire_without_waiters_is_harmless(self):
        sim = Simulator()
        signal = Signal(sim)
        signal.fire("nobody")
        assert signal.fire_count == 1
        assert signal.waiter_count == 0

    def test_waiters_registered_only_once_per_wait(self):
        sim = Simulator()
        signal = Signal(sim)
        wakeups = []

        def waiter():
            yield signal
            wakeups.append(sim.now)
            # Not waiting again: a second fire must not wake us.

        start_process(sim, waiter())
        sim.schedule_call(5, signal.fire)
        sim.schedule_call(10, signal.fire)
        sim.run()
        assert wakeups == [5]


class TestResources:
    def test_mutual_exclusion_serializes_holders(self):
        sim = Simulator()
        bus = Resource(sim, "bus")
        intervals = []

        def user(name, hold):
            yield bus
            start = sim.now
            yield hold
            bus.release()
            intervals.append((name, start, sim.now))

        start_process(sim, user("a", 10))
        start_process(sim, user("b", 10))
        sim.run()
        # The second user cannot start before the first finished.
        assert intervals[0][2] <= intervals[1][1]

    def test_fifo_grant_order(self):
        sim = Simulator()
        res = Resource(sim, "res")
        order = []

        def user(name):
            yield res
            order.append(name)
            yield 5
            res.release()

        for name in ("first", "second", "third"):
            start_process(sim, user(name))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_release_without_acquire_raises(self):
        sim = Simulator()
        res = Resource(sim, "res")
        with pytest.raises(SimulationError):
            res.release()

    def test_capacity_greater_than_one(self):
        sim = Simulator()
        res = Resource(sim, "res", capacity=2)
        concurrent = {"now": 0, "max": 0}

        def user():
            yield res
            concurrent["now"] += 1
            concurrent["max"] = max(concurrent["max"], concurrent["now"])
            yield 10
            concurrent["now"] -= 1
            res.release()

        for _ in range(4):
            start_process(sim, user())
        sim.run()
        assert concurrent["max"] == 2

    def test_try_acquire_now(self):
        sim = Simulator()
        res = Resource(sim, "res")
        assert res.try_acquire_now() is True
        assert res.try_acquire_now() is False
        res.release()
        assert res.try_acquire_now() is True

    def test_busy_cycles_accounting(self):
        sim = Simulator()
        res = Resource(sim, "res")

        def user():
            yield res
            yield 25
            res.release()

        start_process(sim, user())
        sim.run()
        assert res.busy_cycles == 25

    def test_grant_sends_back_the_resource(self):
        sim = Simulator()
        res = Resource(sim, "res")
        got = []

        def user():
            granted = yield res
            got.append((sim.now, granted))
            yield 4
            res.release()

        start_process(sim, user())
        start_process(sim, user())
        sim.run()
        assert got == [(0, res), (4, res)]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), "bad", capacity=0)
