"""Signal, EdgeWake, BoundedStore and Semaphore behaviour."""

import pytest

from repro.simulation import (BoundedStore, EdgeWake, Interrupt, Semaphore,
                              Signal, SimulationError, Simulator)


class TestSignal:
    def test_fire_wakes_waiter(self):
        sim = Simulator()
        log = []
        signal = Signal(sim)

        def proc():
            yield signal.wait()
            log.append(sim.now)

        sim.spawn(proc())
        sim.call_at(2.0, signal.fire)
        sim.run()
        assert log == [2.0]

    def test_fire_before_wait_is_not_lost(self):
        sim = Simulator()
        signal = Signal(sim)
        signal.fire()
        log = []

        def proc():
            yield signal.wait()
            log.append("woke")

        sim.spawn(proc())
        sim.run()
        assert log == ["woke"]

    def test_fire_wakes_all_waiters(self):
        sim = Simulator()
        signal = Signal(sim)
        log = []

        def proc(i):
            yield signal.wait()
            log.append(i)

        for i in range(4):
            sim.spawn(proc(i))
        sim.call_at(1.0, signal.fire)
        sim.run()
        assert sorted(log) == [0, 1, 2, 3]


class TestBoundedStore:
    def test_fifo_order(self):
        sim = Simulator()
        store = BoundedStore(sim, capacity=10)
        got = []

        def producer():
            for i in range(5):
                yield store.put(i)

        def consumer():
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_put_blocks_when_full(self):
        sim = Simulator()
        store = BoundedStore(sim, capacity=2)
        timeline = []

        def producer():
            for i in range(4):
                yield store.put(i)
                timeline.append(("put", i, sim.now))

        def consumer():
            yield sim.timeout(5.0)
            yield store.get()
            yield store.get()

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        put_times = {i: t for _op, i, t in timeline}
        assert put_times[0] == 0.0
        assert put_times[1] == 0.0
        assert put_times[2] == 5.0
        assert put_times[3] == 5.0

    def test_get_blocks_when_empty(self):
        sim = Simulator()
        store = BoundedStore(sim, capacity=2)
        got = []

        def consumer():
            item = yield store.get()
            got.append((item, sim.now))

        sim.spawn(consumer())
        sim.call_at(3.0, lambda: store.try_put("x"))
        sim.run()
        assert got == [("x", 3.0)]

    def test_try_put_respects_capacity(self):
        sim = Simulator()
        store = BoundedStore(sim, capacity=1)
        assert store.try_put(1)
        assert not store.try_put(2)
        assert store.try_get() == 1
        assert store.try_get() is None

    def test_zero_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            BoundedStore(sim, capacity=0)


class TestSemaphore:
    def test_acquire_release_cycle(self):
        sim = Simulator()
        sem = Semaphore(sim, 2)
        order = []

        def worker(i):
            yield sem.acquire()
            order.append(("start", i, sim.now))
            yield sim.timeout(1.0)
            sem.release()

        for i in range(4):
            sim.spawn(worker(i))
        sim.run()
        starts = {i: t for _op, i, t in order}
        assert starts[0] == 0.0 and starts[1] == 0.0
        assert starts[2] == 1.0 and starts[3] == 1.0

    def test_try_acquire(self):
        sim = Simulator()
        sem = Semaphore(sim, 1)
        assert sem.try_acquire()
        assert not sem.try_acquire()
        sem.release()
        assert sem.try_acquire()

    def test_over_release_raises(self):
        sim = Simulator()
        sem = Semaphore(sim, 1)
        with pytest.raises(SimulationError):
            sem.release()

    def test_counts(self):
        sim = Simulator()
        sem = Semaphore(sim, 3)
        assert sem.available == 3 and sem.in_use == 0
        sem.try_acquire()
        assert sem.available == 2 and sem.in_use == 1


class TestEdgeWake:
    # The multi-waiter case went with the behaviour: an EdgeWake parks one
    # owner; several waiters use Signal (TestSignal covers that).

    def test_fire_with_nobody_parked_is_dropped(self):
        # Edge-triggered: unlike Signal, a fire with nobody parked latches
        # nothing.  A later park lasts until the *next* fire.
        sim = Simulator()
        wake = EdgeWake(sim)
        wake.fire()  # dropped
        log = []

        def proc():
            yield wake
            log.append(sim.now)

        sim.spawn(proc())
        sim.call_at(3.0, wake.fire)
        sim.run()
        assert log == [3.0]

    def test_rearms_after_each_wake(self):
        sim = Simulator()
        wake = EdgeWake(sim)
        log = []

        def proc():
            yield wake
            log.append(("first", sim.now))
            yield wake
            log.append(("second", sim.now))

        sim.spawn(proc())
        sim.call_at(1.0, wake.fire)
        sim.call_at(2.0, wake.fire)
        sim.run()
        assert log == [("first", 1.0), ("second", 2.0)]

    def test_two_fires_before_the_dispatch_resume_once(self):
        sim = Simulator()
        wake = EdgeWake(sim)
        resumed = []

        def proc():
            while True:
                yield wake
                resumed.append(sim.now)

        sim.spawn(proc())

        def burst():
            wake.fire()
            wake.fire()

        sim.call_at(1.0, burst)
        before = sim.events_processed
        sim.run()
        assert resumed == [1.0]
        # start event + burst callback + exactly one wake entry
        assert sim.events_processed - before == 3

    def test_wake_draws_the_counter_an_event_succeed_would(self):
        # The parked wake and an Event fired in the same dispatch keep
        # their fire order on the heap.
        sim = Simulator()
        wake = EdgeWake(sim)
        ev_before, ev_after = sim.event(), sim.event()
        log = []

        def parked():
            yield wake
            log.append("wake")

        def waiter(ev, tag):
            yield ev
            log.append(tag)

        sim.spawn(parked())
        sim.spawn(waiter(ev_before, "before"))
        sim.spawn(waiter(ev_after, "after"))

        def burst():
            ev_before.succeed()
            wake.fire()
            ev_after.succeed()

        sim.call_at(1.0, burst)
        sim.run()
        assert log == ["before", "wake", "after"]

    def test_interrupt_unparks(self):
        # A fire after the interrupt must not resume the process a second
        # time -- neither a later one nor one already on the heap.
        for fire_first in (False, True):
            sim = Simulator()
            wake = EdgeWake(sim)
            log = []

            def proc():
                try:
                    yield wake
                    log.append("woken")
                except Interrupt as intr:
                    log.append(("interrupted", intr.cause))
                yield 5.0
                log.append(("slept", sim.now))

            p = sim.spawn(proc())

            def hit():
                if fire_first:
                    wake.fire()  # its entry is on the heap already
                p.interrupt("stop")
                wake.fire()  # dropped: nobody is parked any more

            sim.call_at(1.0, hit)
            sim.call_at(2.0, wake.fire)
            sim.run()
            assert log == [("interrupted", "stop"), ("slept", 6.0)]
            assert not p.is_alive
