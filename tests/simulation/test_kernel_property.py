"""Property-based kernel tests: ordering, composites, determinism."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulation import EdgeWake, Interrupt, Simulator
from repro.telemetry import Telemetry


@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_timers_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for i, delay in enumerate(delays):
        sim.call_at(delay, lambda d=delay: fired.append((sim.now, d)))
    sim.run()
    times = [t for t, _d in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)
    for now, delay in fired:
        assert now == delay


@given(delays=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_any_of_fires_at_minimum_delay(delays):
    sim = Simulator()
    observed = []

    def proc():
        first = yield sim.any_of([sim.timeout(d, d) for d in delays])
        observed.append((sim.now, first.value))

    sim.spawn(proc())
    sim.run()
    now, value = observed[0]
    assert now == min(delays)
    assert value == min(delays)


@given(delays=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_all_of_fires_at_maximum_delay(delays):
    sim = Simulator()
    observed = []

    def proc():
        yield sim.all_of([sim.timeout(d) for d in delays])
        observed.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert observed == [max(delays)]


@given(gaps=st.lists(st.floats(0.001, 2.0), min_size=1, max_size=30),
       seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_identical_programs_produce_identical_traces(gaps, seed):
    def run_once():
        sim = Simulator()
        trace = []

        def proc(name, sequence):
            for gap in sequence:
                yield sim.timeout(gap)
                trace.append((round(sim.now, 9), name))

        sim.spawn(proc("a", gaps))
        sim.spawn(proc("b", list(reversed(gaps))))
        sim.run()
        return trace, sim.events_processed

    first = run_once()
    second = run_once()
    assert first == second


@given(n_waiters=st.integers(1, 20), fire_at=st.floats(0.0, 10.0))
@settings(max_examples=50, deadline=None)
def test_signal_wakes_every_waiter_exactly_once(n_waiters, fire_at):
    from repro.simulation import Signal

    sim = Simulator()
    signal = Signal(sim)
    wakes = []

    def waiter(i):
        yield signal.wait()
        wakes.append(i)

    for i in range(n_waiters):
        sim.spawn(waiter(i))
    sim.call_at(fire_at, signal.fire)
    sim.run()
    assert sorted(wakes) == list(range(n_waiters))


# -- run() against step(): continue-in-place is invisible ------------------

#: Multiples of 0.5 add up exactly, so delays, fires and interrupts tie.
_HALVES = st.integers(0, 12).map(lambda k: k * 0.5)
_DELAY = st.sampled_from([0, 0.0, 0.5, 1, 1.5])
_OP = st.one_of(st.tuples(st.just("delay"), _DELAY),
                st.tuples(st.just("timeout"), _DELAY),
                st.just(("again", None)),
                st.just(("park", None)),
                st.tuples(st.just("join"), st.integers(0, 4)))


def _run_program(program, fires, interrupts, slices, stepped,
                 telemetry=False):
    """Run ``program`` (one op list per process) to exhaustion.

    A wait is a bare delay, a ``sim.timeout`` carrying a value, the
    process's latest timeout again (already fired, so it resumes at once
    with that value), a park on the process's :class:`EdgeWake` or a join
    on another process (whose end event may have several waiters).  A
    process records ``(now, process, op, what the yield returned)`` after
    each wait, ``(now, process, op, cause)`` for an interrupt, and moves
    on.  ``fires`` and ``interrupts`` are ``(time, process)`` pairs
    scheduled with ``call_at``.  ``slices`` cut the run at those times:
    ``run(until=t)``, or for ``stepped`` a ``step()`` loop over the
    entries due by ``t``; the trace marks each cut.
    """
    sim = Simulator(scheduler="heap")
    probes = None
    if telemetry:
        probes = Telemetry(sim)
        sim.dispatch_probe = probes.on_kernel_event
        sim.discount_probe = probes.on_kernel_discount
    trace = []
    wakes = [EdgeWake(sim) for _ in program]

    def proc(i, ops):
        last = sim.timeout(0.0, value=(i, -1))
        for n, (op, arg) in enumerate(ops):
            try:
                if op == "delay":
                    got = yield arg
                elif op == "timeout":
                    last = sim.timeout(arg, value=(i, n))
                    got = yield last
                elif op == "again":
                    got = yield last
                elif op == "join":
                    got = yield procs[arg % len(procs)]
                else:
                    got = yield wakes[i]
                trace.append((sim.now, i, n, got))
            except Interrupt as exc:
                trace.append((sim.now, i, n, "interrupt", exc.cause))

    procs = [sim.spawn(proc(i, ops)) for i, ops in enumerate(program)]
    for at, i in fires:
        sim.call_at(at, wakes[i % len(wakes)].fire)
    for at, i in interrupts:
        sim.call_at(at, lambda p=procs[i % len(procs)], at=at: p.interrupt(at))
    for until in slices:
        if stepped:
            while sim.peek() <= until:
                sim.step()
        else:
            sim.run(until=until)
        trace.append(("cut", until))
    if stepped:
        while sim.step():
            pass
    else:
        sim.run()
    if probes is not None:
        snap = probes.registry.snapshot()
        assert (snap.get("sim.events_dispatched", 0)
                - snap.get("sim.events_discounted", 0)
                == sim.events_processed)
    return trace, sim.now, sim.events_processed, next(sim._counter)


@settings(max_examples=300, deadline=None)
@given(program=st.lists(st.lists(_OP, min_size=1, max_size=8),
                        min_size=2, max_size=5),
       fires=st.lists(st.tuples(_HALVES, st.integers(0, 4)), max_size=6),
       interrupts=st.lists(st.tuples(_HALVES, st.integers(0, 4)),
                           max_size=4),
       slices=st.lists(_HALVES, max_size=4).map(sorted))
@example(program=[[("delay", 1)] * 4, [("delay", 0.5)] * 4],
         fires=[], interrupts=[(2.0, 0)], slices=[1.5])
@example(program=[[("delay", 1)], [("join", 0), ("delay", 0)],
                  [("join", 0), ("delay", 0)]],
         fires=[], interrupts=[], slices=[])
@example(program=[[("timeout", 1), ("delay", 1), ("again", None),
                   ("delay", 0.5)], [("delay", 3)]],
         fires=[], interrupts=[], slices=[])
def test_run_matches_the_step_loop(program, fires, interrupts, slices):
    """A sliced ``run()`` -- which lets a bare delay continue in place --
    shows the trace, final time and event count of ``step()``, which never
    does."""
    trace, now, events, _draws = _run_program(
        program, fires, interrupts, slices, stepped=False)
    o_trace, o_now, o_events, _ = _run_program(
        program, fires, interrupts, slices, stepped=True)
    assert trace == o_trace
    assert now == max([o_now, *slices])  # run(until=t) leaves now >= t
    assert events == o_events


def test_a_chain_of_microsecond_delays_stops_at_the_slice_bound():
    sim = Simulator(scheduler="heap")
    times = []

    def ticker():
        for _ in range(50):
            yield 1e-6
            times.append(sim.now)

    sim.spawn(ticker())
    bound = 20.5e-6
    assert sim.run(until=bound) == bound
    assert times and max(times) <= bound
    assert len(times) == 20  # the 21st tick lies past the bound
    sim.run()
    assert len(times) == 50
    # The chain continued in place instead of taking a counter per tick.
    program = [[("delay", 1e-6)] * 50, []]
    stepped = _run_program(program, [], [], [bound], stepped=True)
    ran = _run_program(program, [], [], [bound], stepped=False)
    assert ran[:3] == stepped[:3]
    assert ran[3] < stepped[3]

    # A run() that fails leaves no bound behind for step().
    failed = Simulator(scheduler="heap")
    ticks = []

    def ticker_on_failed():
        for _ in range(5):
            yield 1.0
            ticks.append(failed.now)

    def boom():
        yield 0.5
        raise RuntimeError("boom")

    failed.spawn(ticker_on_failed())
    failed.spawn(boom())
    with pytest.raises(RuntimeError):
        failed.run()
    assert failed.step() and ticks == [1.0]  # one event, no continuation


def test_a_continuation_never_jumps_an_entry_at_its_own_end_time():
    sim = Simulator(scheduler="heap")
    log = []
    sim.call_at(2.0, lambda: log.append(("callback", sim.now)))

    def proc():
        yield 1.0
        yield 1.0  # resumed by its own delay: ends exactly at the callback
        log.append(("process", sim.now))

    sim.spawn(proc())
    sim.run()
    assert log == [("callback", 2.0), ("process", 2.0)]


def test_telemetry_counts_every_continuation_as_a_dispatch():
    program = [[("delay", 1)] * 5, [("delay", 0.5), ("park", None),
                                    ("delay", 0), ("delay", 0.5)]]
    fires = [(1.0, 1), (3.0, 1)]
    traced = _run_program(program, fires, [(2.0, 0)], [2.5], stepped=False,
                          telemetry=True)
    plain = _run_program(program, fires, [(2.0, 0)], [2.5], stepped=True)
    assert traced[:3] == plain[:3]
    assert traced[3] < plain[3]  # some waits did continue in place


# -- the dispatch-order contract, stated without kernel internals ----------

#: Delays that tie, including 0 and, far from the origin, ones that are
#: positive yet do not move the clock (1e16 + 0.5 == 1e16).
_STEP = st.sampled_from([0, 0.0, 0.5, 1, 1.5])
_SPEC_OP = st.one_of(
    st.tuples(st.sampled_from(["call_at", "timeout", "entry"]), _STEP),
    st.tuples(st.sampled_from(["completed", "succeed"]), st.none()),
    st.tuples(st.sampled_from(["fire", "interrupt"]), st.integers(0, 3)),
    st.tuples(st.just("anyof"), st.tuples(_STEP, _STEP)),
)
_SPEC_WAIT = st.one_of(
    st.tuples(st.sampled_from(["delay", "timeout"]), _STEP),
    st.just(("park", None)))
_SEGMENT = st.tuples(st.sampled_from(["run", "step"]), st.integers(0, 8),
                     st.integers(0, 2))


class _Spec:
    """Logs every schedule as ``(when, push index, label)`` and every
    dispatch as ``(now, label)``; the contract is that dispatches come in
    ``(when, push index)`` order over the schedules not cancelled."""

    def __init__(self, sim, bursts):
        self.sim = sim
        self.bursts = list(bursts)
        self.schedules = {}  # tag -> (when, push index, label)
        self.cancelled = set()
        self.dispatches = []
        #: Cancelled waits that still dispatch, doing nothing: a wake
        #: already fired when its owner was interrupted.
        self.idle = 0
        self.tags = itertools.count()
        self.ops = {}  # op name -> fn(arg), filled in by the program

    def schedule(self, when, label=None):
        tag = next(self.tags)
        self.schedules[tag] = (when, tag, tag if label is None else label)
        return tag

    def dispatched(self, tag):
        self.dispatches.append((self.sim.now, self.schedules[tag][2]))
        self.act()

    def act(self):
        """Run the next drawn burst of ops: every observable dispatch
        runs one."""
        if self.bursts:
            for op, arg in self.bursts.pop(0):
                self.ops[op](arg)


def _spec_program(scheduler, far, procs_waits, bursts, pre, segments,
                  last):
    from repro.simulation.kernel import _Callback

    sim = Simulator(scheduler=scheduler)
    if far:
        sim.run(until=1e16)  # delays of 0.5 and 1 no longer move the clock
    spec = _Spec(sim, bursts)
    reused = _Callback(lambda: spec.dispatched("reused"))
    spec.schedules["reused"] = (None, None, "reused")
    state = [{"wait": None, "parked": False, "interrupt": False,
              "live": False} for _ in procs_waits]
    wakes = [EdgeWake(sim) for _ in procs_waits]

    def proc(i, waits, start):
        me = state[i]
        me["live"] = True
        spec.dispatched(start)
        for kind, arg in waits:
            try:
                if kind == "park":
                    me["parked"] = True
                    yield wakes[i]
                else:
                    me["wait"] = spec.schedule(sim.now + arg)
                    yield arg if kind == "delay" else sim.timeout(arg)
                tag, me["wait"], me["parked"] = me["wait"], None, False
                spec.dispatched(tag)
            except Interrupt as exc:
                me["interrupt"] = False
                spec.dispatched(exc.cause)
        me["live"] = False
        yield sim.event()  # never fires: a process end is not observable

    def op_call_at(d):
        tag = spec.schedule(sim.now + d)
        sim.call_at(sim.now + d, lambda: spec.dispatched(tag))

    def op_timeout(d):
        tag = spec.schedule(sim.now + d)
        sim.timeout(d).add_callback(lambda _ev: spec.dispatched(tag))

    def op_entry(d):
        spec.schedule(sim.now + d, "reused")
        sim.schedule_entry(sim.now + d, reused)

    def op_completed(_arg):
        tag = spec.schedule(sim.now)
        sim.completed().add_callback(lambda _ev: spec.dispatched(tag))

    def op_succeed(_arg):
        tag = spec.schedule(sim.now)
        ev = sim.event()
        ev.add_callback(lambda _ev: spec.dispatched(tag))
        ev.succeed()

    def op_fire(i):
        i %= len(wakes)
        me = state[i]
        if me["parked"] and me["wait"] is None and not me["interrupt"]:
            me["wait"] = spec.schedule(sim.now)
            wakes[i].fire()

    def op_interrupt(i):
        i %= len(procs)
        me = state[i]
        if (me["live"] and not me["interrupt"]
                and (me["parked"] or me["wait"] is not None)):
            if me["wait"] is not None:
                spec.cancelled.add(me["wait"])
                spec.idle += me["parked"]
            me["wait"], me["parked"], me["interrupt"] = None, False, True
            procs[i].interrupt(spec.schedule(sim.now))

    def op_anyof(delays):
        # The later child goes defunct once the earlier one fires: the
        # composite's own firing is pushed by that child's dispatch.
        short, long_ = sorted(delays)
        first = sim.timeout(short)
        second = sim.timeout(long_)
        a = spec.schedule(sim.now + short)
        spec.cancelled.add(spec.schedule(sim.now + long_))
        composite = sim.any_of([first, second])

        def on_first(_ev):
            tag = spec.schedule(sim.now)
            composite.add_callback(lambda _ev: spec.dispatched(tag))
            spec.dispatched(a)

        first.add_callback(on_first)

    spec.ops.update((name[3:], fn) for name, fn in list(locals().items())
                    if name.startswith("op_"))
    procs = [sim.spawn(proc(i, waits, spec.schedule(sim.now)))
             for i, waits in enumerate(procs_waits)]
    for _ in range(pre):
        spec.act()  # pushes before the first run()

    def checked_step():
        at = sim.peek()
        if not sim.step():
            assert at == float("inf")
            return False
        assert sim.now == at  # peek() named the entry step() dispatched
        return True

    base = sim.now
    for kind, arg, pushes in segments:
        if kind == "run":
            sim.run(until=base + arg * 0.5)
        else:
            for _ in range(arg):
                if not checked_step():
                    break
        for _ in range(pushes):
            spec.act()  # pushes between slices
    if last == "run":
        sim.run()
    else:
        while checked_step():
            pass
    assert sim.peek() == float("inf")
    expected = sorted(v for k, v in spec.schedules.items()
                      if k not in spec.cancelled and k != "reused")
    assert spec.dispatches == [(when, label) for when, _i, label
                               in expected]
    assert sim.events_processed == len(spec.dispatches) + spec.idle


@settings(max_examples=300, deadline=None)
@given(scheduler=st.sampled_from(["heap", "calendar"]),
       far=st.booleans(),
       procs_waits=st.lists(st.lists(_SPEC_WAIT, max_size=6),
                            min_size=1, max_size=4),
       bursts=st.lists(st.lists(_SPEC_OP, min_size=1, max_size=3),
                       max_size=30),
       pre=st.integers(0, 4),
       segments=st.lists(_SEGMENT, max_size=5),
       last=st.sampled_from(["run", "step"]))
@example(scheduler="heap", far=True,
         procs_waits=[[("delay", 0.5), ("delay", 1.5)], [("park", None)]],
         bursts=[[("call_at", 1), ("fire", 1)], [("timeout", 0.5)],
                 [("anyof", (0, 0)), ("interrupt", 0), ("entry", 0)]],
         pre=2, segments=[("step", 3, 1), ("run", 3, 1)], last="step")
def test_dispatch_follows_when_then_push_order(scheduler, far, procs_waits,
                                               bursts, pre, segments, last):
    """Every entry -- queued for later or due at once, by any schedule
    site -- dispatches in ``(when, push order)``, and ``peek()`` names the
    time of the entry the next ``step()`` dispatches."""
    _spec_program(scheduler, far, procs_waits, bursts, pre, segments, last)
