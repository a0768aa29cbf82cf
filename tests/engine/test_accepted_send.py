"""The accepted-send contract.

An open channel that accepts a send hands back the simulator's shared
pre-succeeded ``_done`` event; a full outbox hands back a pending event
that succeeds when the drainer grants the slot.  Record emitters
(``OutputRouter.emit_burst``, the operator loop, the source loop) yield
only the pending events -- the kernel would continue past ``_done`` at
once -- and resume at the grant time.
"""

from types import SimpleNamespace

from repro.engine import (JobConfig, JobGraph, OperatorLogic, OperatorSpec,
                          Partitioning, Record, StreamJob)
from repro.engine.channels import Channel, InputChannel
from repro.engine.cluster import LinkSpec
from repro.engine.operators import OperatorInstance
from repro.engine.routing import OutputEdge, OutputRouter
from repro.simulation import Event, Simulator


def _channel(sim, outbox=1, inbox=1):
    channel = Channel(sim, LinkSpec(latency=0.001, bandwidth=1e6),
                      name="c", outbox_capacity=outbox, inbox_capacity=inbox)
    receiver = InputChannel(
        SimpleNamespace(wake=SimpleNamespace(fire=lambda: None)), name="in")
    channel.attach(receiver)
    return channel, receiver


def _recording(gen, sim, log):
    """Drive ``gen`` as its process would, logging every yielded event
    with the time the generator is resumed after it."""
    value = None
    while True:
        try:
            target = gen.send(value)
        except StopIteration as stop:
            return stop.value
        value = yield target
        if isinstance(target, Event):
            log.append((target, sim.now))


def test_an_accepted_send_returns_the_shared_done_event():
    sim = Simulator()
    channel, _receiver = _channel(sim, outbox=2)
    assert channel.send(Record(key="a")) is sim._done
    assert channel.send(Record(key="b")) is sim._done
    pending = channel.send(Record(key="c"))
    assert pending is not sim._done and not pending.triggered


def test_emit_burst_yields_only_the_pending_sends():
    """Three records into an outbox of one with one credit: the first is
    accepted, the second waits for the drain at 0.0, the third for the
    credit a pop returns at 1.0."""
    sim = Simulator()
    channel, receiver = _channel(sim, outbox=1, inbox=1)
    sent = []
    send = Channel.send

    def spy(element):
        ev = send(channel, element)
        sent.append(ev)
        if ev is not sim._done:
            ev.add_callback(lambda _ev: granted.append(sim.now))
        return ev

    granted = []
    edge = OutputEdge("e", Partitioning.FORWARD)
    edge.add_channel(SimpleNamespace(send=spy))
    router = OutputRouter(SimpleNamespace(sim=sim, abandon_work=False))
    router.add_edge(edge)
    records = [Record(key=i) for i in range(3)]
    log = []
    sim.spawn(_recording(router.emit_burst(records), sim, log))
    sim.call_at(1.0, receiver.pop)
    sim.run(until=2.0)
    assert sent[0] is sim._done
    assert [ev for ev, _t in log] == sent[1:]
    assert [t for _ev, t in log] == granted == [0.0, 1.0]
    assert list(channel.outbox) == [records[2]]


class _Triple(OperatorLogic):
    def on_record(self, record, instance):
        return [record.copy_with(value=i) for i in range(3)]


def test_the_operator_loop_yields_only_the_pending_sends(monkeypatch):
    """A logic that emits three records per input, into channels with an
    outbox and an inbox of one in front of a slow sink: the ``fan`` loop
    yields exactly the sends that came back pending, in order, and
    resumes at each one's grant time."""
    graph = JobGraph("burst", num_key_groups=4)
    graph.add_source("src", parallelism=1, service_time=1e-4)
    graph.add_operator(OperatorSpec("fan", logic_factory=_Triple,
                                    parallelism=1, service_time=1e-4))
    graph.add_sink("sink", service_time=0.01)
    graph.connect("src", "fan", Partitioning.REBALANCE)
    graph.connect("fan", "sink", Partitioning.REBALANCE)
    job = StreamJob(graph, config=JobConfig(outbox_capacity=1,
                                            inbox_capacity=1)).build()
    sim = job.sim
    fan = job.instances("fan")[0]
    fan_channels = set(fan.router.all_channels())
    sends, log = [], []
    send = Channel.send

    def spy(channel, element):
        ev = send(channel, element)
        if channel in fan_channels:
            sends.append(ev)
            if ev is not sim._done:
                ev.add_callback(lambda _ev: grants.append(sim.now))
        return ev

    grants = []
    run = OperatorInstance._run
    monkeypatch.setattr(Channel, "send", spy)
    monkeypatch.setattr(
        OperatorInstance, "_run",
        lambda self: (_recording(run(self), sim, log) if self is fan
                      else run(self)))
    source = job.sources()[0]
    for i in range(4):
        source.offer(Record(key=f"k{i}"))
    job.run(until=1.0)
    pending = [ev for ev in sends if ev is not sim._done]
    assert len(sends) == 12
    assert 0 < len(pending) < len(sends)
    assert [ev for ev, _t in log] == pending
    assert [t for _ev, t in log] == grants
