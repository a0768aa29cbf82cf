"""SourceInstance behaviour: admission, stamping, injection, EOS."""

from repro.engine import (EndOfStream, JobGraph, LatencyMarker,
                          Partitioning, Record, StreamJob, Watermark)


def simple_source_job(collect=True):
    graph = JobGraph("src-test", num_key_groups=4)
    graph.add_source("src")
    graph.add_sink("sink", collect=collect)
    graph.connect("src", "sink", Partitioning.FORWARD)
    return StreamJob(graph).build()


def test_offer_stamps_created_at_on_admission():
    job = simple_source_job()
    job.start()
    job.run(until=2.5)
    record = Record(key="a", created_at=0.0)
    job.sources()[0].offer(record)
    assert record.created_at == 2.5


def test_offer_stamps_marker_emitted_at():
    job = simple_source_job()
    job.start()
    job.run(until=1.5)
    marker = LatencyMarker(key="a")
    job.sources()[0].offer(marker)
    assert marker.emitted_at == 1.5


def test_injected_elements_jump_the_admission_queue():
    from repro.engine.records import CheckpointBarrier

    job = simple_source_job()
    source = job.sources()[0]
    for i in range(5):
        source.offer(Record(key=f"k{i}"))
    source.inject(CheckpointBarrier(checkpoint_id=1))
    job.run(until=1.0)
    # the barrier was handled before the pending records were all emitted:
    # the snapshot timestamp precedes the last record's emission.
    assert job.snapshots
    assert job.snapshots[0][2] == 1


def test_end_of_stream_terminates_pipeline():
    job = simple_source_job()
    source = job.sources()[0]
    source.offer(Record(key="a"))
    source.offer(EndOfStream())
    job.run(until=2.0)
    assert not source.running
    assert not job.instances("sink")[0].running
    assert job.sink_logic().records_in == 1


def test_consumed_elements_counts_admitted_pops():
    job = simple_source_job()
    source = job.sources()[0]
    for i in range(7):
        source.offer(Record(key=f"k{i}"))
    job.run(until=1.0)
    assert source.consumed_elements == 7
    assert source.backlog == 0


def test_paused_source_stops_consuming():
    job = simple_source_job()
    source = job.sources()[0]
    job.start()
    job.run(until=0.1)
    source.pause()
    for i in range(3):
        source.offer(Record(key=f"k{i}"))
    job.run(until=1.0)
    assert source.backlog == 3
    source.resume()
    job.run(until=2.0)
    assert source.backlog == 0


def test_watermarks_flow_from_admission_queue():
    job = simple_source_job()
    source = job.sources()[0]
    source.offer(Watermark(timestamp=42.0))
    job.run(until=1.0)
    assert source.current_watermark == 42.0
    assert job.instances("sink")[0].current_watermark == 42.0


def test_replay_history_snapshot_includes_prior_pending():
    job = simple_source_job()
    source = job.sources()[0]
    source.offer(Record(key="before"))
    source.enable_replay_history()
    source.offer(Record(key="after"))
    assert len(source._history) == 2
