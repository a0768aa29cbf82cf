"""A rescale requested as the stream ends.

The keyed job's source offers its end of stream at 6.0 and ``agg`` is
rescaled 2→4 at the same instant.  The stream itself ends cleanly under
every controller: every record reaches the sink and the sink shuts down.
The rescale's ``done`` event, though, never fires under the controllers
that inject or forward a scaling signal through the sources, which have
stopped (the end-of-stream case of ROADMAP's "No channel is born inside
an open alignment"); those cases are strict xfails until the rescale
finishes or fails loudly.  Stop-restart and Unbound need no signal from
a source and finish.
"""

import pytest

from repro.engine.records import EndOfStream
from repro.experiments.chaos_bank import _keyed_job
from repro.experiments.figures import controller_factory


def _pinned(system):
    return pytest.param(system, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP 'No channel is born inside an open alignment', "
        "end of stream: a rescale that overlaps the end of the stream "
        "never finishes; the sources have stopped, so no scaling "
        "signal is injected or forwarded and `done` never fires"))


@pytest.mark.parametrize("system", [
    _pinned("drrs"), _pinned("otfs"), _pinned("megaphone"),
    _pinned("meces"), "stop-restart", "unbound"])
def test_a_rescale_overlapping_the_end_of_stream_finishes(system):
    job, produced = _keyed_job(stop_at=6.0)
    controller = controller_factory(system)(job)
    requested = {}
    job.sim.call_at(6.0, lambda: job.sources()[0].offer(EndOfStream()))
    job.sim.call_at(6.0, lambda: requested.setdefault(
        "done", controller.request_rescale("agg", 4)))
    job.run(until=40.0)
    assert job.sink_logic().records_in == sum(produced.values())
    assert not job.instances("sink")[0].running
    assert requested["done"].triggered, "the rescale never finished"
