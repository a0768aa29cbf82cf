"""Self-tests for the exactly-once oracle: ``check_all`` catches state that
disagrees with what the generator produced.

No fault in the bank loses or double-counts a record (channels are FIFO
and reliable), so the wrong states are written directly into a clean
run's keyed state.
"""

import pytest

from repro.experiments.chaos_bank import _keyed_job
from repro.faults import check_all


def _clean_run(backend="dict", record_plane=None):
    job, produced = _keyed_job(stop_at=2.0, state_backend=backend,
                               record_plane=record_plane)
    job.run(until=5.0)
    assert produced
    return job, produced


@pytest.mark.parametrize("record_plane", ["batched", "single"])
@pytest.mark.parametrize("backend", ["dict", "changelog"])
def test_check_all_passes_a_clean_run(backend, record_plane):
    job, produced = _clean_run(backend, record_plane)
    assert check_all(job, "agg", oracle=produced) == []


def _group_holding(job, index, key=None):
    """A key-group of ``agg[index]`` with entries (holding ``key`` if
    given)."""
    for group in job.instances("agg")[index].state.groups():
        if group.entries and (key is None or key in group.entries):
            return group
    raise AssertionError(f"agg[{index}] holds no such key-group")


def _lose_one(job):
    group = _group_holding(job, 0)
    key = next(iter(group.entries))
    group.entries[key] -= 1


def _count_twice(job):
    group = _group_holding(job, 1)
    key = next(iter(group.entries))
    group.entries[key] += 1


def _invent_key(job):
    _group_holding(job, 0).entries["no-such-key"] = 1


def _copy_to_second_instance(job):
    group = _group_holding(job, 0)
    key, value = next(iter(group.entries.items()))
    _group_holding(job, 1).entries[key] = value


@pytest.mark.parametrize("backend", ["dict", "changelog"])
@pytest.mark.parametrize("corrupt, message", [
    (_lose_one, "oracle says"),
    (_count_twice, "oracle says"),
    (_invent_key, "spurious key 'no-such-key'"),
    (_copy_to_second_instance, "held by both agg[0] and agg[1]"),
])
def test_check_all_reports_state_that_disagrees_with_the_oracle(
        corrupt, message, backend):
    job, produced = _clean_run(backend)
    assert check_all(job, "agg", oracle=produced) == []
    corrupt(job)
    violations = check_all(job, "agg", oracle=produced)
    assert any(message in violation for violation in violations), \
        violations
