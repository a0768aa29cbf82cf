"""Column views over wire carriers, and the lazy numpy import behind them.

:class:`repro.engine.columnar.BatchColumns` is a snapshot of a carrier's
per-member scalar fields (or None without numpy); nothing on a
single-process run may import numpy at all.
"""

import random

import pytest

from repro.engine.columnar import HAVE_NUMPY
from repro.engine.records import Record, RecordBatch


def _records(n, seed=0):
    rng = random.Random(seed)
    return [Record(key=f"k{i}", key_group=rng.randrange(16),
                   event_time=rng.uniform(0, 100), count=rng.randrange(1, 5),
                   size_bytes=float(rng.randrange(16, 512)))
            for i in range(n)]


# -- RecordBatch.columns ----------------------------------------------------------


def test_batch_columns_view_matches_members():
    records = _records(12, seed=9)
    visible = [0.1 * i for i in range(12)]
    batch = RecordBatch(records, visible)
    cols = batch.columns()
    if not HAVE_NUMPY:
        assert cols is None
        return
    assert cols.n == 12
    assert cols.event_time.tolist() == [r.event_time for r in records]
    assert cols.count.tolist() == [r.count for r in records]
    assert cols.size_bytes.tolist() == [r.size_bytes for r in records]
    assert cols.key_group.tolist() == [r.key_group for r in records]
    assert cols.visible_time.tolist() == visible
    assert cols.total_count == sum(r.count for r in records)
    # The view is cached: same object on re-access.
    assert batch.columns() is cols


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")
def test_batch_columns_unkeyed_members_marked():
    records = [Record(key=None, key_group=None, count=1)]
    cols = RecordBatch(records).columns()
    assert cols.key_group.tolist() == [-1]
    assert cols.visible_time is None


# -- lazy numpy --------------------------------------------------------------------


def _numpy_loaded_after_q7(record_plane):
    """In a fresh interpreter: is numpy imported after ``import repro``,
    and after building + running a short Q7 on ``record_plane``?"""
    import os
    import subprocess
    import sys
    script = (
        "import sys, repro\n"
        "after_import = 'numpy' in sys.modules\n"
        "from repro.engine.runtime import JobConfig\n"
        "from repro.experiments.golden import capture_q7_trace\n"
        f"capture_q7_trace(system=None, warmup=2.0, post=3.0,\n"
        f"                 job_config=JobConfig("
        f"record_plane={record_plane!r}))\n"
        "print(after_import, 'numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


@pytest.mark.parametrize("record_plane", ["batched", "single"])
def test_q7_run_never_imports_numpy(record_plane):
    assert _numpy_loaded_after_q7(record_plane) == ["False", "False"]
