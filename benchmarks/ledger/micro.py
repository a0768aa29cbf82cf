"""Direct-call microbenchmarks: one number per layer the workloads cannot
isolate.  The kernel and channel figures reuse ``repro.perf.benches``;
the state-backend, frame-codec and ring figures fill ROADMAP gap 1c by
calling the public methods in a loop.  Sizes are fixed (``scale`` only
shrinks them for the smoke mode) so a figure compares across commits.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict

from calib import CALIB_NOMINAL_S, CALIB_ROUNDS, Calibrator
from repro.engine import ChangelogStateBackend, DictStateBackend, Record
from repro.engine.frames import decode_frame, encode_frame
from repro.engine.records import RecordBatch
from repro.perf.benches import (bench_callback_chain,
                                bench_channel_throughput,
                                bench_event_pingpong, bench_timeout_storm)
from repro.simulation.shm_ring import ShmRing

KEY_GROUPS = 128


def _timed(fn: Callable[[], None]) -> float:
    gc.collect()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _filled(backend_cls, puts: int):
    backend = backend_cls()
    for kg in range(KEY_GROUPS):
        backend.register_group(kg)
    wall = _timed(lambda: _put_loop(backend, puts))
    return backend, wall


def _put_loop(backend, puts: int) -> None:
    put = backend.put
    for i in range(puts):
        put(i % KEY_GROUPS, i % 4096, i)


def _state(puts: int) -> Dict[str, float]:
    dict_backend, dict_wall = _filled(DictStateBackend, puts)
    log_backend, log_wall = _filled(ChangelogStateBackend, puts)
    snapshot_wall = _timed(dict_backend.snapshot)
    segments = []
    cut_wall = _timed(lambda: segments.append(log_backend.cut_segment(1)))
    replay_wall = _timed(
        lambda: ChangelogStateBackend.replay_chain(segments))
    return {
        "engine.state.dict_put_per_s": puts / dict_wall,
        "engine.state.changelog_put_per_s": puts / log_wall,
        "engine.state.dict_snapshot_ms": snapshot_wall * 1e3,
        "engine.state.changelog_cut_ms": cut_wall * 1e3,
        "engine.state.changelog_replay_ms": replay_wall * 1e3,
    }


def _batch(records: int) -> RecordBatch:
    return RecordBatch([
        Record(key=f"channel-{i % 97}", key_group=i % KEY_GROUPS,
               event_time=0.25 * i, value="chat", count=100,
               size_bytes=6400.0, created_at=0.25 * i, record_id=i)
        for i in range(records)])


def _frames(frames: int) -> Dict[str, float]:
    msgs = [("b", 3, 1.0 + i, _batch(64)) for i in range(4)]
    encoded = []
    encode_wall = _timed(lambda: encoded.extend(
        encode_frame(msgs, grant=2.0) for _ in range(frames)))
    decode_wall = _timed(lambda: [decode_frame(data) for data in encoded])
    megabytes = sum(len(data) for data in encoded) / 1e6
    ring = ShmRing(1 << 20)
    try:
        payload = encoded[0]

        def shuttle():
            for _ in range(frames * 8):
                ring.push(payload)
                ring.pop()

        ring_wall = _timed(shuttle)
    finally:
        ring.close()
        ring.unlink()
    return {
        "simulation.sharded.frame_encode_mb_per_s": megabytes / encode_wall,
        "simulation.sharded.frame_decode_mb_per_s": megabytes / decode_wall,
        "simulation.sharded.ring_mb_per_s":
            frames * 8 * len(payload) / 1e6 / ring_wall,
    }


def run_all(scale: float = 1.0,
            calib_rounds: int = CALIB_ROUNDS) -> Dict[str, object]:
    """Every microbenchmark once, a calibration chunk between every two;
    rates are calibrated like run times."""
    n = lambda size: max(int(size * scale), 16)  # noqa: E731
    storm = (n(60), n(250))
    groups = [
        lambda: {"simulation.kernel.timeout_heap_events_per_s":
                 bench_timeout_storm(*storm, "heap")["events_per_s"]},
        lambda: {"simulation.kernel.timeout_calendar_events_per_s":
                 bench_timeout_storm(*storm, "calendar")["events_per_s"]},
        lambda: {"simulation.kernel.pingpong_rounds_per_s":
                 bench_event_pingpong(n(25_000))["rounds_per_s"]},
        lambda: {"simulation.kernel.callbacks_per_s":
                 bench_callback_chain(n(60_000))["callbacks_per_s"]},
        lambda: {"engine.channels.elements_per_s":
                 bench_channel_throughput(n(15_000))["elements_per_s"]},
        lambda: _state(n(150_000)),
        lambda: _frames(n(150)),
    ]
    calibrator = Calibrator(calib_rounds)
    nominal = CALIB_NOMINAL_S * calib_rounds / CALIB_ROUNDS
    t0 = time.perf_counter()
    metrics: Dict[str, float] = {}
    before = calibrator.chunk()
    for group in groups:
        raw = group()
        after = calibrator.chunk()
        slowdown = (before + after) / 2 / nominal
        for name, value in raw.items():
            metrics[name] = (value / slowdown if name.endswith("_ms")
                             else value * slowdown)
        before = after
    return {"micro": metrics, "micro_wall_s": time.perf_counter() - t0}
