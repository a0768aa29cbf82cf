"""Synthetic Twitch viewer-engagement workload (§V-A).

The paper replays a one-fifth sample (~4 M events compressed into 1000 s,
so ~4 K events/s) of the Rappaz-McAuley-Aberer Twitch dataset through a
seven-operator pipeline computing per-channel loyalty scores, reaching
~500 MB of state when scaling begins.

The real trace is not redistributable, so this module generates a synthetic
equivalent preserving what the paper uses it for — realistic key skew and
arrival patterns: channel popularity follows a Zipf law (live-streaming
audiences are heavily concentrated), session lengths are geometric, and the
event rate carries a mild diurnal-style modulation.

Pipeline (7 operators): source → parse → filter(bot traffic) →
enrich(re-key by channel) → session aggregator (keyed) → loyalty window
(keyed, the scaling bottleneck) → sink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..engine.graph import JobGraph, OperatorSpec
from ..engine.operators import FilterLogic, KeyedReduceLogic, MapLogic
from ..engine.records import LatencyMarker, Record, Watermark
from ..engine.routing import Partitioning
from ..engine.windows import SlidingWindowAggregateLogic
from ..simulation.randomness import ZipfSampler, make_rng
from .base import Workload, WorkloadConfig

__all__ = ["TwitchConfig", "TwitchWorkload"]


@dataclass
class TwitchConfig(WorkloadConfig):
    """Defaults follow the paper's derived trace: ~4 K events/s."""

    rate: float = 4_000.0
    num_keys: int = 3000        # live channels
    skew: float = 0.7           # audience concentration
    #: ±fraction of rate modulation over the trace (viewership waves).
    rate_wave: float = 0.1
    rate_wave_period: float = 200.0
    #: Optional arrival-rate profile: multiplier on ``rate`` as a function
    #: of sim time (diurnal curves, flash crowds).  None keeps the built-in
    #: sine-wave modulation bit-identical (golden traces depend on it).
    rate_profile: Optional[Callable[[float], float]] = None
    #: Optional popularity shifts: ``((time, rotation), ...)`` — from
    #: ``time`` onwards sampled channel ids rotate by ``rotation`` (mod
    #: ``num_keys``), re-pointing the Zipf head at different channels.
    #: None = stable popularity (the default trace).
    popularity_shifts: Optional[Tuple[Tuple[float, int], ...]] = None
    source_parallelism: int = 2
    operator_parallelism: int = 8
    sink_parallelism: int = 1
    #: Fraction of events that survive the bot filter.
    filter_pass: float = 0.9
    window_size: float = 20.0
    window_slide: float = 2.0
    #: Calibrated toward ~500 MB total loyalty state at scale time
    #: (10 panes × ~3.6 K rec/s surviving the filter × 10 s × bytes).
    bytes_per_record: float = 1390.0
    source_service: float = 2e-6
    parse_service: float = 4e-6
    filter_service: float = 2e-6
    enrich_service: float = 4e-6
    session_service: float = 6.0e-4
    loyalty_service: float = 1.5e-3
    sink_service: float = 1e-6
    session_state_bytes: float = 16.0


class TwitchWorkload(Workload):
    """Seven-operator loyalty-score pipeline over a synthetic Twitch trace."""

    name = "twitch"
    scaling_operator = "loyalty"

    def __init__(self, config: Optional[TwitchConfig] = None):
        super().__init__(config or TwitchConfig())

    def build_graph(self) -> JobGraph:
        cfg = self.config
        graph = JobGraph(self.name, num_key_groups=cfg.num_key_groups)
        graph.add_source("twitch-source",
                         parallelism=cfg.source_parallelism,
                         service_time=cfg.source_service)
        graph.add_operator(OperatorSpec(
            name="parse",
            logic_factory=lambda: MapLogic(lambda r: r),
            parallelism=cfg.source_parallelism,
            service_time=cfg.parse_service))
        graph.add_operator(OperatorSpec(
            name="bot-filter",
            logic_factory=lambda: FilterLogic(
                pass_fraction=cfg.filter_pass),
            parallelism=cfg.source_parallelism,
            service_time=cfg.filter_service))
        graph.add_operator(OperatorSpec(
            name="enrich",
            logic_factory=lambda: MapLogic(lambda r: r),
            parallelism=cfg.source_parallelism,
            service_time=cfg.enrich_service))
        graph.add_operator(OperatorSpec(
            name="session",
            logic_factory=lambda: KeyedReduceLogic(
                lambda old, r: (old or 0) + r.count,
                emit_updates=True,
                state_bytes_per_record=0.0),
            parallelism=cfg.operator_parallelism,
            service_time=cfg.session_service,
            keyed=True,
            bytes_per_entry=cfg.session_state_bytes))
        graph.add_operator(OperatorSpec(
            name=self.scaling_operator,
            logic_factory=lambda: SlidingWindowAggregateLogic(
                size=cfg.window_size, slide=cfg.window_slide,
                bytes_per_record=cfg.bytes_per_record),
            parallelism=cfg.operator_parallelism,
            service_time=cfg.loyalty_service,
            keyed=True))
        graph.add_sink("twitch-sink", parallelism=cfg.sink_parallelism,
                       service_time=cfg.sink_service)
        graph.connect("twitch-source", "parse", Partitioning.FORWARD)
        graph.connect("parse", "bot-filter", Partitioning.FORWARD)
        graph.connect("bot-filter", "enrich", Partitioning.FORWARD)
        graph.connect("enrich", "session", Partitioning.HASH)
        graph.connect("session", self.scaling_operator, Partitioning.HASH)
        graph.connect(self.scaling_operator, "twitch-sink",
                      Partitioning.REBALANCE)
        return graph

    def generators(self, job):
        cfg = self.config
        sources = job.instances("twitch-source")
        per_source = cfg.rate / len(sources)
        for i, source in enumerate(sources):
            yield self._trace(job, source, per_source,
                              emit_markers=(i == 0),
                              seed=cfg.seed + i)

    def _trace(self, job, source, rate, emit_markers, seed):
        """Synthetic engagement trace: Zipf channels, geometric sessions,
        wave-modulated arrival rate."""
        cfg = self.config
        sim = job.sim
        rng = make_rng(seed)
        sampler = ZipfSampler(cfg.num_keys, cfg.skew, rng)
        next_marker = cfg.marker_interval
        next_watermark = cfg.watermark_interval
        deadline = (sim.now + cfg.duration
                    if cfg.duration is not None else None)
        session_channel = None
        session_left = 0
        shifts = (sorted(cfg.popularity_shifts)
                  if cfg.popularity_shifts else None)
        shift_index = 0
        rotation = 0
        while deadline is None or sim.now < deadline:
            # Sessions: a viewer interacts with one channel for a while.
            if session_left <= 0:
                session_channel = sampler.sample()
                session_left = 1 + int(rng.expovariate(1.0 / 2.0))
            session_left -= 1
            if cfg.rate_profile is not None:
                current_rate = max(rate * cfg.rate_profile(sim.now), 1.0)
            else:
                wave = 1.0 + cfg.rate_wave * math.sin(
                    2 * math.pi * sim.now / cfg.rate_wave_period)
                current_rate = max(rate * wave, 1.0)
            if shifts is not None:
                while (shift_index < len(shifts)
                       and sim.now >= shifts[shift_index][0]):
                    rotation = shifts[shift_index][1]
                    shift_index += 1
            channel = (session_channel if rotation == 0
                       else (session_channel + rotation) % cfg.num_keys)
            source.offer(Record(
                key=f"channel-{channel}",
                event_time=sim.now,
                value=rng.choice(("chat", "follow", "sub", "view")),
                count=cfg.batch_size,
                size_bytes=cfg.record_bytes * cfg.batch_size,
            ))
            if emit_markers and sim.now >= next_marker:
                source.offer(LatencyMarker(key=f"channel-{channel}"))
                next_marker = sim.now + cfg.marker_interval
            if sim.now >= next_watermark:
                source.offer(Watermark(timestamp=sim.now - cfg.watermark_lag))
                next_watermark = sim.now + cfg.watermark_interval
            yield cfg.batch_size / current_rate  # bare delay, no Event
