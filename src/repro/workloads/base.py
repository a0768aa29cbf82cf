"""Workload abstraction and rate-controlled generators.

A :class:`Workload` owns a job graph, the generator processes that feed its
sources, and the identity of the scaling (bottleneck) operator.  Generators
model the paper's ingestion paths: NEXMark/Twitch arrive through an
admission queue (the Kafka stand-in built into :class:`SourceInstance`),
while the custom sensitivity workload generates internally — either way,
element timestamps are stamped at admission so end-to-end latency includes
queue wait (§V-A).

**Batching**: one emitted :class:`Record` stands for ``batch_size`` physical
records of one key (``count = batch_size``); rates, state sizes and
throughput all account in physical records.  Latency markers and watermarks
are individual elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..engine.cluster import ClusterModel
from ..engine.graph import JobGraph
from ..engine.records import LatencyMarker, Record, Watermark
from ..engine.runtime import JobConfig, SourceInstance, StreamJob
from ..simulation.randomness import ZipfSampler, make_rng

__all__ = ["WorkloadConfig", "Workload", "drive_source"]


@dataclass
class WorkloadConfig:
    """Knobs shared by every workload."""

    #: Input rate in physical records/second (per workload, split across
    #: source instances).
    rate: float = 4000.0
    #: Physical records represented by one simulated record entity.
    batch_size: int = 100
    #: Number of distinct keys the generator draws from.
    num_keys: int = 1000
    #: Zipf skew over keys (0.0 = uniform).
    skew: float = 0.0
    #: Generation horizon in simulated seconds (None = run forever).
    duration: Optional[float] = None
    #: Seconds between latency markers (per workload).
    marker_interval: float = 0.25
    #: Seconds between watermarks.
    watermark_interval: float = 0.5
    #: Watermark lag behind generated event time.
    watermark_lag: float = 0.1
    #: Key-group count of the job.
    num_key_groups: int = 128
    #: RNG seed.
    seed: int = 7
    #: Bytes per physical record on the wire.
    record_bytes: float = 64.0

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.num_keys < 1:
            raise ValueError("num_keys must be >= 1")
        if self.skew < 0:
            raise ValueError("skew must be >= 0")


class Workload:
    """Base class: subclasses define the graph and generator processes."""

    name = "abstract"
    scaling_operator = ""

    def __init__(self, config: Optional[WorkloadConfig] = None):
        self.config = config or WorkloadConfig()

    # -- interface ------------------------------------------------------------------

    def build_graph(self) -> JobGraph:
        raise NotImplementedError

    def generators(self, job: StreamJob) -> Iterable:
        """Yield generator coroutines to spawn on the job's simulator."""
        raise NotImplementedError

    # -- assembly -------------------------------------------------------------------

    def build(self, cluster: Optional[ClusterModel] = None,
              job_config: Optional[JobConfig] = None) -> StreamJob:
        """Materialise the job with its generators attached."""
        graph = self.build_graph()
        job = StreamJob(graph, cluster=cluster, config=job_config)
        job.build()
        for index, generator in enumerate(self.generators(job)):
            job.sim.spawn(generator, name=f"{self.name}-gen-{index}")
        return job


def drive_source(job: StreamJob, source: SourceInstance,
                 config: WorkloadConfig,
                 rate: float,
                 make_value=None,
                 key_prefix: str = "k",
                 emit_markers: bool = True,
                 rng_seed: Optional[int] = None):
    """Generic rate-controlled generator process feeding one source.

    Draws keys from a Zipf(``config.skew``) distribution over
    ``config.num_keys`` keys, emits batch records at ``rate`` physical
    records/second, and interleaves watermarks and latency markers.
    """
    sim = job.sim
    rng = make_rng(rng_seed if rng_seed is not None else config.seed)
    sampler = ZipfSampler(config.num_keys, config.skew, rng)
    gap = config.batch_size / rate
    # Zipf keeps the working set of keys small; cache the key strings so the
    # per-record f-string (and its hash, via str interning of the cached
    # object) is paid once per distinct key.
    key_cache: dict = {}
    next_marker = config.marker_interval
    next_watermark = config.watermark_interval
    deadline = (sim._now + config.duration
                if config.duration is not None else None)
    # Per-iteration hot-loop locals; the loop reads the ``_now`` slot, not
    # the ``now`` property.
    offer = source.offer
    sample = sampler.sample
    get_key = key_cache.get
    batch_size = config.batch_size
    batch_bytes = config.record_bytes * config.batch_size
    marker_interval = config.marker_interval
    watermark_interval = config.watermark_interval
    watermark_lag = config.watermark_lag
    while True:
        now = sim._now
        if deadline is not None and now >= deadline:
            break
        key_index = sample()
        key = get_key(key_index)
        if key is None:
            key = f"{key_prefix}{key_index}"
            key_cache[key_index] = key
        value = make_value(rng, key_index) if make_value is not None else None
        # Positional: key, key_group, event_time, value, count, size_bytes.
        offer(Record(key, None, now, value, batch_size, batch_bytes))
        if emit_markers and now >= next_marker:
            offer(LatencyMarker(key=key))
            next_marker = now + marker_interval
        if now >= next_watermark:
            offer(Watermark(timestamp=now - watermark_lag))
            next_watermark = now + watermark_interval
        yield gap  # bare-delay yield == sim.timeout(gap)
