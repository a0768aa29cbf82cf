"""Runtime metrics: end-to-end latency, throughput, backlog.

The collector mirrors the paper's measurement methodology (§V-A):

* **End-to-end latency** comes from periodically injected latency markers
  that flow through the system as regular records but bypass windowing.
  Marker latency includes source-admission (Kafka-transit-equivalent) time,
  so backpressure on sources shows up in the latency signal.
* **Throughput** is the output rate of source operators over fixed windows,
  covering both ingest consumption and internal generation.

**Empty-input contract**: every summary helper in this module is total over
empty inputs — :func:`percentile`, :func:`series_peak` and
:func:`series_mean` all return ``0.0`` when given no samples, matching the
zero-filled dict :meth:`MetricsCollector.latency_stats` returns for an empty
window.  Measurement windows that happen to contain no markers (warm-up,
short scaling windows) are ordinary, not exceptional; only genuinely
malformed arguments (``pct`` outside [0, 100], non-positive windows) raise.
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = ["MetricsCollector", "series_peak", "series_mean", "percentile"]


class MetricsCollector:
    """Central sink for measurements produced during one simulated run.

    The source and sink logs hold one ``(time, count)`` event per record,
    packed into parallel ``array('d')`` / ``array('q')`` columns — 16 bytes
    an event, exact values — with a running total beside each.  Read them
    through :meth:`source_events` / :meth:`sink_events`, the two series and
    the two totals; nothing outside this module touches the columns.
    """

    def __init__(self):
        self.latency_samples: List[Tuple[float, float]] = []
        self._source_times, self._source_counts = array("d"), array("q")
        self._sink_times, self._sink_counts = array("d"), array("q")
        self._source_total = self._sink_total = 0
        self.custom: Dict[str, List[Tuple[float, float]]] = {}

    @classmethod
    def from_view(cls, view: Mapping[str, Any]) -> "MetricsCollector":
        """A collector holding a sharded run's merged view (the metric keys
        of :func:`repro.simulation.sharded.collect_run_view`)."""
        metrics = cls()
        metrics.latency_samples = list(view["latency_samples"])
        for time, count in view["source_events"]:
            metrics.record_source_output(time, count)
        for time, count in view["sink_events"]:
            metrics.record_sink_input(time, count)
        metrics.custom = {k: list(v) for k, v in view["custom"].items()}
        return metrics

    # -- recording -------------------------------------------------------------

    def record_latency(self, time: float, latency: float) -> None:
        self.latency_samples.append((time, latency))

    # The count goes in first: ``array('q')`` refuses a non-integer with a
    # TypeError (it never truncates), and then nothing of the event is kept.

    def record_source_output(self, time: float, count: int) -> None:
        self._source_counts.append(count)
        self._source_times.append(time)
        self._source_total += count

    def record_sink_input(self, time: float, count: int) -> None:
        self._sink_counts.append(count)
        self._sink_times.append(time)
        self._sink_total += count

    def record_custom(self, name: str, time: float, value: float) -> None:
        self.custom.setdefault(name, []).append((time, value))

    # -- series ------------------------------------------------------------------

    def latency_series(self) -> List[Tuple[float, float]]:
        return list(self.latency_samples)

    def source_events(self) -> Iterable[Tuple[float, int]]:
        """Every source record as ``(emit time, count)``, in record order."""
        return zip(self._source_times, self._source_counts)

    def sink_events(self) -> Iterable[Tuple[float, int]]:
        """Every sink record as ``(arrival time, count)``, in record order."""
        return zip(self._sink_times, self._sink_counts)

    def throughput_series(self, window: float = 1.0,
                          start: float = 0.0,
                          end: Optional[float] = None
                          ) -> List[Tuple[float, float]]:
        """Source output rate (records/s) per ``window``-second bucket."""
        return _rate_series(self._source_times, self._source_counts,
                            window, start, end)

    def sink_rate_series(self, window: float = 1.0,
                         start: float = 0.0,
                         end: Optional[float] = None
                         ) -> List[Tuple[float, float]]:
        return _rate_series(self._sink_times, self._sink_counts,
                            window, start, end)

    # Simulated time is never negative, so the default range is the whole
    # log and answers from the running total; explicit bounds scan.

    def total_source_output(self, start: float = 0.0,
                            end: float = math.inf) -> int:
        if start <= 0.0 and end == math.inf:
            return self._source_total
        return sum(c for t, c in self.source_events() if start <= t < end)

    def total_sink_input(self, start: float = 0.0,
                         end: float = math.inf) -> int:
        if start <= 0.0 and end == math.inf:
            return self._sink_total
        return sum(c for t, c in self.sink_events() if start <= t < end)

    # -- scalar summaries ----------------------------------------------------------

    def latency_stats(self, start: float = 0.0, end: float = math.inf
                      ) -> Dict[str, float]:
        values = [v for t, v in self.latency_samples if start <= t < end]
        if not values:
            return {"peak": 0.0, "mean": 0.0, "p50": 0.0, "p99": 0.0,
                    "count": 0}
        return {
            "peak": max(values),
            "mean": sum(values) / len(values),
            "p50": percentile(values, 50.0),
            "p99": percentile(values, 99.0),
            "count": len(values),
        }


def _rate_series(times: Sequence[float], counts: Sequence[int],
                 window: float, start: float, end: Optional[float]
                 ) -> List[Tuple[float, float]]:
    if window <= 0:
        raise ValueError("window must be positive")
    if not times:
        return []
    if end is None:
        end = max(times) + window
    buckets: Dict[int, int] = {}
    for t, count in zip(times, counts):
        if t < start or t >= end:
            continue
        index = int((t - start) // window)
        buckets[index] = buckets.get(index, 0) + count
    n_buckets = int(math.ceil((end - start) / window))
    series = []
    for i in range(n_buckets):
        series.append((start + (i + 0.5) * window,
                       buckets.get(i, 0) / window))
    return series


def series_peak(series: Sequence[Tuple[float, float]],
                start: float = 0.0, end: float = math.inf) -> float:
    values = [v for t, v in series if start <= t < end]
    return max(values) if values else 0.0


def series_mean(series: Sequence[Tuple[float, float]],
                start: float = 0.0, end: float = math.inf) -> float:
    values = [v for t, v in series if start <= t < end]
    return sum(values) / len(values) if values else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (pct in [0, 100]).

    Returns 0.0 for empty input (see the module's empty-input contract);
    a ``pct`` outside [0, 100] is a programming error and raises.
    """
    if not 0.0 <= pct <= 100.0:
        raise ValueError("pct must be within [0, 100]")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    # a + (b - a) * frac, not a*(1-frac) + b*frac: the latter can lose an
    # ulp and break monotonicity in pct when neighbours are (nearly) equal.
    return ordered[low] + (ordered[high] - ordered[low]) * frac
