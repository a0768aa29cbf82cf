"""Metrics registry: labelled counters and gauges.

The registry is the *aggregate* half of the telemetry subsystem (the tracer
is the *timeline* half): cheap monotonically updated instruments the hot
paths bump without allocating, plus a flat, JSON-serialisable
:meth:`MetricsRegistry.snapshot`.

Instruments are identified by name + a frozen label set; repeated
``registry.counter("x", op="agg")`` calls return the same object.  All
iteration orders are sorted, so snapshots of identically-seeded runs are
byte-identical.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["Counter", "Gauge", "MetricsRegistry"]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Point-in-time value (queue depth, credits, active subscales)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class MetricsRegistry:
    """Get-or-create home for every instrument in one run."""

    def __init__(self):
        self._instruments: Dict[Tuple[str, str, LabelKey], object] = {}

    def _get(self, kind: str, name: str, labels: Dict[str, str], factory):
        key = (kind, name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory(name, key[2])
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get("gauge", name, labels, Gauge)

    def instruments(self) -> List[object]:
        """All instruments in deterministic (kind, name, labels) order."""
        return [self._instruments[k] for k in sorted(self._instruments)]

    def snapshot(self) -> Dict[str, float]:
        """Flat, JSON-serialisable view of every instrument.

        Keys are ``name{k=v,...}`` (labels sorted), values floats.
        """
        snap: Dict[str, float] = {}
        for (_kind, name, labels), inst in sorted(self._instruments.items()):
            label_str = ",".join(f"{k}={v}" for k, v in labels)
            key = f"{name}{{{label_str}}}" if label_str else name
            snap[key] = inst.value
        return snap
