"""Timeline rendering for experiment results: plot-free ASCII strips for
terminals (used by the examples)."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = ["ascii_timeline"]

_BLOCKS = " ▁▂▃▄▅▆▇█"


def ascii_timeline(series: Sequence[Tuple[float, float]],
                   width: int = 60,
                   start: float = 0.0,
                   end: Optional[float] = None,
                   aggregate: str = "max",
                   mark_at: Optional[float] = None) -> str:
    """Render a time series as a unicode block strip.

    ``aggregate`` ∈ {"max", "mean"} controls per-bucket reduction;
    ``mark_at`` draws a ``|`` at that time (e.g. the scaling request).
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if aggregate not in ("max", "mean"):
        raise ValueError(f"unknown aggregate: {aggregate!r}")
    if not series:
        return "(no data)"
    if end is None:
        end = max(t for t, _v in series)
    if end <= start:
        return "(empty window)"
    bucket_width = (end - start) / width
    buckets: List[List[float]] = [[] for _ in range(width)]
    for t, v in series:
        if start <= t < end:
            index = min(int((t - start) / bucket_width), width - 1)
            buckets[index].append(v)
    values = []
    for bucket in buckets:
        if not bucket:
            values.append(0.0)
        elif aggregate == "max":
            values.append(max(bucket))
        else:
            values.append(sum(bucket) / len(bucket))
    top = max(values) or 1.0
    chars = [
        _BLOCKS[min(int(v / top * (len(_BLOCKS) - 1)), len(_BLOCKS) - 1)]
        for v in values]
    if mark_at is not None and start <= mark_at < end:
        chars[min(int((mark_at - start) / bucket_width), width - 1)] = "|"
    return "".join(chars)
