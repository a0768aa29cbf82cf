"""DRRS decoupled scaling signals (§III-A).

The conventional coupled barrier is split into two signals:

* :class:`TriggerBarrier` — a priority message sent on the channel's control
  lane, bypassing all in-flight data in both output and input caches, so
  state migration starts after a single link latency.
* :class:`ConfirmBarrier` — the routing-confirmation signal.  It is inserted
  at the *front* of the predecessor's output cache (priority in the output
  cache only; records it bypasses are redirected to the new instance's
  channel), then travels in order, and reverts to a non-priority in-band
  element at the scaling operator, where it is re-routed to the migration
  target to drive *implicit alignment*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Tuple

from ..engine.records import ControlSignal

__all__ = ["TriggerBarrier", "ConfirmBarrier"]


@dataclass
class TriggerBarrier(ControlSignal):
    """Priority migration trigger for one subscale."""

    scale_id: int = 0
    subscale_id: int = 0
    key_groups: Tuple[int, ...] = ()
    src_index: int = 0
    dst_index: int = 0
    size_bytes: float = 16.0
    controller: Any = field(default=None, repr=False, compare=False)


@dataclass
class ConfirmBarrier(ControlSignal):
    """Ordered routing-confirmation signal for one subscale.

    ``predecessor_id`` identifies the emitting predecessor instance;
    implicit alignment at the migration target completes once the re-routed
    confirm barriers of *all* predecessors have been consumed (globally, or
    per channel under inter-channel scheduling's "fluid confirmation").
    ``rerouted`` marks the copy travelling on the re-route channel.
    """

    scale_id: int = 0
    subscale_id: int = 0
    predecessor_id: int = 0
    key_groups: Tuple[int, ...] = ()
    rerouted: bool = False
    size_bytes: float = 16.0
    controller: Any = field(default=None, repr=False, compare=False)

    @property
    def is_time_signal(self) -> bool:
        # Intra-channel scheduling must never carry a record across a
        # confirm barrier: it is the epoch boundary.
        return True
