"""Closed-loop autoscaling: an elasticity control plane over DRRS.

The subsystem has three layers (see ``docs/autoscaling.md``):

* :mod:`.signals` — :class:`ScalingSignals` samples one operator's live
  telemetry (busy fraction, queue depth, backpressure stalls, watermark
  lag, source rate) and EWMA-smooths the aggregates;
* :mod:`.policy` — pluggable :class:`AutoscalePolicy` decision functions
  (reactive utilisation / queue-depth with hysteresis + cooldown +
  bounds, and a predictive arrival-rate forecaster);
* :mod:`.controller` — :class:`AutoscaleController`, the periodic
  control process that actuates decisions as DRRS subscale operations,
  serializing with in-flight rescales and failure recovery.
"""

from .controller import AutoscaleController
from .policy import (AutoscalePolicy, PredictivePolicy, QueueDepthPolicy,
                     ScalingDecision, UtilizationThresholdPolicy)
from .signals import ScalingSignals, SignalSnapshot

__all__ = [
    "AutoscaleController",
    "AutoscalePolicy",
    "PredictivePolicy",
    "QueueDepthPolicy",
    "ScalingDecision",
    "ScalingSignals",
    "SignalSnapshot",
    "UtilizationThresholdPolicy",
]
