"""DRRS — the paper's primary contribution."""

from .barriers import ConfirmBarrier, TriggerBarrier
from .drrs import (CoupledSubscaleController, DRRSConfig, DRRSController,
                   make_variant)
from .executor import DRRSInputHandler, ScaleExecutor
from .planner import Subscale, SubscalePlanner
from .rerouting import ReRouteManager

__all__ = [
    "ConfirmBarrier",
    "TriggerBarrier",
    "CoupledSubscaleController",
    "DRRSConfig",
    "DRRSController",
    "make_variant",
    "DRRSInputHandler",
    "ScaleExecutor",
    "Subscale",
    "SubscalePlanner",
    "ReRouteManager",
]
