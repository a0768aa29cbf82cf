"""Evaluation workloads: NEXMark Q7/Q8, synthetic Twitch, custom sensitivity."""

from .base import Workload, WorkloadConfig, drive_source
from .custom import CustomConfig, CustomWorkload
from .nexmark import NexmarkConfig, NexmarkQ7, NexmarkQ8, NexmarkQ8Config
from .twitch import TwitchConfig, TwitchWorkload

__all__ = [
    "Workload",
    "WorkloadConfig",
    "drive_source",
    "CustomConfig",
    "CustomWorkload",
    "NexmarkConfig",
    "NexmarkQ7",
    "NexmarkQ8",
    "NexmarkQ8Config",
    "TwitchConfig",
    "TwitchWorkload",
]
