"""The stream-processing-engine substrate (Flink-like, simulated)."""

from .channels import Channel, InputChannel
from .checkpoint import CheckpointCoordinator
from .cluster import (ClusterModel, LinkSpec, NodeSpec, single_machine,
                      swarm_cluster)
from .graph import EdgeSpec, JobGraph, OperatorSpec
from .introspection import (channel_rows, hot_instance, instance_rows,
                            job_summary, operator_rows)
from .keys import KeyGroupAssignment, key_to_key_group, uniform_ranges
from .metrics import MetricsCollector, percentile, series_mean, series_peak
from .operators import (DefaultInputHandler, FilterLogic, InputHandler,
                        KeyByLogic, KeyedReduceLogic, MapLogic,
                        OperatorInstance, OperatorLogic, PassThroughLogic,
                        SinkLogic)
from .recovery import RecoveryError, RecoveryManager
from .records import (CheckpointBarrier, ControlSignal, EndOfStream,
                      LatencyMarker, Record, StreamElement, Watermark)
from .routing import (NoChannelError, OutputEdge, OutputRouter,
                      Partitioning)
from .runtime import JobConfig, SourceInstance, StreamJob
from .state import (ChangelogChainError, ChangelogSegment,
                    ChangelogStateBackend, DictStateBackend,
                    KeyedStateBackend, KeyGroupState, StateBackend,
                    StateStatus, StateTransferCostModel)
from .windows import SlidingWindowAggregateLogic, WindowedJoinLogic

__all__ = [
    "Channel", "InputChannel", "CheckpointCoordinator",
    "ClusterModel", "LinkSpec", "NodeSpec", "single_machine", "swarm_cluster",
    "EdgeSpec", "JobGraph", "OperatorSpec",
    "channel_rows", "hot_instance", "instance_rows", "job_summary",
    "operator_rows",
    "KeyGroupAssignment", "key_to_key_group", "uniform_ranges",
    "MetricsCollector", "percentile", "series_mean", "series_peak",
    "DefaultInputHandler", "FilterLogic", "InputHandler", "KeyByLogic",
    "KeyedReduceLogic", "MapLogic", "OperatorInstance", "OperatorLogic",
    "PassThroughLogic", "SinkLogic",
    "CheckpointBarrier", "ControlSignal", "EndOfStream", "LatencyMarker",
    "Record", "StreamElement", "Watermark",
    "NoChannelError", "OutputEdge", "OutputRouter", "Partitioning",
    "JobConfig", "SourceInstance", "StreamJob",
    "RecoveryError", "RecoveryManager",
    "ChangelogChainError", "ChangelogSegment", "ChangelogStateBackend",
    "DictStateBackend", "KeyedStateBackend", "KeyGroupState",
    "StateBackend", "StateStatus", "StateTransferCostModel",
    "SlidingWindowAggregateLogic", "WindowedJoinLogic",
]
