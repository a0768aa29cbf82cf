"""Job graphs: logical operators and edges, validated as a DAG."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from .operators import OperatorLogic, PassThroughLogic, SinkLogic
from .routing import Partitioning

__all__ = ["OperatorSpec", "EdgeSpec", "JobGraph"]


@dataclass
class OperatorSpec:
    """Logical operator: parallel instances share this description.

    Attributes:
        name: unique operator name.
        logic_factory: zero-arg callable producing one logic per instance.
        parallelism: number of parallel instances.
        service_time: seconds of CPU per physical record (before node speed).
        bytes_per_entry: nominal state bytes per distinct key entry.
        keyed: whether the operator owns key-group state (scalable target).
        is_source / is_sink: role flags.
        initial_state_bytes_per_group: pre-populated state, for experiments
            that need a state-size floor at scale time.
    """

    name: str
    logic_factory: Callable[[], OperatorLogic] = PassThroughLogic
    parallelism: int = 1
    service_time: float = 0.0
    bytes_per_entry: float = 256.0
    keyed: bool = False
    is_source: bool = False
    is_sink: bool = False
    initial_state_bytes_per_group: float = 0.0

    def __post_init__(self):
        if self.parallelism < 1:
            raise ValueError(f"{self.name}: parallelism must be >= 1")
        if not (self.service_time >= 0):
            raise ValueError(f"{self.name}: service_time must be >= 0, "
                             f"got {self.service_time}")


@dataclass
class EdgeSpec:
    """A logical edge between two operators."""

    src: str
    dst: str
    partitioning: Partitioning = Partitioning.FORWARD

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"


class JobGraph:
    """Logical dataflow: operators plus edges; validates DAG shape."""

    def __init__(self, name: str = "job", num_key_groups: int = 128):
        if num_key_groups < 1:
            raise ValueError("num_key_groups must be >= 1")
        self.name = name
        self.num_key_groups = num_key_groups
        self.operators: Dict[str, OperatorSpec] = {}
        self.edges: List[EdgeSpec] = []

    # -- construction -----------------------------------------------------------

    def add_operator(self, spec: OperatorSpec) -> OperatorSpec:
        if spec.name in self.operators:
            raise ValueError(f"duplicate operator name: {spec.name}")
        self.operators[spec.name] = spec
        return spec

    def add_source(self, name: str, parallelism: int = 1,
                   service_time: float = 0.0) -> OperatorSpec:
        return self.add_operator(OperatorSpec(
            name=name, parallelism=parallelism, service_time=service_time,
            is_source=True))

    def add_sink(self, name: str, parallelism: int = 1,
                 collect: bool = False,
                 service_time: float = 0.0) -> OperatorSpec:
        return self.add_operator(OperatorSpec(
            name=name, logic_factory=lambda: SinkLogic(collect=collect),
            parallelism=parallelism, service_time=service_time,
            is_sink=True))

    def connect(self, src: str, dst: str,
                partitioning: Partitioning = Partitioning.FORWARD
                ) -> EdgeSpec:
        if src not in self.operators:
            raise KeyError(f"unknown operator: {src}")
        if dst not in self.operators:
            raise KeyError(f"unknown operator: {dst}")
        edge = EdgeSpec(src=src, dst=dst, partitioning=partitioning)
        self.edges.append(edge)
        return edge

    # -- queries -------------------------------------------------------------------

    def upstream_of(self, name: str) -> List[str]:
        return [e.src for e in self.edges if e.dst == name]

    def downstream_of(self, name: str) -> List[str]:
        return [e.dst for e in self.edges if e.src == name]

    def in_edges(self, name: str) -> List[EdgeSpec]:
        return [e for e in self.edges if e.dst == name]

    def out_edges(self, name: str) -> List[EdgeSpec]:
        return [e for e in self.edges if e.src == name]

    def sources(self) -> List[OperatorSpec]:
        return [op for op in self.operators.values() if op.is_source]

    def sinks(self) -> List[OperatorSpec]:
        return [op for op in self.operators.values() if op.is_sink]

    # -- validation -------------------------------------------------------------------

    def validate(self) -> None:
        """Raises ValueError for cycles, dangling operators or missing roles."""
        if not self.sources():
            raise ValueError("job graph has no source operator")
        # Kahn's algorithm for cycle detection.
        indegree = {name: 0 for name in self.operators}
        for edge in self.edges:
            indegree[edge.dst] += 1
        frontier = [name for name, deg in indegree.items() if deg == 0]
        visited = 0
        while frontier:
            name = frontier.pop()
            visited += 1
            for edge in self.out_edges(name):
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    frontier.append(edge.dst)
        if visited != len(self.operators):
            raise ValueError("job graph contains a cycle")
        for edge in self.edges:
            if (edge.partitioning is Partitioning.HASH
                    and not self.operators[edge.dst].keyed):
                raise ValueError(
                    f"hash edge {edge.name} targets non-keyed operator")
