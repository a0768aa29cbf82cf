"""Cluster model: nodes, links and deployment slots.

Models the paper's two deployments:

* the single-machine Dockerized setup (homogeneous node, negligible and
  uniform network latency), and
* the 4-node heterogeneous Docker Swarm cluster on Gigabit Ethernet used for
  the sensitivity analysis (§V-D).

Only the properties the scaling mechanisms are sensitive to are modelled:
per-link latency/bandwidth, per-node relative CPU speed, and per-node slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["NodeSpec", "LinkSpec", "ClusterModel", "single_machine", "swarm_cluster"]

GBIT = 125_000_000.0  # 1 Gbps in bytes/second


@dataclass
class NodeSpec:
    """One worker node."""

    name: str
    #: Relative CPU speed (1.0 = reference); service times divide by this.
    speed: float = 1.0
    #: How many operator instances (containers) the node can host.
    slots: int = 64

    def __post_init__(self):
        if not (self.speed > 0):
            raise ValueError(f"{self.name}: speed must be > 0, "
                             f"got {self.speed}")


@dataclass
class LinkSpec:
    """Network parameters between two nodes (or loopback)."""

    latency: float = 0.0005  # one-way propagation, seconds
    bandwidth: float = GBIT  # bytes/second; inf = free serialization

    def __post_init__(self):
        if not (0 <= self.latency < math.inf):
            raise ValueError(f"link latency must be finite and >= 0, "
                             f"got {self.latency}")
        if not (self.bandwidth > 0):
            raise ValueError(f"link bandwidth must be > 0, "
                             f"got {self.bandwidth}")


class ClusterModel:
    """A set of nodes plus a link model, with round-robin slot placement."""

    def __init__(self, nodes: List[NodeSpec],
                 default_link: LinkSpec = None,
                 loopback: LinkSpec = None):
        if not nodes:
            raise ValueError("cluster needs at least one node")
        self.nodes = list(nodes)
        self.default_link = default_link or LinkSpec()
        self.loopback = loopback or LinkSpec(latency=0.00005,
                                             bandwidth=8 * GBIT)
        self._links: Dict[Tuple[str, str], LinkSpec] = {}
        self._occupancy: Dict[str, int] = {n.name: 0 for n in nodes}
        self._next = 0

    def set_link(self, a: str, b: str, link: LinkSpec) -> None:
        """Override the link between two named nodes (symmetric)."""
        self._links[(a, b)] = link
        self._links[(b, a)] = link

    def link(self, a: str, b: str) -> LinkSpec:
        if a == b:
            return self.loopback
        return self._links.get((a, b), self.default_link)

    def node(self, name: str) -> NodeSpec:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    def place(self, preferred: Optional[str] = None) -> NodeSpec:
        """Pick a node for a new instance (round-robin over free slots)."""
        if preferred is not None:
            node = self.node(preferred)
            self._occupancy[node.name] += 1
            return node
        for _ in range(len(self.nodes)):
            node = self.nodes[self._next % len(self.nodes)]
            self._next += 1
            if self._occupancy[node.name] < node.slots:
                self._occupancy[node.name] += 1
                return node
        # All full: overcommit the least-loaded node rather than failing.
        node = min(self.nodes, key=lambda n: self._occupancy[n.name])
        self._occupancy[node.name] += 1
        return node

    def occupancy(self) -> Dict[str, int]:
        return dict(self._occupancy)


def single_machine() -> ClusterModel:
    """The paper's single-machine Dockerized environment.

    Containers on one host talk over the Docker bridge; the loopback
    bandwidth is set so state moves at realistic extract/serialize/restore
    rates (~60 MB/s effective with the default transfer model) rather than
    at memcpy speed — state-transfer time is central to every experiment.
    """
    node = NodeSpec(name="server-0", speed=1.0, slots=256)
    return ClusterModel(
        [node],
        default_link=LinkSpec(latency=0.0001, bandwidth=GBIT),
        loopback=LinkSpec(latency=0.0001, bandwidth=GBIT),
    )


def swarm_cluster() -> ClusterModel:
    """The paper's 4-node heterogeneous Swarm cluster (§V-A).

    One Gold 5218 node, two Silver 4210 nodes, one Gold 6230 node, joined by
    Gigabit Ethernet.  Speeds are rough clock-derived ratios.
    """
    nodes = [
        NodeSpec(name="gold-5218", speed=1.0, slots=64),
        NodeSpec(name="silver-4210-a", speed=0.93, slots=64),
        NodeSpec(name="silver-4210-b", speed=0.93, slots=64),
        NodeSpec(name="gold-6230", speed=0.97, slots=64),
    ]
    return ClusterModel(
        nodes,
        default_link=LinkSpec(latency=0.0005, bandwidth=GBIT),
    )
