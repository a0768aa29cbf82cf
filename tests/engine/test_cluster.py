"""Cluster model: nodes, links, placement."""

import pytest

from repro.engine import (ClusterModel, LinkSpec, NodeSpec, single_machine,
                          swarm_cluster)


def test_single_machine_has_one_node():
    cluster = single_machine()
    assert len(cluster.nodes) == 1
    node = cluster.place()
    assert node.name == "server-0"


def test_swarm_cluster_matches_paper_hardware():
    cluster = swarm_cluster()
    assert len(cluster.nodes) == 4
    names = {n.name for n in cluster.nodes}
    assert {"gold-5218", "silver-4210-a", "silver-4210-b",
            "gold-6230"} == names
    # heterogeneous speeds
    speeds = {n.speed for n in cluster.nodes}
    assert len(speeds) > 1
    # Gigabit default links
    link = cluster.link("gold-5218", "gold-6230")
    assert link.bandwidth == pytest.approx(125_000_000.0)


def test_loopback_differs_from_remote_link():
    cluster = swarm_cluster()
    local = cluster.link("gold-5218", "gold-5218")
    remote = cluster.link("gold-5218", "gold-6230")
    assert local.latency < remote.latency


def test_links_are_symmetric():
    cluster = swarm_cluster()
    assert cluster.link("gold-5218", "gold-6230") \
        is cluster.link("gold-6230", "gold-5218") is cluster.default_link


def test_round_robin_placement():
    cluster = swarm_cluster()
    placed = [cluster.place().name for _ in range(8)]
    assert placed[:4] != [placed[0]] * 4  # spread over nodes
    occupancy = cluster.occupancy()
    assert sum(occupancy.values()) == 8


def test_preferred_placement():
    cluster = swarm_cluster()
    node = cluster.place(preferred="gold-6230")
    assert node.name == "gold-6230"


def test_unknown_node_rejected():
    cluster = swarm_cluster()
    with pytest.raises(KeyError):
        cluster.node("missing")


def test_overcommit_picks_least_loaded():
    cluster = ClusterModel([NodeSpec("a", slots=1), NodeSpec("b", slots=1)])
    cluster.place()
    cluster.place()
    extra = cluster.place()  # both full: overcommit
    assert extra.name in ("a", "b")


def test_empty_cluster_rejected():
    with pytest.raises(ValueError):
        ClusterModel([])


def test_non_positive_node_speed_rejected():
    for speed in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            NodeSpec("n", speed=speed)


def test_negative_or_non_finite_link_latency_rejected():
    for latency in (-0.001, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            LinkSpec(latency=latency)


def test_non_positive_link_bandwidth_rejected():
    for bandwidth in (0.0, -5.0, float("nan")):
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=bandwidth)
    assert LinkSpec(bandwidth=float("inf")).bandwidth == float("inf")
