"""Job-graph construction and validation."""

import pytest

from repro.engine import JobGraph, OperatorSpec, Partitioning


def simple_graph():
    g = JobGraph("g", num_key_groups=8)
    g.add_source("src")
    g.add_operator(OperatorSpec("agg", parallelism=2, keyed=True))
    g.add_sink("sink")
    g.connect("src", "agg", Partitioning.HASH)
    g.connect("agg", "sink")
    return g


def test_valid_graph_passes():
    simple_graph().validate()


def test_duplicate_operator_rejected():
    g = JobGraph("g")
    g.add_source("a")
    with pytest.raises(ValueError):
        g.add_source("a")


def test_connect_unknown_operator_rejected():
    g = JobGraph("g")
    g.add_source("a")
    with pytest.raises(KeyError):
        g.connect("a", "missing")
    with pytest.raises(KeyError):
        g.connect("missing", "a")


def test_cycle_detected():
    g = JobGraph("g")
    g.add_source("src")
    g.add_operator(OperatorSpec("a"))
    g.add_operator(OperatorSpec("b"))
    g.connect("src", "a")
    g.connect("a", "b")
    g.connect("b", "a")
    with pytest.raises(ValueError, match="cycle"):
        g.validate()


def test_no_source_rejected():
    g = JobGraph("g")
    g.add_operator(OperatorSpec("a"))
    with pytest.raises(ValueError, match="source"):
        g.validate()


def test_hash_edge_requires_keyed_target():
    g = JobGraph("g")
    g.add_source("src")
    g.add_operator(OperatorSpec("map"))  # not keyed
    g.connect("src", "map", Partitioning.HASH)
    with pytest.raises(ValueError, match="non-keyed"):
        g.validate()


def test_upstream_downstream_queries():
    g = simple_graph()
    assert g.upstream_of("agg") == ["src"]
    assert [e.dst for e in g.out_edges("agg")] == ["sink"]
    assert g.upstream_of("src") == []
    assert [e.name for e in g.in_edges("sink")] == ["agg->sink"]


def test_sources_and_sinks():
    g = simple_graph()
    assert [s.name for s in g.sources()] == ["src"]
    assert [s.name for s in g.sinks()] == ["sink"]


def test_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec("x", parallelism=0)
    with pytest.raises(ValueError):
        OperatorSpec("x", service_time=-1.0)
    with pytest.raises(ValueError):
        JobGraph("g", num_key_groups=0)


def test_nan_service_time_rejected():
    # A NaN cost would slip past every `cost > 0` guard and charge zero.
    with pytest.raises(ValueError):
        OperatorSpec("x", service_time=float("nan"))
