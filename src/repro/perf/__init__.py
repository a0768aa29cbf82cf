"""Microbench bodies the benchmark ledger imports (:mod:`.benches`).

Host-time measurement lives in ``benchmarks/ledger`` (``BENCHMARK.json``);
this package re-exports nothing.
"""
