"""Zipf sampler and RNG helpers, including property-based checks."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import ZipfSampler, make_rng


def test_make_rng_is_deterministic():
    a = make_rng(42)
    b = make_rng(42)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_zipf_zero_skew_is_uniform():
    sampler = ZipfSampler(10, 0.0, make_rng(3))
    pmf = sampler.probabilities()
    assert all(abs(p - 0.1) < 1e-9 for p in pmf)


def test_zipf_skew_concentrates_on_low_ranks():
    sampler = ZipfSampler(100, 1.2, make_rng(3))
    pmf = sampler.probabilities()
    assert pmf[0] > pmf[10] > pmf[50]


def test_zipf_empirical_matches_pmf():
    sampler = ZipfSampler(20, 1.0, make_rng(5))
    counts = [0] * 20
    n = 20000
    for _ in range(n):
        counts[sampler.sample()] += 1
    pmf = sampler.probabilities()
    for rank in (0, 1, 5):
        assert abs(counts[rank] / n - pmf[rank]) < 0.02


def test_zipf_rejects_bad_args():
    with pytest.raises(ValueError):
        ZipfSampler(0, 1.0, make_rng(1))
    with pytest.raises(ValueError):
        ZipfSampler(5, -0.1, make_rng(1))


@given(n=st.integers(1, 200), skew=st.floats(0.0, 3.0),
       seed=st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_zipf_samples_in_range(n, skew, seed):
    sampler = ZipfSampler(n, skew, make_rng(seed))
    for _ in range(20):
        assert 0 <= sampler.sample() < n


@given(n=st.integers(1, 100), skew=st.floats(0.0, 2.5))
@settings(max_examples=50, deadline=None)
def test_zipf_pmf_sums_to_one_and_is_monotone(n, skew):
    sampler = ZipfSampler(n, skew, make_rng(0))
    pmf = list(sampler.probabilities())
    assert math.isclose(sum(pmf), 1.0, abs_tol=1e-9)
    for a, b in zip(pmf, pmf[1:]):
        assert a >= b - 1e-12
