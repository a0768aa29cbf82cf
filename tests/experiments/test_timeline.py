"""Timeline rendering."""

import pytest

from repro.experiments.timeline import ascii_timeline


class TestAsciiTimeline:
    def test_width_and_scaling(self):
        series = [(float(i), float(i)) for i in range(100)]
        strip = ascii_timeline(series, width=10, start=0, end=100)
        assert len(strip) == 10
        assert strip[-1] == "█"  # largest bucket saturates the scale

    def test_empty_series(self):
        assert ascii_timeline([]) == "(no data)"

    def test_empty_window(self):
        assert ascii_timeline([(1.0, 1.0)], start=5.0,
                              end=5.0) == "(empty window)"

    def test_mark_at(self):
        series = [(float(i), 1.0) for i in range(100)]
        strip = ascii_timeline(series, width=10, start=0, end=100,
                               mark_at=55.0)
        assert strip[5] == "|"

    def test_mean_vs_max_aggregate(self):
        # bucket 0 holds {0, 10}: max-normalized it ties bucket 1 (10),
        # mean-normalized (5) it renders shorter than bucket 1.
        series = [(0.2, 0.0), (0.3, 10.0), (0.7, 10.0)]
        mx = ascii_timeline(series, width=2, start=0, end=1,
                            aggregate="max")
        mean = ascii_timeline(series, width=2, start=0, end=1,
                              aggregate="mean")
        assert mx == "██"
        assert mean[0] != "█" and mean[1] == "█"

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ascii_timeline([(0.0, 1.0)], width=0)
        with pytest.raises(ValueError):
            ascii_timeline([(0.0, 1.0)], aggregate="median")
