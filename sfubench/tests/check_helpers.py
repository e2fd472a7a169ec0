"""Unit checks of the benchmark's own helpers.

Run with ``python3 -m pytest sfubench/tests/check_helpers.py -q`` from
the repository root (the ``check_`` prefix keeps them out of the
repository's own test run).
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

_ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from repro.obs.metrics import MetricsRegistry  # noqa: E402
from sfubench import loadgen  # noqa: E402
from sfubench.common import (Spans, highest_percentile,  # noqa: E402
                             percentile, spread)


class TestPercentile:
    def test_refuses_a_tail_with_too_few_samples_beyond(self):
        values = list(range(100))
        with pytest.raises(ValueError):
            percentile(values, 95)          # 5 samples beyond p95
        assert percentile(values, 90) == 89  # exactly 10 beyond

    def test_median_needs_no_tail(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_misses_sort_last(self):
        values = [1.0] * 200 + [math.inf] * 20
        assert percentile(values, 90) == 1.0
        assert percentile(values, 95) == math.inf

    def test_highest_supported_percentile(self):
        assert highest_percentile(list(range(1000))) == (99, 989.0)
        assert highest_percentile(list(range(30)))[0] == 50

    def test_spread_is_iqr_over_median(self):
        assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
            (4.5 - 1.5) / 3.0)


class TestPoissonSchedule:
    def test_deterministic_per_seed_and_rate(self):
        a = loadgen.poisson_schedule(7, 30.0, 10.0)
        b = loadgen.poisson_schedule(7, 30.0, 10.0)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, loadgen.poisson_schedule(8, 30.0, 10.0))
        assert not np.array_equal(
            a[:50], loadgen.poisson_schedule(7, 31.0, 10.0)[:50])

    def test_longer_duration_extends_the_same_sequence(self):
        short = loadgen.poisson_schedule(3, 30.0, 5.0)
        long = loadgen.poisson_schedule(3, 30.0, 50.0)
        assert np.array_equal(short, long[:len(short)])

    def test_rate_and_bounds(self):
        due = loadgen.poisson_schedule(1, 30.0, 200.0)
        assert np.all(np.diff(due) > 0) and due[-1] < 200.0
        assert len(due) == pytest.approx(6000, rel=0.05)


class TestMetricsParsing:
    def _scrape(self, reg: MetricsRegistry):
        return loadgen.parse_metrics(reg.render_prometheus())

    def test_parses_the_registry_exposition(self):
        reg = MetricsRegistry()
        reg.counter("serving.infer.requests", model="vit").inc(3)
        reg.histogram("serving.infer.batch_size", model="vit").observe(2)
        scrape = self._scrape(reg)
        assert scrape[("repro_serving_infer_requests",
                       (("model", "vit"),))] == 3
        assert loadgen.family_total(
            scrape, "repro_serving_infer_batch_size_count") == 1

    def test_difference_of_two_scrapes(self):
        reg = MetricsRegistry()
        reg.counter("serving.infer.requests", model="vit").inc(3)
        before = self._scrape(reg)
        reg.counter("serving.infer.requests", model="vit").inc(4)
        reg.counter("serving.infer.requests", model="nlp").inc(2)
        delta = loadgen.diff_metrics(before, self._scrape(reg))
        assert loadgen.family_total(
            delta, "repro_serving_infer_requests", {"model": "vit"}) == 4
        assert loadgen.family_total(
            delta, "repro_serving_infer_requests") == 6

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            loadgen.parse_metrics("not a metric line at all\n")


class TestSpans:
    def test_self_time_excludes_children(self):
        spans = Spans(enabled=True)
        with spans.span("outer", rid="r1"):
            with spans.span("inner"):
                pass
        outer, inner = spans.spans
        assert inner.parent == outer.sid and inner.rid == "r1"
        self_times = spans.self_times()
        assert self_times["outer"] == pytest.approx(
            outer.duration - inner.duration)

    def test_disabled_records_nothing(self):
        spans = Spans()
        with spans.span("x"):
            pass
        assert spans.spans == []
