"""Tests for :mod:`repro.analysis.stats`."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import merge_series, summarize


class TestSummarize:
    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.n == 3
        assert s.mean == pytest.approx(2.0)
        assert s.minimum == 1.0 and s.maximum == 3.0
        assert s.std == pytest.approx(1.0)
        assert s.stderr == pytest.approx(1.0 / math.sqrt(3))

    def test_single_sample(self):
        s = summarize([4.2])
        assert (s.std, s.stderr) == (0.0, 0.0)

    def test_empty(self):
        s = summarize([])
        assert s.n == 0
        assert math.isnan(s.mean)

    def test_str(self):
        assert "n=2" in str(summarize([1.0, 2.0]))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    def test_bounds(self, xs):
        s = summarize(xs)
        # Up to one ulp of float rounding in the mean accumulation.
        tol = 1e-12 * max(1.0, abs(s.minimum), abs(s.maximum))
        assert s.minimum - tol <= s.mean <= s.maximum + tol
        assert s.std >= 0.0


class TestMergeSeries:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=30),
        st.lists(st.integers(0, 30), max_size=4),
    )
    def test_any_split_matches_single_pass(self, xs, cuts):
        bounds = sorted({0, len(xs), *(min(c, len(xs)) for c in cuts)})
        parts = [summarize(xs[a:b]) for a, b in zip(bounds, bounds[1:])]
        merged, direct = merge_series(parts), summarize(xs)
        assert merged.n == direct.n
        assert (merged.minimum, merged.maximum) == (direct.minimum, direct.maximum)
        assert merged.mean == pytest.approx(direct.mean, abs=1e-9)
        assert merged.std == pytest.approx(direct.std, abs=1e-6)

    def test_single_part_unchanged(self):
        s = summarize([1.0, 4.0, 4.0])
        merged = merge_series([s])
        assert merged.n == s.n and merged.mean == pytest.approx(s.mean)
        assert merged.std == pytest.approx(s.std)
        assert merged.stderr == pytest.approx(s.stderr)
