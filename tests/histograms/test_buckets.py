"""Unit tests for bucket records (paper section 2.3)."""

import pytest

from repro.core.errors import InvalidParameterError
from repro.histograms.buckets import Bucket


class TestBucket:
    def test_widths(self):
        b = Bucket(start=3, end=7, count=5.0)
        assert b.time_width == 4
        assert b.count == 5.0

    def test_age_span(self):
        b = Bucket(start=3, end=7, count=1.0)
        assert b.age_span(now=10) == (3, 7)

    def test_age_span_rejects_past_now(self):
        b = Bucket(start=3, end=7, count=1.0)
        with pytest.raises(InvalidParameterError):
            b.age_span(now=5)

    def test_rejects_inverted_interval(self):
        with pytest.raises(InvalidParameterError):
            Bucket(start=5, end=3, count=1.0)

    def test_rejects_negative_count_and_level(self):
        with pytest.raises(InvalidParameterError):
            Bucket(start=0, end=0, count=-1.0)
        with pytest.raises(InvalidParameterError):
            Bucket(start=0, end=0, count=1.0, level=-1)
