"""Unit tests for the storage accounting model."""

import pytest

from repro.core.errors import InvalidParameterError
from repro.storage.model import (
    StorageReport,
    bits_for_count,
    bits_for_value,
    float_register_bits,
)


class TestBitHelpers:
    @pytest.mark.parametrize(
        "value,bits",
        [(0, 1), (1, 1), (2, 2), (3, 2), (4, 3), (255, 8), (256, 9), (1023, 10)],
    )
    def test_bits_for_value(self, value, bits):
        assert bits_for_value(value) == bits

    def test_bits_for_count_alias(self):
        assert bits_for_count(100) == bits_for_value(100)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            bits_for_value(-1)

    def test_float_register_exponent_is_loglog(self):
        small = float_register_bits(256.0, mantissa_bits=8)
        large = float_register_bits(2.0**60, mantissa_bits=8)
        # log log growth: the exponent field grows by ~3 bits over 52
        # doublings of the magnitude.
        assert large - small <= 4

    def test_float_register_rejects_zero_mantissa(self):
        with pytest.raises(InvalidParameterError):
            float_register_bits(10.0, mantissa_bits=0)


class TestStorageReport:
    def test_per_stream_excludes_shared(self):
        r = StorageReport(
            engine="x",
            timestamp_bits=10,
            count_bits=20,
            register_bits=5,
            shared_bits=100,
        )
        assert r.per_stream_bits == 35
        assert r.total_bits == 135

    def test_combined_adds_fields(self):
        a = StorageReport(engine="a", buckets=2, count_bits=10, notes={"x": 1.0})
        b = StorageReport(engine="b", buckets=3, timestamp_bits=7, notes={"y": 2.0})
        c = a.combined(b)
        assert c.engine == "a+b"
        assert c.buckets == 5
        assert c.count_bits == 10
        assert c.timestamp_bits == 7
        assert c.notes == {"x": 1.0, "y": 2.0}

    def test_combined_custom_engine_name(self):
        a = StorageReport(engine="a")
        assert a.combined(StorageReport(engine="b"), engine="avg").engine == "avg"

    def test_aggregate_sums_streams_and_counts_shared_bits_once(self):
        streams = [
            StorageReport(engine="s", buckets=2, timestamp_bits=3,
                          count_bits=4, register_bits=5, shared_bits=100),
            StorageReport(engine="s", buckets=1, timestamp_bits=1,
                          count_bits=1, register_bits=1, shared_bits=100),
        ]
        total = StorageReport.aggregate("store[2]", streams)
        assert total.engine == "store[2]"
        assert total.buckets == 3
        assert total.per_stream_bits == 15
        assert total.shared_bits == 100
        empty = StorageReport.aggregate("store[0]", [])
        assert (empty.per_stream_bits, empty.shared_bits) == (0, 0)

    def test_rejects_negative_fields(self):
        with pytest.raises(InvalidParameterError):
            StorageReport(engine="x", count_bits=-1)
