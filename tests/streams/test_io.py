"""Unit tests for trace persistence and replay."""

import math

import pytest

from repro.core.decay import PolynomialDecay
from repro.core.errors import InvalidParameterError, TimeOrderError
from repro.core.exact import ExactDecayingSum
from repro.streams.generators import StreamItem, bernoulli_stream
from repro.streams.io import (
    KeyedItem,
    read_csv,
    read_jsonl,
    replay,
    write_csv,
    write_jsonl,
)


@pytest.fixture
def items():
    return [StreamItem(0, 1.0), StreamItem(3, 2.5), StreamItem(7, 0.5)]


@pytest.fixture
def keyed_items():
    return [KeyedItem("a", 0, 1.0), KeyedItem("b", 2, 3.0)]


class TestCsv:
    def test_roundtrip(self, tmp_path, items):
        path = tmp_path / "trace.csv"
        assert write_csv(items, path) == 3
        back = read_csv(path)
        assert [(i.time, i.value) for i in back] == [
            (i.time, i.value) for i in items
        ]

    def test_keyed_roundtrip(self, tmp_path, keyed_items):
        path = tmp_path / "trace.csv"
        write_csv(keyed_items, path)
        back = read_csv(path)
        assert back == keyed_items

    def test_sort_on_load(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv([StreamItem(5, 1.0), StreamItem(1, 2.0)], path)
        back = read_csv(path, sort=True)
        assert [i.time for i in back] == [1, 5]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidParameterError):
            read_csv(path)

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\nxx,1\n")
        with pytest.raises(InvalidParameterError):
            read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert read_csv(path) == []


class TestJsonl:
    def test_roundtrip(self, tmp_path, items):
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(items, path) == 3
        back = read_jsonl(path)
        assert [(i.time, i.value) for i in back] == [
            (i.time, i.value) for i in items
        ]

    def test_keyed_roundtrip(self, tmp_path, keyed_items):
        path = tmp_path / "trace.jsonl"
        write_jsonl(keyed_items, path)
        assert read_jsonl(path) == keyed_items

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"time": 1, "value": 2.0}\n\n{"time": 2, "value": 1.0}\n')
        assert len(read_jsonl(path)) == 2

    def test_bad_record_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"value": 2.0}\n')
        with pytest.raises(InvalidParameterError):
            read_jsonl(path)


class TestReplay:
    def test_replay_equals_manual_drive(self, tmp_path):
        decay = PolynomialDecay(1.0)
        items = list(bernoulli_stream(200, 0.5, seed=3))
        path = tmp_path / "t.jsonl"
        write_jsonl(items, path)
        replayed = replay(read_jsonl(path), ExactDecayingSum(decay), until=250)
        manual = ExactDecayingSum(decay)
        for item in items:
            if item.time > manual.time:
                manual.advance(item.time - manual.time)
            manual.add(item.value)
        manual.advance(250 - manual.time)
        assert replayed.query().value == pytest.approx(manual.query().value)

    def test_replay_rejects_unsorted(self):
        engine = ExactDecayingSum(PolynomialDecay(1.0))
        with pytest.raises(TimeOrderError):
            replay([StreamItem(5, 1.0), StreamItem(2, 1.0)], engine)


class TestKeyedItem:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_weight_rejected(self, value):
        with pytest.raises(InvalidParameterError):
            KeyedItem("a", 0, value)

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_readers_reject_non_finite_keyed_rows(self, tmp_path, text):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(f"time,value,key\n0,1.0,a\n1,{text},a\n")
        with pytest.raises(InvalidParameterError):
            read_csv(csv_path)
        jsonl_path = tmp_path / "t.jsonl"
        jsonl_path.write_text(
            '{"time": 1, "value": %s, "key": "a"}\n'
            % ("NaN" if text == "nan" else "Infinity")
        )
        with pytest.raises(InvalidParameterError):
            read_jsonl(jsonl_path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-1"])
    def test_readers_name_the_bad_row(self, tmp_path, text):
        # Unkeyed rows (StreamItem) and keyed rows (KeyedItem) alike.
        for header, suffix in (("time,value", ""), ("time,value,key", ",a")):
            csv_path = tmp_path / "t.csv"
            csv_path.write_text(f"{header}\n0,1.0{suffix}\n1,{text}{suffix}\n")
            with pytest.raises(InvalidParameterError, match=r"t\.csv:3: "):
                read_csv(csv_path)
        value = {"nan": "NaN", "inf": "Infinity", "-1": "-1"}[text]
        for key in ("", ', "key": "a"'):
            jsonl_path = tmp_path / "t.jsonl"
            jsonl_path.write_text(
                '{"time": 0, "value": 1.0%s}\n{"time": 1, "value": %s%s}\n'
                % (key, value, key)
            )
            with pytest.raises(InvalidParameterError, match=r"t\.jsonl:2: "):
                read_jsonl(jsonl_path)
