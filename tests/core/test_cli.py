"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main, parse_decay
from repro.core.decay import (
    ExponentialDecay,
    LinearDecay,
    LogarithmicDecay,
    NoDecay,
    PolynomialDecay,
    SlidingWindowDecay,
)
from repro.core.errors import InvalidParameterError
from repro.streams.generators import StreamItem
from repro.streams.io import write_csv, write_jsonl


class TestParseDecay:
    @pytest.mark.parametrize(
        "spec,cls",
        [
            ("expd:0.1", ExponentialDecay),
            ("sliwin:100", SlidingWindowDecay),
            ("polyd:2.0", PolynomialDecay),
            ("linear:50", LinearDecay),
            ("logd", LogarithmicDecay),
            ("logd:4", LogarithmicDecay),
            ("none", NoDecay),
            ("POLYD:1", PolynomialDecay),  # case-insensitive
        ],
    )
    def test_valid_specs(self, spec, cls):
        assert isinstance(parse_decay(spec), cls)

    @pytest.mark.parametrize("spec", ["magic:1", "expd:abc", "polyd", "sliwin:x"])
    def test_invalid_specs(self, spec):
        with pytest.raises(InvalidParameterError):
            parse_decay(spec)


class TestCommands:
    def test_decays_lists_families(self, capsys):
        assert main(["decays"]) == 0
        out = capsys.readouterr().out
        for token in ("expd", "sliwin", "polyd", "logd"):
            assert token in out

    def test_estimate_csv(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        write_csv([StreamItem(0, 1.0), StreamItem(5, 2.0)], path)
        rc = main([
            "estimate", "--decay", "polyd:1.0", "--epsilon", "0.1",
            "--input", str(path), "--until", "20",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "estimate" in out and "storage bits" in out
        assert "POLYD" in out

    def test_estimate_exact_engine_matches_math(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        write_jsonl([StreamItem(0, 1.0)], path)
        rc = main([
            "estimate", "--decay", "sliwin:10", "--input", str(path),
            "--engine", "exact", "--until", "5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "estimate     : 1" in out

    def test_estimate_unsorted_needs_flag(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        write_csv([StreamItem(5, 1.0), StreamItem(1, 1.0)], path)
        rc = main(["estimate", "--decay", "none", "--input", str(path)])
        assert rc == 2
        assert "sort" in capsys.readouterr().err
        rc = main(["estimate", "--decay", "none", "--input", str(path), "--sort"])
        assert rc == 0

    @pytest.mark.parametrize("text", ["nan", "inf"])
    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_estimate_rejects_non_finite_row(self, tmp_path, capsys, text, suffix):
        path = tmp_path / f"t{suffix}"
        if suffix == ".csv":
            path.write_text(f"time,value\n0,1\n5,{text}\n")
        else:
            token = "NaN" if text == "nan" else "Infinity"
            path.write_text(
                '{"time": 0, "value": 1}\n{"time": 5, "value": %s}\n' % token
            )
        rc = main(["estimate", "--decay", "expd:0.1", "--input", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        line = 3 if suffix == ".csv" else 2
        assert f"t{suffix}:{line}:" in captured.err
        assert "estimate" not in captured.out

    def test_estimate_missing_file(self, capsys):
        rc = main(["estimate", "--decay", "none", "--input", "/nope.csv"])
        assert rc == 2

    def test_figure1(self, capsys):
        assert main(["figure1", "--alpha", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "L1 rating" in out
        assert "POLYD" in out

    def test_storage(self, capsys):
        assert main([
            "storage", "--decay", "polyd:1.0", "--sizes", "256,1024",
            "--epsilon", "0.3",
        ]) == 0
        out = capsys.readouterr().out
        assert "wbmh" in out and "ceh" in out and "exact" in out

    def test_bad_decay_returns_error_code(self, capsys):
        rc = main(["storage", "--decay", "bogus:1", "--sizes", "64"])
        assert rc == 2
        assert "unknown decay" in capsys.readouterr().err

    def test_sample(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        write_csv([StreamItem(t, float(t)) for t in range(30)], path)
        rc = main([
            "sample", "--decay", "polyd:1.0", "--input", str(path),
            "--n", "3", "--until", "35",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("t=") for line in lines)

    def test_sample_empty_trace_errors(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        write_csv([], path)
        rc = main(["sample", "--decay", "polyd:1.0", "--input", str(path)])
        assert rc == 2

    def test_moments(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        write_csv([StreamItem(t, float(t % 7)) for t in range(50)], path)
        rc = main([
            "moments", "--decay", "expd:0.05", "--input", str(path),
            "--until", "55",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "decayed mean" in out
        assert "kurtosis" in out

    def test_moments_constant_stream_degenerate(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        write_csv([StreamItem(t, 5.0) for t in range(10)], path)
        rc = main(["moments", "--decay", "none", "--input", str(path)])
        assert rc == 0
        assert "undefined" in capsys.readouterr().out
