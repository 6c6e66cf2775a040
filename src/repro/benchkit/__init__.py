"""Benchmark harness utilities: accuracy sweeps and table printers."""

from repro.benchkit.harness import AccuracyResult, growth_exponent, measure_accuracy
from repro.benchkit.reporting import banner, format_series, format_table, print_table

__all__ = [
    "AccuracyResult",
    "measure_accuracy",
    "growth_exponent",
    "format_table",
    "print_table",
    "format_series",
    "banner",
]
