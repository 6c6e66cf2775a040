"""Workload substrate: synthetic streams, failure traces, adversarial families."""

from repro.streams.adversarial import (
    BurstFamily,
    BurstSlot,
    spaced_binary_streams,
    spaced_stream,
)
from repro.streams.generators import (
    StreamItem,
    bernoulli_stream,
    bursty_stream,
    constant_stream,
    drive,
    drive_many,
    lognormal_value_stream,
    periodic_stream,
    uniform_value_stream,
    zipf_value_stream,
)
from repro.streams.io import (
    KeyedItem,
    read_csv,
    read_jsonl,
    replay,
    write_csv,
    write_jsonl,
)
from repro.streams.traces import (
    MINUTES_PER_HOUR,
    FailureEvent,
    LinkTrace,
    figure1_traces,
)

__all__ = [
    "StreamItem",
    "bernoulli_stream",
    "constant_stream",
    "periodic_stream",
    "bursty_stream",
    "uniform_value_stream",
    "zipf_value_stream",
    "lognormal_value_stream",
    "drive",
    "drive_many",
    "FailureEvent",
    "LinkTrace",
    "figure1_traces",
    "MINUTES_PER_HOUR",
    "BurstFamily",
    "BurstSlot",
    "spaced_binary_streams",
    "spaced_stream",
    "KeyedItem",
    "read_csv",
    "write_csv",
    "read_jsonl",
    "write_jsonl",
    "replay",
]
