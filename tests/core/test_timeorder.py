"""Unit tests for the out-of-order policy and the admission stage."""

import random
from collections import namedtuple

import pytest

from repro.core.errors import InvalidParameterError, TimeOrderError
from repro.core.timeorder import Admission, OutOfOrderPolicy


class TestOutOfOrderPolicy:
    def test_kind_validation(self):
        with pytest.raises(InvalidParameterError):
            OutOfOrderPolicy("ignore")
        with pytest.raises(InvalidParameterError):
            OutOfOrderPolicy("buffer", max_lateness=-1)
        with pytest.raises(InvalidParameterError):
            OutOfOrderPolicy("drop", max_lateness=5)

    def test_constructors(self):
        assert OutOfOrderPolicy.raising().kind == "raise"
        assert OutOfOrderPolicy.dropping().kind == "drop"
        buffered = OutOfOrderPolicy.buffered(7)
        assert buffered.kind == "buffer"
        assert buffered.max_lateness == 7
        assert OutOfOrderPolicy().kind == "raise"

    def test_ledger_accumulates(self):
        policy = OutOfOrderPolicy.dropping()
        assert policy.dropped_count == 0
        assert policy.dropped_weight == 0.0
        policy.note_dropped(2.5)
        policy.note_dropped(1.0)
        assert policy.dropped_count == 2
        assert policy.dropped_weight == 3.5

    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_ledger_refuses_nan_and_negative_weights(self, bad):
        policy = OutOfOrderPolicy.dropping()
        policy.note_dropped(1.0)
        with pytest.raises(InvalidParameterError):
            policy.note_dropped(bad)
        assert policy.dropped_count == 1
        assert policy.dropped_weight == 1.0

    def test_repr_names_the_window(self):
        assert "buffer" in repr(OutOfOrderPolicy.buffered(3))
        assert "max_lateness=3" in repr(OutOfOrderPolicy.buffered(3))
        assert "max_lateness" not in repr(OutOfOrderPolicy.dropping())


class RecordingFront:
    """An admission front that records every fold as ``(time, key, value)``."""

    native_out_of_order = False
    integer_weights = False

    def __init__(self, time=0):
        self.time = time
        self.folds = []

    def _adv(self, when):
        assert when > self.time, "admission moved the clock backwards"
        self.time = when

    def _fold(self, key, values):
        self.folds.extend((self.time, key, value) for value in values)

    def _late(self, key, when, value):
        raise AssertionError("a non-native front got a late item")


def reorder(items, policy):
    """Items through a buffered Admission, as ``(time, key, value)``."""
    front = RecordingFront()
    admission = Admission(policy)
    admission.observe_batch(front, items)
    admission.flush(front)
    return front.folds


#: A bare keyed item: unlike ``KeyedItem`` it lets NaN and negative
#: times through, so the admission stage's own checks are what is tested.
Row = namedtuple("Row", "key time value")


def keyed(time, value, key="k"):
    return Row(key, time, value)


class TestBoundedReorder:
    """Bounded reordering is the ``buffer`` policy's Admission heap."""

    def test_requires_buffer_policy(self):
        # The heap is front state: a per-call buffer policy is refused.
        admission = Admission(OutOfOrderPolicy.dropping())
        with pytest.raises(InvalidParameterError):
            admission.observe_batch(
                RecordingFront(), [], policy=OutOfOrderPolicy.buffered(2)
            )

    def test_sorted_input_passes_through(self):
        items = [keyed(t, 1.0) for t in range(10)]
        policy = OutOfOrderPolicy.buffered(3)
        assert reorder(items, policy) == [(t, "k", 1.0) for t in range(10)]
        assert policy.dropped_count == 0

    def test_reorders_within_window(self):
        items = [
            keyed(2, 1.0),
            keyed(0, 2.0),
            keyed(1, 3.0),
            keyed(4, 4.0),
            keyed(3, 5.0),
        ]
        policy = OutOfOrderPolicy.buffered(4)
        out = reorder(items, policy)
        assert [t for t, _, _ in out] == [0, 1, 2, 3, 4]
        assert policy.dropped_count == 0

    def test_items_beyond_window_dropped_onto_ledger(self):
        items = [
            keyed(10, 1.0),
            keyed(3, 2.5),  # 7 ticks behind a window of 2: dropped
            keyed(9, 1.0),  # 1 tick behind: reordered in
        ]
        policy = OutOfOrderPolicy.buffered(2)
        out = reorder(items, policy)
        assert [t for t, _, _ in out] == [9, 10]
        assert policy.dropped_count == 1
        assert policy.dropped_weight == 2.5

    def test_equal_times_keep_arrival_order(self):
        items = [
            keyed(5, 1.0, "a"),
            keyed(5, 2.0, "b"),
            keyed(5, 3.0, "a"),
        ]
        out = reorder(items, OutOfOrderPolicy.buffered(1))
        assert out == [(5, "a", 1.0), (5, "b", 2.0), (5, "a", 3.0)]

    def test_random_traces_match_stable_sort_of_survivors(self):
        rng = random.Random(9)
        for _ in range(20):
            window = rng.randrange(0, 12)
            items = [
                keyed(rng.randrange(0, 40), float(i))
                for i in range(rng.randrange(0, 60))
            ]
            policy = OutOfOrderPolicy.buffered(window)
            out = reorder(items, policy)
            # Output is the stable time sort of the survivors...
            survivors = {value for _, _, value in out}
            assert out == [
                (i.time, "k", i.value)
                for i in sorted(items, key=lambda i: i.time)
                if i.value in survivors
            ]
            # ...and survivors + dropped partition the input.
            assert len(out) + policy.dropped_count == len(items)


class TestAdmission:
    def test_refuses_nan_negative_weight_and_negative_time(self):
        # The checks a bounded-lateness buffer has always made, at the push.
        for item in (keyed(1, float("nan")), keyed(1, -1.0), keyed(-1, 1.0)):
            policy = OutOfOrderPolicy.buffered(4)
            admission = Admission(policy)
            front = RecordingFront()
            with pytest.raises(InvalidParameterError):
                admission.observe_batch(front, [keyed(0, 2.0), item])
            admission.flush(front)
            assert front.folds == [(0, "k", 2.0)]
            assert admission.ingested_weight == 2.0
            assert policy.dropped_count == 0

    def test_late_nan_under_drop_folds_the_items_before_it(self):
        policy = OutOfOrderPolicy.dropping()
        admission = Admission(policy)
        front = RecordingFront(time=5)
        with pytest.raises(InvalidParameterError):
            admission.observe_batch(
                front, [keyed(5, 1.0), keyed(2, float("nan"))]
            )
        assert front.folds == [(5, "k", 1.0)]
        assert policy.dropped_count == 0
        assert policy.dropped_weight == 0.0

    def test_raise_policy_folds_the_items_before_the_late_one(self):
        admission = Admission()
        front = RecordingFront(time=5)
        with pytest.raises(TimeOrderError):
            admission.observe_batch(front, [keyed(5, 1.0), keyed(2, 1.0)])
        assert front.folds == [(5, "k", 1.0)]

    def test_nan_fold_is_refused_before_the_front_and_ledger(self):
        admission = Admission()
        front = RecordingFront()
        with pytest.raises(InvalidParameterError):
            admission.observe(front, "k", float("nan"), None)
        with pytest.raises(InvalidParameterError):
            admission.observe_batch(front, [keyed(0, 1.0), keyed(0, -1.0)])
        assert front.folds == []
        assert (admission.ingested_items, admission.ingested_weight) == (0, 0.0)

    def test_infinite_weights_are_refused_on_every_path(self):
        inf = float("inf")
        policy = OutOfOrderPolicy.dropping()
        with pytest.raises(InvalidParameterError, match="finite"):
            policy.note_dropped(inf)
        assert (policy.dropped_count, policy.dropped_weight) == (0, 0.0)

        # One fold (_fold) and one batch (_fold_pending), with an infinite
        # value or with finite values whose total overflows.
        admission = Admission()
        front = RecordingFront()
        with pytest.raises(InvalidParameterError, match="finite"):
            admission.observe(front, "k", inf, None)
        with pytest.raises(InvalidParameterError, match="finite"):
            admission.observe_batch(front, [keyed(0, 1.0), keyed(0, inf)])
        with pytest.raises(InvalidParameterError, match="infinity"):
            admission.observe_values(front, "k", [1e308, 1e308])
        with pytest.raises(InvalidParameterError, match="infinity"):
            admission.observe_batch(front, [keyed(0, 1e308), keyed(0, 1e308)])
        assert front.folds == []
        assert (admission.ingested_items, admission.ingested_weight) == (0, 0.0)

        # The lateness heap (_push).
        policy = OutOfOrderPolicy.buffered(4)
        admission = Admission(policy)
        front = RecordingFront()
        with pytest.raises(InvalidParameterError, match="finite"):
            admission.observe_batch(front, [keyed(0, 2.0), keyed(1, inf)])
        admission.flush(front)
        assert front.folds == [(0, "k", 2.0)]
        assert (policy.dropped_count, admission.watermark) == (0, 0)

        # A late item on a natively order-insensitive front (_late).
        front = RecordingFront(time=5)
        front.native_out_of_order = True
        admission = Admission()
        with pytest.raises(InvalidParameterError, match="finite"):
            admission.observe(front, "k", inf, 2)
        assert (admission.ingested_items, admission.ingested_weight) == (0, 0.0)

    def test_integer_domain_refuses_fractions_on_every_path(self):
        # One fold (_fold), one batch (_fold_pending): a fraction whose
        # batch sums to an integer is refused too.
        admission = Admission()
        front = RecordingFront()
        front.integer_weights = True
        with pytest.raises(InvalidParameterError, match="integer"):
            admission.observe(front, "k", 1.5, None)
        with pytest.raises(InvalidParameterError, match="integer"):
            admission.observe_values(front, "k", [0.5, 0.5])
        with pytest.raises(InvalidParameterError, match="integer"):
            admission.observe_batch(
                front, [keyed(0, 1.0), keyed(1, 2.0), keyed(1, 0.25)]
            )
        with pytest.raises(InvalidParameterError, match="finite"):
            admission.observe(front, "k", -1.0, None)
        assert front.folds == [(0, "k", 1.0)]
        assert (admission.ingested_items, admission.ingested_weight) == (
            1, 1.0
        )

        # The lateness heap (_push): refused before the heap and watermark.
        policy = OutOfOrderPolicy.buffered(4)
        admission = Admission(policy)
        front = RecordingFront()
        front.integer_weights = True
        with pytest.raises(InvalidParameterError, match="integer"):
            admission.observe_batch(front, [keyed(0, 2.0), keyed(3, 0.5)])
        admission.flush(front)
        assert front.folds == [(0, "k", 2.0)]
        assert (len(admission._heap), admission.watermark) == (0, 0)

        # A late item (_late), and integral floats and ints pass.
        front = RecordingFront(time=5)
        front.native_out_of_order = True
        front.integer_weights = True
        admission = Admission()
        with pytest.raises(InvalidParameterError, match="integer"):
            admission.observe(front, "k", 2.5, 2)
        admission.observe_values(front, "k", [3.0, 2])
        assert front.folds == [(5, "k", 3.0), (5, "k", 2)]

    def test_batch_folds_once_per_key_per_tick(self):
        # 12 ticks x 3 keys x 4 interleaved items: one clock move per
        # tick after the first, one fold per (tick, key), every value in
        # arrival order.
        calls = {"_adv": 0, "_fold": 0}

        class CountingFront(RecordingFront):
            def _adv(self, when):
                calls["_adv"] += 1
                super()._adv(when)

            def _fold(self, key, values):
                calls["_fold"] += 1
                super()._fold(key, values)

        items = [
            keyed(t, float(i), f"k{i % 3}") for t in range(12) for i in range(12)
        ]
        front = CountingFront()
        admission = Admission()
        admission.observe_batch(front, items)
        assert calls == {"_adv": 11, "_fold": 36}
        assert sorted(front.folds) == sorted(
            (item.time, item.key, item.value) for item in items
        )
        assert admission.ingested_items == 144
