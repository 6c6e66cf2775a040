"""Unit tests for the forward-decay engine family (Cormode et al. 2009)."""

import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import forward
from repro.core.average import DecayingAverage
from repro.core.decay import ExponentialDecay, PolynomialDecay
from repro.core.errors import (
    EmptyAggregateError,
    InvalidParameterError,
    NotApplicableError,
    TimeOrderError,
)
from repro.core.forward import (
    ExactForwardSum,
    ForwardDecay,
    ForwardDecayAverage,
    ForwardDecaySum,
)
from repro.core.interfaces import make_decaying_sum
from repro.serialize import engine_from_dict, engine_to_dict
from repro.streams.generators import StreamItem


def triplet(engine):
    est = engine.query()
    return est.value, est.lower, est.upper


#: One NaN write through each write path of a forward engine.
NAN_WRITES = [
    lambda e: e.add(math.nan),
    lambda e: e.add_at(3, math.nan),
    lambda e: e.add_batch([math.nan]),
    # A bare time/value object: StreamItem itself rejects NaN.
    lambda e: e.ingest([SimpleNamespace(time=3, value=math.nan)]),
]
NAN_WRITE_IDS = ["add", "add_at", "add_batch", "ingest"]


class TestForwardDecay:
    def test_kind_and_rate_validation(self):
        with pytest.raises(InvalidParameterError):
            ForwardDecay("linear", 1.0)
        with pytest.raises(InvalidParameterError):
            ForwardDecay("exp", 0.0)
        with pytest.raises(InvalidParameterError):
            ForwardDecay("exp", -1.0)
        with pytest.raises(InvalidParameterError):
            ForwardDecay("poly", math.inf)

    def test_exp_kind_induces_backward_exponential(self):
        d = ForwardDecay("exp", 0.25)
        assert d.shift_invariant
        assert d.weight(0) == pytest.approx(1.0)
        assert d.weight(4) == pytest.approx(math.exp(-1.0))
        assert d.is_ratio_nonincreasing()

    def test_poly_kind_has_no_age_indexed_weight(self):
        d = ForwardDecay("poly", 2.0)
        assert not d.shift_invariant
        with pytest.raises(NotApplicableError):
            d.weight(3)
        with pytest.raises(NotApplicableError):
            d.is_ratio_nonincreasing()

    def test_log2_g_matches_definition(self):
        exp = ForwardDecay("exp", 0.1)
        assert exp.log2_g(100) == pytest.approx(0.1 * 100 / math.log(2))
        poly = ForwardDecay("poly", 1.5)
        assert poly.log2_g(7) == pytest.approx(1.5 * math.log2(8))
        assert poly.log2_g(0) == 0.0

    def test_describe_and_repr(self):
        d = ForwardDecay("exp", 0.05)
        assert "FWD-EXP" in d.describe()
        assert "ForwardDecay" in repr(d)


class TestForwardDecaySum:
    def test_empty_stream(self):
        s = ForwardDecaySum(ForwardDecay("exp", 0.1))
        assert s.query().value == 0.0
        s.advance(1000)
        assert s.query().value == 0.0

    def test_requires_forward_decay(self):
        with pytest.raises(InvalidParameterError):
            ForwardDecaySum(ExponentialDecay(0.1))

    def test_exp_matches_backward_exponential_closed_form(self):
        rate = 0.1
        s = ForwardDecaySum(ForwardDecay("exp", rate))
        s.add(2.0)
        s.advance(5)
        s.add(3.0)
        s.advance(7)
        expected = 2.0 * math.exp(-rate * 12) + 3.0 * math.exp(-rate * 7)
        assert s.query().value == pytest.approx(expected, rel=1e-12)

    def test_poly_matches_definition(self):
        rate = 1.5
        s = ForwardDecaySum(ForwardDecay("poly", rate))
        s.advance(3)
        s.add(2.0)
        s.advance(5)  # T = 8
        expected = 2.0 * (4.0 / 9.0) ** rate
        assert s.query().value == pytest.approx(expected, rel=1e-12)

    def test_query_is_exact_estimate(self):
        s = ForwardDecaySum(ForwardDecay("exp", 0.1))
        s.add(1.0)
        s.advance(3)
        est = s.query()
        assert est.lower == est.value == est.upper

    def test_add_at_accepts_late_items(self):
        s = ForwardDecaySum(ForwardDecay("exp", 0.1))
        s.advance(100)
        s.add_at(10, 5.0)  # 90 ticks behind the clock: accepted
        assert s.time == 100
        assert s.query().value == pytest.approx(
            5.0 * math.exp(-0.1 * 90), rel=1e-12
        )

    def test_add_at_beyond_clock_advances_it(self):
        s = ForwardDecaySum(ForwardDecay("exp", 0.1))
        s.add_at(42, 1.0)
        assert s.time == 42

    def test_input_validation(self):
        s = ForwardDecaySum(ForwardDecay("exp", 0.1))
        with pytest.raises(InvalidParameterError):
            s.add(-1.0)
        with pytest.raises(InvalidParameterError):
            s.add_at(-1, 1.0)
        with pytest.raises(InvalidParameterError):
            s.add_at(0, -1.0)
        with pytest.raises(InvalidParameterError):
            s.advance(-1)
        with pytest.raises(TimeOrderError):
            s.ingest([StreamItem(3, 1.0)], until=1)

    @pytest.mark.parametrize("write", NAN_WRITES, ids=NAN_WRITE_IDS)
    def test_nan_rejected_on_every_write_path(self, write):
        s = ForwardDecaySum(ForwardDecay("exp", 0.1))
        s.ingest([StreamItem(1, 2.0), StreamItem(2, 0.5)], until=3)
        before = engine_to_dict(s)
        with pytest.raises(InvalidParameterError):
            write(s)
        assert engine_to_dict(s) == before

    def test_overflowing_contribution_rejected(self):
        s = ForwardDecaySum(ForwardDecay("exp", 0.1))
        with pytest.raises(InvalidParameterError):
            s.add(math.inf)

    def test_huge_values_banked_exactly(self):
        # A value >= 2**52 is integer-valued as a double; the exponent-0
        # branch banks it without the 2**52 rescale (which would overflow
        # past ~2**971).
        s = ForwardDecaySum(ForwardDecay("exp", 0.1))
        s.add(float(2**1000))
        assert s.query().value == float(2**1000)

    def test_long_exponential_stream_never_overflows(self):
        # lam * t reaches 2e4 >> 709: the literal g(t) overflows a double
        # ~28 times over, but the block accumulator never leaves range.
        rate = 2.0
        s = ForwardDecaySum(ForwardDecay("exp", rate))
        for t in range(0, 10_001, 100):
            s.add_at(t, 1.0)
        expected = sum(
            math.exp(-rate * (10_000 - t)) for t in range(0, 10_001, 100)
        )
        assert s.query().value == pytest.approx(expected, rel=1e-9)

    def test_state_is_bounded_over_a_long_horizon(self):
        # 2**20 ticks at rate 0.05 cross ~1,180 scale blocks; only the
        # blocks within the window of the top one are held.
        s = ForwardDecaySum(ForwardDecay("exp", 0.05))
        end = 1 << 20
        s.ingest((StreamItem(t, 1.0) for t in range(0, end, 64)), until=end)
        assert s.storage_report().buckets <= forward._WINDOW
        assert s.query().value == pytest.approx(
            math.exp(-0.05 * 64) / (1 - math.exp(-0.05 * 64)), rel=1e-9
        )

    def test_far_late_write_is_dropped_but_counted(self):
        s = ForwardDecaySum(ForwardDecay("exp", 2.0))
        s.add_at(5000, 1.0)
        before = engine_to_dict(s)["blocks"]
        s.add_at(0, 1.0)  # ~225 blocks below the top
        assert engine_to_dict(s)["blocks"] == before
        assert engine_to_dict(s)["items"] == 2

    @pytest.mark.parametrize("late_first", [True, False])
    def test_window_edge_is_answer_neutral(self, late_first):
        # Adversarial boundary: 2**16 near-DBL_MAX contributions in one
        # block against a top block holding only 5e-324 * w.  One block
        # inside the window they still move the answer; at exactly
        # _WINDOW blocks below the top they fold to +0.0, so dropping
        # them changes no bit.
        top = forward._WINDOW + 6
        _assert_edge_at(
            top, 5e-324, forward._WINDOW - 1, late_first=late_first
        )

    @pytest.mark.parametrize("late_first", [True, False])
    def test_content_edge_is_answer_neutral(self, late_first):
        # The same contributions under a top block worth 1.5 * 2**66 in
        # its own scale: its floor, top + floor((66 - 1154) / 64) + 1,
        # puts the edge 16 blocks down.  There they fold to 2**16 in the
        # top's scale, above half its ulp (2**13); one block lower to
        # 2**-48, which the fold absorbs bit for bit.
        _assert_edge_at(40, 1.5 * 2.0**66, 16, late_first=late_first)

    def test_quiet_period_underflows_to_zero(self):
        s = ForwardDecaySum(ForwardDecay("exp", 1.0))
        s.add(1.0)
        s.advance(100_000)
        assert s.query().value == 0.0

    def test_ingest_bit_identical_to_add_at_any_order(self):
        rng = random.Random(7)
        items = [
            StreamItem(rng.randrange(0, 500), rng.choice([0.5, 1.0, 3.25]))
            for _ in range(300)
        ]
        a = ForwardDecaySum(ForwardDecay("exp", 0.05))
        a.ingest(items, until=600)
        b = ForwardDecaySum(ForwardDecay("exp", 0.05))
        for item in sorted(items, key=lambda i: i.time):
            b.add_at(item.time, item.value)
        b.advance_to(600)
        assert triplet(a) == triplet(b)
        assert a.time == b.time == 600

    def test_ingest_banks_a_block_once(self, monkeypatch):
        """Contributions on the -52 grid defer into one exact integer per
        block: 20,000 items inside one scale block touch the block twice
        (the deferred total and the last run), not once per item run."""
        flushed = []

        def counted(*args, _orig=forward._flush):
            flushed.append(args[1])
            return _orig(*args)

        monkeypatch.setattr(forward, "_flush", counted)
        items = [StreamItem(t // 2, 1.0 + t % 3) for t in range(20_000)]
        s = ForwardDecaySum(ForwardDecay("exp", 0.001))
        s.ingest(items)
        assert flushed == [0, 0]
        assert len(s._buckets) == 1

    def test_edge_is_evaluated_once_per_block_touched(self, monkeypatch):
        """A write call re-evaluates the edge after banking, once for each
        block it touched: 20,000 items in one block cost one evaluation,
        and a write into held blocks evaluates only theirs."""
        decay = ForwardDecay("exp", 0.001)  # 44,361 ticks per block
        s = ForwardDecaySum(decay)
        s.ingest([StreamItem(t, 1.0) for t in range(0, 100_000, 1000)])
        other = ForwardDecaySum(decay)
        other.ingest([StreamItem(10, 2.0), StreamItem(60_000, 2.0)])
        floors = []

        def counted(k, slot, _orig=forward._floor_of):
            floors.append(k)
            return _orig(k, slot)

        monkeypatch.setattr(forward, "_floor_of", counted)
        items = [StreamItem(90_000 + t // 2, 1.0 + t % 3) for t in range(20_000)]
        writes = [
            (lambda: s.ingest(items), [2]),
            (lambda: s.add_batch([1.0] * 500), [2]),
            (lambda: s.add_at(50_000, 1.0), [1]),
            (lambda: s.merge(other), [0, 1]),
            (lambda: ForwardDecaySum(decay).ingest(items), [2]),
            (lambda: engine_from_dict(engine_to_dict(s)), [0, 1, 2]),
        ]
        for write, touched in writes:
            floors.clear()
            write()
            assert sorted(floors) == touched
        assert sorted(s._buckets) == [0, 1, 2]

    def test_add_batch_bit_identical_to_adds(self):
        values = [1.0, 1.0, 1.0, 0.25, 7.5, 0.0, 1.0]
        a = ForwardDecaySum(ForwardDecay("poly", 1.2))
        a.advance(9)
        a.add_batch(values)
        b = ForwardDecaySum(ForwardDecay("poly", 1.2))
        b.advance(9)
        for v in values:
            b.add(v)
        assert triplet(a) == triplet(b)

    def test_merge_bit_identical_to_union_stream(self):
        rng = random.Random(11)
        left = [StreamItem(rng.randrange(0, 200), 1.0) for _ in range(80)]
        right = [StreamItem(rng.randrange(0, 200), 2.5) for _ in range(80)]
        a = ForwardDecaySum(ForwardDecay("exp", 0.02))
        a.ingest(left, until=250)
        b = ForwardDecaySum(ForwardDecay("exp", 0.02))
        b.ingest(right, until=250)
        a.merge(b)
        union = ForwardDecaySum(ForwardDecay("exp", 0.02))
        union.ingest(left + right, until=250)
        assert triplet(a) == triplet(union)

    def test_merge_requires_same_decay(self):
        a = ForwardDecaySum(ForwardDecay("exp", 0.1))
        b = ForwardDecaySum(ForwardDecay("exp", 0.2))
        with pytest.raises(InvalidParameterError):
            a.merge(b)

    def test_storage_report_notes_exactness(self):
        s = ForwardDecaySum(ForwardDecay("exp", 0.1))
        s.add(1.0)
        report = s.storage_report()
        assert report.engine == "forward"
        assert report.notes["exact"] == 1.0
        assert report.buckets >= 1

    def test_serialize_roundtrip_bit_identical(self):
        rng = random.Random(3)
        s = ForwardDecaySum(ForwardDecay("poly", 1.7))
        s.ingest(
            [StreamItem(rng.randrange(0, 300), 1.0) for _ in range(120)],
            until=400,
        )
        clone = engine_from_dict(engine_to_dict(s))
        assert isinstance(clone, ForwardDecaySum)
        assert clone.time == s.time
        assert triplet(clone) == triplet(s)
        clone.add(1.0)  # the revived engine keeps working
        assert clone.query().value >= s.query().value

    def test_factory_routes_forward_decay(self):
        s = make_decaying_sum(ForwardDecay("exp", 0.1), epsilon=0.05)
        assert isinstance(s, ForwardDecaySum)
        p = make_decaying_sum(ForwardDecay("poly", 1.2), epsilon=0.05)
        assert isinstance(p, ForwardDecaySum)

    def test_factory_rejects_bad_horizon_hint(self):
        with pytest.raises(InvalidParameterError):
            make_decaying_sum(PolynomialDecay(1.0), horizon_hint=0)


#: Values some write path rejects: not >= 0, or (1e308 at most times) a
#: contribution that overflows a float.
BAD_VALUES = [math.nan, -1.0, -math.inf, math.inf, 1e308]
#: Repeats and sub-unit values exercise the run and exponent branches.
GOOD_VALUES = [0.0, 1.0, 1.0, 1.5, 2.5, 0.375, 1e-300, 3e15]
FORWARD_DECAYS = [("exp", 0.05), ("exp", 30.0), ("poly", 1.5)]


def _prefix_replay(engine, write, args) -> bool:
    """Apply ``write`` to each argument until one raises; True if one did."""
    for arg in args:
        try:
            write(engine, arg)
        except InvalidParameterError:
            return True
    return False


class TestRejectedWritesKeepTheirPrefix:
    """A write that rejects an item mid-call leaves the accepted prefix.

    ``ingest`` is documented as replay through ``add_at``, so an item
    that raises must leave exactly the state that replay leaves when it
    stops at it: every earlier item banked, counted and on the clock.
    ``add_batch`` is the exception, pinned here against the same replay:
    it checks the whole batch first, so a refused batch banks nothing.
    """

    def test_ingest_keeps_items_before_a_nan(self):
        s = ForwardDecaySum(ForwardDecay("exp", 0.1))
        items = [SimpleNamespace(time=t, value=1.0) for t in range(1, 41)]
        items.append(SimpleNamespace(time=99, value=math.nan))
        with pytest.raises(InvalidParameterError):
            s.ingest(items)
        assert (s.time, s._items) == (40, 40)

    def test_refused_add_batch_banks_nothing(self):
        s = ForwardDecaySum(ForwardDecay("exp", 0.1))
        s.add_at(5, 1.0)  # w = 2**(0.5 log2 e) > 1.06: 1.7e308 * w overflows
        before = engine_to_dict(s)
        with pytest.raises(InvalidParameterError):
            s.add_batch([1.5, 1.5, 2.0, -1.0])
        with pytest.raises(InvalidParameterError, match="overflows"):
            s.add_batch([1.0, 1.7e308])
        assert engine_to_dict(s) == before

    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_add_batch_rejects_a_leading_bad_value(self, value):
        s = ForwardDecaySum(ForwardDecay("exp", 0.1))
        with pytest.raises(InvalidParameterError):
            s.add_batch([value])
        assert s._items == 0

    def test_add_at_overflow_leaves_the_clock(self):
        s = ForwardDecaySum(ForwardDecay("exp", 0.1))
        with pytest.raises(InvalidParameterError):
            s.add_at(5, math.inf)
        assert (s.time, s._items) == (0, 0)

    @settings(max_examples=80, deadline=None)
    @given(
        decay=st.sampled_from(FORWARD_DECAYS),
        rows=st.lists(
            st.tuples(st.integers(0, 600), st.sampled_from(GOOD_VALUES)),
            max_size=40,
        ),
        index=st.integers(0, 40),
        bad=st.tuples(st.integers(0, 600), st.sampled_from(BAD_VALUES)),
    )
    def test_ingest_matches_add_at_prefix(self, decay, rows, index, bad):
        items = [SimpleNamespace(time=t, value=v) for t, v in rows]
        items.insert(index, SimpleNamespace(time=bad[0], value=bad[1]))
        engine = ForwardDecaySum(ForwardDecay(*decay))
        reference = ForwardDecaySum(ForwardDecay(*decay))
        for e in (engine, reference):
            e.add_at(7, 2.0)
            e.advance(3)
        try:
            engine.ingest(items)
            raised = False
        except InvalidParameterError:
            raised = True
        stopped = _prefix_replay(
            reference, lambda e, it: e.add_at(it.time, it.value), items
        )
        assert raised == stopped
        assert engine_to_dict(engine) == engine_to_dict(reference)

    @settings(max_examples=80, deadline=None)
    @given(
        decay=st.sampled_from(FORWARD_DECAYS),
        when=st.integers(0, 600),
        values=st.lists(st.sampled_from(GOOD_VALUES), max_size=30),
        index=st.integers(0, 30),
        bad=st.sampled_from(BAD_VALUES),
    )
    def test_add_batch_is_all_or_nothing(self, decay, when, values, index, bad):
        # The batch raises exactly when the sequential adds would, and
        # then leaves the engine as it was; else it equals those adds.
        batch = list(values)
        batch.insert(index, bad)
        engine = ForwardDecaySum(ForwardDecay(*decay))
        reference = ForwardDecaySum(ForwardDecay(*decay))
        for e in (engine, reference):
            e.add_at(2, 1.0)
            e.advance_to(max(when, 2))
        before = engine_to_dict(engine)
        try:
            engine.add_batch(batch)
            raised = False
        except InvalidParameterError:
            raised = True
        stopped = _prefix_replay(reference, lambda e, v: e.add(v), batch)
        assert raised == stopped
        assert engine_to_dict(engine) == (
            before if raised else engine_to_dict(reference)
        )


def _first_time_in(decay, k):
    """The first tick whose contribution lands in block ``k``."""
    t = 0
    while int(decay.log2_g(t) / 64) < k:
        t += 1
    return t


def _contribution(decay, k, x):
    """An item landing in block ``k`` that banks about ``x``."""
    t = _first_time_in(decay, k)
    return StreamItem(t, x / 2.0 ** (decay.log2_g(t) - 64 * k))


def _assert_edge_at(top, top_value, depth, *, late_first):
    """2**16 near-DBL_MAX contributions ``depth`` blocks under a top
    block banking ``top_value`` move the answer, and ``depth + 1``
    blocks under it they are dropped without changing a bit."""
    decay = ForwardDecay("exp", 0.05)
    head = [_contribution(decay, top, top_value)]
    alone = ForwardDecaySum(decay)
    alone.ingest(head)
    for low in (depth, depth + 1):
        huge = [_contribution(decay, top - low, 1.7e308)] * (1 << 16)
        s = ForwardDecaySum(decay)
        s.ingest(huge + head if late_first else head + huge)
        held = [k for k, _, _ in engine_to_dict(s)["blocks"]]
        if low == depth:
            assert held == [top - low, top]
            assert s.query().value > alone.query().value
        else:
            assert held == [top]
            assert triplet(s) == triplet(alone)


class TestExactForwardSum:
    def test_agrees_with_block_engine(self):
        rng = random.Random(5)
        items = [
            StreamItem(rng.randrange(0, 400), rng.uniform(0.0, 4.0))
            for _ in range(200)
        ]
        for kind, rate in (("exp", 0.03), ("poly", 1.4)):
            fast = ForwardDecaySum(ForwardDecay(kind, rate))
            slow = ExactForwardSum(ForwardDecay(kind, rate))
            fast.ingest(items, until=500)
            slow.ingest(items, until=500)
            assert fast.query().value == pytest.approx(
                slow.query().value, rel=1e-9
            )

    @pytest.mark.parametrize("write", NAN_WRITES, ids=NAN_WRITE_IDS)
    def test_nan_rejected_on_every_write_path(self, write):
        s = ExactForwardSum(ForwardDecay("exp", 0.1))
        s.add_at(1, 2.0)
        before = (s.time, list(s._entries), s._items, triplet(s))
        with pytest.raises(InvalidParameterError):
            write(s)
        assert (s.time, list(s._entries), s._items, triplet(s)) == before

    def test_merge_and_storage(self):
        a = ExactForwardSum(ForwardDecay("exp", 0.1))
        b = ExactForwardSum(ForwardDecay("exp", 0.1))
        a.add(1.0)
        b.add(2.0)
        a.merge(b)
        assert a.query().value == pytest.approx(3.0)
        assert a.storage_report().buckets == 2


class TestForwardDecayAverage:
    def test_requires_forward_decay(self):
        with pytest.raises(InvalidParameterError):
            ForwardDecayAverage(ExponentialDecay(0.1))

    def test_empty_stream_raises(self):
        avg = ForwardDecayAverage(ForwardDecay("exp", 0.1))
        with pytest.raises(EmptyAggregateError):
            avg.query()

    def test_constant_stream_average_is_the_constant(self):
        avg = ForwardDecayAverage(ForwardDecay("poly", 1.2))
        for _ in range(10):
            avg.add(4.0)
            avg.advance(3)
        assert avg.query().value == pytest.approx(4.0, rel=1e-12)
        assert avg.items_observed == 10

    def test_order_insensitive_like_components(self):
        items = [(50, 2.0), (10, 8.0), (30, 5.0)]
        a = ForwardDecayAverage(ForwardDecay("exp", 0.05))
        b = ForwardDecayAverage(ForwardDecay("exp", 0.05))
        for when, value in items:
            a.add_at(when, value)
        for when, value in reversed(items):
            b.add_at(when, value)
        assert a.query().value == b.query().value

    def test_fully_decayed_average_raises(self):
        avg = ForwardDecayAverage(ForwardDecay("exp", 1.0))
        avg.add(3.0)
        avg.advance(100_000)
        with pytest.raises(EmptyAggregateError):
            avg.query()

    def test_negative_value_rejected(self):
        avg = ForwardDecayAverage(ForwardDecay("exp", 0.1))
        with pytest.raises(InvalidParameterError):
            avg.add(-1.0)

    def test_is_a_decaying_average_with_its_own_name(self):
        avg = ForwardDecayAverage(ForwardDecay("exp", 0.1))
        assert isinstance(avg, DecayingAverage)
        avg.add(2.0)
        avg.advance_to(7)
        assert avg.storage_report().engine == "forward-avg"
        assert repr(avg) == (
            "ForwardDecayAverage(ForwardDecay(kind='exp', rate=0.1), time=7)"
        )
        assert not hasattr(avg, "__dict__")

    def test_ingest_takes_late_items_in_any_order(self):
        items = [(3, 2.0), (9, 5.0), (1, 8.0), (9, 1.0), (4, 0.5)]
        shuffled = ForwardDecayAverage(ForwardDecay("poly", 1.2))
        shuffled.ingest([StreamItem(t, v) for t, v in items], until=12)
        replayed = ForwardDecayAverage(ForwardDecay("poly", 1.2))
        for t, v in sorted(items):
            replayed.add_at(t, v)
        replayed.advance_to(12)
        assert shuffled.items_observed == replayed.items_observed == 5
        assert shuffled.query() == replayed.query()
