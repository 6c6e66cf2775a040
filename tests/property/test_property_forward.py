"""Property: forward-decay state is a pure function of the item multiset.

The block accumulator's whole design exists for one promise: ingesting
any permutation of a trace -- shuffled, reversed, or split arbitrarily
between ``ingest``/``add_at``/``merge`` -- produces the *bit-identical*
certified estimate triplet (value, lower, upper), not merely a close one,
and the identical block state.  These properties are the
Hypothesis-driven twin of conformance law CL009.

The engine holds only the scale blocks at or above its edge.  An
unbounded reference that never drops a block pins the edge as
answer-neutral, bit for bit, and the held blocks as exactly the
reference's blocks at or above the edge the derivation gives.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import forward
from repro.core.forward import ForwardDecay, ForwardDecaySum
from repro.serialize import decay_to_dict, engine_from_dict, engine_to_dict
from repro.streams.generators import StreamItem

decays = st.one_of(
    st.floats(0.001, 2.0).map(lambda r: ForwardDecay("exp", r)),
    st.floats(0.1, 3.0).map(lambda r: ForwardDecay("poly", r)),
)

# Values cross every banking branch: zero, sub-unit (as_integer_ratio),
# the fixed 2**-52 grid, and the integer-valued >= 2**52 regime.
values = st.one_of(
    st.just(0.0),
    st.floats(1e-9, 0.99),
    st.floats(1.0, 1e6),
    st.just(float(2**60)),
)

traces = st.lists(
    st.tuples(st.integers(0, 5000), values).map(
        lambda tv: StreamItem(*tv)
    ),
    max_size=60,
)


def triplet(engine):
    est = engine.query()
    return est.value, est.lower, est.upper


def blocks(engine):
    return engine_to_dict(engine)["blocks"]


def unbounded_blocks(decay, trace):
    """Every scale block of ``trace``, none dropped: ``k -> [num, exp]``."""
    held = {}
    for item in trace:
        f = decay.log2_g(item.time)
        k = math.floor(f / 64)
        num, exp = forward._exact_parts(item.value * 2.0 ** (f - 64 * k))
        if not num:
            continue
        have = held.setdefault(k, [0, exp])
        low = min(have[1], exp)
        have[0] = (have[0] << (have[1] - low)) + (num << (exp - low))
        have[1] = low
    return held


def edge_of(held):
    """The derivation's edge over every block: no lower than 33 under the
    top, nor than ``b + floor((L_b - 1154) / 64) + 1`` for any block ``b``
    worth ``2**L_b`` to ``2**(L_b + 1)`` in its own scale."""
    edge = max(held) - 33
    for b, (num, exp) in held.items():
        low = num.bit_length() - 1 + exp
        edge = max(edge, b + (low - (1 + 76 + 1024 + 53)) // 64 + 1)
    return edge


def unbounded_value(decay, held, end):
    """``query()``'s fold over every block in ``held``."""
    if not held:
        return 0.0
    top = max(held)
    total = 0.0
    for k in sorted(held, reverse=True):
        num, exp = held[k]
        total += forward._scaled_float(num, exp + (k - top) * 64)
    return total * 2.0 ** (top * 64 - decay.log2_g(end))


@settings(max_examples=150, deadline=None)
@given(decay=decays, trace=traces, seed=st.integers(0, 2**32 - 1))
def test_any_permutation_is_bit_identical(decay, trace, seed):
    import random

    end = max((i.time for i in trace), default=0) + 10
    base = ForwardDecaySum(decay)
    base.ingest(trace, until=end)
    shuffled = list(trace)
    random.Random(seed).shuffle(shuffled)
    for perm in (shuffled, list(reversed(trace))):
        other = ForwardDecaySum(decay)
        other.ingest(perm, until=end)
        assert other.time == base.time
        assert triplet(other) == triplet(base)
        assert blocks(other) == blocks(base)


@settings(max_examples=100, deadline=None)
@given(
    decay=decays,
    trace=traces,
    split=st.integers(0, 60),
)
def test_merge_of_any_split_is_bit_identical(decay, trace, split):
    end = max((i.time for i in trace), default=0) + 10
    whole = ForwardDecaySum(decay)
    whole.ingest(trace, until=end)
    left = ForwardDecaySum(decay)
    right = ForwardDecaySum(decay)
    left.ingest(trace[:split], until=end)
    right.ingest(trace[split:], until=end)
    left.merge(right)
    assert triplet(left) == triplet(whole)
    assert blocks(left) == blocks(whole)


@settings(max_examples=100, deadline=None)
@given(decay=decays, trace=traces)
def test_add_at_replay_matches_ingest(decay, trace):
    end = max((i.time for i in trace), default=0) + 10
    batched = ForwardDecaySum(decay)
    batched.ingest(trace, until=end)
    itemized = ForwardDecaySum(decay)
    for item in trace:
        itemized.add_at(item.time, item.value)
    itemized.advance_to(end)
    assert triplet(itemized) == triplet(batched)
    assert blocks(itemized) == blocks(batched)


def edge_trace(depth):
    """2**16 near-DBL_MAX contributions ``depth`` blocks under a top
    block that holds only ``5e-324 * w`` (rate 0.05, top block 40)."""
    decay = ForwardDecay("exp", 0.05)

    def first_time_in(k):
        t = 0
        while decay.log2_g(t) < 64 * k:
            t += 1
        return t

    t_low = first_time_in(40 - depth)
    w_low = 2.0 ** (decay.log2_g(t_low) - 64 * (40 - depth))
    huge = StreamItem(t_low, 1.7e308 / w_low)
    return [huge] * (1 << 16) + [StreamItem(first_time_in(40), 5e-324)]


@settings(max_examples=150, deadline=None)
@given(decay=decays, trace=traces)
@example(decay=ForwardDecay("exp", 0.05), trace=edge_trace(33))
@example(decay=ForwardDecay("exp", 0.05), trace=edge_trace(34))
def test_window_matches_the_unbounded_fold(decay, trace):
    # Exp rates up to 2.0 over times up to 5,000 span up to 226 blocks,
    # far more than the edge keeps.
    end = max((i.time for i in trace), default=0) + 10
    engine = ForwardDecaySum(decay)
    engine.ingest(trace, until=end)
    held = unbounded_blocks(decay, trace)
    want = unbounded_value(decay, held, end)
    assert triplet(engine) == (want, want, want)
    assert engine.storage_report().buckets <= forward._WINDOW
    edge = edge_of(held) if held else 0
    assert blocks(engine) == [
        [k, num, exp] for k, (num, exp) in sorted(held.items()) if k >= edge
    ]


@settings(max_examples=100, deadline=None)
@given(decay=decays, trace=traces)
@example(
    decay=ForwardDecay("exp", 2.0),
    trace=[StreamItem(t, 1.0) for t in range(0, 5000, 50)],
)
def test_unbounded_snapshot_restores_to_the_window(decay, trace):
    # A snapshot written before any bound existed holds every block, and
    # one written under the 34-block window the blocks within 34 of the
    # top; either restores to exactly the blocks at or above the edge,
    # with the unbounded fold's answer bits.
    end = max((i.time for i in trace), default=0) + 10
    held = unbounded_blocks(decay, trace)
    top = max(held, default=0)
    edge = edge_of(held) if held else 0
    direct = ForwardDecaySum(decay)
    direct.ingest(trace, until=end)
    want = unbounded_value(decay, held, end)
    for floor in (0, top - 33):
        restored = engine_from_dict({
            "version": 1,
            "engine": "forward",
            "decay": decay_to_dict(decay),
            "time": end,
            "blocks": [
                [k, num, exp]
                for k, (num, exp) in sorted(held.items())
                if k >= floor
            ],
            "items": len(trace),
        })
        assert triplet(restored) == (want, want, want)
        assert blocks(restored) == blocks(direct) == [
            [k, num, exp]
            for k, (num, exp) in sorted(held.items())
            if k >= edge
        ]
