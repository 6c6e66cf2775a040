"""Checkpoint round-trips: restored engines continue streams identically."""

import json
import random

import pytest

from repro.core.decay import (
    ExponentialDecay,
    GaussianDecay,
    LinearDecay,
    LogarithmicDecay,
    NoDecay,
    PolyexponentialDecay,
    PolyExpPolynomialDecay,
    PolynomialDecay,
    SlidingWindowDecay,
    TableDecay,
)
from repro.core.errors import InvalidParameterError
from repro.core.ewma import ExponentialSum
from repro.core.exact import ExactDecayingSum
from repro.counters.morris import MorrisCounter
from repro.histograms.ceh import CascadedEH
from repro.histograms.domination import DominationHistogram
from repro.histograms.eh import ExponentialHistogram, SlidingWindowSum
from repro.histograms.wbmh import WBMH
from repro.serialize import (
    decay_from_dict,
    decay_to_dict,
    engine_from_dict,
    engine_to_dict,
)

ALL_DECAYS = [
    ExponentialDecay(0.07),
    GaussianDecay(42.0),
    SlidingWindowDecay(64),
    PolynomialDecay(1.5),
    PolyexponentialDecay(2, 0.1),
    PolyExpPolynomialDecay([1.0, 0.5], 0.1),
    LinearDecay(100),
    LogarithmicDecay(3.0),
    TableDecay([1.0, 0.5, 0.25], tail=0.1),
    NoDecay(),
]

ENGINES = [
    ("ewma", lambda: ExponentialSum(ExponentialDecay(0.05))),
    ("exact", lambda: ExactDecayingSum(PolynomialDecay(1.0))),
    ("eh", lambda: ExponentialHistogram(128, 0.1)),
    ("eh-unbounded", lambda: ExponentialHistogram(None, 0.2)),
    ("sliwin-sum", lambda: SlidingWindowSum(64, 0.1)),
    ("domination", lambda: DominationHistogram(100, 0.1, compact_every=3)),
    ("ceh", lambda: CascadedEH(PolynomialDecay(1.0), 0.1)),
    ("ceh-dom", lambda: CascadedEH(LinearDecay(80), 0.1, backend="domination",
                                   estimator="upper")),
    ("wbmh-level", lambda: WBMH(PolynomialDecay(1.0), 0.1)),
    ("wbmh-fixed", lambda: WBMH(PolynomialDecay(2.0), 0.1, horizon=4096)),
    ("wbmh-scan", lambda: WBMH(LogarithmicDecay(), 0.2, quantize=False,
                               merge_strategy="scan")),
]


class TestDecayRoundtrip:
    @pytest.mark.parametrize("decay", ALL_DECAYS, ids=lambda d: d.describe())
    def test_roundtrip_preserves_weights(self, decay):
        data = json.loads(json.dumps(decay_to_dict(decay)))
        restored = decay_from_dict(data)
        assert type(restored) is type(decay)
        for age in (0, 1, 7, 100):
            assert restored.weight(age) == decay.weight(age)

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidParameterError):
            decay_from_dict({"family": "wat"})


def drive(engine, stream, *, integers):
    for gap, value in stream:
        engine.advance(gap)
        engine.add(round(value) if integers else value)


class TestEngineRoundtrip:
    @pytest.mark.parametrize("name,factory", ENGINES, ids=[e[0] for e in ENGINES])
    def test_restored_engine_continues_identically(self, name, factory):
        integers = name.startswith(("eh", "sliwin", "ceh")) and "dom" not in name
        rng = random.Random(hash(name) & 0xFFFF)
        prefix = [(rng.randint(0, 3), rng.uniform(1, 3)) for _ in range(150)]
        suffix = [(rng.randint(0, 3), rng.uniform(1, 3)) for _ in range(100)]

        original = factory()
        drive(original, prefix, integers=integers)
        snapshot = json.loads(json.dumps(engine_to_dict(original)))
        restored = engine_from_dict(snapshot)

        assert restored.time == original.time
        assert restored.query().value == pytest.approx(original.query().value)

        drive(original, suffix, integers=integers)
        drive(restored, suffix, integers=integers)
        est_o = original.query()
        est_r = restored.query()
        assert est_r.value == pytest.approx(est_o.value)
        assert est_r.lower == pytest.approx(est_o.lower)
        assert est_r.upper == pytest.approx(est_o.upper)

    @pytest.mark.parametrize("name,factory", ENGINES, ids=[e[0] for e in ENGINES])
    def test_restored_engine_reencodes_its_snapshot(self, name, factory):
        # A restored EH holds the int counts its writes make, so a keyed
        # store's snapshot re-encodes byte for byte after a restore.
        integers = name.startswith(("eh", "sliwin", "ceh")) and "dom" not in name
        rng = random.Random(hash(name) & 0xFFFF)
        engine = factory()
        drive(engine, [(rng.randint(0, 3), rng.uniform(1, 3)) for _ in range(150)],
              integers=integers)
        text = json.dumps(engine_to_dict(engine))
        assert json.dumps(engine_to_dict(engine_from_dict(json.loads(text)))) == text

    def test_wbmh_bucket_lattice_survives(self):
        w = WBMH(PolynomialDecay(1.0), 0.15)
        for _ in range(300):
            w.add(1.0)
            w.advance(1)
        restored = engine_from_dict(engine_to_dict(w))
        assert restored.bucket_arrival_sets() == w.bucket_arrival_sets()

    def test_randomized_engines_rejected(self):
        m = MorrisCounter(seed=1)
        with pytest.raises(InvalidParameterError):
            engine_to_dict(m)

    def test_version_checked(self):
        state = engine_to_dict(ExponentialSum(ExponentialDecay(0.1)))
        state["version"] = 999
        with pytest.raises(InvalidParameterError):
            engine_from_dict(state)

    def test_unknown_engine_kind(self):
        with pytest.raises(InvalidParameterError):
            engine_from_dict({"version": 1, "engine": "mystery"})


def _domination_states():
    """A domination histogram and a domination-backend CEH, 30 ticks in."""
    hist = DominationHistogram(100, 0.1)
    ceh = CascadedEH(PolynomialDecay(1.0), 0.1, backend="domination")
    for engine in (hist, ceh):
        for t in range(30):
            engine.add(1.5 + t % 4)
            engine.advance(1)
    return {
        "domination": engine_to_dict(hist),
        "ceh-domination": engine_to_dict(ceh),
    }


def _buckets(state):
    return state["histogram"]["buckets"] if "histogram" in state else state["buckets"]


class TestRestoreChecks:
    """A restore refuses bucket states no domination write produces."""

    @pytest.mark.parametrize("kind", ["domination", "ceh-domination"])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda rows: rows[0].__setitem__(2, float("nan")),
            lambda rows: rows[0].__setitem__(2, float("inf")),
            lambda rows: rows[-1].__setitem__(2, 0.0),
            lambda rows: rows[-1].__setitem__(2, -2.0),
            lambda rows: rows.reverse(),
        ],
        ids=["nan", "inf", "zero", "negative", "reversed"],
    )
    def test_unreachable_buckets_refused(self, kind, edit):
        state = _domination_states()[kind]
        assert engine_from_dict(state).query().upper < float("inf")
        edit(_buckets(state))
        with pytest.raises(InvalidParameterError):
            engine_from_dict(state)

    def test_ceh_histogram_must_be_its_backend(self):
        state = engine_to_dict(CascadedEH(LinearDecay(80), 0.1))
        state["histogram"] = engine_to_dict(DominationHistogram(81, 0.1))
        with pytest.raises(InvalidParameterError, match="backend"):
            engine_from_dict(state)
        state["histogram"] = engine_to_dict(ExponentialHistogram(40, 0.1))
        with pytest.raises(InvalidParameterError, match="window 40"):
            engine_from_dict(state)

    def test_eh_run_check_skips_merged_histograms(self):
        # Two shards' interleaved buckets break the unmerged run structure
        # (sizes grow toward the newest bucket), and a merged histogram
        # restores them as they are; the same rows under the unmerged
        # budget are refused.
        a = SlidingWindowSum(64, 0.1)
        b = SlidingWindowSum(64, 0.1)
        for t in range(40):
            a.add(1 + (t % 3 == 0) * 30)
            b.add(1)
            a.advance(1)
            b.advance(1)
        a.merge(b)
        state = engine_to_dict(a)
        sizes = [row[2] for row in state["buckets"]]
        assert any(x < y for x, y in zip(sizes, sizes[1:]))
        restored = engine_from_dict(state)
        assert engine_to_dict(restored) == state
        state["effective_epsilon"] = state["epsilon"]
        with pytest.raises(InvalidParameterError, match="grow"):
            engine_from_dict(state)
