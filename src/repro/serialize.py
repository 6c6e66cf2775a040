"""Checkpointing: JSON-safe snapshots of decay functions and engines.

A deployment maintaining millions of per-customer summaries (paper
section 1.1) has to survive restarts. This module serializes the
*deterministic* engines -- EWMA, polyexponential pipelines, exact, EH,
domination, CEH, WBMH -- to
plain dicts (JSON-compatible) and restores them to bit-identical state:
a restored engine continues the stream exactly as the original would.

Randomized structures (Morris counters, MV/D samplers, approximate-
boundary CEH) are deliberately not serializable here: their correctness
rests on private random state, and snapshotting it invites subtle misuse
(restoring one snapshot twice correlates "independent" estimators). Check-
point the deterministic engines; re-derive randomized ones from the stream.

Usage::

    state = engine_to_dict(engine)
    json.dumps(state)           # JSON-safe
    engine = engine_from_dict(state)
"""

from __future__ import annotations

from typing import Any

from repro.core.decay import (
    DecayFunction,
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
from repro.core.ewma import ExponentialSum, GeneralPolyexpSum, PolyexponentialSum
from repro.core.exact import ExactDecayingSum
from repro.core.forward import ForwardDecay, ForwardDecaySum
from repro.counters.approx_float import FixedQuantizer, LevelQuantizer
from repro.histograms.buckets import Bucket
from repro.histograms.ceh import CascadedEH
from repro.histograms.domination import DominationHistogram
from repro.histograms.eh import ExponentialHistogram, SlidingWindowSum
from repro.histograms.wbmh import WBMH

__all__ = [
    "decay_to_dict",
    "decay_from_dict",
    "engine_to_dict",
    "engine_from_dict",
]

_FORMAT_VERSION = 1


# --------------------------------------------------------------- decay

def decay_to_dict(decay: DecayFunction) -> dict[str, Any]:
    """Serialize any shipped decay function."""
    if isinstance(decay, ExponentialDecay):
        return {"family": "expd", "lam": decay.lam}
    if isinstance(decay, SlidingWindowDecay):
        return {"family": "sliwin", "window": decay.window}
    if isinstance(decay, PolynomialDecay):
        return {"family": "polyd", "alpha": decay.alpha}
    if isinstance(decay, PolyexponentialDecay):
        return {"family": "polyexp", "k": decay.k, "lam": decay.lam}
    if isinstance(decay, PolyExpPolynomialDecay):
        return {"family": "polyexppoly", "coeffs": list(decay.coeffs),
                "lam": decay.lam}
    if isinstance(decay, LinearDecay):
        return {"family": "linear", "span": decay.span}
    if isinstance(decay, LogarithmicDecay):
        return {"family": "logd", "base": decay.base}
    if isinstance(decay, TableDecay):
        return {"family": "table", "weights": list(decay._table),
                "tail": decay.tail}
    if isinstance(decay, GaussianDecay):
        return {"family": "gauss", "sigma": decay.sigma}
    if isinstance(decay, ForwardDecay):
        return {"family": "forward", "kind": decay.kind, "rate": decay.rate}
    if isinstance(decay, NoDecay):
        return {"family": "none"}
    raise InvalidParameterError(
        f"cannot serialize decay type {type(decay).__name__}"
    )


def decay_from_dict(data: dict[str, Any]) -> DecayFunction:
    """Inverse of :func:`decay_to_dict`."""
    family = data.get("family")
    if family == "expd":
        return ExponentialDecay(data["lam"])
    if family == "sliwin":
        return SlidingWindowDecay(data["window"])
    if family == "polyd":
        return PolynomialDecay(data["alpha"])
    if family == "polyexp":
        return PolyexponentialDecay(data["k"], data["lam"])
    if family == "polyexppoly":
        return PolyExpPolynomialDecay(data["coeffs"], data["lam"])
    if family == "linear":
        return LinearDecay(data["span"])
    if family == "logd":
        return LogarithmicDecay(data["base"])
    if family == "table":
        return TableDecay(data["weights"], tail=data["tail"])
    if family == "gauss":
        return GaussianDecay(data["sigma"])
    if family == "forward":
        return ForwardDecay(data["kind"], data["rate"])
    if family == "none":
        return NoDecay()
    raise InvalidParameterError(f"unknown decay family {family!r}")


# -------------------------------------------------------------- engines

def _buckets_out(buckets) -> list[list[float]]:
    return [[b.start, b.end, b.count, b.level] for b in buckets]


def _buckets_in(rows) -> list[Bucket]:
    return [Bucket(int(s), int(e), float(c), int(lv)) for s, e, c, lv in rows]


def engine_to_dict(engine: Any) -> dict[str, Any]:
    """Serialize a deterministic decaying-sum engine.

    Engines living outside this module's isinstance ladder (e.g. the
    service-layer adapter) participate by exposing ``snapshot_state()``
    returning a complete versioned dict; the matching ``engine`` kind
    must be dispatched below in :func:`engine_from_dict`.
    """
    snapshot = getattr(engine, "snapshot_state", None)
    if snapshot is not None:
        state: dict[str, Any] = snapshot()
        return state
    if isinstance(engine, ExponentialSum):
        return {
            "version": _FORMAT_VERSION,
            "engine": "ewma",
            "decay": decay_to_dict(engine.decay),
            "time": engine.time,
            "sum": engine._sum,
            "items": engine._items,
        }
    if isinstance(engine, (PolyexponentialSum, GeneralPolyexpSum)):
        # Section 3.4 pipeline engines: the full state is the k + 1 moment
        # registers plus the clock; the decay dict pins k / lam / coeffs.
        return {
            "version": _FORMAT_VERSION,
            "engine": (
                "polyexp" if isinstance(engine, PolyexponentialSum)
                else "polyexppoly"
            ),
            "decay": decay_to_dict(engine.decay),
            "time": engine._pipe._time,
            "moments": list(engine._pipe._m),
            "items": engine._pipe._items,
        }
    if isinstance(engine, ExactDecayingSum):
        return {
            "version": _FORMAT_VERSION,
            "engine": "exact",
            "decay": decay_to_dict(engine.decay),
            "time": engine.time,
            "values": [[t, v] for t, v in engine._values],
            "items": engine._items,
        }
    if isinstance(engine, ForwardDecaySum):
        # The scale blocks are exact arbitrary-precision integers;
        # Python's json handles big ints natively, so the snapshot stays
        # JSON-safe and the restore is bit-identical by construction.
        return {
            "version": _FORMAT_VERSION,
            "engine": "forward",
            "decay": decay_to_dict(engine.decay),
            "time": engine.time,
            "blocks": [
                [k, num, exp]
                for k, (num, exp) in sorted(engine._buckets.items())
            ],
            "items": engine._items,
        }
    if isinstance(engine, ExponentialHistogram):
        # A sliding-window sum is its EH: one snapshot layout, two kinds.
        return {
            "version": _FORMAT_VERSION,
            "engine": (
                "sliwin-sum" if isinstance(engine, SlidingWindowSum) else "eh"
            ),
            "window": engine.window,
            "epsilon": engine.epsilon,
            "effective_epsilon": engine.effective_epsilon,
            "time": engine.time,
            "buckets": _buckets_out(engine.bucket_view()),
        }
    if isinstance(engine, DominationHistogram):
        return {
            "version": _FORMAT_VERSION,
            "engine": "domination",
            "window": engine.window,
            "epsilon": engine.epsilon,
            "effective_epsilon": engine.effective_epsilon,
            "compact_every": engine.compact_every,
            "time": engine.time,
            "buckets": _buckets_out(engine.bucket_view()),
            "since_compact": engine._since_compact,
        }
    if isinstance(engine, CascadedEH):
        return {
            "version": _FORMAT_VERSION,
            "engine": "ceh",
            "decay": decay_to_dict(engine.decay),
            "epsilon": engine.epsilon,
            "backend": engine.backend,
            "estimator": engine.estimator,
            "histogram": engine_to_dict(engine.histogram),
        }
    if isinstance(engine, WBMH):
        lattice = engine.lattice
        quantizer = lattice._quantizer
        if isinstance(quantizer, FixedQuantizer):
            quant: dict[str, Any] = {
                "kind": "fixed",
                "eps": quantizer.eps,
                "horizon": quantizer.horizon,
            }
        elif isinstance(quantizer, LevelQuantizer):
            quant = {"kind": "level", "eps": quantizer.eps}
        else:
            quant = {"kind": "none"}
        live = lattice._live[engine._col]
        return {
            "version": _FORMAT_VERSION,
            "engine": "wbmh",
            "decay": decay_to_dict(engine.decay),
            "epsilon": engine.epsilon,
            "ratio": engine.schedule.ratio,
            "merge_strategy": engine.merge_strategy,
            "quantizer": quant,
            "time": engine.time,
            "sealed": _buckets_out(engine._iter_buckets_sealed()),
            "live": [*lattice._live_interval(), live, 0] if live else None,
            "items": engine._items,
            "max_level": lattice._max_level,
        }
    raise InvalidParameterError(
        f"cannot serialize engine type {type(engine).__name__} "
        "(randomized engines are intentionally not checkpointable)"
    )


def engine_from_dict(data: dict[str, Any]) -> Any:
    """Restore an engine serialized by :func:`engine_to_dict`.

    A restore is a write path: an EXPD register, polyexponential moment,
    forward-decay block, EH or domination bucket, or WBMH count that no
    write can produce is refused by the engine's ``check()`` with
    :class:`~repro.core.errors.InvalidParameterError`, and so is a CEH
    whose histogram is not the backend its decay and ``backend`` name.
    """
    version = data.get("version")
    if version != _FORMAT_VERSION:
        raise InvalidParameterError(f"unsupported snapshot version {version!r}")
    kind = data.get("engine")
    if kind == "ewma":
        decay = decay_from_dict(data["decay"])
        engine = ExponentialSum(decay)
        engine._time = int(data["time"])
        engine._sum = float(data["sum"])
        engine._items = int(data["items"])
        engine.check()
        return engine
    if kind in ("polyexp", "polyexppoly"):
        decay = decay_from_dict(data["decay"])
        pipe_engine: PolyexponentialSum | GeneralPolyexpSum
        if kind == "polyexp":
            if not isinstance(decay, PolyexponentialDecay):
                raise InvalidParameterError(
                    f"polyexp snapshot carries decay {type(decay).__name__}"
                )
            pipe_engine = PolyexponentialSum(decay)
        else:
            if not isinstance(decay, PolyExpPolynomialDecay):
                raise InvalidParameterError(
                    f"polyexppoly snapshot carries decay {type(decay).__name__}"
                )
            pipe_engine = GeneralPolyexpSum(decay)
        moments = [float(m) for m in data["moments"]]
        if len(moments) != pipe_engine._pipe.k + 1:
            raise InvalidParameterError(
                f"snapshot has {len(moments)} moments, pipeline needs "
                f"{pipe_engine._pipe.k + 1}"
            )
        pipe_engine._pipe._m = moments
        pipe_engine._pipe._time = int(data["time"])
        pipe_engine._pipe._items = int(data["items"])
        pipe_engine._pipe.check()
        return pipe_engine
    if kind == "exact":
        engine = ExactDecayingSum(decay_from_dict(data["decay"]))
        engine._time = int(data["time"])
        engine._values.extend((int(t), float(v)) for t, v in data["values"])
        engine._items = int(data["items"])
        return engine
    if kind == "forward":
        forward_decay = decay_from_dict(data["decay"])
        if not isinstance(forward_decay, ForwardDecay):
            raise InvalidParameterError(
                f"forward snapshot carries decay {type(forward_decay).__name__}"
            )
        fwd = ForwardDecaySum(forward_decay)
        fwd._time = int(data["time"])
        fwd._items = int(data["items"])
        fwd._load_blocks(data["blocks"])  # checks every block, then the edge
        return fwd
    if kind in ("eh", "sliwin-sum"):
        if kind == "sliwin-sum":
            hist: ExponentialHistogram = SlidingWindowSum(
                int(data["window"]), float(data["epsilon"])
            )
        else:
            hist = ExponentialHistogram(
                None if data["window"] is None else int(data["window"]),
                float(data["epsilon"]),
            )
        hist._time = int(data["time"])
        # Older (pre-merge) snapshots carry no composed budget.  Set it
        # before the buckets: it decides whether check() holds them to
        # the unmerged run structure.
        hist.effective_epsilon = float(
            data.get("effective_epsilon", data["epsilon"])
        )
        hist._load_buckets(_buckets_in(data["buckets"]))  # runs check()
        return hist
    if kind == "domination":
        engine = DominationHistogram(
            None if data["window"] is None else int(data["window"]),
            float(data["epsilon"]),
            compact_every=int(data["compact_every"]),
        )
        engine._time = int(data["time"])
        engine._load_buckets(_buckets_in(data["buckets"]))  # runs check()
        engine._since_compact = int(data["since_compact"])
        engine.effective_epsilon = float(
            data.get("effective_epsilon", data["epsilon"])
        )
        return engine
    if kind == "ceh":
        engine = CascadedEH(
            decay_from_dict(data["decay"]),
            float(data["epsilon"]),
            backend=data["backend"],
            estimator=data["estimator"],
        )
        hist = engine_from_dict(data["histogram"])
        if type(hist) is not type(engine._hist) or hist.window != engine._window():
            raise InvalidParameterError(
                f"CEH histogram {data['histogram'].get('engine')!r} over "
                f"window {hist.window} is not the {engine.backend!r} backend "
                f"its decay needs"
            )
        engine._hist = hist
        return engine
    if kind == "service-key":
        # Lazy import: repro.service imports this module for its per-key
        # engine snapshots, so a top-level import would be a cycle.
        from repro.service.adapter import ServiceBackedEngine

        return ServiceBackedEngine.from_snapshot(data)
    if kind == "wbmh":
        decay = decay_from_dict(data["decay"])
        quant = data["quantizer"]
        kwargs: dict[str, Any] = {
            "ratio": float(data["ratio"]),
            "merge_strategy": data["merge_strategy"],
            "strict": False,
        }
        if quant["kind"] == "none":
            kwargs["quantize"] = False
        elif quant["kind"] == "fixed":
            kwargs["horizon"] = int(quant["horizon"])
        engine = WBMH(decay, float(data["epsilon"]), **kwargs)
        lattice = engine.lattice
        if quant["kind"] == "level":
            lattice._quantizer = LevelQuantizer(float(quant["eps"]))
        elif quant["kind"] == "fixed":
            lattice._quantizer = FixedQuantizer(
                float(quant["eps"]), int(quant["horizon"])
            )
        lattice._time = int(data["time"])
        col = engine._col
        lattice._rebuild(
            [(b.start, b.end, b.level, {col: b.count} if b.count else {})
             for b in _buckets_in(data["sealed"])]
        )
        if data["live"] is not None:
            s, e, c, lv = data["live"]
            # The live bucket is the current lattice interval at level 0.
            live = Bucket(int(s), int(e), float(c), int(lv))
            if (live.start, live.end) != lattice._live_interval() or live.level:
                raise InvalidParameterError(
                    f"live bucket {data['live']!r} is not the level-0 "
                    f"interval of clock {lattice._time}"
                )
            lattice._set_live(col, live.count)
        engine._items = int(data["items"])
        lattice._max_level = int(data["max_level"])
        engine.check()
        return engine
    raise InvalidParameterError(f"unknown engine kind {kind!r}")
