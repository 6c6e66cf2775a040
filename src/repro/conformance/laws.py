"""The conformance law catalog: oracle-differential and metamorphic checks.

Every law is a *pure* function of ``(spec, trace)`` -- lintkit RK007
statically enforces no wall-clock reads, no unseeded randomness, and no
mutation of the trace argument, because the shrinker re-evaluates laws
hundreds of times and a shrunk reproducer is only trustworthy if the check
is deterministic.

The catalog:

========  ====================  =============================================
id        name                  invariant
========  ====================  =============================================
CL001     oracle-bracket        estimate inside its certified bracket vs the
                                exact reference; relative error and bracket
                                width within the configured epsilon
CL002     batch-split           ``ingest`` (batch path) bit-identical to the
                                item-at-a-time ``advance``/``add`` replay
CL003     time-shift            shifting all arrivals by a constant delta
                                leaves every estimate bit-identical
                                (age-indexed decay has no absolute origin);
                                the forward-decay exp register banks on an
                                absolute-time block lattice, so it gets a
                                relative-tolerance tier instead
                                (``shift_close``); poly-kind forward decay
                                is mathematically shift-variant and is
                                exempt
CL004     scale-linearity       scaling all values by a power of two scales
                                the estimate triplet bit-exactly (register
                                engines are linear in the stream)
CL005     advance-monotone      with no new arrivals, a non-increasing decay
                                can only shrink the sum: later certified
                                lower bounds stay below earlier upper bounds
CL006     serialize-roundtrip   snapshot -> restore mid-stream, continue
                                both; estimates stay bit-identical
CL007     unsorted-rejection    out-of-order ``ingest`` raises
                                ``TimeOrderError`` -- except on natively
                                order-insensitive engines, which must
                                *accept* the disordered trace instead;
                                ``advance_to`` refuses to move the clock
                                backwards everywhere
CL008     merge-split           splitting the trace round-robin across K
                                shards, ingesting each separately, and
                                folding with ``merge`` agrees with serial
                                replay: bit-identical for the exact engine
                                on integer values, ~1 ulp for the float
                                registers, bracket-sound within the composed
                                ``K * epsilon`` budget for histogram engines
CL009     permutation-          ingesting any reordering of the trace (a
          invariance            seeded shuffle and full reversal are probed)
                                yields a bit-identical estimate triplet and
                                clock -- order-insensitive engines only
========  ====================  =============================================

Laws report findings as :class:`Violation` values (empty list = law holds).
A crash inside an engine is itself a finding, not a test error: the PR-1
polyexponential routing bug surfaced as ``query()`` raising from an
inverted ``Estimate``, exactly the failure mode CL001 folds into its
report.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Mapping

from repro.conformance.engines import EngineSpec
from repro.conformance.trace import Trace
from repro.core.errors import NotApplicableError, ReproError, TimeOrderError
from repro.core.estimate import Estimate
from repro.core.interfaces import DecayingSum
from repro.serialize import engine_from_dict, engine_to_dict
from repro.streams.generators import StreamItem

__all__ = [
    "Violation",
    "Law",
    "all_laws",
    "get_law",
    "resolve_laws",
    "run_laws",
]

#: True sums below this are treated as zero for relative-error purposes
#: (matches ``benchkit.harness.measure_accuracy``).
_MIN_TRUE = 1e-9

#: Float slack on exact-identity comparisons is deliberately *zero*: the
#: batching/shift/scale/roundtrip contracts are bit-identity contracts.

#: Exceptions a law converts into a Violation instead of crashing the
#: suite: every library-raised invariant breach plus the arithmetic and
#: container faults a broken estimator typically dies with.
_ENGINE_FAULTS = (
    ReproError,
    ArithmeticError,
    IndexError,
    KeyError,
    AttributeError,
    TypeError,
)


@dataclass(frozen=True)
class Violation:
    """One law falsified at one concrete point of one trace."""

    law_id: str
    engine: str
    message: str
    time: int | None = None
    details: Mapping[str, float] = field(default_factory=dict)

    def render(self) -> str:
        at = f" at t={self.time}" if self.time is not None else ""
        return f"[{self.law_id}] {self.engine}{at}: {self.message}"


class Law(ABC):
    """Base class: one machine-checkable invariant of the engine matrix."""

    law_id: ClassVar[str]
    name: ClassVar[str]
    description: ClassVar[str]

    def applies(self, spec: EngineSpec) -> bool:
        """Whether this law is meaningful for ``spec`` (default: always)."""
        return True

    @abstractmethod
    def check(self, spec: EngineSpec, trace: Trace) -> list[Violation]:
        """Return every violation of this law on ``trace`` (empty = holds)."""

    def violation(
        self,
        spec: EngineSpec,
        message: str,
        *,
        time: int | None = None,
        details: Mapping[str, float] | None = None,
    ) -> Violation:
        return Violation(
            law_id=self.law_id,
            engine=spec.name,
            message=message,
            time=time,
            details=dict(details or {}),
        )


def _triplet(estimate: Estimate) -> tuple[float, float, float]:
    return (estimate.value, estimate.lower, estimate.upper)


def _drive(engine: DecayingSum, trace: Trace) -> None:
    """Feed the whole trace (batch path) and advance through the tail."""
    engine.ingest(trace.stream_items(), until=trace.end_time)


def _replay_items(engine: DecayingSum, trace: Trace) -> None:
    """Item-at-a-time reference replay (advance to each arrival, add)."""
    for t, v in trace.items:
        if t > engine.time:
            engine.advance(t - engine.time)
        engine.add(v)
    if trace.end_time > engine.time:
        engine.advance(trace.end_time - engine.time)


class OracleBracketLaw(Law):
    """CL001: differential run against ``ExactDecayingSum``.

    At every distinct arrival time (and at the end of the tail) the
    engine's certified bracket must contain the exact sum, the point
    estimate must be within ``(1 + eps)`` of it, and the bracket must not
    be wider than the accuracy the engine was configured for.  The width
    cap is ``upper - lower <= 2 eps upper + 2``: the multiplicative part is
    the paper's bracket guarantee (half-oldest-bucket for EH, region ratio
    times count rounding for WBMH, per-bucket age spread for CEH) and the
    additive ``+2`` absorbs the integer boundary of a freshly-merged EH
    bucket on very small totals.
    """

    law_id = "CL001"
    name = "oracle-bracket"
    description = (
        "estimate bracketed around the exact reference, relative error and "
        "bracket width within the configured epsilon"
    )

    def check(self, spec: EngineSpec, trace: Trace) -> list[Violation]:
        engine = spec.build()
        oracle = spec.oracle()
        found: list[Violation] = []
        checkpoints = list(trace.arrival_times())
        if not checkpoints or checkpoints[-1] != trace.end_time:
            checkpoints.append(trace.end_time)
        idx = 0
        items = trace.items
        for when in checkpoints:
            batch: list[float] = []
            while idx < len(items) and items[idx][0] <= when:
                batch.append(items[idx][1])
                idx += 1
            try:
                engine.advance_to(when)
                if batch:
                    engine.add_batch(batch)
            except _ENGINE_FAULTS as exc:
                found.append(
                    self.violation(
                        spec,
                        f"engine crashed while ingesting: {exc!r}",
                        time=when,
                    )
                )
                return found
            oracle.advance_to(when)
            if batch:
                oracle.add_batch(batch)
            found.extend(self._check_point(spec, engine, oracle, when))
            if found:
                return found
        return found

    def _check_point(
        self,
        spec: EngineSpec,
        engine: DecayingSum,
        oracle: DecayingSum,
        when: int,
    ) -> Iterable[Violation]:
        true = oracle.query().value
        try:
            est = engine.query()
        except _ENGINE_FAULTS as exc:
            yield self.violation(
                spec, f"query() crashed: {exc!r}", time=when
            )
            return
        eps = spec.epsilon
        if not est.contains(true):
            yield self.violation(
                spec,
                f"certified bracket [{est.lower:g}, {est.upper:g}] misses "
                f"the exact sum {true:g}",
                time=when,
                details={"true": true, "lower": est.lower, "upper": est.upper},
            )
            return
        if true > _MIN_TRUE:
            rel = est.relative_error_vs(true)
            if rel > eps + 1e-9:
                yield self.violation(
                    spec,
                    f"relative error {rel:.4g} exceeds epsilon {eps:g} "
                    f"(estimate {est.value:g} vs exact {true:g})",
                    time=when,
                    details={"rel": rel, "true": true, "value": est.value},
                )
                return
        width = est.upper - est.lower
        cap = 2.0 * eps * est.upper + 2.0 + 1e-9 * max(1.0, est.upper)
        if width > cap:
            yield self.violation(
                spec,
                f"bracket width {width:g} exceeds the epsilon budget "
                f"{cap:g} (eps={eps:g}, upper={est.upper:g})",
                time=when,
                details={"width": width, "cap": cap, "upper": est.upper},
            )


class BatchSplitLaw(Law):
    """CL002: the batch path must be bit-identical to item-at-a-time."""

    law_id = "CL002"
    name = "batch-split"
    description = (
        "ingest (one add_batch per distinct arrival time) is bit-identical "
        "to the advance/add item replay"
    )

    def check(self, spec: EngineSpec, trace: Trace) -> list[Violation]:
        batched = spec.build()
        sequential = spec.build()
        try:
            _drive(batched, trace)
            _replay_items(sequential, trace)
        except _ENGINE_FAULTS as exc:
            return [
                self.violation(spec, f"engine crashed during replay: {exc!r}")
            ]
        if batched.time != sequential.time:
            return [
                self.violation(
                    spec,
                    f"clock divergence: batch path at {batched.time}, item "
                    f"path at {sequential.time}",
                )
            ]
        a, b = _triplet(batched.query()), _triplet(sequential.query())
        if a != b:
            return [
                self.violation(
                    spec,
                    f"batch path {a} != item path {b} "
                    "(value, lower, upper must match bit-for-bit)",
                    time=batched.time,
                )
            ]
        return []


class TimeShiftLaw(Law):
    """CL003: age-indexed decay has no absolute time origin.

    Two tiers.  ``shift_exact`` engines (state a pure function of ages)
    must answer bit-identically on the shifted trace.  ``shift_close``
    engines -- the forward-decay exp register, whose weight is
    shift-invariant in value but whose exact accumulator banks
    contributions on an absolute-time block lattice -- must agree within
    a tight relative tolerance instead: the shifted run rounds at
    different block boundaries.  Poly-kind forward decay carries neither
    flag (its induced weight genuinely depends on the query time).
    """

    law_id = "CL003"
    name = "time-shift"
    description = (
        "shifting every arrival by a constant delta leaves the estimate "
        "triplet bit-identical (age-indexed engines) or equal within a "
        "relative tolerance (forward-decay exp register)"
    )

    #: Deliberately not a multiple of any bucket/window size in the specs.
    delta = 7

    #: Relative tolerance for the ``shift_close`` tier.
    _REL_CLOSE = 1e-9

    def applies(self, spec: EngineSpec) -> bool:
        return spec.shift_exact or spec.shift_close

    def check(self, spec: EngineSpec, trace: Trace) -> list[Violation]:
        base = spec.build()
        shifted = spec.build()
        try:
            _drive(base, trace)
            _drive(shifted, trace.shifted(self.delta))
        except _ENGINE_FAULTS as exc:
            return [
                self.violation(spec, f"engine crashed during replay: {exc!r}")
            ]
        a, b = _triplet(base.query()), _triplet(shifted.query())
        if spec.shift_exact:
            if a != b:
                return [
                    self.violation(
                        spec,
                        f"shift by {self.delta} changed the estimate: "
                        f"{a} -> {b}",
                        time=base.time,
                    )
                ]
            return []
        for want, got in zip(a, b):
            if abs(got - want) > self._REL_CLOSE * max(1.0, abs(want)):
                return [
                    self.violation(
                        spec,
                        f"shift by {self.delta} moved the estimate beyond "
                        f"the relative tolerance: {a} -> {b}",
                        time=base.time,
                        details={"want": want, "got": got},
                    )
                ]
        return []


class ScaleLinearityLaw(Law):
    """CL004: register engines are linear in the stream values."""

    law_id = "CL004"
    name = "scale-linearity"
    description = (
        "multiplying every value by a power of two multiplies the estimate "
        "triplet by exactly that factor (register engines only)"
    )

    #: A power of two: float multiplication by it is exact (exponent shift).
    factor = 4

    def applies(self, spec: EngineSpec) -> bool:
        return spec.linear_exact

    def check(self, spec: EngineSpec, trace: Trace) -> list[Violation]:
        base = spec.build()
        scaled = spec.build()
        try:
            _drive(base, trace)
            _drive(scaled, trace.scaled(self.factor))
        except _ENGINE_FAULTS as exc:
            return [
                self.violation(spec, f"engine crashed during replay: {exc!r}")
            ]
        a = _triplet(base.query())
        b = _triplet(scaled.query())
        expected = tuple(x * self.factor for x in a)
        if b != expected:
            return [
                self.violation(
                    spec,
                    f"scaling values by {self.factor} gave {b}, expected "
                    f"{expected}",
                    time=base.time,
                )
            ]
        return []


class AdvanceMonotoneLaw(Law):
    """CL005: with no arrivals, a non-increasing decay only shrinks the sum.

    Certified-bracket form (sound for approximate engines): the exact sum
    is non-increasing over the quiet period, so a later *lower* bound may
    never exceed an earlier *upper* bound.
    """

    law_id = "CL005"
    name = "advance-monotone"
    description = (
        "after the trace ends, advancing the clock cannot raise the "
        "certified lower bound above any earlier upper bound"
    )

    #: Quiet steps probed after the end of the trace.
    steps = (1, 3, 9, 27)

    def applies(self, spec: EngineSpec) -> bool:
        return spec.nonincreasing

    def check(self, spec: EngineSpec, trace: Trace) -> list[Violation]:
        engine = spec.build()
        try:
            _drive(engine, trace)
            previous_upper = engine.query().upper
        except _ENGINE_FAULTS as exc:
            return [
                self.violation(spec, f"engine crashed during replay: {exc!r}")
            ]
        slack = 1e-9 * max(1.0, previous_upper)
        for step in self.steps:
            engine.advance(step)
            est = engine.query()
            if est.lower > previous_upper + slack:
                return [
                    self.violation(
                        spec,
                        f"quiet advance raised the certified lower bound: "
                        f"lower {est.lower:g} > earlier upper "
                        f"{previous_upper:g}",
                        time=engine.time,
                        details={
                            "lower": est.lower,
                            "previous_upper": previous_upper,
                        },
                    )
                ]
            previous_upper = est.upper
            slack = 1e-9 * max(1.0, previous_upper)
        return []


class SerializeRoundTripLaw(Law):
    """CL006: checkpoint/restore mid-stream is invisible to queries."""

    law_id = "CL006"
    name = "serialize-roundtrip"
    description = (
        "snapshotting the engine mid-trace, restoring it, and continuing "
        "both copies yields bit-identical estimates"
    )

    def applies(self, spec: EngineSpec) -> bool:
        return spec.serializable

    def check(self, spec: EngineSpec, trace: Trace) -> list[Violation]:
        split = trace.n_items // 2
        head = trace.stream_items()[:split]
        rest = trace.stream_items()[split:]
        original = spec.build()
        try:
            original.ingest(head)
            restored = engine_from_dict(engine_to_dict(original))
        except _ENGINE_FAULTS as exc:
            return [
                self.violation(
                    spec, f"serialize round-trip failed: {exc!r}",
                    time=None,
                )
            ]
        snap_a = _triplet(original.query())
        snap_b = _triplet(restored.query())
        if snap_a != snap_b or restored.time != original.time:
            return [
                self.violation(
                    spec,
                    f"restored engine answers {snap_b} at t={restored.time}, "
                    f"original {snap_a} at t={original.time}",
                    time=original.time,
                )
            ]
        try:
            original.ingest(rest, until=trace.end_time)
            restored.ingest(rest, until=trace.end_time)
        except _ENGINE_FAULTS as exc:
            return [
                self.violation(
                    spec, f"engine crashed after restore: {exc!r}"
                )
            ]
        end_a = _triplet(original.query())
        end_b = _triplet(restored.query())
        if end_a != end_b:
            return [
                self.violation(
                    spec,
                    f"continuation diverged after restore: {end_a} != {end_b}",
                    time=original.time,
                )
            ]
        return []


class UnsortedRejectionLaw(Law):
    """CL007: the batch path refuses disordered time, loudly.

    Natively order-insensitive engines (``spec.order_insensitive``) flip
    the first half of the contract: they must *accept* the disordered
    trace without raising (their answers on it are CL009's business).
    The ``advance_to``-backwards half applies to every engine -- the
    clock itself is monotone even when the items need not be.
    """

    law_id = "CL007"
    name = "unsorted-rejection"
    description = (
        "ingest with out-of-order timestamps raises TimeOrderError "
        "(order-insensitive engines must accept instead) and advance_to "
        "refuses to move the clock backwards"
    )

    def check(self, spec: EngineSpec, trace: Trace) -> list[Violation]:
        distinct = trace.arrival_times()
        found: list[Violation] = []
        if len(distinct) >= 2:
            disordered = [
                StreamItem(t, v) for t, v in reversed(trace.items)
            ]
            engine = spec.build()
            if spec.order_insensitive:
                try:
                    engine.ingest(disordered)
                except _ENGINE_FAULTS as exc:
                    found.append(
                        self.violation(
                            spec,
                            "order-insensitive engine refused an out-of-"
                            f"order trace: {exc!r}",
                        )
                    )
            else:
                rejected = False
                try:
                    engine.ingest(disordered)
                except TimeOrderError:
                    rejected = True
                if not rejected:
                    found.append(
                        self.violation(
                            spec,
                            "ingest accepted an out-of-order trace without "
                            "raising TimeOrderError",
                        )
                    )
        engine = spec.build()
        engine.advance(5)
        rejected = False
        try:
            engine.advance_to(2)
        except TimeOrderError:
            rejected = True
        if not rejected:
            found.append(
                self.violation(
                    spec,
                    "advance_to moved the clock backwards (5 -> 2) without "
                    "raising TimeOrderError",
                    time=engine.time,
                )
            )
        return found


class MergeSplitLaw(Law):
    """CL008: sharded ingest + ``merge`` is consistent with serial replay.

    The linearity of ``S_g(T)`` means any partition of the trace can be
    summarised shard-by-shard and folded back together.  The agreement
    contract is tiered by engine family:

    * ``ExactDecayingSum`` on integer-valued traces -- bit-identical
      triplets (integer sums are exact in floats, so fold order cannot
      matter);
    * other register engines (and exact on fractional values) -- equal
      within ~1 ulp per component (float addition is commutative but not
      associative; the shard fold visits items in a different order);
    * histogram engines -- the merged bracket must contain the exact
      oracle sum and stay within the *composed* error budget
      ``K * epsilon`` (each shard contributes its own straddling mass),
      plus an additive ``2K`` for the per-shard integer bucket boundary.

    Round-robin splitting keeps every shard trace time-sorted and puts
    items in every shard, so each per-shard engine exercises the same
    code paths serial replay does.
    """

    law_id = "CL008"
    name = "merge-split"
    description = (
        "round-robin shard ingest folded with merge() agrees with serial "
        "replay: bit-identical (exact engine, integer values), ~1 ulp "
        "(float registers), or bracket-sound within K * epsilon "
        "(histograms)"
    )

    #: Shard counts probed; small primes so the round-robin interleave
    #: never aligns with the power-of-two bucket structure.
    shard_counts = (2, 3)

    #: Per-component relative slack for float-register fold-order drift.
    _REL = 1e-12

    def check(self, spec: EngineSpec, trace: Trace) -> list[Violation]:
        serial = spec.build()
        oracle = spec.oracle()
        try:
            _drive(serial, trace)
            _drive(oracle, trace)
        except _ENGINE_FAULTS as exc:
            return [
                self.violation(spec, f"engine crashed during replay: {exc!r}")
            ]
        serial_triplet = _triplet(serial.query())
        true = oracle.query().value
        items = trace.stream_items()
        integer_values = all(v == int(v) for _, v in trace.items)
        for shards in self.shard_counts:
            merged = spec.build()
            try:
                merged.ingest(items[0::shards], until=trace.end_time)
                for index in range(1, shards):
                    shard = spec.build()
                    shard.ingest(items[index::shards], until=trace.end_time)
                    merged.merge(shard)
            except NotApplicableError:
                # Engine family without a structural merge (randomized
                # state); the keyed store combines answers instead.
                return []
            except _ENGINE_FAULTS as exc:
                return [
                    self.violation(
                        spec,
                        f"shard ingest/merge crashed at K={shards}: {exc!r}",
                    )
                ]
            found = self._compare(
                spec, shards, merged, serial_triplet, true, integer_values
            )
            if found:
                return found
        return []

    def _compare(
        self,
        spec: EngineSpec,
        shards: int,
        merged: DecayingSum,
        serial_triplet: tuple[float, float, float],
        true: float,
        integer_values: bool,
    ) -> list[Violation]:
        try:
            est = merged.query()
        except _ENGINE_FAULTS as exc:
            return [
                self.violation(
                    spec, f"merged query() crashed at K={shards}: {exc!r}"
                )
            ]
        merged_triplet = _triplet(est)
        if spec.linear_exact:
            if spec.engine_kind == "ExactDecayingSum" and integer_values:
                if merged_triplet != serial_triplet:
                    return [
                        self.violation(
                            spec,
                            f"K={shards} merge of the exact engine is not "
                            f"bit-identical: {merged_triplet} != "
                            f"{serial_triplet}",
                            time=merged.time,
                        )
                    ]
                return []
            for got, want in zip(merged_triplet, serial_triplet):
                if abs(got - want) > self._REL * max(1.0, abs(want)):
                    return [
                        self.violation(
                            spec,
                            f"K={shards} merged register answer {got:.17g} "
                            f"drifts from serial {want:.17g} beyond fold-"
                            f"order slack",
                            time=merged.time,
                            details={"got": got, "want": want},
                        )
                    ]
            return []
        # Histogram engines: soundness against the oracle under the
        # composed budget, not equality with the serial bracket.
        slack = 1e-9 * max(1.0, est.upper)
        if not (est.lower - slack <= true <= est.upper + slack):
            return [
                self.violation(
                    spec,
                    f"K={shards} merged bracket [{est.lower:g}, "
                    f"{est.upper:g}] misses the exact sum {true:g}",
                    time=merged.time,
                    details={
                        "true": true, "lower": est.lower, "upper": est.upper,
                    },
                )
            ]
        if not (est.lower <= est.value <= est.upper):
            return [
                self.violation(
                    spec,
                    f"K={shards} merged estimate {est.value:g} escapes its "
                    f"own bracket [{est.lower:g}, {est.upper:g}]",
                    time=merged.time,
                )
            ]
        width = est.upper - est.lower
        cap = 2.0 * shards * spec.epsilon * est.upper + 2.0 * shards + slack
        if width > cap:
            return [
                self.violation(
                    spec,
                    f"K={shards} merged bracket width {width:g} exceeds the "
                    f"composed budget {cap:g} "
                    f"(K * eps = {shards * spec.epsilon:g})",
                    time=merged.time,
                    details={"width": width, "cap": cap},
                )
            ]
        budget = getattr(merged, "effective_epsilon", None)
        if budget is not None and budget > shards * spec.epsilon + 1e-12:
            return [
                self.violation(
                    spec,
                    f"K={shards} composed effective_epsilon {budget:g} "
                    f"exceeds K * eps = {shards * spec.epsilon:g}",
                    time=merged.time,
                )
            ]
        return []


class PermutationInvarianceLaw(Law):
    """CL009: order-insensitive ingestion is a function of the item *set*.

    The forward-decay engines accumulate each item's contribution as an
    exact integer in a per-magnitude block, so the state -- and hence
    every later answer -- is a pure function of the item multiset, not
    the arrival order.  The law drives a seeded shuffle and the full
    reversal of the trace through ``ingest`` and requires the estimate
    triplet and clock to be bit-identical to the sorted replay.
    """

    law_id = "CL009"
    name = "permutation-invariance"
    description = (
        "ingesting a seeded shuffle and the reversal of the trace yields "
        "bit-identical estimate triplets and clocks (order-insensitive "
        "engines)"
    )

    #: Fixed shuffle seed: laws must be deterministic (lintkit RK007).
    seed = 0x5EED

    def applies(self, spec: EngineSpec) -> bool:
        return spec.order_insensitive

    def check(self, spec: EngineSpec, trace: Trace) -> list[Violation]:
        base = spec.build()
        try:
            _drive(base, trace)
        except _ENGINE_FAULTS as exc:
            return [
                self.violation(spec, f"engine crashed during replay: {exc!r}")
            ]
        expected = _triplet(base.query())
        items = list(trace.stream_items())
        shuffled = list(items)
        random.Random(self.seed).shuffle(shuffled)
        for label, perm in (
            ("seeded shuffle", shuffled),
            ("reversal", list(reversed(items))),
        ):
            engine = spec.build()
            try:
                engine.ingest(perm, until=trace.end_time)
            except _ENGINE_FAULTS as exc:
                return [
                    self.violation(
                        spec,
                        f"ingest of the {label} crashed: {exc!r}",
                    )
                ]
            if engine.time != base.time:
                return [
                    self.violation(
                        spec,
                        f"{label} left the clock at {engine.time}, sorted "
                        f"replay at {base.time}",
                        time=engine.time,
                    )
                ]
            got = _triplet(engine.query())
            if got != expected:
                return [
                    self.violation(
                        spec,
                        f"{label} changed the estimate: {expected} -> {got} "
                        "(must be bit-identical)",
                        time=engine.time,
                    )
                ]
        return []


_CATALOG: tuple[Law, ...] = (
    OracleBracketLaw(),
    BatchSplitLaw(),
    TimeShiftLaw(),
    ScaleLinearityLaw(),
    AdvanceMonotoneLaw(),
    SerializeRoundTripLaw(),
    UnsortedRejectionLaw(),
    MergeSplitLaw(),
    PermutationInvarianceLaw(),
)


def all_laws() -> tuple[Law, ...]:
    """The full catalog, in id order."""
    return _CATALOG


def get_law(ident: str) -> Law:
    """Look a law up by id (``CL001``) or name (``oracle-bracket``)."""
    for law in _CATALOG:
        if ident in (law.law_id, law.name):
            return law
    raise KeyError(f"unknown law {ident!r}")


def resolve_laws(idents: str | list[str] | None) -> tuple[Law, ...]:
    """Select laws by id/name; ``None``/``"all"`` selects the catalog."""
    if idents is None or idents == "all" or idents == ["all"]:
        return _CATALOG
    wanted = idents.split(",") if isinstance(idents, str) else list(idents)
    return tuple(get_law(ident) for ident in wanted)


def run_laws(
    spec: EngineSpec,
    trace: Trace,
    laws: Iterable[Law] | None = None,
) -> list[Violation]:
    """Run every applicable law from ``laws`` on one ``(spec, trace)``."""
    found: list[Violation] = []
    for law in laws if laws is not None else _CATALOG:
        if law.applies(spec):
            found.extend(law.check(spec, trace))
    return found
