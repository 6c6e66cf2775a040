"""Both store fronts refuse what no engine could hold, before any state.

* **Weight domain.**  Each engine family declares its weight domain
  (``integer_weights`` for the EH-based families), and both fronts'
  admission refuses an out-of-domain weight before any ledger.  A
  sharded router ledgers and ships a fold before its worker's engine
  sees it, so without the check a refused fold on one shard left the
  front a tick ahead of the single store, with the refused batch's
  other folds applied.
* **Restore is a write path.**  ``engine_from_dict`` runs the engine's
  ``check()``: an EXPD register or a polyexponential moment that is
  negative, infinite or NaN, polyexponential moments that would grow
  past the float range on a later tick, a forward-decay block with a
  negative numerator, an EH bucket count that is not a power of two
  (an infinite one included), EH buckets out of end-time order, a NaN
  or infinite WBMH count, and WBMH spans or levels that no lattice
  holds at the snapshot's clock, are refused by ``ServiceStore.from_dict``,
  ``POST /restore`` and ``ShardedServiceStore.restore``, each refusal
  changes nothing, and both fronts answer it in the same words.  So is
  a key whose engine is sound but not the store's own kind: another
  engine class or decay, or a CEH on another backend, and a key whose
  last-seen tick is not an integer in [0, the snapshot clock].
  An EXPD merge that would overflow the register is refused as well, so
  no write leaves a store whose snapshot cannot be restored.
* **No admitted write makes a later read raise.**  Two finite writes
  that pass the float range together are refused by the EH and WBMH
  engines before they change anything, so the daemon keeps folding and
  the TTL sweep keeps reading; forward decay holds them and reads
  ``inf`` only while the decayed sum passes ``DBL_MAX``.
"""

from __future__ import annotations

import asyncio
import copy
import math
from typing import Any, Callable

import pytest

from repro.conformance.engines import default_specs
from repro.core.decay import (
    ExponentialDecay,
    LinearDecay,
    PolyexponentialDecay,
    PolynomialDecay,
    SlidingWindowDecay,
    TableDecay,
)
from repro.core.errors import InvalidParameterError
from repro.core.exact import ExactDecayingSum
from repro.core.forward import ForwardDecay
from repro.histograms.ceh import CascadedEH
from repro.serialize import engine_to_dict
from repro.service.api import http_request
from repro.service.daemon import IngestDaemon
from repro.service.loadgen import ServiceHarness
from repro.service.sharded import ShardedServiceStore, shard_of
from repro.service.store import ServiceStore
from repro.streams.io import KeyedItem


class TestWeightDomain:
    @pytest.mark.parametrize("cell", sorted(default_specs()))
    def test_declared_domain_is_what_the_engine_refuses(self, cell) -> None:
        spec = default_specs()[cell]
        engine = spec.build()
        integer = getattr(engine, "integer_weights", False)
        assert ServiceStore(spec.decay, spec.epsilon).integer_weights is integer
        if integer:
            with pytest.raises(InvalidParameterError):
                engine.add(1.5)
        else:
            engine.add(1.5)
        engine.add(2.0)

    @pytest.mark.parametrize(
        "decay",
        [SlidingWindowDecay(8), LinearDecay(32)],
        ids=["sliwin", "linear-ceh"],
    )
    def test_refused_fold_stops_both_fronts_at_the_same_tick(
        self, decay
    ) -> None:
        assert shard_of("good", 2) != shard_of("b", 2)
        batch = [
            KeyedItem("good", 10, 1.0),
            KeyedItem("b", 10, 1.5),
            KeyedItem("good", 11, 2.0),
        ]
        single = ServiceStore(decay, 0.1)
        sharded = ShardedServiceStore(decay, 0.1, workers=2)
        try:
            assert single.integer_weights and sharded.integer_weights
            for front in (single, sharded):
                with pytest.raises(InvalidParameterError, match="integer"):
                    front.observe_batch(batch)
                assert front.time == 10
                assert front.stats()["ingested_items"] == 1
                assert front.stats()["ingested_weight"] == 1.0
                assert front.query("good").value == 1.0
                assert front.keys() == ["good"]
        finally:
            sharded.close()

    def test_polyexponential_weight_that_grows_past_the_float_range(
        self,
    ) -> None:
        # 1e307 is finite, but M_2 of a (2, 0.1) key grows to about 27
        # times it: by tick 9 the key would answer an exact inf and its
        # snapshot would not restore.  The write is refused, and a weight
        # the moments can carry is kept.
        store = ServiceStore(PolyexponentialDecay(2, 0.1), 0.1)
        with pytest.raises(InvalidParameterError, match="finite"):
            store.observe("a", 1e307, when=0)
        store.observe("a", 1e305, when=0)
        store.advance_to(30)
        assert math.isfinite(store.query("a").value)
        assert ServiceStore.from_dict(store.to_dict()).keys() == ["a"]

    def test_finite_domain_fronts_take_fractions(self) -> None:
        sharded = ShardedServiceStore(PolynomialDecay(1.0), 0.1, workers=2)
        try:
            assert not sharded.integer_weights
            sharded.observe_batch([KeyedItem("b", 10, 1.5)])
            assert sharded.stats()["ingested_weight"] == 1.5
        finally:
            sharded.close()


def _negate_first_block(state: dict[str, Any]) -> None:
    state["blocks"][0][1] = -state["blocks"][0][1]


def _replace_with(make_engine: Callable[[], Any]):
    """An edit swapping the key's engine for ``make_engine()`` holding one
    item at the store clock (5): a state that engine can reach, but an
    engine that is not the store's own."""

    def edit(state: dict[str, Any]) -> None:
        engine = make_engine()
        engine.add(5.0)
        engine.advance(5)
        state.clear()
        state.update(engine_to_dict(engine))

    return edit


def _shift_newest_span(state: dict[str, Any]) -> None:
    state["sealed"][-1][0] += 1_000
    state["sealed"][-1][1] += 1_000


def _widen_oldest_span(state: dict[str, Any]) -> None:
    """The two oldest spans of the fed key, [0, 1] and [2, 3] at level 1,
    as one span from tick 0, at a level and ``max_level`` that such a
    span allows: only the spans are wrong."""
    state["sealed"][:2] = [[0, 3, 10.0, 2]]
    state["max_level"] = 2


def _finite_support() -> TableDecay:
    """A WBMH decay with finite support: its lattice expires old nodes,
    so restore checks the spans without the fresh lattice's closed form."""
    return TableDecay([(1.0 + age) ** -0.25 for age in range(4_200)])


#: (decay, edit of one key's engine state): each is a state no write makes.
_ENGINE_PROBES: dict[
    str, tuple[Callable[[], Any], Callable[[dict[str, Any]], None]]
] = {
    "ewma-negative": (
        lambda: ExponentialDecay(0.05),
        lambda state: state.update(sum=-5.0),
    ),
    "ewma-inf": (
        lambda: ExponentialDecay(0.05),
        lambda state: state.update(sum=math.inf),
    ),
    "ewma-nan": (
        lambda: ExponentialDecay(0.05),
        lambda state: state.update(sum=math.nan),
    ),
    "fwd-negated-block": (
        lambda: ForwardDecay("exp", 0.05),
        _negate_first_block,
    ),
    # Writes bank at exponents -1074..0 into blocks 0 up to the clock's
    # (block 0 at the fed clock, 5); each edit below is refused before
    # any block is banked, so none sizes an allocation or a read.
    "fwd-block-exponent-above-zero": (
        lambda: ForwardDecay("exp", 0.05),
        lambda state: state.__setitem__("blocks", [[0, 1, 2000]]),
    ),
    "fwd-block-below-zero": (
        lambda: ForwardDecay("exp", 0.05),
        lambda state: state.__setitem__("blocks", [[-5, 1, -52]]),
    ),
    "fwd-block-past-the-clock": (
        lambda: ForwardDecay("exp", 0.05),
        lambda state: state.__setitem__("blocks", [[500, 1, -52]]),
    ),
    "eh-count-not-a-power-of-two": (
        lambda: SlidingWindowDecay(64),
        lambda state: state["buckets"][-1].__setitem__(2, 3),
    ),
    "eh-buckets-reversed": (
        lambda: SlidingWindowDecay(64),
        lambda state: state["buckets"].reverse(),
    ),
    "eh-inf-count": (
        lambda: SlidingWindowDecay(64),
        lambda state: state["buckets"][-1].__setitem__(2, math.inf),
    ),
    # The run structure of an unmerged EH (the fed key holds five
    # buckets of size 2, then m + 1 = 11 of size 1): each edit below
    # keeps counts powers of two, ends in order and levels at log2(count)
    # except where it breaks that one rule.
    "eh-size-grows-toward-newest": (
        lambda: SlidingWindowDecay(64),
        lambda state: state["buckets"].__setitem__(-1, [5, 5, 4, 2]),
    ),
    "eh-run-longer-than-m-plus-one": (
        lambda: SlidingWindowDecay(64),
        lambda state: state["buckets"].append([5, 5, 1, 0]),
    ),
    "eh-level-not-log2-count": (
        lambda: SlidingWindowDecay(64),
        lambda state: state["buckets"][-1].__setitem__(3, 1),
    ),
    "wbmh-nan-count": (
        lambda: PolynomialDecay(1.0),
        lambda state: state["sealed"][0].__setitem__(2, math.nan),
    ),
    "wbmh-inf-count": (
        lambda: PolynomialDecay(1.0),
        lambda state: state["sealed"][0].__setitem__(2, math.inf),
    ),
    # WBMH spans follow from the clock alone, and levels from the merges
    # below each node.  The fed key holds unit spans [0, 0] .. [4, 4] at
    # level 0 under polyd 1, and [0, 1], [2, 3] at level 1 then [4, 4]
    # under polyd 0.25 (and the finite-support table like it).
    "wbmh-span-in-the-future": (
        lambda: PolynomialDecay(1.0),
        _shift_newest_span,
    ),
    "wbmh-newest-node-duplicated": (
        lambda: PolynomialDecay(1.0),
        lambda state: state["sealed"].append(list(state["sealed"][-1])),
    ),
    "wbmh-oldest-span-widened-to-tick-0": (
        lambda: PolynomialDecay(0.25),
        _widen_oldest_span,
    ),
    "wbmh-level-above-max-level": (
        lambda: PolynomialDecay(1.0),
        lambda state: state["sealed"][0].__setitem__(3, 40),
    ),
    "wbmh-level-below-its-span": (
        lambda: PolynomialDecay(0.25),
        lambda state: state["sealed"][0].__setitem__(3, 0),
    ),
    "wbmh-finite-support-gap": (
        _finite_support,
        lambda state: state["sealed"].pop(1),
    ),
    "polyexp-negative-moment": (
        lambda: PolyexponentialDecay(2, 0.1),
        lambda state: state["moments"].__setitem__(0, -5.0),
    ),
    "polyexp-nan-moment": (
        lambda: PolyexponentialDecay(2, 0.1),
        lambda state: state["moments"].__setitem__(1, math.nan),
    ),
    "polyexp-inf-moment": (
        lambda: PolyexponentialDecay(2, 0.1),
        lambda state: state["moments"].__setitem__(2, math.inf),
    ),
    # Finite today, but M_2 would pass the float range nine ticks on.
    "polyexp-moment-overflows-later": (
        lambda: PolyexponentialDecay(2, 0.1),
        lambda state: state.__setitem__("moments", [1e307, 0.0, 0.0]),
    ),
    "foreign-exact-engine": (
        lambda: ExponentialDecay(0.05),
        _replace_with(lambda: ExactDecayingSum(PolynomialDecay(1.0))),
    ),
    "ceh-foreign-backend": (
        lambda: LinearDecay(80),
        _replace_with(
            lambda: CascadedEH(LinearDecay(80), 0.1, backend="domination")
        ),
    ),
}


def _on_engine(
    edit: Callable[[dict[str, Any]], None],
) -> Callable[[dict[str, Any]], None]:
    """An edit of one key's engine state as an edit of its snapshot
    record (``{"engine": ..., "last_seen": ...}``)."""
    return lambda record: edit(record["engine"])


#: (decay, edit of one key's snapshot record): each is a state no write
#: makes.  A key's last-seen tick is an integer in [0, the store clock]
#: (5 here): one in the future would sit ahead of every later key in the
#: TTL index and stop eviction for all of them.
PROBES: dict[str, tuple[Callable[[], Any], Callable[[dict[str, Any]], None]]] = {
    **{
        name: (decay, _on_engine(edit))
        for name, (decay, edit) in _ENGINE_PROBES.items()
    },
    "last-seen-in-the-future": (
        lambda: ExponentialDecay(0.05),
        lambda record: record.__setitem__("last_seen", 10**9),
    ),
    "last-seen-negative": (
        lambda: ExponentialDecay(0.05),
        lambda record: record.__setitem__("last_seen", -5),
    ),
}


def _feed(store) -> None:
    store.observe_batch(
        [KeyedItem(key, t, 1.0 + t) for t in range(6) for key in "ab"]
    )


def _snapshots(probe: str) -> tuple[Any, dict[str, Any], dict[str, Any]]:
    """The probe's decay, a good snapshot, and its edited twin."""
    make_decay, edit = PROBES[probe]
    store = ServiceStore(make_decay(), 0.1)
    _feed(store)
    good = store.to_dict()
    bad = copy.deepcopy(good)
    edit(bad["keys"]["a"])
    return make_decay(), good, bad


def _answers(store) -> dict[str, tuple[float, float, float]]:
    return {
        key: (e.value, e.lower, e.upper)
        for key in store.keys()
        for e in [store.query(key)]
    }


@pytest.mark.parametrize("probe", sorted(PROBES))
class TestRestoreRefusesUnreachableState:
    def test_from_dict_and_in_place_restore(self, probe: str) -> None:
        decay, good, bad = _snapshots(probe)
        with pytest.raises(InvalidParameterError):
            ServiceStore.from_dict(bad)
        store = ServiceStore.from_dict(good)
        with pytest.raises(InvalidParameterError):
            store.restore(bad)
        assert store.to_dict() == good

    def test_sharded_restore(self, probe: str) -> None:
        decay, good, bad = _snapshots(probe)
        front = ShardedServiceStore(decay, 0.1, workers=2)
        try:
            _feed(front)
            answers, stats = _answers(front), front.stats()
            with pytest.raises(InvalidParameterError):
                front.restore(bad)
            assert _answers(front) == answers
            assert front.stats() == stats
        finally:
            front.close()

    @pytest.mark.parametrize("workers", [None, 2], ids=["single", "sharded"])
    def test_post_restore_answers_400(self, probe: str, workers) -> None:
        decay, _, bad = _snapshots(probe)
        # Both fronts answer with the single store's own refusal.
        with pytest.raises(InvalidParameterError) as refusal:
            ServiceStore(decay, 0.1).restore(bad)

        async def main() -> None:
            harness = ServiceHarness(decay, workers=workers)
            await harness.start()
            try:
                host, port = harness.host, harness.port
                await http_request(
                    host, port, "POST", "/ingest",
                    {"items": [{"key": "a", "time": 1, "value": 2.0}]},
                )
                _, before = await http_request(host, port, "GET", "/snapshot")
                status, body = await http_request(
                    host, port, "POST", "/restore", bad
                )
                assert status == 400, body
                assert body == {"error": repr(refusal.value)}
                _, after = await http_request(host, port, "GET", "/snapshot")
                assert after == before
            finally:
                await harness.stop()

        asyncio.run(main())


@pytest.mark.parametrize("workers", [None, 2], ids=["single", "sharded"])
def test_overflowing_merge_is_refused_and_the_store_stays_restorable(
    workers,
) -> None:
    # A merge is a write path too: a register it would overflow is state
    # that check() refuses on restore, so the merge itself refuses it.
    decay = ExponentialDecay(0.05)
    store = (
        ServiceStore(decay, 0.1)
        if workers is None
        else ShardedServiceStore(decay, 0.1, workers=workers)
    )
    try:
        store.observe("a", 1e308)
        other = ServiceStore(decay, 0.1)
        other.observe("a", 1e308)
        with pytest.raises(InvalidParameterError, match="finite"):
            store.merge_into("a", other.export_engine("a"))
        assert store.query("a").value == 1e308
        assert ServiceStore.from_dict(other.to_dict()).query("a").value == 1e308
        snapshot = store.to_dict()
        if workers is None:
            assert ServiceStore.from_dict(snapshot).to_dict() == snapshot
        else:
            store.restore(snapshot)
            assert store.query("a").value == 1e308
    finally:
        store.close()


#: (decay, ttl, the tick j lands at, how many of the two writes of
#: 1.7e308 to k its engine refuses, what k then reads).  Each write is
#: finite; the two pass the float range together.  Without the refusals,
#: the WBMH pair overflowed a merge at the next seal (the daemon's
#: consumer died on the OverflowError), the EH pair made every read of k
#: and the TTL sweep raise, and the forward pair read inf, then NaN once
#: the rescale underflowed.
OVERFLOWING_WRITES = {
    # A WBMH weight above 2**-64 of the float range is refused outright.
    "wbmh": (PolynomialDecay(1.0), None, 500, 2, None),
    # The EH refuses the write that takes its bucket total past it.
    "eh": (SlidingWindowDecay(512), 50, 500, 1, 1.7e308),
    # Forward decay holds both: their sum passes DBL_MAX at tick 0 and
    # decays to a finite one later.
    "fwd": (ForwardDecay("exp", 0.05), 100, 40_000, 0, math.inf),
}


@pytest.mark.parametrize("family", sorted(OVERFLOWING_WRITES))
@pytest.mark.parametrize("workers", [None, 2], ids=["single", "sharded"])
def test_overflowing_writes_leave_the_daemon_folding(family, workers) -> None:
    decay, ttl, land, refused, k_reads = OVERFLOWING_WRITES[family]
    front = (
        ServiceStore(decay, 0.1, ttl=ttl)
        if workers is None
        else ShardedServiceStore(decay, 0.1, ttl=ttl, workers=workers)
    )

    async def main() -> None:
        daemon = IngestDaemon(front)
        await daemon.start()
        try:
            for _ in range(2):
                await daemon.submit(KeyedItem("k", 0, 1.7e308))
                await daemon.drain()
            assert front.keys() == ([] if k_reads is None else ["k"])
            if k_reads is not None:
                assert front.query("k").value == k_reads
            await daemon.submit(KeyedItem("j", land, 1.0))
            await daemon.drain()
            stats = daemon.stats()
            assert stats["running"]
            assert stats["fold_errors"] == refused
            assert front.time == land
            assert front.keys() == ["j"]
            assert front.query("j").value == 1.0
            # The TTL sweep at land read k and evicted it.
            assert front.stats()["evicted_keys"] == (0 if k_reads is None else 1)
        finally:
            await daemon.stop()

    try:
        asyncio.run(main())
        assert ServiceStore.from_dict(front.to_dict()).keys() == ["j"]
    finally:
        front.close()


def test_eh_refuses_the_write_past_the_float_range() -> None:
    # The histogram counterpart of the EXPD register's refusal
    # (tests/conformance/test_weight_validation.py): no write leaves a
    # bucket total that a read converts to inf.
    store = ServiceStore(SlidingWindowDecay(512), 0.1, ttl=50)
    store.observe("k", 1.7e308, when=0)
    with pytest.raises(InvalidParameterError, match="total finite"):
        store.observe("k", 1.7e308, when=0)
    assert store.query("k").value == 1.7e308
    store.observe("j", 1.0, when=100)  # the TTL sweep reads k
    assert store.stats()["evicted_weight"] == 1.7e308
    assert store.keys() == ["j"]


def test_forward_reads_inf_only_while_the_decayed_sum_passes_dbl_max() -> None:
    # Two near-DBL_MAX items at tick 0 make a scale block worth more than
    # DBL_MAX; the answer is inf only while the decayed sum is.
    store = ServiceStore(ForwardDecay("exp", 0.05), ttl=100)
    store.observe("k", 1.7e308, when=0)
    store.observe("k", 1.7e308, when=0)
    assert store.query("k").value == math.inf
    store.observe("j", 1.0, when=5)
    store.advance_to(20)
    assert store.query("k").value == pytest.approx(1.7e308 * math.exp(-1) * 2)
    # The TTL sweep at 40,000 reads both keys (k's rescale underflows to
    # 0.0), then j is written afresh.
    store.observe("j", 1.0, when=40_000)
    stats = store.stats()
    assert (stats["evicted_keys"], stats["evicted_weight"]) == (2, 0.0)
    assert stats["ingested_items"] == 4
    assert store.query("j").value == 1.0
