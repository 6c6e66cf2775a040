"""A store's WBMH keys share one bucket lattice: bit-identical to per-key engines.

WBMH bucket boundaries never depend on the stream (paper section 5), so a
:class:`~repro.service.store.ServiceStore` keeps its WBMH keys as count
columns of one shared :class:`~repro.histograms.wbmh.Lattice`.  The oracle
here is the naive layout it replaces: one standalone WBMH per key (what
:func:`~repro.core.interfaces.make_decaying_sum` builds), created at the
store clock, advanced in lock-step and TTL-swept in last-seen order.
Every comparison is exact: query bits, the engine snapshot (types
included), ``export_engine``, the per-key storage report and the eviction
ledger.

The cases are the ones the sharing could get wrong: keys created at
random ticks, eviction and re-creation under key churn, merges that make
a key's levels diverge (the key moves to a private lattice), a refused
first write, restores of snapshots holding diverged keys, and head
buckets expiring under a finite-support decay.  The lattice work itself
is gated by exact counts: one store does the seals and merges of one
engine, whatever its key count, and writes into their rows only the
non-zero cells its keys' standalone engines write.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.decay import DecayFunction, PolynomialDecay, TableDecay
from repro.core.errors import InvalidParameterError
from repro.core.estimate import Estimate
from repro.core.interfaces import make_decaying_sum
from repro.histograms.wbmh import WBMH, Lattice
from repro.serialize import engine_from_dict, engine_to_dict
from repro.service.store import EvictionLedger, ServiceStore
from repro.streams.io import KeyedItem

_EPSILON = 0.1


def _bits(estimate: Estimate) -> tuple[str, str, str]:
    return (
        estimate.value.hex(),
        estimate.lower.hex(),
        estimate.upper.hex(),
    )


def _clone(engine: WBMH) -> WBMH:
    return engine_from_dict(engine_to_dict(engine))


def _lattice(store: ServiceStore) -> Lattice:
    """The store's shared lattice."""
    return store._keyed._lattice  # type: ignore[attr-defined]


def _columns_in_use(lattice: Lattice) -> int:
    return len(lattice._live) - len(lattice._free)


class PerKeyEngines:
    """The oracle: one standalone WBMH per key, lock-step, TTL-swept."""

    def __init__(self, decay: DecayFunction, ttl: int | None = None) -> None:
        self.decay = decay
        self.ttl = ttl
        self.time = 0
        self.engines: dict[str, WBMH] = {}
        #: In TTL order: a key's first write at a new tick moves it last.
        self.last_seen: dict[str, int] = {}
        self.eviction = EvictionLedger()

    def advance_to(self, when: int) -> None:
        steps = when - self.time
        if steps <= 0:
            return
        self.time = when
        for engine in self.engines.values():
            engine.advance(steps)
        if self.ttl is not None:
            due = [
                key
                for key, last in self.last_seen.items()
                if last + self.ttl <= self.time
            ]
            for key in due:
                del self.last_seen[key]
                self.eviction.note(self.engines.pop(key).query().value)

    def engine(self, key: str) -> WBMH:
        engine = self.engines.get(key)
        if engine is None:
            engine = make_decaying_sum(self.decay, _EPSILON)
            assert isinstance(engine, WBMH)
            if self.time:
                engine.advance(self.time)
            self.engines[key] = engine
        return engine

    def touch(self, key: str) -> None:
        if self.last_seen.get(key) != self.time:
            self.last_seen.pop(key, None)
            self.last_seen[key] = self.time

    def observe(self, item: KeyedItem) -> None:
        self.advance_to(item.time)
        self.engine(item.key).add(item.value)
        self.touch(item.key)

    def merge(self, key: str, other: WBMH) -> None:
        self.engine(key).merge(other)
        self.touch(key)

    def assert_matches(self, store: ServiceStore) -> None:
        assert store.time == self.time
        assert store.keys() == sorted(self.engines)
        assert store.eviction.evicted_keys == self.eviction.evicted_keys
        assert (
            store.eviction.evicted_weight.hex()
            == self.eviction.evicted_weight.hex()
        )
        snapshot = store.to_dict()["keys"]
        assert list(snapshot) == list(self.last_seen)
        for key, engine in self.engines.items():
            expected = json.dumps(engine_to_dict(engine))
            assert _bits(store.query(key)) == _bits(engine.query()), key
            assert json.dumps(engine_to_dict(store.engine(key))) == expected
            assert json.dumps(snapshot[key]["engine"]) == expected
            assert json.dumps(
                engine_to_dict(store.export_engine(key))
            ) == json.dumps(engine_to_dict(_clone(engine)))
            assert store.key_storage_report(key) == engine.storage_report()


def _events(
    rng: random.Random, keys: list[str], n: int, start: int = 0
) -> list[KeyedItem]:
    """``n`` time-sorted items over ``keys`` with gaps of 0-3 ticks."""
    when = start
    items = []
    for _ in range(n):
        when += rng.choice((0, 0, 1, 1, 2, 3))
        items.append(KeyedItem(rng.choice(keys), when, rng.randint(1, 4)))
    return items


def _drive(
    store: ServiceStore,
    oracle: PerKeyEngines,
    items: list[KeyedItem],
    chunk: int,
    check_every: int = 1,
) -> None:
    for n, lo in enumerate(range(0, len(items), chunk)):
        batch = items[lo : lo + chunk]
        store.observe_batch(batch)
        for item in batch:
            oracle.observe(item)
        if n % check_every == 0:
            oracle.assert_matches(store)
    oracle.assert_matches(store)


class TestLatticeWorkGate:
    """Exact counts inside the lattice, not timings."""

    @staticmethod
    def _count(monkeypatch: pytest.MonkeyPatch) -> dict[str, int]:
        counts = {"seals": 0, "merges": 0}
        seal, merge = Lattice._seal, Lattice._merge_nodes

        def counting_seal(self: Lattice) -> None:
            counts["seals"] += 1
            seal(self)

        def counting_merge(self: Lattice, left):  # type: ignore[no-untyped-def]
            counts["merges"] += 1
            return merge(self, left)

        monkeypatch.setattr(Lattice, "_seal", counting_seal)
        monkeypatch.setattr(Lattice, "_merge_nodes", counting_merge)
        return counts

    def test_one_store_does_one_engines_seals_and_merges(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        counts = self._count(monkeypatch)
        rng = random.Random(3)
        ticks = sorted(rng.sample(range(1, 6_000), 2_500))
        values = [rng.randint(1, 4) for _ in ticks]

        standalone = WBMH(PolynomialDecay(1.0), _EPSILON)
        for when, value in zip(ticks, values):
            standalone.advance_to(when)
            standalone.add(value)
        expected = dict(counts)
        assert expected["seals"] == ticks[-1] // standalone.seal_width
        assert expected["merges"] > 1_000

        for n_keys in (1, 64, 1_024):
            counts.update(seals=0, merges=0)
            store = ServiceStore(PolynomialDecay(1.0), _EPSILON)
            # Every key writes at the first ticks, then one random key per
            # tick: the same ticks for every key count.
            items = [
                KeyedItem(f"k{i % n_keys}", when, value)
                for i, (when, value) in enumerate(zip(ticks, values))
            ]
            for lo in range(0, len(items), 500):
                store.observe_batch(items[lo : lo + 500])
            assert len(store) == min(n_keys, len(items))
            assert counts == expected, n_keys

    @staticmethod
    def _count_cells(monkeypatch: pytest.MonkeyPatch) -> dict[str, int]:
        """Count the cells each seal and merge writes into its new row."""
        counts = {"cells": 0}
        seal, merge = Lattice._seal, Lattice._merge_nodes

        def counting_seal(self: Lattice) -> None:
            seal(self)
            assert self._tail is not None
            counts["cells"] += len(self._tail.row)

        def counting_merge(self: Lattice, left):  # type: ignore[no-untyped-def]
            node = merge(self, left)
            counts["cells"] += len(node.row)
            return node

        monkeypatch.setattr(Lattice, "_seal", counting_seal)
        monkeypatch.setattr(Lattice, "_merge_nodes", counting_merge)
        return counts

    def test_a_store_builds_only_its_keys_non_zero_cells(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # Rows are sparse: a seal or a merge on the shared lattice writes
        # the cells of the keys that hold a count there, so the store
        # builds exactly the non-zero cells its keys' standalone engines
        # build over the same trace, not nodes x keys.
        counts = self._count_cells(monkeypatch)
        rng = random.Random(9)
        n_keys, end = 1_024, 300
        keys = [f"k{i % n_keys}" for i in range(3_000)]
        rng.shuffle(keys)
        ticks = sorted(rng.choices(range(1, end - 40), k=len(keys)))
        items = [
            KeyedItem(key, when, rng.randint(1, 4))
            for key, when in zip(keys, ticks)
        ]
        store = ServiceStore(PolynomialDecay(1.0), _EPSILON)
        for lo in range(0, len(items), 500):
            store.observe_batch(items[lo : lo + 500])
        store.advance_to(end)
        assert len(store) == n_keys
        shared = counts["cells"]

        counts["cells"] = 0
        by_key: dict[str, list[KeyedItem]] = {}
        for item in items:
            by_key.setdefault(item.key, []).append(item)
        for writes in by_key.values():
            standalone = WBMH(PolynomialDecay(1.0), _EPSILON)
            for item in writes:
                standalone.advance_to(item.time)
                standalone.add(item.value)
            standalone.advance_to(end)
        assert shared == counts["cells"]
        # Under a tenth of what a full-width row per node would hold.
        assert 0 < shared < end * n_keys // 10


class TestSharedLatticeMatchesPerKeyEngines:
    def test_keys_created_at_random_ticks(self) -> None:
        rng = random.Random(11)
        keys = [f"k{i}" for i in range(24)]
        # Key i first writes after tick 60 * i, so keys join a lattice
        # that is already hundreds of ticks old.
        items = []
        when = 0
        for _ in range(3_000):
            when += rng.choice((0, 1, 1, 2))
            live = keys[: 1 + min(len(keys) - 1, when // 60)]
            items.append(KeyedItem(rng.choice(live), when, rng.randint(1, 4)))
        store = ServiceStore(PolynomialDecay(1.0), _EPSILON)
        oracle = PerKeyEngines(PolynomialDecay(1.0))
        _drive(store, oracle, items, chunk=97, check_every=5)
        assert len(store) == len(keys)
        lattice = _lattice(store)
        assert _columns_in_use(lattice) == len(keys)
        assert all(
            store.engine(key).lattice is lattice for key in store.keys()
        )

    @pytest.mark.parametrize(
        "decay_name, jump",
        [("polyd", 1), ("polyd", 3_000), ("polyd", 40_000), ("table", 9_000)],
    )
    def test_clock_jump_with_no_key_on_the_lattice(
        self, decay_name: str, jump: int
    ) -> None:
        # With no key on it, a long jump rebuilds the shared lattice as a
        # fresh one in closed form where that applies (infinite support),
        # and replays it otherwise.  Keys made afterwards must match
        # engines that replayed every tick from 0.
        decay: DecayFunction = (
            PolynomialDecay(1.0)
            if decay_name == "polyd"
            else TableDecay([1.0 / (1 + age) for age in range(4_200)])
        )
        rng = random.Random(jump)
        store = ServiceStore(decay, _EPSILON, ttl=30)
        oracle = PerKeyEngines(decay, ttl=30)
        first = _events(rng, ["a", "b"], 200)
        _drive(store, oracle, first, chunk=50)
        for front in (store, oracle):
            front.advance_to(first[-1].time + 40)
        assert len(store) == 0 and _columns_in_use(_lattice(store)) == 0
        later = _events(rng, ["a", "c", "d"], 1_200, start=oracle.time + jump)
        _drive(store, oracle, later, chunk=100, check_every=4)

    def test_eviction_and_re_creation_under_key_churn(self) -> None:
        rng = random.Random(5)
        keys = [f"k{i}" for i in range(12)]
        items = _events(rng, keys, 1_200)
        store = ServiceStore(PolynomialDecay(1.0), _EPSILON, ttl=9)
        oracle = PerKeyEngines(PolynomialDecay(1.0), ttl=9)
        lattice = _lattice(store)
        ticks: dict[int, list[KeyedItem]] = {}
        for item in items:
            ticks.setdefault(item.time, []).append(item)
        peak = 0
        created = 0
        # One batch per tick: eviction runs as the clock moves and new keys
        # come after it, so the key count after a tick is that tick's peak.
        for n, batch in enumerate(ticks.values()):
            before = set(store.keys())
            store.observe_batch(batch)
            for item in batch:
                oracle.observe(item)
            created += len({item.key for item in batch} - before)
            peak = max(peak, len(store))
            if n % 100 == 0:
                oracle.assert_matches(store)
            # Column storage follows the live keys, not the keys ever made.
            assert _columns_in_use(lattice) == len(store)
            assert len(lattice._live) <= peak
        store.advance_to(items[-1].time + 20)
        oracle.advance_to(items[-1].time + 20)
        oracle.assert_matches(store)
        assert store.eviction.evicted_keys > 2 * len(keys)
        assert created > 2 * len(keys)
        assert _columns_in_use(lattice) == len(store) == 0
        node = lattice._head
        while node is not None:
            assert not node.row
            node = node.next

    def test_diverging_merge_before_and_after_a_checkpoint(self) -> None:
        rng = random.Random(21)
        keys = ["a", "b", "c", "d", "e"]
        items = _events(rng, keys, 2_400)
        store = ServiceStore(PolynomialDecay(1.0), _EPSILON)
        oracle = PerKeyEngines(PolynomialDecay(1.0))
        _drive(store, oracle, items[:800], chunk=64, check_every=4)
        shared = _lattice(store)

        # "a" and "b" both hold counts in most buckets: levels go up, so
        # "a" copies on write to a private lattice.
        store.merge_into("a", store.export_engine("b"))
        oracle.merge("a", _clone(oracle.engines["b"]))
        assert store.engine("a").lattice is not shared
        # A merge into a new key adds counts to zero cells: no level
        # moves, so the key stays on the shared lattice.
        store.merge_into("z", store.export_engine("c"))
        oracle.merge("z", _clone(oracle.engines["c"]))
        assert store.engine("z").lattice is shared
        oracle.assert_matches(store)
        _drive(store, oracle, items[800:1_600], chunk=64, check_every=4)

        revived = ServiceStore.from_dict(json.loads(json.dumps(store.to_dict())))
        assert revived.engine("a").lattice is not _lattice(revived)
        assert revived.engine("z").lattice is _lattice(revived)
        revived.merge_into("c", revived.export_engine("d"))
        store.merge_into("c", store.export_engine("d"))
        oracle.merge("c", _clone(oracle.engines["d"]))
        assert revived.engine("c").lattice is not _lattice(revived)
        for front in (store, revived):
            front.observe_batch(items[1_600:])
        for item in items[1_600:]:
            oracle.observe(item)
        oracle.assert_matches(store)
        oracle.assert_matches(revived)
        assert revived.to_dict() == store.to_dict()

    def test_refused_first_write_leaves_no_key_and_no_column(self) -> None:
        store = ServiceStore(PolynomialDecay(1.0), _EPSILON, ttl=50)
        store.observe_batch(_events(random.Random(2), ["a", "b"], 300))
        lattice = _lattice(store)
        before = (store.keys(), store.stats(), _columns_in_use(lattice))
        other_decay = make_decaying_sum(PolynomialDecay(2.0), _EPSILON)
        other_ratio = WBMH(PolynomialDecay(1.0), 0.3)
        for other in (other_decay, other_ratio):
            with pytest.raises(InvalidParameterError):
                store.merge_into("bad", other)
            assert "bad" not in store
            assert (store.keys(), store.stats(), _columns_in_use(lattice)) == before
        # The released column is the next key's, and reads zero.
        slots = len(lattice._live)
        store.observe("c", 2.0)
        assert len(lattice._live) == slots
        fresh = WBMH(PolynomialDecay(1.0), _EPSILON)
        fresh.advance(store.time)
        fresh.add(2.0)
        assert _bits(store.query("c")) == _bits(fresh.query())

    @pytest.mark.parametrize("in_place", [False, True])
    def test_restore_of_a_snapshot_holding_diverged_keys(
        self, in_place: bool
    ) -> None:
        rng = random.Random(34)
        keys = [f"k{i}" for i in range(8)]
        items = _events(rng, keys, 2_000)
        store = ServiceStore(PolynomialDecay(1.0), _EPSILON, ttl=40)
        oracle = PerKeyEngines(PolynomialDecay(1.0), ttl=40)
        _drive(store, oracle, items[:1_000], chunk=100)
        for key, donor in (("k0", "k1"), ("k2", "k3")):
            store.merge_into(key, store.export_engine(donor))
            oracle.merge(key, _clone(oracle.engines[donor]))
        snapshot = json.loads(json.dumps(store.to_dict()))
        if in_place:
            revived = ServiceStore(PolynomialDecay(3.0), 0.3)
            revived.restore(snapshot)
        else:
            revived = ServiceStore.from_dict(snapshot)
        lattice = _lattice(revived)
        private = {
            key
            for key in revived.keys()
            if revived.engine(key).lattice is not lattice
        }
        assert private == {"k0", "k2"}
        assert _columns_in_use(lattice) == len(revived) - 2
        oracle.assert_matches(revived)
        for front in (store, revived):
            front.observe_batch(items[1_000:])
        for item in items[1_000:]:
            oracle.observe(item)
        oracle.assert_matches(store)
        oracle.assert_matches(revived)
        # TTL eviction reaches the private keys too.
        for front in (store, revived):
            front.advance_to(items[-1].time + 100)
        oracle.advance_to(items[-1].time + 100)
        oracle.assert_matches(revived)
        assert revived.keys() == []
        assert revived.stats() == store.stats()

    def test_finite_support_decay_expires_head_buckets(self) -> None:
        # Ratio-nonincreasing up to the routing check's horizon (4096),
        # zero from age 4200: make_decaying_sum routes it to WBMH, and
        # head buckets expire once they are older than the support.
        decay = TableDecay([1.0 / (1 + age) for age in range(4_200)])
        assert decay.support() == 4_199
        assert isinstance(make_decaying_sum(decay, _EPSILON), WBMH)
        rng = random.Random(9)
        items = _events(rng, ["a", "b", "c"], 3_000)
        late = _events(rng, ["b", "d"], 600, start=items[-1].time + 3_000)
        store = ServiceStore(decay, _EPSILON, ttl=5_000)
        oracle = PerKeyEngines(decay, ttl=5_000)
        _drive(store, oracle, items, chunk=250)
        _drive(store, oracle, late, chunk=100)
        lattice = _lattice(store)
        assert lattice._head is not None and lattice._head.start > 0
        store.advance_to(late[-1].time + 4_300)
        oracle.advance_to(late[-1].time + 4_300)
        oracle.assert_matches(store)
        assert store.eviction.evicted_keys == 2  # "a" and "c"
