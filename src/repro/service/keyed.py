"""The keyed-engine seam: a store's per-key engines, advanced as one.

A :class:`~repro.service.store.ServiceStore` keeps one decaying sum per
key on a shared clock.  How it holds them is this module's business,
behind one small protocol (:class:`KeyedEngines`) that the store advances
once per tick:

* :class:`LatticeKeys` -- WBMH keys.  Bucket boundaries never depend on
  the stream (paper section 5), so every key's histogram has the same
  lattice: the keys are count columns of one shared
  :class:`~repro.histograms.wbmh.Lattice`, which seals, merges and
  expires once per tick for all of them.  A key whose levels would
  diverge from it (a ``merge`` of overlapping counts, or a restored
  snapshot key that does not match the lattice a fresh key has at the
  store clock) moves to a private lattice and is advanced on its own.
* :class:`PerKeyEngines` -- every other engine family, and every store
  built on a custom ``engine_factory`` (whose engines are opaque): one
  engine per key, each advanced.

:func:`keyed_engines` picks between them from the engine the decay
routes to; nothing else chooses.  Both refuse a restored engine that is
not the store's own kind (:func:`_shape`).
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

from repro.core.decay import DecayFunction
from repro.core.errors import InvalidParameterError
from repro.core.interfaces import DecayingSum, make_decaying_sum
from repro.histograms.wbmh import WBMH
from repro.serialize import decay_to_dict

__all__ = ["KeyedEngines", "LatticeKeys", "PerKeyEngines", "keyed_engines"]


def _shape(engine: DecayingSum) -> dict[str, Any]:
    """What a restored engine must share with the store's own: class,
    decay, epsilon and, for a CEH, backend and estimator (where the
    engine has them; exact register engines have no epsilon)."""
    shape = {
        "engine": type(engine).__name__,
        "decay": decay_to_dict(engine.decay),
        "epsilon": getattr(engine, "epsilon", None),
        "backend": getattr(engine, "backend", None),
        "estimator": getattr(engine, "estimator", None),
    }
    return {name: value for name, value in shape.items() if value is not None}


def _require_shape(own: dict[str, Any], key: str, engine: DecayingSum) -> None:
    if _shape(engine) != own:
        raise InvalidParameterError(
            f"snapshot engine for {key!r} is {_shape(engine)}, not the "
            f"store's {own}"
        )


class KeyedEngines(Protocol):
    """What a keyed store needs from the engines it holds."""

    #: Key -> engine, in key creation order.  The store reads it directly
    #: and deletes evicted keys from it (then calls :meth:`release`).
    engines: dict[str, DecayingSum]

    @property
    def native_out_of_order(self) -> bool:
        """Whether the engines take late items through ``add_at``."""

    @property
    def integer_weights(self) -> bool:
        """Whether the engines take only non-negative integer weights."""

    def new(self) -> DecayingSum:
        """A fresh engine at the seam clock, not yet kept under a key."""

    def keep(self, key: str, engine: DecayingSum) -> None:
        """Store the fresh engine :meth:`new` gave under ``key``."""

    def restore(self, key: str, engine: DecayingSum) -> None:
        """Store a snapshot's ``engine``; refuse one that is not the
        store's own kind with ``InvalidParameterError``."""

    def release(self, engine: DecayingSum) -> None:
        """An engine leaves the store: evicted, or refused its first write."""

    def merge(self, engine: DecayingSum, other: DecayingSum) -> None:
        """Fold ``other`` into ``engine`` (clocks already aligned)."""

    def advance(self, steps: int) -> None:
        """Advance every engine by ``steps`` ticks."""


class PerKeyEngines:
    """One opaque engine per key; every advance visits each of them."""

    def __init__(
        self,
        factory: Callable[[], DecayingSum],
        first: DecayingSum | None = None,
    ) -> None:
        self.engines: dict[str, DecayingSum] = {}
        self._factory = factory
        #: The first engine is built up front to learn whether the family
        #: takes late items and what weights it takes; it becomes the
        #: first key's engine.
        self._spare: DecayingSum | None = factory() if first is None else first
        self._native = bool(
            getattr(self._spare, "supports_out_of_order", False)
        )
        self._integer = bool(getattr(self._spare, "integer_weights", False))
        self._time = 0
        #: Set on the first restore: a custom factory's decay need not
        #: be serializable, and only a snapshot needs it.
        self._own: dict[str, Any] | None = None

    @property
    def native_out_of_order(self) -> bool:
        return self._native

    @property
    def integer_weights(self) -> bool:
        return self._integer

    def new(self) -> DecayingSum:
        engine = self._spare
        if engine is None:
            engine = self._factory()
        else:
            self._spare = None
        if self._time:
            engine.advance(self._time)
        return engine

    def keep(self, key: str, engine: DecayingSum) -> None:
        self.engines[key] = engine

    def restore(self, key: str, engine: DecayingSum) -> None:
        if self._own is None:
            self._own = _shape(self._factory())
        _require_shape(self._own, key, engine)
        self.engines[key] = engine

    def release(self, engine: DecayingSum) -> None:
        pass

    def merge(self, engine: DecayingSum, other: DecayingSum) -> None:
        engine.merge(other)

    def advance(self, steps: int) -> None:
        self._time += steps
        for engine in self.engines.values():
            engine.advance(steps)


class LatticeKeys:
    """WBMH keys as count columns of one shared lattice.

    Built from a fresh WBMH, whose lattice becomes the shared one.  Keys
    on a private lattice (diverged by a merge, or restored off the shared
    lattice) are tracked in ``_private`` and advanced one by one.
    """

    def __init__(self, engine: WBMH) -> None:
        self.engines: dict[str, DecayingSum] = {}
        self._own = _shape(engine)
        self._lattice = engine.lattice
        self._lattice.release(engine)
        self._lattice.shared = True
        self._private: dict[DecayingSum, None] = {}

    @property
    def native_out_of_order(self) -> bool:
        return False

    @property
    def integer_weights(self) -> bool:
        return False

    def new(self) -> WBMH:
        return self._lattice.member()

    def keep(self, key: str, engine: DecayingSum) -> None:
        """Store a fresh engine: a lattice column, or private already if
        its first write was a diverging merge."""
        self.engines[key] = engine

    def restore(self, key: str, engine: DecayingSum) -> None:
        """Store a restored WBMH; it joins the shared lattice when it is
        the lattice a fresh key would have at this clock."""
        _require_shape(self._own, key, engine)
        assert isinstance(engine, WBMH)
        if not self._lattice.adopt(engine):
            self._private[engine] = None
        self.engines[key] = engine

    def release(self, engine: DecayingSum) -> None:
        if engine in self._private:
            del self._private[engine]
        else:
            assert isinstance(engine, WBMH)
            self._lattice.release(engine)

    def merge(self, engine: DecayingSum, other: DecayingSum) -> None:
        engine.merge(other)
        if isinstance(engine, WBMH) and engine.lattice is not self._lattice:
            self._private[engine] = None  # copied on write: now private

    def advance(self, steps: int) -> None:
        self._lattice.advance(steps)
        for engine in self._private:
            engine.advance(steps)


def keyed_engines(
    decay: DecayFunction,
    epsilon: float,
    engine_factory: Callable[[], DecayingSum] | None = None,
) -> KeyedEngines:
    """The seam for a store over ``decay``: a shared lattice when
    :func:`~repro.core.interfaces.make_decaying_sum` routes the decay to
    WBMH, one engine per key otherwise or under a custom factory."""
    if engine_factory is not None:
        return PerKeyEngines(engine_factory)
    engine = make_decaying_sum(decay, epsilon)
    if isinstance(engine, WBMH):
        return LatticeKeys(engine)
    return PerKeyEngines(lambda: make_decaying_sum(decay, epsilon), engine)
