"""Every engine cell refuses a NaN, infinite or negative weight on every
write path.

A NaN or an infinity that slips into an engine poisons every later
answer: some cells then raise on ``query``, others answer ``inf`` or NaN
brackets, and the polyexponential register answers 0.0.  So ``add``,
``add_batch`` and ``ingest`` raise
:class:`~repro.core.errors.InvalidParameterError` on every
``default_specs()`` cell and on the engines outside it (the exact
reference, the domination histogram, also behind ``CascadedEH``, and the
quantized EXPD register), and the engine keeps answering finite values.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

import pytest

from repro.conformance.engines import default_specs
from repro.core.decay import ExponentialDecay, PolynomialDecay
from repro.core.errors import InvalidParameterError
from repro.core.ewma import QuantizedExponentialSum
from repro.core.exact import ExactDecayingSum
from repro.histograms.ceh import CascadedEH
from repro.histograms.domination import DominationHistogram

SPECS = default_specs()
FACTORIES = {name: spec.build for name, spec in SPECS.items()}
FACTORIES.update(
    {
        "exact": lambda: ExactDecayingSum(PolynomialDecay(1.0)),
        "domination": lambda: DominationHistogram(16, 0.1),
        "ceh-domination": lambda: CascadedEH(
            PolynomialDecay(1.0), 0.1, backend="domination"
        ),
        "quantized-expd": lambda: QuantizedExponentialSum(
            ExponentialDecay(0.05), 20
        ),
    }
)

#: A bare trace item: ``StreamItem`` refuses non-finite weights itself.
Item = namedtuple("Item", "time value")

BAD = [math.nan, math.inf, -1.0]
BAD_IDS = ["nan", "inf", "negative"]


def _triplet(engine) -> tuple[float, float, float]:
    estimate = engine.query()
    return (estimate.value, estimate.lower, estimate.upper)


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("write", ["add", "add_batch", "ingest"])
@pytest.mark.parametrize("name", sorted(FACTORIES), ids=str)
def test_bad_weight_is_refused(name: str, write: str, bad: float) -> None:
    engine = FACTORIES[name]()
    engine.add(1.0)
    engine.advance(2)
    with pytest.raises(InvalidParameterError):
        if write == "add":
            engine.add(bad)
        elif write == "add_batch":
            engine.add_batch([1.0, bad])
        else:
            engine.ingest([Item(3, 1.0), Item(3, bad)])
    engine.advance(1)
    assert all(math.isfinite(x) for x in _triplet(engine))


@pytest.mark.parametrize("name", ["expd", "polyexppoly"])
def test_register_refuses_weights_that_overflow_it(name: str) -> None:
    # Every weight is finite; the register's sum would not be (for the
    # polyexponential pipeline, on some later tick: its moments grow to
    # about 110 times a weight before they decay, and it keeps weights up
    # to about 1e305).
    engine = SPECS[name].build()
    engine.add(1e300)
    before = _triplet(engine)
    with pytest.raises(InvalidParameterError):
        engine.add(sys.float_info.max)
    with pytest.raises(InvalidParameterError):
        engine.add_batch([1.0, sys.float_info.max])
    assert _triplet(engine) == before


#: A weight each histogram holds, and the one it then refuses with it.
HISTOGRAM_FIRST = {
    "sliwin": 2**1023,
    "linear-ceh": 2**1023,
    "domination": 1e308,
    "ceh-domination": 1e308,
    "polyd-wbmh": 1e288,
}


@pytest.mark.parametrize("name", sorted(HISTOGRAM_FIRST))
def test_histogram_refuses_weights_that_overflow_it(name: str) -> None:
    # The histograms' counterpart of the register's refusal: an EH or
    # domination histogram refuses a write or merge that takes its bucket
    # total past the float range, which every read converts to a float,
    # and a WBMH any weight above 2**-64 of it, so a column needs about
    # 2**64 such writes before a merge's quantizer could see inf.
    engine = FACTORIES[name]()
    engine.add(HISTOGRAM_FIRST[name])
    before = _triplet(engine)
    big = sys.float_info.max
    with pytest.raises(InvalidParameterError):
        engine.add(big)
    with pytest.raises(InvalidParameterError):
        engine.add_batch([1.0, big])
    with pytest.raises(InvalidParameterError):
        engine.ingest([Item(0, big)])
    if name != "polyd-wbmh":
        other = FACTORIES[name]()
        other.add(HISTOGRAM_FIRST[name])
        with pytest.raises(InvalidParameterError):
            engine.merge(other)
    assert _triplet(engine) == before
