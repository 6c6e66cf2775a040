"""Every engine cell refuses a NaN or negative weight on every write path.

A NaN that slips into an engine poisons every later answer: some cells
then raise on ``query``, and the polyexponential register answers 0.0.
So ``add`` and ``add_batch`` raise
:class:`~repro.core.errors.InvalidParameterError` on every
``default_specs()`` cell, and the engine keeps answering finite values.
"""

from __future__ import annotations

import math

import pytest

from repro.conformance.engines import default_specs
from repro.core.errors import InvalidParameterError

SPECS = default_specs()


@pytest.mark.parametrize("bad", [math.nan, -1.0], ids=["nan", "negative"])
@pytest.mark.parametrize("write", ["add", "add_batch"])
@pytest.mark.parametrize("name", sorted(SPECS), ids=str)
def test_bad_weight_is_refused(name: str, write: str, bad: float) -> None:
    engine = SPECS[name].build()
    engine.add(1.0)
    engine.advance(2)
    with pytest.raises(InvalidParameterError):
        if write == "add":
            engine.add(bad)
        else:
            engine.add_batch([1.0, bad])
    engine.advance(1)
    estimate = engine.query()
    assert all(
        math.isfinite(x)
        for x in (estimate.value, estimate.lower, estimate.upper)
    )
