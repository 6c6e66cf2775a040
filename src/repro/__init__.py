"""repro -- time-decaying stream aggregates.

A complete implementation of Cohen & Strauss, *Maintaining Time-Decaying
Stream Aggregates* (PODS 2003): decaying sums and averages under arbitrary
decay functions with the paper's storage-optimal engines (EWMA, Exponential
Histograms, cascaded EH, weight-based merging histograms), plus the
section 7 aggregates (decayed L_p norms, random selection and quantiles,
variance), the lower-bound constructions as executable experiments, and the
section 1.1 applications (RED, ATM holding times, gateway selection).

Quickstart
----------
>>> from repro import PolynomialDecay, make_decaying_sum
>>> s = make_decaying_sum(PolynomialDecay(alpha=1.0), epsilon=0.05)
>>> for _ in range(1000):
...     s.add(1.0)
...     s.advance(1)
>>> est = s.query()
>>> est.lower <= est.value <= est.upper
True
"""

from repro.core import (
    BrownSmoother,
    DecayFunction,
    DecayFunctionError,
    DecayingAverage,
    DecayingSum,
    EmptyAggregateError,
    Estimate,
    EwmaRegister,
    ExactDecayingSum,
    ExactForwardSum,
    ExponentialDecay,
    ExponentialSum,
    ForwardDecay,
    ForwardDecayAverage,
    ForwardDecaySum,
    GaussianDecay,
    InvalidParameterError,
    LinearDecay,
    LogarithmicDecay,
    NoDecay,
    NotApplicableError,
    OutOfOrderPolicy,
    PolyexpPipeline,
    PolyexponentialDecay,
    GeneralPolyexpSum,
    PolyExpPolynomialDecay,
    PolyexponentialSum,
    PolynomialDecay,
    QuantizedExponentialSum,
    ReproError,
    SlidingWindowDecay,
    TableDecay,
    TimeOrderError,
    make_decaying_sum,
)
from repro.counters import LevelQuantizer, MorrisCounter, truncate_mantissa
from repro.histograms import (
    ApproxBoundaryCEH,
    Bucket,
    CascadedEH,
    DominationHistogram,
    ExponentialHistogram,
    GeometricAgeRegister,
    RegionSchedule,
    SlidingWindowSum,
    WBMH,
)
from repro.analysis import Crossover, can_cross, find_crossover, verdict_matrix
from repro.serialize import (
    decay_from_dict,
    decay_to_dict,
    engine_from_dict,
    engine_to_dict,
)
from repro.sampling import UnbiasedWindowCount
from repro.storage import StorageReport

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # decay functions
    "DecayFunction",
    "ExponentialDecay",
    "SlidingWindowDecay",
    "PolynomialDecay",
    "PolyexponentialDecay",
    "PolyExpPolynomialDecay",
    "LinearDecay",
    "LogarithmicDecay",
    "GaussianDecay",
    "TableDecay",
    "NoDecay",
    # engines
    "DecayingSum",
    "make_decaying_sum",
    "ExactDecayingSum",
    "ExponentialSum",
    "QuantizedExponentialSum",
    "EwmaRegister",
    "PolyexpPipeline",
    "PolyexponentialSum",
    "GeneralPolyexpSum",
    "DecayingAverage",
    "ForwardDecay",
    "ForwardDecaySum",
    "ForwardDecayAverage",
    "ExactForwardSum",
    "OutOfOrderPolicy",
    "ExponentialHistogram",
    "SlidingWindowSum",
    "DominationHistogram",
    "CascadedEH",
    "ApproxBoundaryCEH",
    "GeometricAgeRegister",
    "RegionSchedule",
    "WBMH",
    "Bucket",
    "BrownSmoother",
    "UnbiasedWindowCount",
    "engine_to_dict",
    "engine_from_dict",
    "decay_to_dict",
    "decay_from_dict",
    "find_crossover",
    "Crossover",
    "verdict_matrix",
    "can_cross",
    # counters & storage
    "MorrisCounter",
    "LevelQuantizer",
    "truncate_mantissa",
    "StorageReport",
    # values & errors
    "Estimate",
    "ReproError",
    "InvalidParameterError",
    "DecayFunctionError",
    "NotApplicableError",
    "TimeOrderError",
    "EmptyAggregateError",
]
