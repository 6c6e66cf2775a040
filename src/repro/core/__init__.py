"""Core problem statements and engines (paper sections 2 and 3).

Decay functions, the decaying-sum protocol and factory, the exact reference
engine, the EWMA family for exponential and polyexponential decay, the
forward-decay family (order-insensitive, Cormode et al. 2009), the
out-of-order ingestion policy and its admission stage, and the decaying
average.
"""

from repro.core.average import DecayingAverage
from repro.core.decay import (
    DecayFunction,
    PolyExpPolynomialDecay,
    ExponentialDecay,
    GaussianDecay,
    LinearDecay,
    LogarithmicDecay,
    NoDecay,
    PolyexponentialDecay,
    PolynomialDecay,
    SlidingWindowDecay,
    TableDecay,
)
from repro.core.errors import (
    DecayFunctionError,
    EmptyAggregateError,
    InvalidParameterError,
    NotApplicableError,
    ReproError,
    TimeOrderError,
)
from repro.core.estimate import Estimate
from repro.core.forecasting import BrownSmoother
from repro.core.ewma import (
    EwmaRegister,
    GeneralPolyexpSum,
    ExponentialSum,
    PolyexponentialSum,
    PolyexpPipeline,
    QuantizedExponentialSum,
)
from repro.core.exact import ExactDecayingSum
from repro.core.forward import (
    ExactForwardSum,
    ForwardDecay,
    ForwardDecayAverage,
    ForwardDecaySum,
)
from repro.core.interfaces import DecayingSum, make_decaying_sum
from repro.core.timeorder import Admission, OutOfOrderPolicy

__all__ = [
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
    "Estimate",
    "DecayingSum",
    "make_decaying_sum",
    "ExactDecayingSum",
    "ExponentialSum",
    "QuantizedExponentialSum",
    "EwmaRegister",
    "BrownSmoother",
    "PolyexpPipeline",
    "PolyexponentialSum",
    "GeneralPolyexpSum",
    "DecayingAverage",
    "ForwardDecay",
    "ForwardDecaySum",
    "ForwardDecayAverage",
    "ExactForwardSum",
    "OutOfOrderPolicy",
    "Admission",
    "ReproError",
    "InvalidParameterError",
    "DecayFunctionError",
    "NotApplicableError",
    "TimeOrderError",
    "EmptyAggregateError",
]
