"""Histogram engines (paper sections 4 and 5).

The Exponential Histogram substrate, its domination-based generalization to
real values, the cascaded construction for arbitrary decay (Theorem 1), and
the weight-based merging histogram (Lemma 5.1).
"""

from repro.histograms.boundaries import RegionSchedule
from repro.histograms.buckets import Bucket
from repro.histograms.ceh import CascadedEH
from repro.histograms.domination import DominationHistogram
from repro.histograms.eh import ExponentialHistogram, SlidingWindowSum
from repro.histograms.matias import ApproxBoundaryCEH, GeometricAgeRegister
from repro.histograms.wbmh import WBMH

__all__ = [
    "Bucket",
    "ExponentialHistogram",
    "SlidingWindowSum",
    "DominationHistogram",
    "CascadedEH",
    "ApproxBoundaryCEH",
    "GeometricAgeRegister",
    "RegionSchedule",
    "WBMH",
]
