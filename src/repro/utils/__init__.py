"""General utilities shared by the simulation, perception, and attack code.

The utilities are deliberately small and dependency-free: distribution
fitting and summary statistics used by the evaluation harness
(:mod:`repro.utils.stats`), and unit conversion helpers
(:mod:`repro.utils.units`).
"""

from repro.utils.stats import (
    BoxplotStats,
    ExponentialFit,
    NormalFit,
    boxplot_stats,
    fit_exponential,
    fit_normal,
    percentile,
)
from repro.utils.units import kph_to_mps, mps_to_kph

__all__ = [
    "BoxplotStats",
    "ExponentialFit",
    "NormalFit",
    "boxplot_stats",
    "fit_exponential",
    "fit_normal",
    "percentile",
    "kph_to_mps",
    "mps_to_kph",
]
