"""Distribution fitting and summary statistics for the evaluation harness.

The paper characterizes the YOLOv3 detector with two families of
distributions (Fig. 5):

* continuous misdetection burst lengths -> shifted exponential
  ``Exp(loc=1, lambda)``;
* normalized bounding-box centre errors -> Gaussian ``Normal(mu, sigma)``.

This module provides the fitting routines used to regenerate those panels,
plus boxplot summaries used for Fig. 6 / Fig. 7 style results.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

__all__ = [
    "ExponentialFit",
    "NormalFit",
    "BoxplotStats",
    "fit_exponential",
    "fit_normal",
    "boxplot_stats",
    "percentile",
]


@dataclass(frozen=True)
class ExponentialFit:
    """Maximum-likelihood fit of a shifted exponential distribution.

    The density is ``lambda * exp(-lambda * (x - loc))`` for ``x >= loc``.
    """

    loc: float
    rate: float
    n_samples: int

    @property
    def mean(self) -> float:
        """Mean of the fitted distribution."""
        return self.loc + 1.0 / self.rate

    def percentile(self, q: float) -> float:
        """Return the ``q``-th percentile (``q`` in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        p = q / 100.0
        return self.loc - np.log(1.0 - p) / self.rate

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the fitted density at ``x``."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        mask = x >= self.loc
        out[mask] = self.rate * np.exp(-self.rate * (x[mask] - self.loc))
        return out


@dataclass(frozen=True)
class NormalFit:
    """Moment fit of a univariate Gaussian."""

    mu: float
    sigma: float
    n_samples: int

    def percentile(self, q: float) -> float:
        """Return the ``q``-th percentile (``q`` in [0, 100]): ``-inf`` at 0
        and ``inf`` at 100."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if q == 0.0:
            return float("-inf")
        if q == 100.0:
            return float("inf")
        return NormalDist(self.mu, self.sigma).inv_cdf(q / 100.0)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the fitted density at ``x``."""
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * np.sqrt(2.0 * np.pi))


@dataclass(frozen=True)
class BoxplotStats:
    """The five-number summary used to report Fig. 6 / Fig. 7 distributions."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    n_samples: int


def fit_exponential(samples: Sequence[float], loc: float | None = None) -> ExponentialFit:
    """Fit a shifted exponential distribution to ``samples``.

    When ``loc`` is ``None`` the minimum of the samples is used as the shift,
    matching the ``loc=1`` convention of the paper (burst lengths are >= 1
    frame).
    """
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ValueError("cannot fit an exponential distribution to zero samples")
    if loc is None:
        loc = float(data.min())
    excess = data - loc
    if np.any(excess < -1e-9):
        raise ValueError("samples fall below the provided loc")
    mean_excess = float(np.mean(np.maximum(excess, 0.0)))
    if mean_excess <= 0.0:
        # Degenerate data (all samples equal to loc); use a very high rate.
        rate = 1e6
    else:
        rate = 1.0 / mean_excess
    return ExponentialFit(loc=float(loc), rate=float(rate), n_samples=int(data.size))


def fit_normal(samples: Sequence[float]) -> NormalFit:
    """Fit a Gaussian to ``samples`` by the method of moments."""
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ValueError("cannot fit a normal distribution to zero samples")
    mu = float(np.mean(data))
    sigma = float(np.std(data))
    if sigma <= 0.0:
        sigma = 1e-9
    return NormalFit(mu=mu, sigma=sigma, n_samples=int(data.size))


def boxplot_stats(samples: Sequence[float]) -> BoxplotStats:
    """Compute the five-number summary (plus mean) of ``samples``."""
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarize zero samples")
    q1, median, q3 = np.percentile(data, [25.0, 50.0, 75.0])
    return BoxplotStats(
        minimum=float(data.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=float(data.max()),
        mean=float(data.mean()),
        n_samples=int(data.size),
    )


def percentile(samples: Sequence[float], q: float) -> float:
    """Empirical percentile of ``samples`` (``q`` in [0, 100])."""
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ValueError("cannot compute percentile of zero samples")
    return float(np.percentile(data, q))
