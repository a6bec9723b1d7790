"""Tests for distribution fitting and summary statistics."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.stats import (
    NormalFit,
    boxplot_stats,
    fit_exponential,
    fit_normal,
    percentile,
)


class TestFitExponential:
    def test_recovers_rate_of_synthetic_data(self):
        rng = np.random.default_rng(0)
        samples = 1.0 + rng.exponential(scale=2.0, size=20_000)
        fit = fit_exponential(samples, loc=1.0)
        assert fit.loc == 1.0
        assert fit.rate == pytest.approx(0.5, rel=0.05)

    def test_mean_matches_loc_plus_inverse_rate(self):
        fit = fit_exponential([1.0, 2.0, 3.0, 4.0], loc=1.0)
        assert fit.mean == pytest.approx(1.0 + 1.0 / fit.rate)

    def test_loc_defaults_to_minimum(self):
        fit = fit_exponential([2.0, 3.0, 5.0])
        assert fit.loc == 2.0

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential([])

    def test_samples_below_loc_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential([0.5, 2.0], loc=1.0)

    def test_percentile_monotone(self):
        fit = fit_exponential([1, 2, 3, 4, 8], loc=1.0)
        assert fit.percentile(99) > fit.percentile(50)

    def test_percentile_out_of_range_rejected(self):
        fit = fit_exponential([1, 2, 3], loc=1.0)
        with pytest.raises(ValueError):
            fit.percentile(101)

    def test_pdf_zero_below_loc(self):
        fit = fit_exponential([1, 2, 3], loc=1.0)
        assert fit.pdf(np.array([0.0]))[0] == 0.0

    def test_degenerate_samples_handled(self):
        fit = fit_exponential([1.0, 1.0, 1.0], loc=1.0)
        assert fit.rate > 0


class TestFitNormal:
    def test_recovers_moments(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(0.2, 0.5, size=20_000)
        fit = fit_normal(samples)
        assert fit.mu == pytest.approx(0.2, abs=0.02)
        assert fit.sigma == pytest.approx(0.5, rel=0.05)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_normal([])

    def test_constant_samples_give_positive_sigma(self):
        fit = fit_normal([1.0, 1.0, 1.0])
        assert fit.sigma > 0

    def test_pdf_peaks_at_mean(self):
        fit = fit_normal([0.0, 1.0, 2.0])
        xs = np.array([fit.mu - 1.0, fit.mu, fit.mu + 1.0])
        densities = fit.pdf(xs)
        assert densities[1] == max(densities)

    def test_percentile_median_is_mu(self):
        fit = fit_normal([0.0, 2.0, 4.0, 6.0])
        assert fit.percentile(50) == pytest.approx(fit.mu, abs=1e-9)

    def test_percentile_needs_only_the_declared_dependencies(self, monkeypatch):
        """The package declares only NumPy, so the percentile must not import
        scipy: here scipy cannot be imported."""
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.stats", None)
        fit = NormalFit(mu=1.0, sigma=2.0, n_samples=10)
        assert fit.percentile(50) == 1.0
        # The standard normal's 97.5th and 2.5th percentiles are +-1.959963984540054.
        assert fit.percentile(97.5) == pytest.approx(1.0 + 2.0 * 1.959963984540054, rel=1e-12)
        assert fit.percentile(2.5) == pytest.approx(1.0 - 2.0 * 1.959963984540054, rel=1e-12)
        assert fit.percentile(0) == float("-inf")
        assert fit.percentile(100) == float("inf")


class TestBoxplotStats:
    def test_five_number_summary_ordering(self):
        stats = boxplot_stats([5.0, 1.0, 3.0, 2.0, 4.0])
        assert stats.minimum <= stats.q1 <= stats.median <= stats.q3 <= stats.maximum

    def test_median_of_known_data(self):
        assert boxplot_stats([1, 2, 3, 4, 5]).median == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            boxplot_stats([])

    def test_n_samples_recorded(self):
        assert boxplot_stats([1.0, 2.0]).n_samples == 2

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_summary_bounds_hold_for_arbitrary_data(self, values):
        stats = boxplot_stats(values)
        assert stats.minimum == pytest.approx(min(values))
        assert stats.maximum == pytest.approx(max(values))
        assert stats.minimum <= stats.median <= stats.maximum


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_extremes(self):
        data = [1, 2, 3]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 3.0
