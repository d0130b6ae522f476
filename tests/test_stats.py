"""Samples, KS, correlation function, autocorrelation time, postselection."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from turbchan.errors import DomainError, EmptySelectionError
from turbchan.stats import (
    EmpiricalSample,
    PairSample,
    conditional_pdt,
    corr_fn,
    integrated_autocorr_time,
    ks_stat,
)


class TestEmpiricalSample:
    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            EmpiricalSample(np.array([]))

    @pytest.mark.parametrize("values", [np.array(0.5), np.full((2, 3), 0.5)],
                             ids=["0-d", "2-d"])
    def test_not_one_dimensional_rejected(self, values):
        # a 2-D array was once sorted row by row, and a 0-d one raised AxisError
        with pytest.raises(DomainError, match="1-D"):
            EmpiricalSample(values)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            EmpiricalSample(np.array([0.5, 1.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            EmpiricalSample([0.2, bad])


class TestKsStat:
    def test_self_model_quantile(self):
        # M samples from the tested model itself: D_M below the 99%
        # Kolmogorov quantile 1.63/sqrt(M)
        gen = np.random.default_rng(7)
        m = 10_000
        draws = gen.beta(2.0, 3.0, m)
        d = ks_stat(EmpiricalSample(draws), lambda e: sps.beta.cdf(e, 2.0, 3.0))
        assert d <= 1.63 / math.sqrt(m)

    def test_against_own_ecdf(self):
        vals = np.linspace(0.05, 0.95, 100)
        sample = EmpiricalSample(vals)
        d = ks_stat(sample, lambda e: np.searchsorted(vals, e, side="right") / vals.size)
        assert d <= 1.0 / vals.size + 1e-12

    def test_shifted_sample_detected(self):
        gen = np.random.default_rng(3)
        draws = np.clip(gen.beta(5.0, 5.0, 20_000) + 0.1, 0.0, 1.0)
        d = ks_stat(EmpiricalSample(draws), lambda e: sps.beta.cdf(e, 5.0, 5.0))
        assert d > 0.05

    def test_matches_scipy_kstest(self):
        gen = np.random.default_rng(11)
        draws = gen.uniform(0.0, 1.0, 500)
        ours = ks_stat(EmpiricalSample(draws), lambda e: np.clip(e, 0.0, 1.0))
        ref = sps.kstest(draws, "uniform").statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_probability_integral_transform_invariance(self):
        # strictly monotone relabeling of sample and model leaves D_M fixed
        gen = np.random.default_rng(5)
        draws = gen.beta(2.0, 2.0, 2000)
        d_raw = ks_stat(EmpiricalSample(draws), lambda e: sps.beta.cdf(e, 2.0, 2.0))
        transformed = sps.beta.cdf(draws, 2.0, 2.0)  # relabel by the CDF itself
        d_t = ks_stat(EmpiricalSample(transformed), lambda e: np.clip(e, 0.0, 1.0))
        assert d_raw == pytest.approx(d_t, abs=1e-12)

    def test_nan_model_cdf_raises(self):
        # a NaN CDF value once gave a NaN distance, with no error
        sample = EmpiricalSample(np.array([0.2, 0.5, 0.7]))
        with pytest.raises(DomainError, match="ks_stat: .*NaN"):
            ks_stat(sample, lambda e: np.where(e > 0.4, math.nan, e))


def make_series(n, rho=0.9, seed=1):
    gen = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = 0.5
    for i in range(1, n):
        x[i] = rho * x[i - 1] + (1 - rho) * 0.5 + 0.05 * gen.standard_normal()
    x = np.clip(x, 0.0, 1.0)
    t = np.arange(n) * 1e-3
    return np.column_stack([t, x])


class TestCorrFn:
    def test_lag_zero_is_one(self):
        series = make_series(2000)
        (tau0, g0), = corr_fn(series, [0.0])
        assert g0 == 1.0

    def test_bounded_by_one(self):
        series = make_series(5000)
        lags = [0.0, 1e-3, 5e-3, 20e-3, 100e-3]
        for tau, g in corr_fn(series, lags):
            assert abs(g) <= 1.0 + 1e-12

    def test_ar1_decay(self):
        series = make_series(50_000, rho=0.95)
        res = dict(corr_fn(series, [1e-3, 2e-3, 5e-3]))
        assert res[1e-3] == pytest.approx(0.95, abs=0.02)
        assert res[2e-3] == pytest.approx(0.95**2, abs=0.02)
        assert res[5e-3] == pytest.approx(0.95**5, abs=0.03)

    def test_permuted_series_whiteness(self):
        series = make_series(20_000)
        gen = np.random.default_rng(8)
        shuffled = series.copy()
        gen.shuffle(shuffled[:, 1])
        for tau, g in corr_fn(shuffled, [1e-3, 5e-3, 10e-3]):
            assert abs(g) <= 4.0 / math.sqrt(series.shape[0])

    def test_non_multiple_lag_rejected(self):
        with pytest.raises(DomainError):
            corr_fn(make_series(1000), [1.5e-3])

    def test_short_series_rejected(self):
        with pytest.raises(DomainError):
            corr_fn(make_series(50), [20e-3])

    def test_nonuniform_rejected(self):
        series = make_series(100)
        series[10, 0] += 1e-4
        with pytest.raises(DomainError):
            corr_fn(series, [0.0])

    def test_nan_rejected(self):
        series = make_series(100)
        series[10, 1] = math.nan
        with pytest.raises(DomainError):
            corr_fn(series, [1e-3])

    @pytest.mark.parametrize("times,lag,match", [
        # dt = 0 once ended in "cannot convert float NaN to integer"
        (np.zeros(100), 0.0, "times must be strictly increasing"),
        # decreasing times once read as "too short for lag index -1"
        (-np.arange(100) * 1e-3, 1e-3, "times must be strictly increasing"),
        (np.r_[0.0, np.arange(99) * 1e-3], 0.0, "times must be strictly increasing"),
        (np.arange(100) * 1e-3, math.nan, "lag nan must be finite and >= 0"),
        (np.arange(100) * 1e-3, math.inf, "lag inf must be finite and >= 0"),
        (np.arange(100) * 1e-3, -1e-3, "lag -0.001 must be finite and >= 0"),
    ], ids=["constant-times", "decreasing-times", "repeated-time", "nan-lag", "inf-lag",
            "negative-lag"])
    def test_bad_time_axis_or_lag_rejected(self, times, lag, match):
        series = make_series(100)
        series[:, 0] = times
        with pytest.raises(DomainError, match=f"^corr_fn: {match}"):
            corr_fn(series, [lag])


class TestAutocorrTime:
    def test_iid_is_one(self):
        gen = np.random.default_rng(4)
        tau = integrated_autocorr_time(gen.random(50_000))
        assert tau == pytest.approx(1.0, abs=0.1)

    def test_ar1_matches_theory(self):
        series = make_series(100_000, rho=0.9)
        tau = integrated_autocorr_time(series[:, 1])
        # AR(1): tau = (1+rho)/(1-rho) = 19
        assert tau == pytest.approx(19.0, rel=0.2)

    def test_nan_rejected(self):
        series = np.random.default_rng(4).random(100)
        series[10] = math.nan
        with pytest.raises(DomainError):
            integrated_autocorr_time(series)

    @pytest.mark.parametrize("shape", [(40, 3), (3, 40), ()])
    def test_series_must_be_one_dimensional(self, shape):
        # a (40, 3) array once returned 1.0: its lags sliced rows
        with pytest.raises(DomainError, match="1-D"):
            integrated_autocorr_time(np.random.default_rng(4).random(shape))


class TestConditionalPdt:
    def pairs(self):
        gen = np.random.default_rng(10)
        e1 = gen.beta(4.0, 2.0, 5000)
        e2 = np.clip(0.7 * e1 + 0.3 * gen.beta(4.0, 2.0, 5000), 0.0, 1.0)
        return PairSample(eta1=e1, eta2=e2, tau=5e-3)

    def test_no_selection_returns_marginal(self):
        p = self.pairs()
        sel = conditional_pdt(p, 0.0)
        assert np.array_equal(sel.values, np.sort(p.eta2))

    def test_empty_selection_raises(self):
        with pytest.raises(EmptySelectionError):
            conditional_pdt(self.pairs(), 1.0 + 1e-9)

    def test_positive_correlation_raises_mean(self):
        p = self.pairs()
        sel = conditional_pdt(p, 0.8)
        assert np.mean(sel.values) >= np.mean(p.eta2)

    def test_count_matches_threshold(self):
        p = self.pairs()
        sel = conditional_pdt(p, 0.6)
        assert sel.values.size == int(np.sum(p.eta1 >= 0.6))


class TestPairSample:
    def test_nan_pair_rejected(self):
        # two_time_hist once dropped such a pair without a word
        with pytest.raises(DomainError):
            PairSample(np.array([0.5, math.nan]), np.array([0.5, 0.5]), 0.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0])
    def test_bad_lag_rejected(self, tau):
        # such a lag was once stored as given
        with pytest.raises(DomainError, match="PairSample: tau=.* must be finite and >= 0"):
            PairSample(np.array([0.5]), np.array([0.5]), tau)
