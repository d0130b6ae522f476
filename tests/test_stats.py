"""ECDF, KS, histogram/KDE, correlation function, postselection."""

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
    ecdf,
    histogram,
    integrated_autocorr_time,
    kde,
    ks_stat,
    silverman_bandwidth,
    two_time_hist,
)


class TestEcdf:
    def test_step_values(self):
        f = ecdf(EmpiricalSample(np.array([0.2, 0.4])))
        assert f(0.1) == 0.0
        assert f(0.3) == 0.5
        assert f(0.4) == 1.0
        assert f(0.9) == 1.0

    def test_right_continuity(self):
        f = ecdf(EmpiricalSample(np.array([0.5])))
        assert f(0.5) == 1.0
        assert f(0.5 - 1e-12) == 0.0

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
        d = ks_stat(sample, ecdf(sample))
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


class TestHistogramKde:
    def test_histogram_unit_integral(self):
        gen = np.random.default_rng(0)
        sample = EmpiricalSample(gen.random(5000))
        dens, edges = histogram(sample, 40)
        assert float(np.sum(dens * np.diff(edges))) == pytest.approx(1.0, abs=1e-12)

    def test_histogram_needs_bins(self):
        with pytest.raises(DomainError):
            histogram(EmpiricalSample(np.array([0.5])), 1)

    def test_kde_matches_beta22(self):
        gen = np.random.default_rng(42)
        draws = gen.beta(2.0, 2.0, 100_000)
        sample = EmpiricalSample(draws)
        h = silverman_bandwidth(sample)
        f = kde(sample)  # Silverman default
        # interior sup; inside the boundary layer reflection carries an
        # O(f'(0) h) bias that is bounded separately
        es = np.linspace(2 * h, 1.0 - 2 * h, 201)
        sup = np.max(np.abs(f(es) - sps.beta.pdf(es, 2.0, 2.0)))
        assert sup <= 0.05
        edge = np.linspace(0.0, 1.0, 401)
        bias_bound = 6.0 * h * math.sqrt(2.0 / math.pi)  # f'(0) = 6 for Beta(2,2)
        assert np.max(np.abs(f(edge) - sps.beta.pdf(edge, 2.0, 2.0))) <= bias_bound + 0.05

    def test_kde_reflection_conserves_mass(self):
        # heavy mass near 0 leaks without reflection
        gen = np.random.default_rng(9)
        draws = np.abs(gen.normal(0.0, 0.03, 20_000))
        draws = draws[draws <= 1.0]
        f = kde(EmpiricalSample(draws), bandwidth=0.02)
        es = np.linspace(0.0, 1.0, 4001)
        integral = np.trapezoid(f(es), es)
        assert integral == pytest.approx(1.0, abs=1e-4)

    @staticmethod
    def all_reflections(v, h, x):
        """The KDE with every sample reflected about both edges."""
        out = sum(np.exp(-0.5 * ((x[:, None] - c[None, :]) / h) ** 2).sum(axis=1)
                  for c in (v, -v, 2.0 - v))
        return out / (v.size * h * math.sqrt(2.0 * math.pi))

    def test_kde_matches_all_reflections(self):
        sample = EmpiricalSample(np.random.default_rng(42).beta(2.0, 2.0, 20_000))
        h = silverman_bandwidth(sample)
        x = np.linspace(0.0, 1.0, 201)
        want = self.all_reflections(sample.values, h, x)
        np.testing.assert_allclose(kde(sample)(x), want, rtol=1e-13, atol=0.0)

    def test_kde_windows_match_all_samples(self):
        # the samples of test_kde_reflection_conserves_mass, at shuffled
        # points where the density is above 0.1, so that the kernels left
        # out (each below exp(-37) of its peak) stay below rel 1e-14;
        # points outside [0, 1] get 0
        gen = np.random.default_rng(9)
        draws = np.abs(gen.normal(0.0, 0.03, 20_000))
        sample = EmpiricalSample(draws[draws <= 1.0])
        h = 0.02
        x = gen.permutation(np.linspace(0.0, 0.12, 201))
        want = self.all_reflections(sample.values, h, x)
        np.testing.assert_allclose(kde(sample, bandwidth=h)(x), want, rtol=1e-13, atol=0.0)
        assert np.all(kde(sample, bandwidth=h)(np.array([-0.1, 1.5])) == 0.0)

    def test_kde_far_reflections_below_bound(self):
        # no sample within 8.6 h of an edge: nothing is reflected, and no
        # kernel reaches an edge; the density there is 0, where the
        # all-samples sum is about 1e-50
        sample = EmpiricalSample(np.random.default_rng(4).uniform(0.3, 0.7, 5000))
        h = 0.02
        x = np.linspace(0.0, 1.0, 201)
        want = self.all_reflections(sample.values, h, x)
        got = kde(sample, bandwidth=h)(x)
        diff = want - got
        # the all-samples sum over the kernels centred farther than 8.6 h
        # from each point, which kde leaves out
        v = sample.values
        dropped = sum(
            np.where(np.abs(x[:, None] - c[None, :]) > math.sqrt(74.0) * h,
                     np.exp(-0.5 * ((x[:, None] - c[None, :]) / h) ** 2), 0.0).sum(axis=1)
            for c in (v, -v, 2.0 - v)) / (v.size * h * math.sqrt(2.0 * math.pi))
        # where they show in that sum, kde adds nothing: it is below the sum
        shown = dropped > 1e-14 * want
        assert shown[0] and shown[-1] and got[0] == got[-1] == 0.0
        assert np.all(diff[shown] >= 0.0)
        # elsewhere the two sums differ only in the order of their terms
        np.testing.assert_allclose(got[~shown], want[~shown], rtol=1e-13, atol=0.0)
        assert diff.max() < 2.0 * math.exp(-37.0) / (h * math.sqrt(2.0 * math.pi))

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_kde_rejects_non_finite_bandwidth(self, h):
        # NaN gave a NaN density, inf a density of 0
        with pytest.raises(DomainError):
            kde(EmpiricalSample(np.array([0.2, 0.5, 0.7])), bandwidth=h)

    def test_silverman_positive(self):
        gen = np.random.default_rng(2)
        assert silverman_bandwidth(EmpiricalSample(gen.random(100))) > 0.0


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
        assert sel.count == int(np.sum(p.eta1 >= 0.6))


class TestTwoTimeHist:
    def test_marginal_consistency(self):
        p = TestConditionalPdt().pairs()
        bins = 25
        h, edges = two_time_hist(p, bins)
        w = 1.0 / bins
        marg1 = h.sum(axis=1) * w
        ref1, _ = np.histogram(p.eta1, bins=bins, range=(0.0, 1.0), density=True)
        assert np.allclose(marg1, ref1, atol=1e-12)

    def test_perfect_correlation_on_diagonal(self):
        gen = np.random.default_rng(1)
        e = gen.random(2000)
        h, _ = two_time_hist(PairSample(e, e, 0.0), 20)
        off_diag = h - np.diag(np.diag(h))
        assert np.all(off_diag == 0.0)

    def test_independent_pairs_low_mutual_information(self):
        gen = np.random.default_rng(12)
        n, bins = 40_000, 10
        p = PairSample(gen.random(n), gen.random(n), 1.0)
        h, _ = two_time_hist(p, bins)
        pj = h / (bins * bins) / (h.sum() / (bins * bins))
        pj = h / h.sum()
        px = pj.sum(axis=1, keepdims=True)
        py = pj.sum(axis=0, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            mi = np.nansum(pj * np.log(pj / (px * py)))
        # plug-in MI bias is ~ (bins-1)^2 / (2 n)
        assert mi <= 3.0 * (bins - 1) ** 2 / (2.0 * n) + 0.01

    def test_bins_validated(self):
        with pytest.raises(DomainError):
            two_time_hist(PairSample(np.array([0.5]), np.array([0.5]), 0.0), 1)

    def test_nan_pair_rejected(self):
        # two_time_hist once dropped such a pair without a word
        with pytest.raises(DomainError):
            PairSample(np.array([0.5, math.nan]), np.array([0.5, 0.5]), 0.0)
