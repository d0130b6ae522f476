"""Model families: constructors, densities, moment matching, degeneracies."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy import stats as sps

from turbchan import pdt
from turbchan.errors import DomainError, SolverError
from turbchan.numerics import RngStream, adaptive_quad
from turbchan.propagation import SampleRecord, ensemble_summary


def equal_spot_records(n, S, jitter=0.0, seed=0):
    """n records of one circular spot S, as a cn2 = 0 ensemble gives them;
    ``jitter`` spreads the spot sizes by that much relative."""
    sizes = S * (1.0 + jitter * np.random.default_rng(seed).uniform(-1.0, 1.0, n))
    return [SampleRecord(eta=0.5, x0=0.0, y0=0.0, sxx=float(s), syy=float(s), sxy=0.0,
                         realization_index=i) for i, s in enumerate(sizes)]


def offset_aperture_eta(r0, S, a, nodes=96):
    """Brute-force transmittance of a Gaussian beam offset by r0.

    Radial reduction of the disc integral:
    eta(r0) = int_0^a (4 r / S) exp(-2 (r^2 + r0^2)/S) I0(4 r r0 / S) dr,
    evaluated with Gauss-Legendre and the scaled Bessel form.
    """
    from scipy.special import i0e

    x, w = np.polynomial.legendre.leggauss(nodes)
    r = 0.5 * a * (x + 1.0)
    wr = 0.5 * a * w
    r0 = np.atleast_1d(np.asarray(r0, dtype=float))[:, None]
    integrand = (4.0 * r / S) * i0e(4.0 * r * r0 / S) * np.exp(
        -2.0 * (r - r0) ** 2 / S
    )
    return integrand @ wr


class TestMomentPair:
    def test_valid(self):
        m = pdt.MomentPair(0.5, 0.3)
        assert m.variance == pytest.approx(0.05)

    @pytest.mark.parametrize("m1,m2", [(0.5, 0.6), (0.5, 0.2), (0.0, 0.0), (1.2, 1.0)])
    def test_invalid_rejected(self, m1, m2):
        with pytest.raises(DomainError):
            pdt.MomentPair(m1, m2)

    @given(st.floats(0.01, 0.99), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_constructors_reject_outside_envelope(self, m1, frac):
        # m2 inside (m1^2, m1) is accepted; outside must raise
        lo, hi = m1 * m1, m1
        m2_bad_hi = hi + 0.05 + frac * 0.1
        if m2_bad_hi <= 1.5:
            with pytest.raises(DomainError):
                pdt.MomentPair(m1, m2_bad_hi)
        m2_good = lo + (hi - lo) * (0.1 + 0.8 * frac)
        pdt.MomentPair(m1, m2_good)

    def test_empty_sample_raises(self):
        # numpy's mean of an empty slice once warned and gave NaN
        with pytest.raises(DomainError, match="empty sample"):
            pdt.MomentPair.from_samples([])


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("build", [
    lambda: pdt.TruncLogNormal(_NAN, 0.2),
    lambda: pdt.TruncLogNormal(_INF, 0.2),
    lambda: pdt.TruncLogNormal(-_INF, 0.2),
    lambda: pdt.BetaPdt(_INF, 2.0),
    lambda: pdt.BetaPdt(2.0, _NAN),
    lambda: pdt.BeamWander(1e-4, _INF, 0.02),
    lambda: pdt.BeamWander(_NAN, 4e-4, 0.02),
    lambda: pdt.CircularBeam(1e-4, _NAN, 0.1, 0.02),
    lambda: pdt.CircularBeam(1e-4, -7.8, _NAN, 0.02),
    lambda: pdt.CircularBeam(1e-4, -7.8, _INF, 0.02),
    lambda: pdt.EllipticBeam(1e-4, _NAN, np.eye(2) * 0.01, 0.02),
    lambda: pdt.EllipticBeam(1e-4, -7.8, np.full((2, 2), _INF), 0.02),
    lambda: pdt.MomentPair(0.5, _NAN),
    lambda: pdt.totalprob_model("lognormal", _INF, 4e-4, pdt.MomentPair(0.5, 0.28), 0.02),
    lambda: pdt.totalprob_model("beta", 1e-4, _NAN, pdt.MomentPair(0.5, 0.28), 0.02),
], ids=["tln-mu-nan", "tln-mu-inf", "tln-mu-neg-inf", "beta-a-inf", "beta-b-nan",
        "bw-S-inf", "bw-sigma-nan", "circular-mu-nan", "circular-sigma_S2-nan",
        "circular-sigma_S2-inf", "elliptic-mu-nan", "elliptic-Sigma-inf",
        "moments-m2-nan", "totalprob-sigma-inf", "totalprob-mean_S-nan"])
def test_non_finite_parameters_rejected(build):
    with pytest.raises(DomainError):
        build()


class TestTruncLogNormal:
    def test_parameter_map_example(self):
        m = pdt.MomentPair(0.5, 0.3)
        tln = pdt.lognormal_from_moments(m)
        assert tln.sigma2 == pytest.approx(math.log(0.3 / 0.25), rel=1e-12)
        assert tln.mu == pytest.approx(-math.log(0.25 / math.sqrt(0.3)), rel=1e-12)
        assert tln.sigma2 == pytest.approx(0.1823215568, rel=1e-8)
        assert tln.mu == pytest.approx(0.7843079590, rel=1e-8)

    def test_density_normalized(self):
        tln = pdt.lognormal_from_moments(pdt.MomentPair(0.5, 0.3))
        total = adaptive_quad(lambda e: pdt.model_density(tln, e), 0.0, 1.0, 1e-9)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_moments_reproduced_when_tail_negligible(self):
        # mean far below 1: truncation bias is negligible
        m = pdt.MomentPair(0.05, 0.05**2 * 1.2)
        tln = pdt.lognormal_from_moments(m)
        got = pdt.model_moments(tln)
        assert got.m1 == pytest.approx(m.m1, rel=1e-3)
        assert got.m2 == pytest.approx(m.m2, rel=1e-3)

    def test_degenerate_raises(self):
        with pytest.raises(DomainError):
            pdt.lognormal_from_moments(pdt.MomentPair(0.5, 0.25))


class TestBetaPdt:
    def test_example_is_beta22(self):
        b = pdt.beta_from_moments(pdt.MomentPair(0.5, 0.3))
        assert b.a == pytest.approx(2.0, rel=1e-12)
        assert b.b == pytest.approx(2.0, rel=1e-12)

    def test_round_trip_exact(self):
        m = pdt.MomentPair(0.37, 0.37**2 + 0.04)
        b = pdt.beta_from_moments(m)
        got = pdt.model_moments(b)
        assert got.m1 == pytest.approx(m.m1, abs=1e-8)
        assert got.m2 == pytest.approx(m.m2, abs=1e-8)

    def test_impossible_moaccording_rejected(self):
        with pytest.raises(DomainError):
            pdt.MomentPair(0.5, 0.6)  # m2 > m1 impossible on [0, 1]

    def test_density_matches_scipy(self):
        b = pdt.beta_from_moments(pdt.MomentPair(0.6, 0.4))
        es = np.linspace(0.01, 0.99, 23)
        assert np.allclose(pdt.model_density(b, es), sps.beta.pdf(es, b.a, b.b),
                           rtol=1e-10)

    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, m1, t):
        m2 = m1 * m1 + (m1 - m1 * m1) * (0.05 + 0.9 * t)
        m = pdt.MomentPair(m1, m2)
        b = pdt.beta_from_moments(m)
        assert b.a > 0 and b.b > 0
        mean = b.a / (b.a + b.b)
        second = mean * (b.a + 1.0) / (b.a + b.b + 1.0)
        assert mean == pytest.approx(m1, rel=1e-9)
        assert second == pytest.approx(m2, rel=1e-9)


CDF_ETAS = [0.0, 1e-300, 0.3, 1.0, 2.0]
LOGNORMALS = [pdt.lognormal_from_moments(pdt.MomentPair(0.5, 0.3)),
              pdt.TruncLogNormal(mu=0.1, sigma2=4.0),
              pdt.TruncLogNormal(mu=-1.5, sigma2=0.5),
              pdt.TruncLogNormal(mu=2.0, sigma2=1e4)]  # CDF 5.6e-12 at eta = 1e-300
BETAS = [pdt.beta_from_moments(pdt.MomentPair(0.5, 0.28)), pdt.BetaPdt(2.0, 2.0),
         pdt.BetaPdt(0.3, 5.0), pdt.BetaPdt(40.0, 0.7)]


class TestClosedFormCdf:
    @pytest.mark.parametrize("tln", LOGNORMALS, ids=repr)
    def test_lognormal_against_scipy(self, tln):
        ref = sps.lognorm(s=math.sqrt(tln.sigma2), scale=math.exp(-tln.mu))
        for eta in CDF_ETAS:
            want = ref.cdf(min(eta, 1.0)) / ref.cdf(1.0)
            assert pdt.model_cdf(tln, eta) == pytest.approx(want, rel=1e-12, abs=0.0), eta
        es = np.array([1e-3, 0.3, 0.9, 1.0])
        assert pdt.model_density(tln, es) == pytest.approx(ref.pdf(es) / ref.cdf(1.0),
                                                           rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta", BETAS, ids=repr)
    def test_beta_against_scipy(self, beta):
        for eta in CDF_ETAS:
            want = sps.beta.cdf(eta, beta.a, beta.b)
            assert pdt.model_cdf(beta, eta) == pytest.approx(want, rel=1e-12, abs=0.0), eta

    @pytest.mark.parametrize("model", LOGNORMALS + BETAS, ids=repr)
    def test_cdf_at_one_is_exactly_one(self, model):
        # the quadrature CDF gave 0.9999999999938768 for Beta(11/3, 11/3)
        assert pdt.model_cdf(model, 1.0) == 1.0
        assert np.all(pdt.model_cdf(model, np.array([1.0, 1.5, math.inf])) == 1.0)

    def test_far_truncated_lognormal_against_mpmath(self):
        # F1 = Phi(-60) = 1e-785 underflows: its density once warned and its
        # CDF came back NaN
        tln = pdt.TruncLogNormal(mu=-60.0, sigma2=1.0)
        es = np.array([0.2, 0.5, 0.9, 0.99, 0.999])
        with mpmath.workdps(40):
            norm = mpmath.ncdf(-60)
            cdf = [float(mpmath.ncdf(mpmath.log(e) - 60) / norm) for e in es]
            dens = [float(mpmath.npdf(mpmath.log(e) - 60) / (norm * e)) for e in es]
        assert pdt.model_cdf(tln, es) == pytest.approx(cdf, rel=1e-11, abs=0.0)
        assert pdt.model_density(tln, es) == pytest.approx(dens, rel=1e-11, abs=0.0)
        assert pdt.model_cdf(tln, 1.0) == 1.0


@pytest.mark.parametrize("model", [
    pdt.lognormal_from_moments(pdt.MomentPair(0.5, 0.28)),
    pdt.beta_from_moments(pdt.MomentPair(0.5, 0.28)),
    pdt.BeamWander(1e-4, 4e-4, 0.02),
    pdt.CircularBeam(1e-4, math.log(4e-4), 0.1, 0.02),
    pdt.EllipticBeam(1e-4, math.log(4e-4), 0.05 * np.eye(2), 0.02),
    pdt.totalprob_model("lognormal", 1e-4, 4e-4, pdt.MomentPair(0.5, 0.28), 0.02),
], ids=["lognormal", "beta", "beam_wander", "circular", "elliptic", "totalprob"])
def test_nan_eta_rejected(model):
    # a NaN once gave 0.0 (1.0 for EllipticBeam), and inside an array the
    # quadrature CDF at the largest finite point (0.890 here, log-normal)
    for call in (pdt.model_cdf, pdt.model_density):
        for eta in (math.nan, np.array([0.3, math.nan, 0.7])):
            with pytest.raises(DomainError, match="eta is NaN"):
                call(model, eta)
    assert pdt.model_cdf(model, np.array([-math.inf, math.inf])) == pytest.approx(
        [0.0, 1.0], abs=1e-6)


class TestBwGeometry:
    def test_eta0(self):
        assert pdt.bw_geometry(4.0, 2.0)[0] == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)

    def test_large_spot_kills_transmittance(self):
        assert pdt.bw_geometry(1e9, 1.0)[0] < 1e-8

    def test_lambda_R_finite_positive_scan(self):
        # numeric scan over a^2/S in [1e-3, 1e3] with scaled Bessel forms
        a = 1.0
        ratios = np.logspace(-3, 3, 61)
        _, lam, rdim = pdt._bw_spot(a * a / ratios, a)
        assert np.all(np.isfinite(lam)) and np.all(lam > 0.0)
        assert np.all(np.isfinite(rdim)) and np.all(rdim > 0.0)

    def test_small_aperture_shape_limit(self):
        # a^2/S -> 0: the transmittance profile becomes Gaussian in r0
        _, lam, _ = pdt.bw_geometry(1e6, 1.0)
        assert lam == pytest.approx(2.0, abs=1e-3)


class TestBwDensity:
    BW = pdt.BeamWander(sigma_bw2=1e-4, S=4e-4, aperture=0.02)

    def test_zero_outside_support(self):
        eta0 = pdt.bw_geometry(self.BW.S, self.BW.aperture)[0]
        assert pdt.model_density(self.BW, eta0 + 1e-6) == 0.0
        assert pdt.model_density(self.BW, -0.1) == 0.0

    def test_unit_integral(self):
        eta0 = pdt.bw_geometry(self.BW.S, self.BW.aperture)[0]
        total = adaptive_quad(lambda e: pdt.model_density(self.BW, e), 0.0, eta0, 1e-9)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_cdf_step_limit_small_wander(self):
        eta0 = pdt.bw_geometry(self.BW.S, self.BW.aperture)[0]
        narrow = pdt.BeamWander(sigma_bw2=1e-12, S=4e-4, aperture=0.02)
        assert pdt.model_cdf(narrow, eta0 * 0.99) < 1e-12
        assert pdt.model_cdf(narrow, eta0 * (1 + 1e-12)) == 1.0

    def test_cdf_matches_quadrature(self):
        for e in (0.2, 0.5, 0.8):
            via_quad = adaptive_quad(lambda x: pdt.model_density(self.BW, x), 0.0, e, 1e-10)
            assert pdt.model_cdf(self.BW, e) == pytest.approx(via_quad, abs=1e-8)

    def test_sampling_oracle_ks(self):
        # draws via eta = eta0 exp(-(r0/R)^lambda), r0 Rayleigh
        eta0, lam, R = pdt.bw_geometry(self.BW.S, self.BW.aperture)
        gen = RngStream(7, 0).generator()
        r0 = math.sqrt(self.BW.sigma_bw2) * np.hypot(
            gen.standard_normal(20000), gen.standard_normal(20000)
        )
        draws = eta0 * np.exp(-((r0 / R) ** lam))
        from turbchan.stats import EmpiricalSample, ks_stat

        d = ks_stat(EmpiricalSample(draws), lambda e: pdt.model_cdf(self.BW, e))
        assert d <= 1.63 / math.sqrt(draws.size)


class TestZeroWander:
    """sigma_bw2 = 0: each spot a point mass at its eta0, as match_bw and a
    cn2 = 0 ensemble's summary give it."""

    MODELS = [
        pdt.BeamWander(0.0, 1e-3, 0.02),
        pdt.CircularBeam(0.0, math.log(4e-4), 0.1, 0.02),
        pdt.EllipticBeam(0.0, math.log(4e-4), 0.05 * np.eye(2), 0.02),
    ]

    def test_beam_wander_moments(self):
        got = pdt.model_moments(pdt.BeamWander(0.0, 1e-3, 0.02))
        want = pdt.bw_moments(1e-3, 0.0, 0.02)
        assert (got.m1, got.m2) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_circular_moments(self):
        model = pdt.CircularBeam(0.0, math.log(4e-4), 0.1, 0.02)
        got = pdt.model_moments(model)
        want = pdt.circular_moments(model.mu_S, model.sigma_S2, 0.0, 0.02)
        assert (got.m1, got.m2) == pytest.approx(want, rel=0.0, abs=1e-12)

    def test_match_bw_answer_builds(self):
        S, s2 = pdt.match_bw(pdt.MomentPair(0.5, 0.25), 0.02)
        assert s2 == 0.0
        assert pdt.model_moments(pdt.BeamWander(s2, S, 0.02)).m1 == pytest.approx(
            0.5, rel=1e-14)

    @pytest.mark.parametrize("model", MODELS, ids=["beam_wander", "circular", "elliptic"])
    def test_point_masses(self, model):
        eta0, mass = (np.ravel(v) for v in (model._spots[0], model._spots[3]))
        eta, weight = model.nodes
        assert np.array_equal(eta, eta0) and np.array_equal(weight, mass)
        es = np.linspace(0.0, 1.0, 101)
        assert np.all(pdt.model_density(model, es) == 0.0)
        want = np.array([mass[eta0 <= e].sum() for e in es])
        np.testing.assert_allclose(pdt.model_cdf(model, es), want, rtol=0.0, atol=1e-15)
        assert pdt.model_cdf(model, eta0.min() * (1.0 - 1e-12)) == 0.0

    @pytest.mark.parametrize("s2", [-1e-6, math.nan, math.inf])
    def test_bad_wander_rejected(self, s2):
        with pytest.raises(DomainError, match="sigma_bw2"):
            pdt.BeamWander(s2, 1e-3, 0.02)
        with pytest.raises(DomainError, match="sigma_bw2"):
            pdt.CircularBeam(s2, math.log(4e-4), 0.1, 0.02)
        with pytest.raises(DomainError, match="sigma_bw2"):
            pdt.EllipticBeam(s2, math.log(4e-4), 0.05 * np.eye(2), 0.02)


class TestEsposito:
    def test_zero_wander_limit(self):
        m1, m2 = pdt.bw_moments(4e-4, 0.0, 0.02)
        assert m1 == pytest.approx(-math.expm1(-2 * 0.02**2 / 4e-4), rel=1e-12)
        assert m2 == pytest.approx(m1 * m1, rel=1e-12)

    @pytest.mark.parametrize("S", [1e-200, 1e-320])
    def test_spot_far_below_wander_is_bernoulli(self, S):
        # S / 8 sigma_bw^2 underflows; this once warned of a division by
        # zero (1e-200) or an overflow (1e-320)
        m1, m2 = pdt.bw_moments(S, 1e-5, 0.02)
        want = -math.expm1(-2 * 0.02**2 / (4 * 1e-5 + S))
        assert m1 == pytest.approx(want, rel=1e-15)
        assert m2 == m1

    @pytest.mark.parametrize("S,s2,a,name", [
        (math.inf, 1e-5, 0.02, "S=inf"), (math.nan, 1e-5, 0.02, "S=nan"),
        ([4e-4, math.nan], 1e-5, 0.02, "S=nan"),
        (4e-4, math.inf, 0.02, "sigma_bw2=inf"), (4e-4, math.nan, 0.02, "sigma_bw2=nan"),
        (4e-4, 1e-5, math.inf, "a=inf"), (4e-4, 1e-5, math.nan, "a=nan"),
    ])
    def test_non_finite_input_rejected(self, S, s2, a, name):
        # an infinite S or sigma_bw2 once gave (0.0, 0.0); NaN and a = inf
        # failed inside marcum_q1, not naming the parameter
        with pytest.raises(DomainError, match=f"bw_moments: {name} "):
            pdt.bw_moments(S, s2, a)

    def test_full_capture_limit(self):
        m1, m2 = pdt.bw_moments(4e-4, 1e-4, 10.0)
        assert m1 == pytest.approx(1.0, abs=1e-12)
        assert m2 == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("S,s2,a", [(4e-4, 1e-4, 0.02), (2e-4, 5e-5, 0.015)])
    def test_against_monte_carlo_oracle(self, S, s2, a):
        n = 200_000
        gen = RngStream(101, 0).generator()
        r0 = math.sqrt(s2) * np.hypot(gen.standard_normal(n), gen.standard_normal(n))
        etas = offset_aperture_eta(r0, S, a)
        m1_mc, m2_mc = etas.mean(), (etas**2).mean()
        se1 = etas.std(ddof=1) / math.sqrt(n)
        se2 = (etas**2).std(ddof=1) / math.sqrt(n)
        m1, m2 = pdt.bw_moments(S, s2, a)
        assert abs(m1 - m1_mc) < 3.0 * se1
        assert abs(m2 - m2_mc) < 3.0 * se2


class TestMatchBw:
    def test_round_trip(self):
        m1, m2 = pdt.bw_moments(4e-4, 1e-4, 0.02)
        S, s2 = pdt.match_bw(pdt.MomentPair(m1, m2), 0.02)
        assert S == pytest.approx(4e-4, rel=1e-6)
        assert s2 == pytest.approx(1e-4, rel=1e-6)

    def test_self_consistency(self):
        target = pdt.MomentPair(0.55, 0.35)
        S, s2 = pdt.match_bw(target, 0.02)
        m1, m2 = pdt.bw_moments(S, s2, 0.02)
        assert m1 == pytest.approx(target.m1, abs=1e-5)
        assert m2 == pytest.approx(target.m2, abs=1e-5)

    def test_maximal_variance_rejected(self):
        with pytest.raises(SolverError):
            pdt.match_bw(pdt.MomentPair(0.5, 0.5), 0.02)

    def test_degenerate_pair_gives_zero_wander(self):
        S, s2 = pdt.match_bw(pdt.MomentPair(0.5, 0.25), 0.02)
        assert s2 == 0.0
        assert S == pytest.approx(-2 * 0.02**2 / math.log(0.5), rel=1e-12)

    @pytest.mark.parametrize("m1,m2,S,sigma_bw2", [
        (0.40361578159005407, 0.16856091326891226, 0.001176199277662794,
         9.289455521788154e-05),
        (0.4047639995449275, 0.16906157499984176, 0.001186280206523416,
         8.893695683025529e-05),
        (0.4046592289862692, 0.16889875841961938, 0.001189216664805785,
         8.833366817105243e-05),
        (0.40312009814057814, 0.16781154246259725, 0.0011891581501371473,
         9.027780198848105e-05),
        (0.40356199249020075, 0.16824315931926948, 0.0011852242947493021,
         9.070583011670443e-05),
    ], ids=["seed1", "seed7", "seed21", "seed301", "seed421"])
    def test_benchmark_fits(self, m1, m2, S, sigma_bw2):
        # the beam-wandering fits of the benchmark's pdt_photon records, as
        # the former two-parameter Newton search found them; match_bw's one
        # brentq must agree
        got = pdt.match_bw(pdt.MomentPair(m1, m2), 0.02)
        assert got == pytest.approx((S, sigma_bw2), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("m1", np.linspace(0.02, 0.98, 49)[::12].tolist())
    def test_fits_across_the_variance_range(self, m1):
        # m2 a fraction v of the way from m1^2 to the Bernoulli bound m1; at
        # v = 0.999999 the target falls in the jump of bw_moments' p < 1e-10
        # branch
        for v in (1e-11, 1e-9, 1e-6, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99,
                  0.999, 0.999999, 1.0 - 1e-10):
            target = pdt.MomentPair(m1, m1 * m1 + v * m1 * (1.0 - m1))
            if v == 0.999999:
                with pytest.raises(SolverError):
                    pdt.match_bw(target, 0.02)
                continue
            S, s2 = pdt.match_bw(target, 0.02)
            got = pdt.bw_moments(S, s2, 0.02)
            assert got == pytest.approx((target.m1, target.m2), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("a", [math.nan, math.inf, 0.0, -0.02])
    def test_bad_aperture_rejected(self, a):
        with pytest.raises(DomainError, match=": a="):
            pdt.match_bw(pdt.MomentPair(0.5, 0.3), a)


class TestCircular:
    @pytest.mark.parametrize("sigma_s2", [-0.1, math.nan, math.inf])
    def test_moments_reject_bad_spot_variance(self, sigma_s2):
        # -0.1 once gave the sigma_S2 = 0 moments, which CircularBeam rejects
        with pytest.raises(DomainError, match="circular_moments: sigma_S2=.* finite and >= 0"):
            pdt.circular_moments(-7.0, sigma_s2, 1e-4, 0.02)

    def test_parameter_map_inverts_lognormal_moments(self):
        mean_s, mean_s2 = 4e-4, 2.2e-7
        mu, s2 = pdt.circular_params_from_S(mean_s, mean_s2)
        # log-normal moment formulas invert the map exactly
        assert math.exp(mu + s2 / 2) == pytest.approx(mean_s, rel=1e-12)
        assert math.exp(2 * mu + 2 * s2) == pytest.approx(mean_s2, rel=1e-12)

    def test_params_from_equal_spots(self):
        # equal spots: ensemble_summary's mean_S2 rounds below mean_S^2 in
        # about 4 of 10 such samples, which raised DomainError
        gen = np.random.default_rng(3)
        for _ in range(40):
            S = float(np.exp(gen.uniform(math.log(1e-5), math.log(1e-2))))
            summ = ensemble_summary(equal_spot_records(int(gen.integers(2, 300)), S))
            mu, s2 = pdt.circular_params_from_S(summ["mean_S"], summ["mean_S2"])
            assert 0.0 <= s2 < 1e-14  # rounding only: CircularBeam takes one spot
            assert math.exp(mu) == pytest.approx(S, rel=1e-14)
            cb = pdt.CircularBeam(1e-4, mu, s2, 0.02)
            bw = pdt.BeamWander(1e-4, math.exp(mu), 0.02)
            assert cb.spot_nodes()[0].size == 1
            assert pdt.model_moments(cb) == pdt.model_moments(bw)

    def test_params_below_slack_rejected(self):
        with pytest.raises(DomainError, match="circular_params_from_S"):
            pdt.circular_params_from_S(1e-3, 1e-6 * (1.0 - 1e-8))

    def test_degenerate_equals_bw(self):
        cb = pdt.CircularBeam(1e-4, math.log(4e-4), 0.0, 0.02)
        bw = pdt.BeamWander(1e-4, 4e-4, 0.02)
        es = np.linspace(0.01, 0.86, 40)
        assert np.max(np.abs(pdt.model_density(cb, es) - pdt.model_density(bw, es))) <= 1e-6

    def test_unit_integral(self):
        cb = pdt.CircularBeam(1e-4, math.log(4e-4), 0.2, 0.02)
        total = adaptive_quad(lambda e: pdt.model_density(cb, e), 0.0, 1.0, 1e-8)
        assert total == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("cb", [
        pdt.CircularBeam(1e-4, math.log(4e-4), 0.2, 0.02),
        # the circular-beam fit of the benchmark's pdt_photon records (seed 7)
        pdt.CircularBeam(7.949231888223333e-05, -6.704201330198932, 0.01582727787537576,
                         0.02),
    ], ids=["wide", "benchmark_fit"])
    def test_matches_per_spot_loop(self, cb):
        # the mixture written out as a loop over the spot nodes, with the
        # beam-wandering density and CDF spelled out per spot
        es = np.concatenate([np.linspace(-0.1, 1.1, 241), [0.0, 1.0]])
        spots, masses = cb.spot_nodes()
        dens, cdf = np.zeros_like(es), np.zeros_like(es)
        for s, w in zip(spots, masses):
            eta0, lam, R = pdt.bw_geometry(float(s), cb.aperture)
            inside = (es > 0.0) & (es < eta0)
            xi = np.log(eta0 / es[inside])
            r2s2 = R * R / cb.sigma_bw2
            d, c = np.zeros_like(es), (es >= eta0).astype(float)
            d[inside] = (r2s2 / (es[inside] * lam) * xi ** (2.0 / lam - 1.0)
                         * np.exp(-0.5 * r2s2 * xi ** (2.0 / lam)))
            c[inside] = np.exp(-0.5 * r2s2 * xi ** (2.0 / lam))
            dens += w * d
            cdf += w * c
        assert np.max(np.abs(pdt.model_density(cb, es) - dens)) <= 1e-13
        assert np.max(np.abs(pdt.model_cdf(cb, es) - cdf)) <= 1e-14
        for p in (0.0, 0.5, 1.0, 2.0):
            want = sum(w * pdt.fractional_moment(
                pdt.BeamWander(cb.sigma_bw2, float(s), cb.aperture), p)
                for s, w in zip(spots, masses))
            assert pdt.fractional_moment(cb, p) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_match_round_trip(self):
        mu_s, s_s2 = math.log(4e-4), 0.2
        m1, m2 = pdt.circular_moments(mu_s, s_s2, 1e-4, 0.02)
        mu_r, s2_r = pdt.match_circular(pdt.MomentPair(m1, m2), 1e-4, 0.02)
        assert mu_r == pytest.approx(mu_s, rel=1e-5)
        assert s2_r == pytest.approx(s_s2, rel=1e-5)

    def test_match_reproduces_moments(self):
        target = pdt.MomentPair(0.5, 0.28)
        mu_r, s2_r = pdt.match_circular(target, 1e-4, 0.02)
        m1, m2 = pdt.circular_moments(mu_r, s2_r, 1e-4, 0.02)
        assert m1 == pytest.approx(target.m1, abs=1e-4)
        assert m2 == pytest.approx(target.m2, abs=1e-4)

    def test_match_where_trial_spots_underflow(self):
        # trial points far up the sigma_S2 bracket have spot sizes near the
        # ends of the float range; that once raised DomainError from bw_moments
        target = pdt.MomentPair(0.4, 0.2)
        mu_r, s2_r = pdt.match_circular(target, 8.1e-5, 0.02)
        m1, m2 = pdt.circular_moments(mu_r, s2_r, 8.1e-5, 0.02)
        assert m1 == pytest.approx(target.m1, rel=1e-9)
        assert m2 == pytest.approx(target.m2, rel=1e-9)

    @pytest.mark.parametrize("m1,var_frac,sigma_bw2", [
        (0.2, 0.1, 1e-5), (0.2, 0.1, 3e-4), (0.2, 0.5, 3e-4), (0.2, 0.9, 3e-4)])
    def test_match_fits_or_raises_solver_error(self, m1, var_frac, sigma_bw2):
        # m2 a fraction of the way from m1^2 to the Bernoulli bound m1
        target = pdt.MomentPair(m1, m1 * m1 + var_frac * m1 * (1.0 - m1))
        try:
            mu_r, s2_r = pdt.match_circular(target, sigma_bw2, 0.02)
        except SolverError:
            return
        m1_r, m2_r = pdt.circular_moments(mu_r, s2_r, sigma_bw2, 0.02)
        assert m1_r == pytest.approx(target.m1, rel=1e-9)
        assert m2_r == pytest.approx(target.m2, rel=1e-9)

    @pytest.mark.parametrize("sigma_bw2,a,name", [
        (1e-4, math.nan, ": a="), (1e-4, math.inf, ": a="), (1e-4, 0.0, ": a="),
        (1e-4, -0.02, ": a="), (math.nan, 0.02, ": sigma_bw2="),
        (math.inf, 0.02, ": sigma_bw2="), (-1e-4, 0.02, ": sigma_bw2=")])
    def test_bad_input_rejected(self, sigma_bw2, a, name):
        with pytest.raises(DomainError, match=name):
            pdt.match_circular(pdt.MomentPair(0.5, 0.3), sigma_bw2, a)

    @pytest.mark.parametrize("m1,m2,sigma_bw2,mu_S,sigma_S2", [
        (0.40361578159005407, 0.16856091326891226, 8.15325948936061e-05,
         -6.7058810285164006, 0.019788661803280656),
        (0.40028934047101566, 0.16560058429481814, 8.153857196127998e-05,
         -6.692321481356009, 0.017673867477426154),
        (0.4030485189305404, 0.16794086994725455, 8.12507694385808e-05,
         -6.702743280707273, 0.018167017615252287),
    ], ids=["seed1", "seed2", "seed3"])
    def test_benchmark_fits(self, m1, m2, sigma_bw2, mu_S, sigma_S2):
        # the circular-beam fits of the benchmark's pdt_photon records, as
        # the former two-parameter Newton search found them; the nested roots
        # must agree
        got = pdt.match_circular(pdt.MomentPair(m1, m2), sigma_bw2, 0.02)
        assert got == pytest.approx((mu_S, sigma_S2), rel=1e-9, abs=0.0)

    @staticmethod
    def count_marcum(monkeypatch):
        calls = []
        q1 = pdt.marcum_q1
        monkeypatch.setattr(pdt, "marcum_q1", lambda a, b: calls.append(1) or q1(a, b))
        return calls

    @pytest.mark.parametrize("m1,m2,sigma_bw2,a", [
        (0.2, 0.2 * 0.2 + 0.3 * 0.2 * 0.8, 1e-6, 0.02),  # 608 marcum_q1 calls with Newton
        # two the Newton search refused
        (0.1, 0.1 * 0.1 + 0.9 * 0.1 * 0.9, 8.1e-5, 0.02),
        (0.2, 0.2 * 0.2 + 0.9 * 0.2 * 0.8, 8.1e-5, 0.02),
        # two refused after 6 s where ncx2.sf, the former marcum_q1, failed
        (0.1, 0.055, 1e-6, 0.02), (0.4201, 0.3780, 1.54e-8, 0.0745)],
        ids=["0.2-0.3-1e-06", "0.1-0.9-8.1e-05", "0.2-0.9-8.1e-05", "0.1-0.5-1e-06",
             "0.4201-0.378-1.54e-08-0.0745"])
    def test_hard_targets_fit(self, monkeypatch, m1, m2, sigma_bw2, a):
        calls = self.count_marcum(monkeypatch)
        mu_r, s2_r = pdt.match_circular(pdt.MomentPair(m1, m2), sigma_bw2, a)
        assert len(calls) <= 100
        m1_r, m2_r = pdt.circular_moments(mu_r, s2_r, sigma_bw2, a)
        assert m1_r == pytest.approx(m1, rel=1e-9)
        assert m2_r == pytest.approx(m2, rel=1e-9)

    @pytest.mark.parametrize("sigma_bw2", [1e-6, 8.1e-5, 3e-4])
    def test_m1_above_wander_limit_refused_before_search(self, monkeypatch, sigma_bw2):
        # with the spot shrunk to 0 the beam stays wider than the wander alone
        calls = self.count_marcum(monkeypatch)
        limit = -math.expm1(-0.02**2 / (2.0 * sigma_bw2))
        for m1 in (limit, min(1.0, limit * 1.01)):
            with pytest.raises(SolverError, match="wander-only limit"):
                pdt.match_circular(pdt.MomentPair(m1, m1 * m1), sigma_bw2, 0.02)
        assert calls == []

    def test_m2_below_single_spot_refused_before_search(self, monkeypatch):
        m1, m2 = pdt.bw_moments(4e-4, 8e-5, 0.02)
        calls = self.count_marcum(monkeypatch)
        with pytest.raises(SolverError, match=r"h = [-+.e\d]+, None$"):
            pdt.match_circular(pdt.MomentPair(m1, m2 * (1.0 - 1e-6)), 8e-5, 0.02)
        assert len(calls) == 2  # one bw_moments at sigma_S2 = 1e-15: one spot

    @pytest.mark.parametrize("m1", [0.1, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("var_frac", [0.0, 1e-12, 0.01, 0.3, 0.9, 1.0])
    def test_no_wander_fits_or_raises_solver_error(self, m1, var_frac):
        target = pdt.MomentPair(m1, m1 * m1 + var_frac * m1 * (1.0 - m1))
        try:
            mu_r, s2_r = pdt.match_circular(target, 0.0, 0.02)
        except SolverError:
            return
        m1_r, m2_r = pdt.circular_moments(mu_r, s2_r, 0.0, 0.02)
        assert m1_r == pytest.approx(target.m1, rel=1e-9)
        assert m2_r == pytest.approx(target.m2, rel=1e-9)

    def test_vanishing_spread_consistent_with_match_bw(self):
        m1, m2 = pdt.bw_moments(3e-4, 8e-5, 0.02)
        target = pdt.MomentPair(m1, m2)
        S_bw, _ = pdt.match_bw(target, 0.02)
        mu_r, s2_r = pdt.match_circular(target, 8e-5, 0.02)
        # the circular solution collapses onto the beam-wandering one
        assert s2_r < 1e-4
        assert math.exp(mu_r) == pytest.approx(S_bw, rel=1e-4)


# The elliptic-beam fit (sigma_bw2, mu_S, Sigma) of the benchmark's pdt_photon
# records at seed 1.
SEED1_ELLIPTIC = (8.15325948936061e-05, -6.712304664236537,
                  np.array([[0.03440210673642848, -0.00048629074947144905],
                            [-0.00048629074947144905, 0.03440210673642848]]))


class TestElliptic:
    def synthetic_records(self, n=4000, mu=math.log(4e-4), sig2=0.09, seed=5):
        gen = RngStream(seed, 0).generator()
        w2 = np.exp(gen.normal(mu, math.sqrt(sig2), n))
        recs = []
        for i, w in enumerate(w2):
            recs.append(SampleRecord(eta=0.5, x0=0.0, y0=0.0, sxx=w, syy=w,
                                     sxy=0.0, realization_index=i))
        return recs, w2

    def test_synthetic_circular_records(self):
        recs, w2 = self.synthetic_records()
        mu_s, sigma = pdt.elliptic_params_from_samples(recs)
        n = len(recs)
        # all entries estimate ln<W^4>/<W^2>^2 = sig2 of the lognormal
        w4 = w2**2
        se = math.sqrt(np.var(w4, ddof=1) / n) / w4.mean() + 2 * math.sqrt(
            np.var(w2, ddof=1) / n
        ) / w2.mean()
        assert sigma[0, 0] == sigma[1, 1]
        assert sigma[0, 1] == sigma[1, 0]
        assert abs(sigma[0, 0] - 0.09) < 3 * se
        assert abs(sigma[0, 1] - 0.09) < 3 * se

    def test_mean_w2_is_trace_mean(self):
        recs, w2 = self.synthetic_records(n=1500)
        mu_s, _ = pdt.elliptic_params_from_samples(recs)
        mean_w2 = np.mean([(r.sxx + r.syy) / 2 for r in recs])
        mean_w4 = np.mean([((r.sxx + r.syy) / 2) ** 2 for r in recs])
        assert mu_s == pytest.approx(math.log(mean_w2**2 / math.sqrt(mean_w4)), rel=1e-12)

    @pytest.mark.parametrize("jitter", [0.0, 1e-9], ids=["equal", "jitter-1e-9"])
    def test_params_from_equal_spots(self, jitter):
        # Sigma's diagonal once came out negative by rounding (-4.4e-16 at
        # jitter 1e-9), which EllipticBeam rejects; the model is BeamWander
        # at S = e^mu_S
        S = 1.24e-3
        mu_s, sigma = pdt.elliptic_params_from_samples(equal_spot_records(1000, S, jitter, 3))
        assert np.all(np.diag(sigma) >= 0.0) and np.all(np.abs(sigma) < 1e-14)
        got = pdt.model_moments(pdt.EllipticBeam(1e-4, mu_s, sigma, 0.02))
        want = pdt.model_moments(pdt.BeamWander(1e-4, math.exp(mu_s), 0.02))
        assert got.m1 == pytest.approx(want.m1, rel=0.0, abs=1e-12)
        assert got.m2 == pytest.approx(want.m2, rel=0.0, abs=1e-12)

    def test_needs_enough_records(self):
        recs, _ = self.synthetic_records(n=100)
        with pytest.raises(DomainError):
            pdt.elliptic_params_from_samples(recs)

    def test_degenerate_circular_limit(self):
        # W1 = W2 fixed: on-axis transmittance equals the circular eta0
        # (the elliptic formula reduces to the factor-2 form)
        W2 = 4e-4
        model = pdt.EllipticBeam(sigma_bw2=1e-28, mu_S=math.log(W2),
                                 Sigma=np.zeros((2, 2)), aperture=0.02)
        vals = pdt.elliptic_sample(model, 50, RngStream(3, 0))
        eta0 = pdt.bw_geometry(W2, 0.02)[0]
        assert np.allclose(vals, eta0, atol=1e-6)

    def test_samples_clamped_to_unit_interval(self):
        model = pdt.EllipticBeam(sigma_bw2=4e-4, mu_S=math.log(2e-4),
                                 Sigma=0.3 * np.eye(2), aperture=0.02)
        vals = pdt.elliptic_sample(model, 20000, RngStream(4, 0))
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    @pytest.mark.parametrize("a", [math.nan, math.inf, -0.02, 0.0])
    def test_rejects_bad_aperture(self, a):
        with pytest.raises(DomainError, match="aperture"):
            pdt.EllipticBeam(sigma_bw2=4e-4, mu_S=math.log(2e-4), Sigma=0.3 * np.eye(2),
                             aperture=a)

    def test_cdf_available_through_model_cdf(self):
        model = pdt.EllipticBeam(sigma_bw2=1e-4, mu_S=math.log(4e-4),
                                 Sigma=0.05 * np.eye(2), aperture=0.02)
        assert pdt.model_cdf(model, 1.0) == 1.0
        assert pdt.model_cdf(model, 0.0) == 0.0
        mid = pdt.model_cdf(model, 0.5)
        assert 0.0 < mid < 1.0

    # close to the benchmark's pdt_photon fits, with correlated semi-axes
    FIT = pdt.EllipticBeam(sigma_bw2=8.1e-5, mu_S=math.log(1.2e-3),
                           Sigma=np.array([[0.04, 0.015], [0.015, 0.04]]),
                           aperture=0.02)

    @pytest.mark.parametrize("n", [1, 6, 7, 8, 50])
    def test_block_size_does_not_change_samples(self, n, monkeypatch):
        want = pdt.elliptic_sample(self.FIT, n, RngStream(9, 0))
        monkeypatch.setattr(pdt, "_ELLIPTIC_BLOCK", 7)
        got = pdt.elliptic_sample(self.FIT, n, RngStream(9, 0))
        assert got.tobytes() == want.tobytes()

    def test_matches_former_matmul(self):
        # the former elliptic_sample: every draw as one array, theta mapped by
        # a BLAS product with the transposed Cholesky factor
        model, a, n = self.FIT, 0.02, 20_000
        gen = RngStream(5, 0).generator()
        chol = np.linalg.cholesky(model.Sigma + 1e-15 * np.eye(2))
        theta = gen.standard_normal((n, 2)) @ chol.T + model.mu_S
        w1sq, w2sq = np.exp(theta[:, 0]), np.exp(theta[:, 1])
        w1, w2 = np.sqrt(w1sq), np.sqrt(w2sq)
        phi = gen.random(n) * (0.5 * math.pi)
        r0xy = gen.normal(0.0, math.sqrt(model.sigma_bw2), (n, 2))
        r0 = np.hypot(r0xy[:, 0], r0xy[:, 1])
        cos2 = np.cos(phi - np.arctan2(r0xy[:, 1], r0xy[:, 0])) ** 2
        sin2 = 1.0 - cos2
        ln_arg = (np.log(4.0 * a * a / (w1 * w2)) + a * a / w1sq * (1.0 + 2.0 * cos2)
                  + a * a / w2sq * (1.0 + 2.0 * sin2))
        _, lam, rdim = pdt._bw_spot(4.0 * a * a / special.wrightomega(ln_arg), a)
        want = pdt._elliptic_eta0(w1sq, w2sq, a) * np.exp(-((r0 / a / rdim) ** lam))
        got = pdt.elliptic_sample(model, n, RngStream(5, 0))
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_singular_sigma_keeps_its_variance(self):
        # Sigma is not PSD: it is sampled as its singular projection
        # 5.25 [[1, 1], [1, 1]], so Theta1 = Theta2 = mu_S + sqrt(5.25) g1
        # (numpy's Cholesky factor of that projection plus 1e-15 I fails)
        a, n = 0.02, 20_000
        model = pdt.EllipticBeam(self.FIT.sigma_bw2, self.FIT.mu_S,
                                 np.array([[4.2, 6.3], [6.3, 4.2]]), a)
        gen = RngStream(5, 0).generator()
        theta = model.mu_S + math.sqrt(5.25) * gen.standard_normal((n, 2))[:, 0]
        phi = gen.random(n) * (0.5 * math.pi)
        r0xy = gen.normal(0.0, math.sqrt(model.sigma_bw2), (n, 2))
        want = pdt._elliptic_eta(theta, theta, phi, r0xy[:, 0], r0xy[:, 1], a)
        got = pdt.elliptic_sample(model, n, RngStream(5, 0))
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.std(got) > 0.3

    def test_non_psd_estimate_is_returned_unprojected(self):
        # a fixed axis ratio e^2 with a narrowly spread size: the two squared
        # semi-axes are anti-correlated beyond what a covariance allows
        size = 4e-4 * np.exp(RngStream(6, 0).generator().normal(0.0, math.sqrt(0.05), 1500))
        recs = [SampleRecord(eta=0.5, x0=0.0, y0=0.0, sxx=c * math.e, syy=c / math.e,
                             sxy=0.0, realization_index=i) for i, c in enumerate(size)]
        mu_s, sigma = pdt.elliptic_params_from_samples(recs)
        mean_w2 = np.mean(size) * math.cosh(1.0)
        assert sigma[0, 1] == pytest.approx(math.log(np.mean(size**2) / mean_w2**2),
                                            rel=1e-12)
        assert abs(sigma[0, 1]) > sigma[0, 0] > 0.0
        model = pdt.EllipticBeam(8.1e-5, mu_s, sigma, 0.02)
        projected = pdt.EllipticBeam(8.1e-5, mu_s, pdt._psd_2x2(sigma), 0.02)
        got = pdt.elliptic_sample(model, 2000, RngStream(7, 0))
        want = pdt.elliptic_sample(projected, 2000, RngStream(7, 0))
        assert got.tobytes() == want.tobytes()

    def test_nodes_memory_bounded(self):
        # the 200k-sample point set this rule replaced peaked near 11 MiB
        model = pdt.EllipticBeam(self.FIT.sigma_bw2, self.FIT.mu_S, self.FIT.Sigma, 0.02)
        tracemalloc.start()
        try:
            eta, weight = model.nodes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 10_000 < eta.size == weight.size <= 50_000
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("sigma", [np.diag([-0.01, 0.05]), -0.01 * np.eye(2)])
    def test_negative_variance_rejected(self, sigma):
        # -0.01 I was once accepted and modelled as Sigma = 0
        with pytest.raises(DomainError, match="Sigma"):
            pdt.EllipticBeam(1e-4, math.log(4e-4), sigma, 0.02)

    def test_non_psd_sigma_is_projected(self):
        # the singular projection 5.25 [[1, 1], [1, 1]], as elliptic_sample draws it
        sigma = np.array([[4.2, 6.3], [6.3, 4.2]])
        got = pdt.EllipticBeam(8.1e-5, self.FIT.mu_S, sigma, 0.02)
        want = pdt.EllipticBeam(8.1e-5, self.FIT.mu_S, pdt._psd_2x2(sigma), 0.02)
        es = np.linspace(0.0, 1.0, 41)
        assert np.array_equal(pdt.model_cdf(got, es), pdt.model_cdf(want, es))

    def test_cdf_against_sampler(self):
        # the seed-1 fit of the benchmark's pdt_photon records, against a
        # seeded 1M-draw ECDF of the model's own sampler (whose sup error is
        # about 1e-3 alone)
        model = pdt.EllipticBeam(*SEED1_ELLIPTIC, aperture=0.02)
        es = np.linspace(0.0, 1.0, 2001)
        draws = np.sort(pdt.elliptic_sample(model, 1_000_000, RngStream(2026, 0)))
        ecdf = np.searchsorted(draws, es, side="right") / draws.size
        assert np.max(np.abs(pdt.model_cdf(model, es) - ecdf)) <= 2e-3
        assert model.nodes[0].size <= 50_000


@pytest.mark.slow
@pytest.mark.parametrize("sigma_bw2,mu_S,sigma,tol", [
    (*SEED1_ELLIPTIC, 1e-3),
    (8.1e-5, math.log(1.2e-3), np.array([[0.05, 0.049], [0.049, 0.05]]), 1.5e-3),
    (8.1e-5, math.log(1.2e-3), np.array([[0.4, -0.3], [-0.3, 0.4]]), 1.5e-3),
], ids=["seed1-fit", "near-circular", "strongly-elliptic"])
def test_elliptic_rule_against_3m_draws(sigma_bw2, mu_S, sigma, tol):
    """The rule's CDF and moments against 3M seeded draws of the sampler.

    The CDF must beat the 200k-draw ECDF that the model once used (sample
    seed 0), and <eta>, <eta^2> must lie within 2 standard errors.
    """
    model = pdt.EllipticBeam(sigma_bw2, mu_S, sigma, 0.02)
    es = np.linspace(0.0, 1.0, 2001)
    counts, sums, n = np.zeros(es.size), np.zeros(3), 0
    for k in range(3):
        draws = np.sort(pdt.elliptic_sample(model, 1_000_000, RngStream(20260, k)))
        counts += np.searchsorted(draws, es, side="right")
        sums += [draws.sum(), (draws**2).sum(), (draws**4).sum()]
        n += draws.size
    ecdf = counts / n
    former = np.sort(pdt.elliptic_sample(model, 200_000, RngStream(0, 0)))
    former_err = np.max(np.abs(np.searchsorted(former, es, side="right") / former.size - ecdf))
    err = np.max(np.abs(pdt.model_cdf(model, es) - ecdf))
    assert err <= tol and err < former_err
    m1, m2, m4 = sums / n
    got = pdt.model_moments(model)
    assert abs(got.m1 - m1) <= 2.0 * math.sqrt((m2 - m1 * m1) / n)
    assert abs(got.m2 - m2) <= 2.0 * math.sqrt((m4 - m2 * m2) / n)


class TestTotalProb:
    TARGET = pdt.MomentPair(0.45, 0.23)

    @pytest.mark.parametrize("sub", ["beta", "lognormal"])
    def test_unit_integral_with_atoms(self, sub):
        tp = pdt.totalprob_model(sub, 1e-4, 4e-4, self.TARGET, 0.02)
        cont = adaptive_quad(lambda e: pdt.model_density(tp, e), 0.0, 1.0, 1e-8)
        total = cont + sum(w for w, _ in tp.atoms)
        assert total == pytest.approx(1.0, abs=1e-5)

    def test_beta_sub_reproduces_moments(self):
        tp = pdt.totalprob_model("beta", 1e-4, 4e-4, self.TARGET, 0.02)
        got = pdt.model_moments(tp)
        assert got.m1 == pytest.approx(self.TARGET.m1, rel=1e-3)
        assert got.m2 == pytest.approx(self.TARGET.m2, rel=1e-3)

    def test_lognormal_truncation_bias_is_reported_not_hidden(self):
        tp = pdt.totalprob_model("lognormal", 1e-4, 4e-4, self.TARGET, 0.02)
        got = pdt.model_moments(tp)
        # bias exists but stays small; nothing renormalizes it away silently
        assert got.m1 == pytest.approx(self.TARGET.m1, rel=0.02)

    def test_small_wander_collapses_to_conditional(self):
        tp = pdt.totalprob_model("beta", 1e-16, 4e-4, self.TARGET, 0.02)
        direct = pdt.beta_from_moments(self.TARGET)
        es = np.linspace(0.05, 0.95, 31)
        assert np.allclose(pdt.model_density(tp, es),
                           pdt.model_density(direct, es), rtol=1e-6, atol=1e-9)

    def test_unknown_sub_rejected(self):
        with pytest.raises(DomainError):
            pdt.totalprob_model("gamma", 1e-4, 4e-4, self.TARGET, 0.02)

    @pytest.mark.parametrize("a", [math.nan, math.inf, 0.0, -0.02])
    def test_bad_aperture_rejected(self, a):
        # a NaN aperture once raised from bw_geometry
        with pytest.raises(DomainError, match="^totalprob_model: .*aperture"):
            pdt.totalprob_model("beta", 1e-4, 4e-4, self.TARGET, a)


class TestGenericOps:
    def models(self):
        m = pdt.MomentPair(0.5, 0.3)
        yield pdt.lognormal_from_moments(m)
        yield pdt.beta_from_moments(m)
        yield pdt.BeamWander(1e-4, 4e-4, 0.02)
        yield pdt.CircularBeam(1e-4, math.log(4e-4), 0.1, 0.02)
        yield pdt.EllipticBeam(1e-4, math.log(4e-4), 0.05 * np.eye(2), 0.02)
        yield pdt.totalprob_model("beta", 1e-4, 4e-4, m, 0.02)
        yield pdt.totalprob_model("lognormal", 1e-4, 4e-4, m, 0.02)

    def test_cdf_reaches_one(self):
        for model in self.models():
            assert pdt.model_cdf(model, 1.0) == pytest.approx(1.0, abs=1e-6), model

    def test_cdf_monotone(self):
        es = np.linspace(0.0, 1.0, 41)
        for model in self.models():
            cdf = pdt.model_cdf(model, es)
            assert np.all(np.diff(cdf) >= -1e-12), model

    def test_beta22_mean_via_fractional_moment(self):
        assert pdt.fractional_moment(pdt.BetaPdt(2.0, 2.0), 1.0) == pytest.approx(
            0.5, abs=1e-8
        )

    def test_zeroth_moment_is_one(self):
        for model in self.models():
            assert pdt.fractional_moment(model, 0.0) == pytest.approx(1.0, abs=1e-5), model

    def test_densities_nonnegative(self):
        es = np.linspace(0.0, 1.0, 101)
        for model in self.models():
            assert np.all(pdt.model_density(model, es) >= 0.0), model

    def test_density_integrates_to_cdf(self):
        for model in self.models():
            if isinstance(model, pdt.TotalProb):
                continue  # its CDF is this quadrature
            # a spot mixture's component densities are singular at their own
            # eta0: quad takes the pieces between them one by one; a peak
            # within 1e-12 of a piece's end (1 - 3.7e-15 for a CircularBeam
            # spot) is left in it, as quad cannot split off so thin a sliver
            peaks = np.ravel(model._spots[0]) if isinstance(model, pdt._SpotMixture) else []
            for lo, hi in ((0.0, 0.3), (0.3, 0.6), (0.6, 1.0)):
                inner = [p for p in peaks if lo + 1e-12 < p < hi - 1e-12]
                edges = np.unique([lo, hi, *inner])
                got = sum(integrate.quad(lambda e: pdt.model_density(model, e), x0, x1,
                                         epsabs=1e-10, limit=200)[0]
                          for x0, x1 in zip(edges[:-1], edges[1:]))
                want = pdt.model_cdf(model, hi) - pdt.model_cdf(model, lo)
                assert got == pytest.approx(want, abs=1e-6), (model, lo, hi)

    def test_half_moment_jensen(self):
        # <sqrt(eta)>^2 <= <eta> with equality only for a point mass
        for model in self.models():
            half = pdt.fractional_moment(model, 0.5)
            one = pdt.fractional_moment(model, 1.0)
            assert half * half <= one + 1e-9, model


# The beam-wandering fit of the benchmark's pdt_photon records (seed 7).
BENCH_BW = pdt.BeamWander(sigma_bw2=8.893695683025529e-05, S=0.001186280206523416,
                          aperture=0.02)


def bw_quad_moment(model, p):
    """<eta^p> of a BeamWander PDT by adaptive quadrature in u.

    u = ln(eta0/eta)^(2/lambda) is exponential with rate R^2 / 2 sigma_bw^2
    (the BeamWander CDF), and eta = eta0 exp(-u^(lambda/2)); the range is
    cut at 50/rate, with breakpoints at the mean 1/rate and at the knee u = 1.
    """
    eta0, lam, R = pdt.bw_geometry(model.S, model.aperture)
    rate = 0.5 * R * R / model.sigma_bw2
    pts = [u for u in (1.0 / rate, 1.0) if u < 50.0 / rate]
    val, _ = integrate.quad(lambda u: rate * math.exp(-rate * u - p * u ** (lam / 2.0)),
                            0.0, 50.0 / rate, points=pts, limit=200, epsabs=0.0,
                            epsrel=1e-12)
    return eta0**p * val


def tln_moment(mu, sigma2, p):
    """exp(-p mu + p^2 sigma2 / 2) Phi((mu - p sigma2)/sigma) / Phi(mu/sigma)."""
    mu, sigma2 = mpmath.mpf(mu), mpmath.mpf(sigma2)
    sig = mpmath.sqrt(sigma2)
    return float(mpmath.exp(-p * mu + p * p * sigma2 / 2)
                 * mpmath.ncdf((mu - p * sigma2) / sig) / mpmath.ncdf(mu / sig))


class TestFixedNodeRule:
    """fractional_moment through each family's point set against closed forms
    and quadrature."""

    @pytest.mark.parametrize("mu", [-1.0, -0.2, 0.0, 0.5, 2.0, 10.0])
    @pytest.mark.parametrize("sigma2", [1e-4, 0.03, 0.5, 2.0])
    def test_lognormal_closed_form(self, mu, sigma2):
        # mu <= 0 puts the untruncated mode at eta >= 1: heavy truncation
        model = pdt.TruncLogNormal(mu, sigma2)
        for p in (0.0, 0.5, 1.0, 2.0):
            assert pdt.fractional_moment(model, p) == pytest.approx(
                tln_moment(mu, sigma2, p), rel=1e-12, abs=0.0)

    @given(st.floats(math.log(0.2), math.log(1000.0)),
           st.floats(math.log(0.2), math.log(1000.0)),
           st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    @settings(max_examples=200, deadline=None)
    def test_beta_closed_form(self, log_a, log_b, p):
        a, b = math.exp(log_a), math.exp(log_b)
        want = math.exp(special.betaln(a + p, b) - special.betaln(a, b))
        assert pdt.fractional_moment(pdt.BetaPdt(a, b), p) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("ratio", [0.02, 0.05, 0.33, 1.0, 3.0, 20.0])
    @pytest.mark.parametrize("sigma_bw2", [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
    def test_beam_wander_grid(self, ratio, sigma_bw2):
        # a^2/S = ratio; lambda runs from 2 (0.02) to 10 (20).  At 0.05 and
        # 1e-7 (rate ~ 2e4) quadrature over u in [0, inf) missed the mass:
        # <eta^0> came out as 3e-18 and <eta> as 3e-19, not 0.0952
        a = 0.02
        model = pdt.BeamWander(sigma_bw2, a * a / ratio, a)
        assert pdt.fractional_moment(model, 0.0) == pytest.approx(1.0, abs=1e-12)
        for p in (0.5, 1.0, 2.0):
            assert pdt.fractional_moment(model, p) == pytest.approx(
                bw_quad_moment(model, p), rel=1e-8)

    def test_beam_wander_benchmark_fit(self):
        for p in (0.0, 0.5, 1.0, 2.0):
            assert pdt.fractional_moment(BENCH_BW, p) == pytest.approx(
                bw_quad_moment(BENCH_BW, p), rel=1e-12)

    def test_weights_carry_all_mass(self):
        for model in TestGenericOps().models():
            eta, weight = model.nodes
            assert np.all(weight >= 0.0) and np.all((eta >= 0.0) & (eta <= 1.0))
            assert weight.sum() == pytest.approx(1.0, abs=1e-12), model

    def test_cached_nodes_are_read_only(self):
        for model in TestGenericOps().models():
            assert model.nodes is model.nodes, model
            for a in model.nodes:
                with pytest.raises(ValueError):
                    a[0] = 0.5

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, -0.5])
    def test_rejects_bad_order(self, p):
        with pytest.raises(DomainError):
            pdt.fractional_moment(pdt.BetaPdt(2.0, 2.0), p)
