"""Photocounting statistics and quadrature moments through loss channels."""

import concurrent.futures as cf
import math
import multiprocessing
import re
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import integrate, special
from scipy import stats as sps

from turbchan import pdt, propagation, quantum
from turbchan.errors import DomainError
from turbchan.quantum import (
    Coherent,
    EmpiricalChannel,
    ErgodicityReport,
    FixedEta,
    Fock,
    PdtChannel,
    Thermal,
    channel_pmf,
    ergodicity_report,
    _pmf_matrix,
    quadrature_moments,
)
from turbchan.stats import EmpiricalSample

BETA22 = pdt.BetaPdt(2.0, 2.0)
TARGET = pdt.MomentPair(0.45, 0.23)


def quad_vec_pmf(state, model):
    """Mixture pmf by adaptive vector quadrature of the density, plus atoms."""
    n_max = state.cutoff()
    pmf, _ = integrate.quad_vec(
        lambda e: pdt.model_density(model, e) * channel_pmf(state, FixedEta(e), n_max).pmf,
        0.0, 1.0, epsabs=1e-13, epsrel=1e-11,
    )
    for w, loc in getattr(model, "atoms", None) or []:
        pmf = pmf + w * channel_pmf(state, FixedEta(loc), n_max).pmf
    return pmf


class TestLossPmf:
    def test_single_photon_bernoulli(self):
        for eta in (0.0, 0.3, 1.0):
            ps = channel_pmf(Fock(1), FixedEta(eta))
            assert ps.pmf[0] == pytest.approx(1.0 - eta, abs=1e-15)
            assert ps.pmf[1] == pytest.approx(eta, abs=1e-15)

    def test_identity_channel(self):
        st = Coherent(1.5 + 0.5j)
        before = channel_pmf(st, FixedEta(1.0))
        assert before.mean == pytest.approx(st.mean_n, rel=1e-9)
        # the 1e-9 tail cutoff feeds ~n_max^2 * tail into the variance
        assert before.mandel_q == pytest.approx(0.0, abs=1e-7)

    def test_poisson_example(self):
        ps = channel_pmf(Coherent(2.0), FixedEta(0.25))  # mean 1
        assert ps.mean == pytest.approx(1.0, rel=1e-9)
        assert ps.pmf[0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_thermal_geometric(self):
        ps = channel_pmf(Thermal(2.0), FixedEta(0.5))  # mean 1
        n = np.arange(ps.pmf.size)
        expected = 1.0 / 2.0 * (1.0 / 2.0) ** n
        assert np.allclose(ps.pmf, expected, rtol=1e-12)
        assert ps.mean == pytest.approx(1.0, rel=1e-6)
        # thermal light stays super-Poissonian: Q = mean
        assert ps.mandel_q == pytest.approx(1.0, rel=1e-6)

    def test_tail_contract(self):
        for state in (Coherent(3.0), Fock(7), Thermal(4.0)):
            ps = channel_pmf(state, FixedEta(1.0))
            assert ps.tail_bound <= 1e-9
        with pytest.raises(DomainError):
            channel_pmf(Coherent(4.0), FixedEta(1.0), n_max=5)

    def test_eta_domain(self):
        with pytest.raises(DomainError):
            channel_pmf(Fock(1), FixedEta(1.2))

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(1.0, math.nan),
                                       complex(0.0, -math.inf)])
    def test_coherent_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(DomainError):
            Coherent(alpha)

    @pytest.mark.parametrize("alpha", [1e200, 1.35e154, complex(1e154, 1e154), 1e308])
    def test_coherent_rejects_alpha_too_large_to_square(self, alpha):
        # abs(alpha) ** 2 once raised a bare OverflowError from mean_n
        with pytest.raises(DomainError, match=re.escape("finite |alpha|^2")):
            channel_pmf(Coherent(alpha), FixedEta(0.5))
        assert Coherent(1.34e154).mean_n < math.inf


class TestChannelPmf:
    def test_narrow_beta_approaches_fixed_eta(self):
        # Beta with a, b -> inf at fixed mean 0.5 concentrates on eta = 0.5
        st = Coherent(2.0)
        fixed = channel_pmf(st, FixedEta(0.5), st.cutoff())
        for scale in (10.0, 100.0, 1000.0):
            mixed = channel_pmf(st, PdtChannel(pdt.BetaPdt(scale, scale)), st.cutoff())
            tv = 0.5 * np.sum(np.abs(mixed.pmf - fixed.pmf))
            assert tv < 3.0 / math.sqrt(scale)

    @pytest.mark.parametrize("state", [Coherent(1.3), Fock(3), Thermal(1.7)])
    def test_mean_photon_linearity(self, state):
        model = BETA22
        ps = channel_pmf(state, PdtChannel(model))
        mean_eta = pdt.fractional_moment(model, 1.0)
        assert ps.mean == pytest.approx(mean_eta * state.mean_n, abs=1e-6)

    def test_coherent_mandel_q_identity(self):
        st = Coherent(1.2 - 0.8j)
        model = BETA22
        ps = channel_pmf(st, PdtChannel(model))
        mom = pdt.model_moments(model)
        expected = st.mean_n * mom.variance / mom.m1
        assert ps.mandel_q == pytest.approx(expected, abs=1e-6)

    def test_fock1_pmf_exact_mixture(self):
        model = BETA22
        ps = channel_pmf(Fock(1), PdtChannel(model))
        assert ps.pmf[0] == pytest.approx(0.5, abs=1e-9)
        assert ps.pmf[1] == pytest.approx(0.5, abs=1e-9)

    def test_empirical_channel_average(self):
        vals = np.array([0.2, 0.4, 0.9])
        ps = channel_pmf(Fock(1), EmpiricalChannel(EmpiricalSample(vals)))
        assert ps.pmf[1] == pytest.approx(vals.mean(), rel=1e-12)

    @pytest.mark.parametrize("model", [
        pdt.totalprob_model("lognormal", 1e-4, 4e-4, TARGET, 0.02),
        pdt.totalprob_model("beta", 1e-4, 4e-4, TARGET, 0.02),
        pdt.BeamWander(1e-4, 4e-4, 0.02),
        # the beam-wandering fit of the benchmark's pdt_photon records (seed 7)
        pdt.BeamWander(8.893695683025529e-05, 0.001186280206523416, 0.02),
    ], ids=["totalprob_lognormal", "totalprob_beta", "beam_wander", "beam_wander_fit"])
    def test_matches_quad_vec_reference(self, model):
        st = Coherent(2.0)
        got = channel_pmf(st, PdtChannel(model), st.cutoff()).pmf
        assert np.max(np.abs(got - quad_vec_pmf(st, model))) <= 1e-12

    def test_atoms_enter_as_fixed_loss_pmfs(self):
        # wide wander: every radial node is infeasible for Beta, so the
        # model is 64 atoms
        model = pdt.totalprob_model("beta", 4e-4, 4e-4, TARGET, 0.02)
        assert len(model.atoms) == 64
        assert not model.node_models
        st = Coherent(2.0)
        want = sum(w * channel_pmf(st, FixedEta(loc), st.cutoff()).pmf for w, loc in model.atoms)
        got = channel_pmf(st, PdtChannel(model), st.cutoff()).pmf
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_circular_beam(self):
        # the circular-beam fit of the benchmark's pdt_photon records (seed 7)
        model = pdt.CircularBeam(sigma_bw2=7.949231888223333e-05,
                                 mu_S=-6.704201330198932, sigma_S2=0.01582727787537576,
                                 aperture=0.02)
        st = Coherent(2.0)
        ps = channel_pmf(st, PdtChannel(model))
        assert ps.tail_bound <= 1e-9
        assert ps.mean == pytest.approx(st.mean_n * pdt.fractional_moment(model, 1.0),
                                        rel=1e-9)

    def test_long_record_spans_blocks(self):
        vals = np.random.default_rng(3).beta(2.0, 5.0, 20_000)
        ps = channel_pmf(Fock(1), EmpiricalChannel(EmpiricalSample(vals)))
        assert ps.pmf[1] == pytest.approx(vals.mean(), rel=1e-12)
        ps = channel_pmf(Coherent(2.0), EmpiricalChannel(EmpiricalSample(vals)))
        assert ps.mean == pytest.approx(4.0 * vals.mean(), rel=1e-9)

    def test_blocks_bounded_by_elements(self, monkeypatch):
        seeded = []  # (seed photon numbers, nodes) of each block
        matrix = quantum._pmf_matrix
        monkeypatch.setattr(quantum, "_pmf_matrix", lambda state, eta, n: (
            seeded.append((np.array(n), np.array(eta))) or matrix(state, eta, n)))
        vals = np.random.default_rng(3).beta(2.0, 5.0, 20_000)
        channel = EmpiricalChannel(EmpiricalSample(vals))
        ps = channel_pmf(Coherent(30.0), channel, 1097)
        # every node once, in blocks of at most _BLOCK_ELEMENTS seeds x nodes
        assert np.array_equal(np.concatenate([eta for _, eta in seeded]), channel.nodes[0])
        assert max(n.size * eta.size for n, eta in seeded) <= quantum._BLOCK_ELEMENTS
        assert np.array_equal(seeded[0][0], np.arange(0, 1098, quantum._SEED_SPACING))
        assert ps.mean == pytest.approx(900.0 * vals.mean(), rel=1e-9)

    def test_large_coherent_mixture_against_mpmath(self):
        # 50 nodes of the record above, stepped:
        # Poisson pmfs at |alpha|^2 = 900 in 40 digits, by the same ratio
        vals = np.sort(np.random.default_rng(3).beta(2.0, 5.0, 20_000))[::400]
        got = channel_pmf(Coherent(30.0), EmpiricalChannel(EmpiricalSample(vals)),
                          Coherent(30.0).cutoff()).pmf
        want = []
        with mpmath.workdps(40):
            terms = [mpmath.exp(-900 * mpmath.mpf(e)) / vals.size for e in vals]
            for n in range(got.size):
                if n:
                    terms = [t * 900 * mpmath.mpf(e) / n for t, e in zip(terms, vals)]
                want.append(float(mpmath.fsum(terms)))
        want = np.array(want)
        big = want >= 1e-250
        assert big.sum() > 900
        np.testing.assert_allclose(got[big], want[big], rtol=1.5e-12, atol=0.0)

    def test_elliptic_channel_uses_nodes(self):
        model = pdt.EllipticBeam(sigma_bw2=1e-4, mu_S=math.log(4e-4),
                                 Sigma=0.05 * np.eye(2), aperture=0.02)
        eta, weight = model.nodes
        ps = channel_pmf(Fock(1), PdtChannel(model))
        assert ps.pmf[1] == pytest.approx(float(weight @ eta), rel=1e-12)
        ps = channel_pmf(Coherent(2.0), PdtChannel(model))
        assert ps.mean == pytest.approx(4.0 * pdt.fractional_moment(model, 1.0), rel=1e-9)

    def test_circular_benchmark_fit(self):
        # the seed-1 CircularBeam fit of the benchmark's pdt_photon records,
        # whose photon statistics once took 52 s and then raised DomainError
        model = pdt.CircularBeam(sigma_bw2=8.15325948936061e-05, mu_S=-6.7058810285164006,
                                 sigma_S2=0.019788661803269235, aperture=0.02)
        t0 = time.perf_counter()
        ps = channel_pmf(Coherent(2.0), PdtChannel(model))
        assert time.perf_counter() - t0 < 0.1
        assert ps.mean == pytest.approx(4.0 * pdt.fractional_moment(model, 1.0), rel=1e-9)


class TestChannelNodes:
    """Every channel is its point set ``nodes``; channel_pmf and
    quadrature_moments are sums over it."""

    def test_fixed_eta_tail_cut_raises(self):
        with pytest.raises(DomainError):
            channel_pmf(Coherent(4.0), FixedEta(1.0), n_max=5)

    @pytest.mark.parametrize("call", [
        lambda state: channel_pmf(state, FixedEta(1.0), n_max=5),
        lambda state: channel_pmf(state, PdtChannel(BETA22), n_max=5),
    ], ids=["channel_pmf-fixed", "channel_pmf-beta"])
    def test_tail_cut_names_the_cutoff(self, call):
        state = Coherent(4.0)
        with pytest.raises(DomainError, match=f"suggest n_max >= {state.cutoff()}$"):
            call(state)

    def test_empirical_quadrature_moments_are_sample_means(self):
        vals = np.random.default_rng(8).beta(2.0, 5.0, 5000)
        mean_x, var_x = quadrature_moments(Coherent(1.5 - 0.5j),
                                           EmpiricalChannel(EmpiricalSample(vals)))
        m_half, m_one = np.mean(np.sqrt(vals)), np.mean(vals)
        assert mean_x == pytest.approx(3.0 * m_half, rel=1e-14, abs=0.0)
        assert var_x == pytest.approx(1.0 + 9.0 * (m_one - m_half**2), rel=1e-14, abs=0.0)

    def test_channel_nodes_are_read_only(self):
        sample = EmpiricalSample(np.array([0.2, 0.4, 0.9]))
        for channel in (FixedEta(0.3), PdtChannel(BETA22), EmpiricalChannel(sample)):
            for a in channel.nodes:
                with pytest.raises(ValueError):
                    a[0] = 0.5
        sample.values[0] = 0.1  # the record itself stays writable

    def test_totalprob_point_set_built_once(self, monkeypatch):
        builds = []
        mixture = pdt._mixture
        monkeypatch.setattr(pdt, "_mixture", lambda parts: builds.append(1) or mixture(parts))
        model = pdt.totalprob_model("beta", 1e-4, 4e-4, TARGET, 0.02)
        pdt.fractional_moment(model, 0.5)
        pdt.fractional_moment(model, 1.0)
        quadrature_moments(Coherent(2.0), PdtChannel(model))
        assert len(builds) == 1


class TestPmfMatrix:
    ETAS = np.array([0.0, 1e-300, 0.2, 0.5, 0.9, 1.0])

    def test_coherent_is_poisson(self):
        got = _pmf_matrix(Coherent(2.0), self.ETAS, np.arange(26)).T
        want = sps.poisson.pmf(np.arange(26), 4.0 * self.ETAS[:, None])
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    def test_fock_is_binomial(self):
        got = _pmf_matrix(Fock(4), self.ETAS, np.arange(7)).T
        want = sps.binom.pmf(np.arange(7), 4, self.ETAS[:, None])
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    def test_thermal_is_geometric(self):
        m = 1.7 * self.ETAS[:, None]
        got = _pmf_matrix(Thermal(1.7), self.ETAS, np.arange(31)).T
        want = (m / (1.0 + m)) ** np.arange(31) / (1.0 + m)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    @staticmethod
    def out_of_place(state, eta, n_max):
        """The pmf matrix as one expression per state, each step a new array,
        in the formulas of _pmf_matrix (test_within_former_formulas ties the
        thermal and Fock ones to the formulas they replaced)."""
        n = np.arange(n_max + 1)[:, None]
        if isinstance(state, Fock):
            k = n[: state.n + 1]
            logc = -math.log1p(state.n) - special.betaln(state.n - k + 1.0, k + 1.0)
            out = np.zeros((n_max + 1, eta.size))
            out[: state.n + 1] = np.exp(
                logc + special.xlogy(k, eta) + special.xlog1py(state.n - k, -eta))
            return out
        with np.errstate(divide="ignore", invalid="ignore"):
            if isinstance(state, Coherent):
                mu = eta * state.mean_n
                x = np.maximum(n, 1).astype(float)
                bd0 = quantum._bd0(x, mu, np.empty((x.size, mu.size)))
                log_p = -(bd0 + (0.5 * np.log(2.0 * math.pi * x) + quantum._stirlerr(x)))
                return np.exp(np.where(n == 0, -mu, log_p))
            m = eta * state.nbar
            return np.exp(np.where(n == 0, 0.0, n * -np.log1p(1.0 / m)) - np.log1p(m))

    @pytest.mark.parametrize("state, n_max", [
        (Coherent(2.0), 25), (Fock(4), 6), (Thermal(1.7), 30),
    ], ids=["coherent", "fock", "thermal"])
    def test_in_place_is_bitwise_out_of_place(self, state, n_max):
        got = _pmf_matrix(state, self.ETAS, np.arange(n_max + 1))
        assert got.tobytes() == self.out_of_place(state, self.ETAS, n_max).tobytes()

    @staticmethod
    def former(state, eta, n_max):
        """The pmf matrices as computed before their seeds were made
        accurate: n ln mu - mu - ln n! for coherent light, n ln m - (n + 1)
        ln(1 + m) for thermal light, and ln C(N, k) from three gammaln."""
        n = np.arange(n_max + 1)[:, None]
        if isinstance(state, Coherent):
            mu = eta * state.mean_n
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.exp(np.where(n == 0, 0.0, n * np.log(mu)) - mu
                              - special.gammaln(n + 1.0))
        if isinstance(state, Fock):
            k = n[: state.n + 1]
            logc = (special.gammaln(state.n + 1.0) - special.gammaln(k + 1.0)
                    - special.gammaln(state.n - k + 1.0))
            out = np.zeros((n_max + 1, eta.size))
            out[: state.n + 1] = np.exp(
                logc + special.xlogy(k, eta) + special.xlog1py(state.n - k, -eta))
            return out
        m = eta * state.nbar
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.exp(np.where(n == 0, 0.0, n * np.log(m)) - (n + 1) * np.log1p(m))

    @pytest.mark.parametrize("state", [Coherent(2.0), Coherent(30.0), Thermal(1.7),
                                       Thermal(100.0), Fock(4), Fock(60)], ids=repr)
    def test_within_former_formulas(self, state):
        # the former formulas' own error: 1.7e-12 at |alpha|^2 = 900 (n ln mu
        # cancels against mu + ln n!), 2.2e-12 at nbar = 100 (n ln m cancels
        # against (n + 1) ln(1 + m)), 1.1e-13 at N = 60
        n_max = state.cutoff()
        got = _pmf_matrix(state, self.ETAS, np.arange(n_max + 1))
        np.testing.assert_allclose(got, self.former(state, self.ETAS, n_max),
                                   rtol=3e-12, atol=1e-250)


class TestLargeCoherentMean:
    """Coherent seeds in Loader's saddle-point form, and moments about the
    pmf's own total, at mean photon numbers up to 4e6."""

    @pytest.mark.parametrize("mu", [1e4, 1e6, 4e6])
    def test_seeds_match_mpmath(self, mu):
        # 401 photon numbers spread over +-10 sigma about the mean
        sigma = math.sqrt(mu)
        n = np.unique(np.rint(np.linspace(mu - 10 * sigma, mu + 10 * sigma, 401)).astype(int))
        got = _pmf_matrix(Coherent(math.sqrt(mu)), np.array([1.0]), n)[:, 0]
        with mpmath.workdps(40):
            m = mpmath.mpf(mu)
            want = np.array([float(mpmath.exp(int(k) * mpmath.log(m) - m
                                              - mpmath.loggamma(int(k) + 1))) for k in n])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("mean_n", [1e4, 1e5, 1e6])
    def test_fixed_eta_keeps_q_zero(self, mean_n):
        # Q was 2.6e-4 at mean 5e5: the pmf's shortfall from 1 entered the
        # variance times mean^2; the cut itself accounts for Q = -4e-9
        ps = channel_pmf(Coherent(math.sqrt(mean_n)), FixedEta(1.0))
        assert abs(ps.mandel_q) <= 1e-8

    @pytest.mark.parametrize("mean_n", [1e2, 1e4])
    def test_beta_q_is_excess_variance(self, mean_n):
        eta, weight = BETA22.nodes
        m1 = float(np.sum(weight * eta))
        var_eta = float(np.sum(weight * (eta - m1) ** 2))
        ps = channel_pmf(Coherent(math.sqrt(mean_n)), PdtChannel(BETA22))
        assert ps.mandel_q == pytest.approx(mean_n * var_eta / m1, rel=1e-9, abs=0.0)

    def test_large_mean_tail_is_the_cut(self):
        # raised "tail 2.26e-09 exceeds 1e-09" at its own suggested cutoff:
        # the seeds' rounding, not lost mass; what is left out is the
        # Poisson tail beyond n_max
        ps = channel_pmf(Coherent(2e3), FixedEta(1.0))
        n_max = ps.pmf.size - 1
        assert n_max == Coherent(2e3).cutoff()
        assert ps.tail_bound == pytest.approx(sps.poisson.sf(n_max, 4e6), rel=0.0, abs=1e-12)
        assert ps.mean == pytest.approx(4e6, rel=1e-12)


def oracle_pmf(state, eta, n):
    """Per-entry pmf after a fixed loss: scipy's discrete exponential (planck,
    lambda = ln(1 + 1/m)) for thermal light, the vacuum at m = 0; the Poisson
    and the binomial in 40 digits (scipy's poisson.pmf is 3.6e-13 off at mean
    180, its binom.pmf 1.1e-13 off at N = 60, eta = 1e-300)."""
    if isinstance(state, Thermal):
        m = state.nbar * eta
        return (n == 0).astype(float) if m == 0.0 else sps.planck.pmf(n, math.log1p(1.0 / m))
    if isinstance(state, Coherent):
        if eta == 0.0:
            return (n == 0).astype(float)
        with mpmath.workdps(40):
            m = mpmath.mpf(state.mean_n) * mpmath.mpf(eta)
            return np.array([float(mpmath.exp(int(k) * mpmath.log(m) - m
                                              - mpmath.loggamma(int(k) + 1))) for k in n])
    with mpmath.workdps(40):
        e = mpmath.mpf(eta)
        return np.array([float(mpmath.binomial(state.n, int(k)) * e**int(k)
                               * (1 - e) ** (state.n - int(k))) for k in n])


class TestPerEntryOracles:
    """Each pmf entry after a fixed loss (a FixedEta channel: stepped from
    every 32nd entry for coherent and thermal light, every entry seeded for
    Fock states) and one node's column sum, at rel 1e-13."""

    ETAS = [0.0, 1e-300, 0.2, 0.5, 0.9, 1.0]
    STATES = [Coherent(2.0), Thermal(1.7), Thermal(100.0), Coherent(30.0), Fock(4), Fock(60)]

    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize("state", STATES, ids=repr)
    def test_loss_pmf(self, state, eta):
        got = channel_pmf(state, FixedEta(eta)).pmf
        want = oracle_pmf(state, eta, np.arange(got.size))
        # entries lost with a seed that underflows (|alpha|^2 = 900 from
        # eta = 0.9 on) must be below 1e-268 (module docstring)
        lost = (got == 0.0) & (want < 1e-268)
        np.testing.assert_allclose(got[~lost], want[~lost], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize("state", STATES[:3], ids=repr)
    def test_stepped(self, state, eta):
        n_max = state.cutoff()  # 22, 51 and 2316: 1, 2 and 73 seeds
        got = quantum._weighted_columns(state, np.array([eta]), np.ones(1), n_max,
                                        quantum._SEED_SPACING).ravel()[: n_max + 1]
        want = oracle_pmf(state, eta, np.arange(n_max + 1))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


class PointSet:
    """A bare channel: transmittances with positive weights summing to 1."""

    def __init__(self, points):
        eta, weight = (np.array(v) for v in zip(*points))
        self.eta, self.weight = eta, weight / math.fsum(weight)
        self.nodes = (eta, self.weight)

    def moment(self, p):
        return math.fsum(self.weight * self.eta**p)


POINT_SETS = hst.builds(
    PointSet,
    hst.lists(hst.tuples(hst.floats(0.1, 1.0), hst.floats(0.1, 1.0)), min_size=1, max_size=6))


def pmf_moments(pmf):
    """<n> and <n(n - 1)> of a pmf, summed exactly rounded."""
    n = np.arange(pmf.size, dtype=float)
    return math.fsum(n * pmf), math.fsum(n * (n - 1.0) * pmf)


def assert_mandel_q(got, want, mean, fact2):
    """Q at rel 1e-12 of the larger of |Q| and <n^2> / <n>, the terms that
    Q = (<n^2> - <n>^2 - <n>) / <n> is the difference of."""
    assert abs(got - want) <= 1e-12 * max(abs(want), (fact2 + mean) / mean)


class TestMomentOracles:
    """Closed-form moments of the mixture pmf over random point sets."""

    @settings(max_examples=60, deadline=None)
    @given(points=POINT_SETS, alpha=hst.floats(1.0, 4.0))
    def test_coherent_mean_and_mandel_q(self, points, alpha):
        # n_max 100 leaves e^-70 of the mass out at |alpha|^2 = 16
        ps = channel_pmf(Coherent(alpha), points, n_max=100)
        m1, m2 = points.moment(1), points.moment(2)
        mean, fact2 = pmf_moments(ps.pmf)
        assert mean == pytest.approx(alpha**2 * m1, rel=1e-12, abs=0.0)
        assert fact2 == pytest.approx(alpha**4 * m2, rel=1e-12, abs=0.0)
        var_eta = math.fsum(points.weight * (points.eta - m1) ** 2)
        assert_mandel_q(ps.mandel_q, alpha**2 * var_eta / m1, mean, fact2)

    @settings(max_examples=60, deadline=None)
    @given(points=POINT_SETS, nbar=hst.floats(0.5, 5.0))
    def test_thermal_factorial_moment(self, points, nbar):
        # n_max 400 leaves (5/6)^400 = 2e-32 of the mass out at nbar = 5
        ps = channel_pmf(Thermal(nbar), points, n_max=400)
        mean, fact2 = pmf_moments(ps.pmf)
        assert mean == pytest.approx(nbar * points.moment(1), rel=1e-12, abs=0.0)
        assert fact2 == pytest.approx(2.0 * nbar**2 * points.moment(2), rel=1e-12, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(points=POINT_SETS, n=hst.integers(1, 40))
    def test_fock_mandel_q(self, points, n):
        ps = channel_pmf(Fock(n), points)
        m1, m2 = points.moment(1), points.moment(2)
        mean, fact2 = pmf_moments(ps.pmf)
        assert mean == pytest.approx(n * m1, rel=1e-12, abs=0.0)
        assert fact2 == pytest.approx(n * (n - 1) * m2, rel=1e-12, abs=1e-300)
        assert_mandel_q(ps.mandel_q, (n - 1) * m2 / m1 - n * m1, mean, fact2)


class TestQuadratureMoments:
    def test_vacuum_untouched(self):
        mean_x, var_x = quadrature_moments(Coherent(0.0), PdtChannel(BETA22))
        assert mean_x == 0.0
        assert var_x == pytest.approx(1.0, abs=1e-12)

    def test_fixed_eta_stays_coherent(self):
        mean_x, var_x = quadrature_moments(Coherent(1.5), FixedEta(0.36))
        assert mean_x == pytest.approx(2 * 1.5 * 0.6, rel=1e-12)
        assert var_x == pytest.approx(1.0, abs=1e-12)

    def test_fluctuating_channel_adds_excess_noise(self):
        _, var_x = quadrature_moments(Coherent(2.0), PdtChannel(BETA22))
        assert var_x > 1.0
        m_half = pdt.fractional_moment(BETA22, 0.5)
        m_one = pdt.fractional_moment(BETA22, 1.0)
        assert var_x == pytest.approx(1.0 + 16.0 * (m_one - m_half**2), rel=1e-6)

    def test_rejects_noncoherent(self):
        with pytest.raises(DomainError):
            quadrature_moments(Fock(1), FixedEta(0.5))


def node_sums() -> dict:
    """Sums over point sets of more than 10 000 nodes, as float.hex strings."""
    model = pdt.totalprob_model("beta", 1e-4, 4e-4, pdt.MomentPair(0.5, 0.28), 0.02)
    channel = EmpiricalChannel(EmpiricalSample(
        np.random.default_rng(12).beta(2.0, 5.0, 200_000)))
    out = {f"fractional_moment({p})": pdt.fractional_moment(model, p)
           for p in (0.5, 1.0, 2.0)}
    elliptic = pdt.EllipticBeam(8.1e-5, math.log(1.2e-3),
                                np.array([[0.04, 0.015], [0.015, 0.04]]), 0.02)
    out["elliptic nodes"] = elliptic.nodes[0]  # 36 864 nodes
    out["quadrature_moments"] = quadrature_moments(Coherent(2.0), channel)
    for state in (Coherent(2.0), Coherent(6.0), Coherent(30.0), Thermal(100.0)):
        # n_max 22, 80, 1097 and 2316
        ps = channel_pmf(state, channel)
        out[f"channel_pmf({state})"] = (*ps.pmf, ps.mean, ps.variance)
    return {key: [float(v).hex() for v in np.atleast_1d(value)]
            for key, value in out.items()}


def test_node_sums_do_not_depend_on_blas_threads():
    # a pool worker runs OpenBLAS on one thread; this process keeps its own
    spawn = multiprocessing.get_context("spawn")
    with cf.ProcessPoolExecutor(max_workers=1, mp_context=spawn,
                                initializer=propagation._one_blas_thread) as pool:
        in_worker = pool.submit(node_sums)
        here = node_sums()
        assert in_worker.result(timeout=300) == here


@pytest.mark.parametrize("build", [
    lambda: Thermal(math.nan),
    lambda: Thermal(math.inf),
    lambda: Thermal(0.0),
    lambda: Fock(2.5),
    lambda: Fock(np.float64(3.0)),
    lambda: Fock(-1),
], ids=["thermal-nan", "thermal-inf", "thermal-zero", "fock-fraction", "fock-float",
        "fock-negative"])
def test_bad_state_rejected(build):
    with pytest.raises(DomainError):
        build()


def test_fock_accepts_numpy_integers():
    ps = channel_pmf(Fock(np.int64(3)), FixedEta(0.5))
    assert np.max(np.abs(ps.pmf - channel_pmf(Fock(3), FixedEta(0.5)).pmf)) == 0.0


@pytest.mark.parametrize("call", [
    lambda n_max: channel_pmf(Coherent(2.0), FixedEta(0.5), n_max),
    lambda n_max: channel_pmf(Coherent(2.0), PdtChannel(BETA22), n_max),
], ids=["channel_pmf", "pdt_channel"])
def test_n_max_must_be_a_non_negative_integer(call):
    # -1 once raised ZeroDivisionError, 2.5 numpy's TypeError
    for bad in (-1, 2.5, np.float64(30.0)):
        with pytest.raises(DomainError, match="n_max"):
            call(bad)
    want = call(30).pmf
    assert np.array_equal(call(np.int64(30)).pmf, want)


class TestNMaxSizing:
    def test_fock_cutoff(self):
        assert Fock(5).cutoff() == 5

    def test_fock_cutoff_below_occupation(self):
        # n_max < N: the tail contract names the cutoff, and at eta = 0 the
        # truncated pmf is exact (both once raised "below Fock occupation")
        with pytest.raises(DomainError, match="suggest n_max >= 4$"):
            channel_pmf(Fock(4), FixedEta(0.5), n_max=2)
        assert channel_pmf(Fock(4), FixedEta(0.0), n_max=2).pmf.tolist() == [1.0, 0.0, 0.0]

    def test_poisson_tail(self):
        n = Coherent(2.0).cutoff()
        from scipy import stats as sps

        assert sps.poisson.sf(n, 4.0) <= 1e-9

    @pytest.mark.parametrize("mean_n", [4.0, 1755.4288385871241, 1e4, 1e6])
    def test_poisson_cutoff_is_the_smallest(self, mean_n):
        # P(N > k) = P(Gamma(k + 1) < mean_n), in 40 digits; at 1755.43 a
        # running sum of the pmf is 1e-12 off and would give one more
        n = Coherent(math.sqrt(mean_n)).cutoff()
        with mpmath.workdps(40):
            tail = [mpmath.gammainc(k + 1, 0, mean_n, regularized=True) for k in (n, n - 1)]
        assert tail[0] <= 1e-10 < tail[1]

    def test_cutoff_follows_largest_transmittance(self):
        # at eta = 1 the cutoff is 1 006 368, where the mass above
        # n = 504 505 is below 1e-10
        ps = channel_pmf(Coherent(1e3), FixedEta(0.5))
        assert ps.pmf.size == 504_506
        assert ps.tail_bound <= 1e-9

    def test_cutoff_error_names_the_transmittance(self):
        with pytest.raises(DomainError, match=r"\|alpha\|\^2=1e\+12 at eta_max=0\.5 "):
            Coherent(1e6).cutoff(0.5)
        with pytest.raises(DomainError, match=re.escape("nbar=1e+17 at eta_max=0.5 ")):
            Thermal(1e17).cutoff(0.5)

    @pytest.mark.parametrize("eta_max", [math.nan, -0.5, 1.5, math.inf])
    @pytest.mark.parametrize("state", [Coherent(1.0), Thermal(1.0), Fock(3)],
                             ids=["coherent", "thermal", "fock"])
    def test_cutoff_rejects_transmittance_outside_unit_interval(self, state, eta_max):
        # Thermal raised a bare ValueError at NaN and -0.5, Coherent called
        # NaN "too large" and gave 14 at 1.5, Fock ignored eta_max
        with pytest.raises(DomainError, match=re.escape(f"eta_max={eta_max} must lie in [0, 1]")):
            state.cutoff(eta_max)

    def test_mixture_cutoff_at_largest_node(self):
        vals = np.array([0.1, 0.3, 0.45])
        st = Coherent(30.0)
        ps = channel_pmf(st, EmpiricalChannel(EmpiricalSample(vals)))
        assert ps.pmf.size == st.cutoff(0.45) + 1 < st.cutoff() + 1
        assert ps.tail_bound <= 1e-9
        with pytest.raises(DomainError, match=f"suggest n_max >= {st.cutoff(0.45)}$"):
            channel_pmf(st, EmpiricalChannel(EmpiricalSample(vals)), 300)

    def test_large_coherent_state(self):
        # the cutoff once stopped at n = 10 000 and left half the mass out
        ps = channel_pmf(Coherent(100.0), FixedEta(1.0))
        assert ps.mean == pytest.approx(1e4, rel=1e-9)
        assert ps.tail_bound <= 1e-9

    def test_thermal_tail(self):
        st = Thermal(3.0)
        n = st.cutoff()
        assert (3.0 / 4.0) ** (n + 1) <= 1e-9

    @pytest.mark.parametrize("nbar", [1e16, 1e17, 1e300])
    def test_thermal_ratio_rounding_to_one_raises(self, nbar):
        # nbar / (1 + nbar) rounds to 1: the tail never falls (this once
        # raised ZeroDivisionError); at 1e15 the cutoff is 2.3e16
        with pytest.raises(DomainError, match=re.escape(f"nbar={nbar}")):
            Thermal(nbar).cutoff()
        assert Thermal(1e15).cutoff() == pytest.approx(2.3e16, rel=0.01)

    @pytest.mark.parametrize("state,n_max", [
        (Thermal(1e7), None),  # default cutoff 230 258 522
        (Thermal(1e15), None),
        (Coherent(2.0), 2**40),
    ], ids=["thermal-1e7", "thermal-1e15", "explicit-2^40"])
    def test_cutoff_above_cap_raises_before_allocating(self, state, n_max):
        # Thermal(1e7) once raised numpy's MemoryError for 1.72 GiB, and
        # Thermal(1e15) for 164 PiB
        assert quantum.MAX_PMF_ENTRIES == 2**26
        named = f"n_max={state.cutoff(0.5) if n_max is None else n_max} "
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=re.escape(named)) as err:
                channel_pmf(state, FixedEta(0.5), n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(state) in str(err.value)
        assert f"mean photon number {state.mean_n:g}" in str(err.value)
        assert peak < 2**16

    @pytest.mark.parametrize("alpha", [1e5, 1e6, 1e100])
    def test_coherent_far_above_cap_raises(self, alpha):
        # scipy's Poisson quantile is NaN from |alpha|^2 = 9.9e10 on,
        # which once raised ValueError converting it to an integer
        with pytest.raises(DomainError, match="alpha"):
            channel_pmf(Coherent(alpha), FixedEta(0.5))

    def test_cutoff_at_cap_is_accepted(self):
        # n_max + 1 = 2^26 entries is the largest cutoff _cutoff lets through
        assert quantum._cutoff(Thermal(1.0), 2**26 - 1) == 2**26 - 1
        with pytest.raises(DomainError, match="cap of 2\\^26"):
            quantum._cutoff(Thermal(1.0), 2**26)


class TestErgodicityReport:
    def test_iid_model_samples_close(self):
        gen = np.random.default_rng(21)
        series = gen.beta(2.0, 2.0, 100_000)
        rep = ergodicity_report(Coherent(1.0), BETA22, series)
        assert isinstance(rep, ErgodicityReport)
        assert rep.tv_distance <= 0.01
        assert rep.effective_samples > 10_000

    def test_constant_series_vs_fixed_eta(self):
        series = np.full(500, 0.37)
        # distance between the empirical channel and the matching point mass
        emp = channel_pmf(Coherent(1.0), EmpiricalChannel(EmpiricalSample(series)))
        fix = channel_pmf(Coherent(1.0), FixedEta(0.37))
        assert 0.5 * np.sum(np.abs(emp.pmf - fix.pmf)) == pytest.approx(0.0, abs=1e-12)

    def test_short_correlated_series_reports_without_gate(self):
        gen = np.random.default_rng(5)
        base = np.clip(0.5 + 0.1 * np.cumsum(gen.standard_normal(40)) / 6.0, 0.0, 1.0)
        rep = ergodicity_report(Fock(1), BETA22, base)
        assert rep.tv_distance >= 0.0  # diagnostic only, no assertion on size
        assert rep.autocorr_time_steps >= 1.0

    @pytest.mark.parametrize("state", [Coherent(1.0), Thermal(1.0)], ids=["coherent", "thermal"])
    @pytest.mark.parametrize("series,match", [
        ([], "empty sample"),
        ([0.3, float("nan"), 0.5], "must be finite"),
    ], ids=["empty", "nan"])
    def test_bad_series_raises_before_cutoff(self, state, series, match):
        # the series is checked before it sizes the pmfs' common cutoff
        with pytest.raises(DomainError, match=match):
            ergodicity_report(state, BETA22, series)
