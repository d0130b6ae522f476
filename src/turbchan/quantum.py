"""Simple quantum states through fluctuating-loss channels.

A pure-loss channel of transmittance eta maps photon statistics by
Bernoulli thinning: coherent stays Poisson (mean eta |alpha|^2), Fock n
becomes Binomial(n, eta), thermal stays geometric with mean eta nbar.  A
fluctuating channel is the eta-mixture of loss channels weighted by the
PDT, and a measured record enters as the uniform average over its sampled
transmittances.  The Glauber-Sudarshan P function itself is never
represented; everything observable here (photon-number distributions,
quadrature means and variances) follows from these mixtures.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy import integrate, special

from .errors import DomainError
from .pdt import EllipticBeam, PdtModel, fractional_moment, model_density, TotalProb
from .stats import EmpiricalSample, integrated_autocorr_time

__all__ = [
    "Coherent",
    "Fock",
    "Thermal",
    "InputState",
    "FixedEta",
    "PdtChannel",
    "EmpiricalChannel",
    "ChannelSpec",
    "PhotonStats",
    "default_n_max",
    "loss_pmf",
    "channel_pmf",
    "quadrature_moments",
    "ergodicity_report",
    "ErgodicityReport",
]

TAIL_BOUND = 1e-9


@dataclass(frozen=True)
class Coherent:
    alpha: complex

    def __post_init__(self):
        if not cmath.isfinite(self.alpha):
            raise DomainError("Coherent: alpha must be finite")

    @property
    def mean_n(self) -> float:
        return abs(self.alpha) ** 2


@dataclass(frozen=True)
class Fock:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("Fock: n must be >= 0")

    @property
    def mean_n(self) -> float:
        return float(self.n)


@dataclass(frozen=True)
class Thermal:
    nbar: float

    def __post_init__(self):
        if self.nbar <= 0.0:
            raise DomainError("Thermal: nbar must be > 0")

    @property
    def mean_n(self) -> float:
        return self.nbar


InputState = Union[Coherent, Fock, Thermal]


@dataclass(frozen=True)
class FixedEta:
    eta: float

    def __post_init__(self):
        if not (0.0 <= self.eta <= 1.0):
            raise DomainError("FixedEta: eta must be in [0, 1]")


@dataclass(frozen=True)
class PdtChannel:
    model: PdtModel


@dataclass(frozen=True)
class EmpiricalChannel:
    sample: EmpiricalSample


ChannelSpec = Union[FixedEta, PdtChannel, EmpiricalChannel]


@dataclass(frozen=True)
class PhotonStats:
    """Output photon-number distribution with derived moments."""

    pmf: np.ndarray
    mean: float
    variance: float
    mandel_q: float
    tail_bound: float

    def __post_init__(self):
        if np.any(np.asarray(self.pmf) < -1e-15):
            raise DomainError("PhotonStats: negative pmf entry")
        if self.tail_bound > TAIL_BOUND:
            raise DomainError(
                f"PhotonStats: tail bound {self.tail_bound:.2e} exceeds {TAIL_BOUND}"
            )


def default_n_max(state: InputState) -> int:
    """Smallest cutoff keeping the eta = 1 tail below the tail contract."""
    if isinstance(state, Fock):
        return state.n
    if isinstance(state, Coherent):
        mu = state.mean_n
        if mu == 0.0:
            return 0
        n, logp = 0, -mu
        cdf = math.exp(logp)
        while 1.0 - cdf > 0.1 * TAIL_BOUND and n < 10_000:
            n += 1
            logp += math.log(mu) - math.log(n)
            cdf += math.exp(logp)
        return n
    # thermal tail: (nbar / (1 + nbar))^(n+1)
    ratio = state.nbar / (1.0 + state.nbar)
    n = int(math.ceil(math.log(0.1 * TAIL_BOUND) / math.log(ratio))) + 1
    return max(n, 1)


def _pmf_vector(state: InputState, eta: float, n_max: int) -> np.ndarray:
    """Photon-number pmf after a fixed-loss channel, entries 0..n_max."""
    n = np.arange(n_max + 1)
    if isinstance(state, Coherent):
        mu = eta * state.mean_n
        if mu == 0.0:
            out = np.zeros(n_max + 1)
            out[0] = 1.0
            return out
        return np.exp(n * math.log(mu) - mu - special.gammaln(n + 1.0))
    if isinstance(state, Fock):
        if state.n > n_max:
            raise DomainError(f"n_max={n_max} below Fock occupation {state.n}")
        out = np.zeros(n_max + 1)
        k = np.arange(state.n + 1)
        if eta == 0.0:
            out[0] = 1.0
        elif eta == 1.0:
            out[state.n] = 1.0
        else:
            logc = (special.gammaln(state.n + 1.0) - special.gammaln(k + 1.0)
                    - special.gammaln(state.n - k + 1.0))
            out[: state.n + 1] = np.exp(
                logc + k * math.log(eta) + (state.n - k) * math.log1p(-eta)
            )
        return out
    # thermal
    m = eta * state.nbar
    if m == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    return np.exp(n * math.log(m) - (n + 1) * math.log1p(m))


def _stats_from_pmf(pmf: np.ndarray) -> PhotonStats:
    n = np.arange(pmf.size)
    total = float(pmf.sum())
    tail = max(1.0 - total, 0.0)
    mean = float(pmf @ n)
    second = float(pmf @ (n * n))
    var = second - mean * mean
    q = (var - mean) / mean if mean > 0.0 else 0.0
    return PhotonStats(pmf=pmf, mean=mean, variance=var, mandel_q=q,
                       tail_bound=tail)


def loss_pmf(state: InputState, eta: float, n_max: Optional[int] = None) -> PhotonStats:
    """Photon statistics after a fixed-transmittance loss channel."""
    if not (0.0 <= eta <= 1.0):
        raise DomainError("loss_pmf: eta must be in [0, 1]")
    if n_max is None:
        n_max = default_n_max(state)
    pmf = _pmf_vector(state, eta, n_max)
    stats = _stats_from_pmf(pmf)
    if stats.tail_bound > TAIL_BOUND:
        raise DomainError(
            f"loss_pmf: tail {stats.tail_bound:.2e} exceeds {TAIL_BOUND}; "
            f"suggest n_max >= {default_n_max(state)}"
        )
    return stats


def channel_pmf(state: InputState, channel: ChannelSpec,
                n_max: Optional[int] = None) -> PhotonStats:
    """Photon statistics after a (possibly fluctuating) loss channel.

    PDT channels integrate the fixed-loss pmf over the transmittance
    density by adaptive quadrature; empirical channels average uniformly
    over the recorded sample (the statistics-level realization of time
    averaging).  The elliptic-beam model contributes through its cached
    sample set.
    """
    if n_max is None:
        n_max = default_n_max(state)
    if isinstance(channel, FixedEta):
        return loss_pmf(state, channel.eta, n_max)
    if isinstance(channel, EmpiricalChannel):
        values = channel.sample.values
        pmf = np.zeros(n_max + 1)
        # chunked to bound memory for long records
        for block in np.array_split(values, max(1, values.size // 65536)):
            for eta in block:
                pmf += _pmf_vector(state, float(eta), n_max)
        pmf /= values.size
        return _stats_from_pmf(pmf)
    model = channel.model
    if isinstance(model, EllipticBeam):
        return channel_pmf(state, EmpiricalChannel(
            EmpiricalSample(model.samples())), n_max)
    res = integrate.quad_vec(
        lambda e: model_density(model, e) * _pmf_vector(state, e, n_max),
        0.0, 1.0, epsabs=1e-12, epsrel=1e-10,
    )
    pmf = res[0]
    if isinstance(model, TotalProb) and model.atoms:
        for w, loc in model.atoms:
            pmf += w * _pmf_vector(state, loc, n_max)
    return _stats_from_pmf(np.clip(pmf, 0.0, None))


def _channel_eta_moments(channel: ChannelSpec) -> tuple[float, float]:
    """(<sqrt(eta)>, <eta>) for quadrature transforms."""
    if isinstance(channel, FixedEta):
        return math.sqrt(channel.eta), channel.eta
    if isinstance(channel, EmpiricalChannel):
        v = channel.sample.values
        return float(np.mean(np.sqrt(v))), float(np.mean(v))
    m_half = fractional_moment(channel.model, 0.5)
    m_one = fractional_moment(channel.model, 1.0)
    return m_half, m_one


def quadrature_moments(state: Coherent, channel: ChannelSpec) -> tuple[float, float]:
    """Mean and variance of x = a + a^dag for a coherent input.

    mean_x = 2 Re(alpha) <sqrt(eta)>;
    var_x = 1 + 4 Re(alpha)^2 (<eta> - <sqrt(eta)>^2) >= 1, with equality
    iff the channel transmittance is deterministic.
    """
    if not isinstance(state, Coherent):
        raise DomainError("quadrature_moments: coherent input only")
    m_half, m_one = _channel_eta_moments(channel)
    re = state.alpha.real
    mean_x = 2.0 * re * m_half
    var_x = 1.0 + 4.0 * re * re * (m_one - m_half * m_half)
    return mean_x, var_x


@dataclass(frozen=True)
class ErgodicityReport:
    """Ensemble-PDT vs time-record comparison at the statistics level."""

    tv_distance: float
    mean_gap: float
    variance_gap: float
    model_mean_eta: float
    series_mean_eta: float
    autocorr_time_steps: float
    effective_samples: float


def ergodicity_report(state: InputState, pdt_model: PdtModel, eta_series,
                      n_max: Optional[int] = None) -> ErgodicityReport:
    """Compare model-averaged and record-averaged photon statistics.

    Purely diagnostic: reports the total-variation distance between the two
    pmfs, the moment gaps, and the record's integrated autocorrelation time
    (so the caller can judge whether the record is long enough).
    """
    series = np.asarray(eta_series, dtype=float)
    if n_max is None:
        n_max = default_n_max(state)
    model_stats = channel_pmf(state, PdtChannel(pdt_model), n_max)
    emp_stats = channel_pmf(state, EmpiricalChannel(EmpiricalSample(series)), n_max)
    tv = 0.5 * float(np.sum(np.abs(model_stats.pmf - emp_stats.pmf)))
    tau = integrated_autocorr_time(series) if series.size >= 10 else float("nan")
    return ErgodicityReport(
        tv_distance=tv,
        mean_gap=abs(model_stats.mean - emp_stats.mean),
        variance_gap=abs(model_stats.variance - emp_stats.variance),
        model_mean_eta=fractional_moment(pdt_model, 1.0),
        series_mean_eta=float(series.mean()),
        autocorr_time_steps=tau,
        effective_samples=series.size / tau if tau and not math.isnan(tau) else float("nan"),
    )
