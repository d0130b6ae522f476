"""Simple quantum states through fluctuating-loss channels.

A pure-loss channel of transmittance eta maps photon statistics by
Bernoulli thinning: coherent stays Poisson (mean eta |alpha|^2), Fock n
becomes Binomial(n, eta), thermal stays geometric with mean eta nbar.  A
fluctuating channel is the eta-mixture of loss channels weighted by the
PDT.  Every channel is a weighted point set of transmittances, its
``nodes``: a fixed eta with weight 1, a PDT model's own cached point set,
or a measured record's samples with equal weights; every mixture is a
finite sum over that set.  The Glauber-Sudarshan P
function itself is never represented; everything observable here
(photon-number distributions, quadrature means and variances) follows from
these mixtures.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np
from scipy import special

from .errors import DomainError
from .pdt import PdtModel, _node_sum, _read_only, fractional_moment
from .pdt import model_density  # noqa: F401  (benchmarks/workloads.py traces it here)
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
# pmf entries per block of channel_pmf, a block being the pmf rows of
# consecutive transmittances: 512 kB whatever n_max is, unless one row is longer
_BLOCK_ELEMENTS = 1 << 16


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
        if not (isinstance(self.n, numbers.Integral) and self.n >= 0):
            raise DomainError(f"Fock: n={self.n!r} must be an integer >= 0")

    @property
    def mean_n(self) -> float:
        return float(self.n)


@dataclass(frozen=True)
class Thermal:
    nbar: float

    def __post_init__(self):
        if not (0.0 < self.nbar < math.inf):
            raise DomainError(f"Thermal: nbar={self.nbar} must be finite and > 0")

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

    @cached_property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        return _read_only(np.array([float(self.eta)]), np.ones(1))


@dataclass(frozen=True)
class PdtChannel:
    model: PdtModel

    @property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        return self.model.nodes


@dataclass(frozen=True)
class EmpiricalChannel:
    sample: EmpiricalSample

    @cached_property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        eta = self.sample.values
        return _read_only(eta.view(), np.full(eta.size, 1.0 / eta.size))


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


def default_n_max(state: InputState) -> int:
    """Smallest cutoff keeping the eta = 1 tail below the tail contract."""
    if isinstance(state, Fock):
        return state.n
    if isinstance(state, Coherent):
        mu = state.mean_n
        if mu == 0.0:
            return 0
        # smallest n with P(N > n) <= 0.1 TAIL_BOUND, searched from the quantile
        n = max(int(special.pdtrik(1.0 - 0.1 * TAIL_BOUND, mu)), 0)
        while special.pdtrc(n, mu) > 0.1 * TAIL_BOUND:
            n += 1
        while n > 0 and special.pdtrc(n - 1, mu) <= 0.1 * TAIL_BOUND:
            n -= 1
        return n
    # thermal tail: (nbar / (1 + nbar))^(n+1)
    ratio = state.nbar / (1.0 + state.nbar)
    n = int(math.ceil(math.log(0.1 * TAIL_BOUND) / math.log(ratio))) + 1
    return max(n, 1)


def _n_log(n: np.ndarray, x: np.ndarray) -> np.ndarray:
    """n ln x for n = 0, 1, ... along rows and x >= 0 down a column, with
    0 ln 0 = 0 (``special.xlogy`` gives the same, at three times the cost)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = n * np.log(x)
    out[:, 0] = 0.0
    return out


def _pmf_matrix(state: InputState, eta, n_max: int) -> np.ndarray:
    """Photon-number pmfs after fixed-loss channels: row i, entries 0..n_max,
    for transmittance eta[i]."""
    eta = np.asarray(eta, dtype=float)[:, None]
    n = np.arange(n_max + 1)
    if isinstance(state, Coherent):
        mu = eta * state.mean_n
        out = _n_log(n, mu)
        out -= mu
        out -= special.gammaln(n + 1.0)
    elif isinstance(state, Fock):
        if state.n > n_max:
            raise DomainError(f"n_max={n_max} below Fock occupation {state.n}")
        k = n[: state.n + 1]
        logc = (special.gammaln(state.n + 1.0) - special.gammaln(k + 1.0)
                - special.gammaln(state.n - k + 1.0))
        out = np.zeros((eta.shape[0], n_max + 1))
        log_pmf = special.xlogy(k, eta, out=out[:, : state.n + 1])
        log_pmf += logc
        log_pmf += special.xlog1py(state.n - k, -eta)
        np.exp(log_pmf, out=log_pmf)
        return out
    else:  # thermal
        m = eta * state.nbar
        out = _n_log(n, m)
        out -= (n + 1) * np.log1p(m)
    return np.exp(out, out=out)


def _stats_from_pmf(pmf: np.ndarray, state: InputState, caller: str) -> PhotonStats:
    """Moments of a pmf over 0..n_max; raises :class:`DomainError`, naming
    the cutoff that would do, when the pmf leaves more than ``TAIL_BOUND``
    of the mass beyond n_max."""
    n = np.arange(pmf.size)
    total = float(pmf.sum())
    tail = max(1.0 - total, 0.0)
    if tail > TAIL_BOUND:
        raise DomainError(
            f"{caller}: tail {tail:.2e} exceeds {TAIL_BOUND} at n_max={pmf.size - 1}; "
            f"suggest n_max >= {default_n_max(state)}"
        )
    mean = _node_sum(pmf, n)
    second = _node_sum(pmf, n * n)
    var = second - mean * mean
    q = (var - mean) / mean if mean > 0.0 else 0.0
    return PhotonStats(pmf=pmf, mean=mean, variance=var, mandel_q=q,
                       tail_bound=tail)


def _cutoff(state: InputState, n_max, caller: str) -> int:
    """``n_max``, or ``default_n_max(state)`` for None; raises
    :class:`DomainError` unless it is an integer >= 0 (numpy's too)."""
    if n_max is None:
        return default_n_max(state)
    if not (isinstance(n_max, numbers.Integral) and n_max >= 0):
        raise DomainError(f"{caller}: n_max={n_max!r} must be an integer >= 0")
    return int(n_max)


def loss_pmf(state: InputState, eta: float, n_max: Optional[int] = None) -> PhotonStats:
    """Photon statistics after a fixed-transmittance loss channel; raises
    :class:`DomainError` as :func:`channel_pmf` does when ``n_max`` cuts the
    tail."""
    if not (0.0 <= eta <= 1.0):
        raise DomainError("loss_pmf: eta must be in [0, 1]")
    n_max = _cutoff(state, n_max, "loss_pmf")
    return _stats_from_pmf(_pmf_matrix(state, [eta], n_max)[0], state, "loss_pmf")


def channel_pmf(state: InputState, channel: ChannelSpec,
                n_max: Optional[int] = None) -> PhotonStats:
    """Photon statistics after a (possibly fluctuating) loss channel.

    The pmf is sum_i w_i pmf(state, eta_i) over the channel's point set
    ``channel.nodes`` (eta_i, w_i), taken over blocks of at most
    ``_BLOCK_ELEMENTS`` pmf entries, so that memory stays bounded for long
    records and large n_max alike.  Each block's weighted sum is an
    ``einsum``, not a BLAS product: OpenBLAS hands a large product to its
    other threads, at a flat cost of some 8 ms per call on a 2-core host, and
    the last bits of the pmf would then depend on the thread count.  Raises
    :class:`DomainError`, naming ``default_n_max(state)``, when ``n_max``
    leaves more than ``TAIL_BOUND`` of the mass out.
    """
    n_max = _cutoff(state, n_max, "channel_pmf")
    eta, weight = channel.nodes
    rows = max(_BLOCK_ELEMENTS // (n_max + 1), 1)
    pmf = np.zeros(n_max + 1)
    for i in range(0, eta.size, rows):
        block = _pmf_matrix(state, eta[i:i + rows], n_max)
        pmf += np.einsum("i,ij->j", weight[i:i + rows], block)
    return _stats_from_pmf(pmf, state, "channel_pmf")


def quadrature_moments(state: Coherent, channel: ChannelSpec) -> tuple[float, float]:
    """Mean and variance of x = a + a^dag for a coherent input.

    mean_x = 2 Re(alpha) <sqrt(eta)>;
    var_x = 1 + 4 Re(alpha)^2 (<eta> - <sqrt(eta)>^2) >= 1, with equality
    iff the channel transmittance is deterministic.  The two moments of eta
    are sums over ``channel.nodes``, taken without BLAS as in
    :func:`~turbchan.pdt.fractional_moment`.
    """
    if not isinstance(state, Coherent):
        raise DomainError("quadrature_moments: coherent input only")
    eta, weight = channel.nodes
    m_half, m_one = _node_sum(weight, eta**0.5), _node_sum(weight, eta)
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
