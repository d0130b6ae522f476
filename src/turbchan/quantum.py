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

A photon-number pmf entry after a fixed loss is the ``exp`` of its
logarithm, good to about |ln P| ulp (2e-15 relative at |alpha|^2 = 4,
1e-12 at |alpha|^2 = 900).  A mixture computes only every 32nd photon
number n0 = 0, 32, 64, ... that way and steps from each to the next 31 by
the recurrence P(n + 1) = P(n) |alpha|^2 eta / (n + 1) (coherent) or
P(n + 1) = P(n) m / (1 + m), m = nbar eta (thermal), with no ``exp``; the
steps add at most 62 roundings, 7e-15, to an entry.  Fock states, whose
ratio eta / (1 - eta) (N - n) / (n + 1) is singular at eta = 1, and
mixtures of fewer than 2^15 pmf entries (nodes x photon numbers), where a
step's Python overhead costs more than the ``exp``s it saves, take every
entry in log space.
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
# pmf entries per block of channel_pmf, a block being the pmf entries at the
# seed photon numbers of consecutive transmittances: 512 kB whatever n_max
# is, unless the seeds of one transmittance are more
_BLOCK_ELEMENTS = 1 << 16
# photon numbers from one log-space pmf entry to the next in channel_pmf ...
_SEED_SPACING = 32
# ... where nodes x (n_max + 1) reaches this; below it every entry is seeded
_MIN_STEPPED_ENTRIES = 1 << 15
# most pmf entries (n_max + 1) a call may ask for: 512 MiB of float64
MAX_PMF_ENTRIES = 1 << 26


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
    if ratio == 1.0:
        raise DomainError(f"default_n_max: Thermal nbar={state.nbar} is too large: "
                          "nbar / (1 + nbar) rounds to 1")
    n = int(math.ceil(math.log(0.1 * TAIL_BOUND) / math.log(ratio))) + 1
    return max(n, 1)


def _pmf_matrix(state: InputState, eta, n) -> np.ndarray:
    """Photon-number pmf entries after fixed-loss channels, each the ``exp``
    of its log: row j, column i holds P(n[j]) at transmittance eta[i], for
    ascending photon numbers n."""
    eta = np.asarray(eta, dtype=float)
    n = np.asarray(n)[:, None]
    if isinstance(state, Fock):
        if state.n > n[-1, 0]:
            raise DomainError(f"n_max={n[-1, 0]} below Fock occupation {state.n}")
        k = n[n[:, 0] <= state.n]
        # ln C(N, k) by betaln: 7e-15 off at N = 60, where gammaln is 7e-14 off
        logc = -math.log1p(state.n) - special.betaln(state.n - k + 1.0, k + 1.0)
        out = np.zeros((n.shape[0], eta.size))
        log_pmf = special.xlogy(k, eta, out=out[: k.shape[0]])
        log_pmf += logc
        log_pmf += special.xlog1py(state.n - k, -eta)
        np.exp(log_pmf, out=log_pmf)
        return out
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if isinstance(state, Coherent):
            mu = eta * state.mean_n
            out = n * np.log(mu)
        else:  # thermal: r^n / (1 + m), ln r = -ln(1 + 1/m), r = m / (1 + m)
            m = eta * state.nbar
            out = n * -np.log1p(1.0 / m)  # 1 / m overflows below m = 1e-308
    if n[0, 0] == 0:
        out[0] = 0.0  # 0 ln 0 = 0, where ln x = -inf gave NaN
    if isinstance(state, Coherent):
        out -= mu
        out -= special.gammaln(n + 1.0)
    else:
        out -= np.log1p(m)
    return np.exp(out, out=out)


def _weighted_columns(state: InputState, eta: np.ndarray, weight: np.ndarray,
                      n_max: int, spacing: int) -> np.ndarray:
    """sum_i weight_i P(c spacing + k) at transmittance eta_i, as entry
    [c, k] of a (seeds x spacing) array, for photon numbers 0 .. n_max and up
    to spacing - 1 beyond.

    The seeds n0 = 0, spacing, 2 spacing, ... are :func:`_pmf_matrix`'s
    log-space entries.  Each next photon number multiplies the last by the
    state's ratio P(n + 1) / P(n): m / (1 + m), m = nbar eta, for thermal
    light, and |alpha|^2 eta / (n + 1) for coherent light, whose 1 / (n + 1)
    is taken out of the sum over the nodes as the factor n0! / n! of each
    seed's row.  Fock states take spacing 1: their ratio
    eta / (1 - eta) (N - n) / (n + 1) is singular at eta = 1.
    """
    n0 = np.arange(0, n_max + 1, spacing)
    q = _pmf_matrix(state, eta, n0)
    q *= weight
    sums = np.zeros((spacing, n0.size))  # row k: photon numbers n0 + k
    q.sum(axis=1, out=sums[0])
    if spacing == 1:
        return sums.T
    if isinstance(state, Coherent):
        factor = eta * state.mean_n
        # n0! / (n0 + k)! = 1 / (n0 + 1) / ... / (n0 + k), one division at a
        # time; q = w P(n0) (|alpha|^2 eta)^k stays below (n0 + 31)^31,
        # finite for any n_max a pmf array can have
        steps = np.arange(spacing)[:, None] + n0.astype(float)
        steps[0] = 1.0
        scale = np.divide.accumulate(steps, axis=0)
    else:  # thermal
        m = eta * state.nbar
        factor, scale = m / (1.0 + m), 1.0
    for k in range(1, min(spacing, n_max + 1)):
        q *= factor
        q.sum(axis=1, out=sums[k])
    return (sums * scale).T


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
    :class:`DomainError`, before anything is allocated, unless it is an
    integer >= 0 (numpy's too) with n_max + 1 at most ``MAX_PMF_ENTRIES``
    (2^26)."""
    if n_max is None:
        n_max = default_n_max(state)
    elif not (isinstance(n_max, numbers.Integral) and n_max >= 0):
        raise DomainError(f"{caller}: n_max={n_max!r} must be an integer >= 0")
    if n_max + 1 > MAX_PMF_ENTRIES:
        raise DomainError(f"{caller}: n_max={n_max} for {state} (mean photon number "
                          f"{state.mean_n:g}) exceeds the cap of 2^26 pmf entries")
    return int(n_max)


def loss_pmf(state: InputState, eta: float, n_max: Optional[int] = None) -> PhotonStats:
    """Photon statistics after a fixed-transmittance loss channel:
    ``channel_pmf(state, FixedEta(eta), n_max)``.  One node seeds every
    entry in log space up to n_max = 2^15 - 1 (a coherent |alpha|^2 up to
    about 3e4)."""
    return channel_pmf(state, FixedEta(eta), n_max)


def channel_pmf(state: InputState, channel: ChannelSpec,
                n_max: Optional[int] = None) -> PhotonStats:
    """Photon statistics after a (possibly fluctuating) loss channel.

    The pmf is sum_i w_i pmf(state, eta_i) over the channel's point set
    ``channel.nodes`` (eta_i, w_i).  Every ``_SEED_SPACING``-th (32nd) entry
    is seeded in log space and the entries between follow by the recurrence
    in n (see :func:`_weighted_columns`), so that the 31 of 32 entries cost
    a multiplication each, not an ``exp``.  Fock states and point sets with
    nodes x (n_max + 1) below ``_MIN_STEPPED_ENTRIES`` (2^15; 1425 nodes at
    |alpha|^2 = 4) seed every entry.  A seeded entry is good to about
    |ln P| ulp, and 31 steps add at most 62 roundings (7e-15); an entry lost
    to a seed that underflows is below 1e-268 (scanned over |alpha|^2 eta up
    to 1e5).  On 50 nodes at |alpha|^2 = 900 the pmf is 1.04e-12 off a
    40-digit sum on entries >= 1e-250, where seeding every entry is 1.38e-12
    off.

    The nodes go in blocks whose working array, (seeds x nodes), holds at
    most ``_BLOCK_ELEMENTS`` entries, so that memory stays bounded for long
    records and large n_max alike.  The sums over the nodes are numpy's
    pairwise sums in this thread, not BLAS products: OpenBLAS hands a large
    product to its other threads, at a flat cost of some 8 ms per call on a
    2-core host, and the last bits of the pmf would then depend on the
    thread count.  Raises :class:`DomainError`, naming
    ``default_n_max(state)``, when ``n_max`` leaves more than ``TAIL_BOUND``
    of the mass out, and, before allocating anything, when ``n_max`` (given
    or default) asks for more than ``MAX_PMF_ENTRIES`` (2^26) entries: a
    thermal state's default cutoff does from nbar of about 3e6 on.
    """
    n_max = _cutoff(state, n_max, "channel_pmf")
    eta, weight = channel.nodes
    stepped = (eta.size * (n_max + 1) >= _MIN_STEPPED_ENTRIES
               and not isinstance(state, Fock))
    spacing = _SEED_SPACING if stepped else 1
    seeds = -(-(n_max + 1) // spacing)
    rows = max(_BLOCK_ELEMENTS // seeds, 1)
    pmf = np.zeros((seeds, spacing))
    for i in range(0, eta.size, rows):
        pmf += _weighted_columns(state, eta[i:i + rows], weight[i:i + rows],
                                 n_max, spacing)
    return _stats_from_pmf(pmf.ravel()[: n_max + 1], state, "channel_pmf")


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
