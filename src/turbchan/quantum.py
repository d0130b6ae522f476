"""Simple quantum states through fluctuating-loss channels.

A pure-loss channel of transmittance eta maps photon statistics by
Bernoulli thinning: coherent stays Poisson (mean eta |alpha|^2), Fock n
becomes Binomial(n, eta), thermal stays geometric with mean eta nbar.  A
fluctuating channel is the eta-mixture of loss channels weighted by the
PDT.  Every channel is a weighted point set of transmittances, its
``nodes``: a fixed eta with weight 1, a PDT model's own cached point set,
or a measured record's samples with equal weights; every mixture is a
finite sum over that set.  The Glauber-Sudarshan P function itself is
never represented; everything observable here (photon-number
distributions, quadrature means and variances) follows from these
mixtures.  Each input state gives its own law: its eta = 1 cutoff, its
log-space pmf entries and its ratio P(n + 1) / P(n), if it steps.

Accuracy.  A pmf entry after a fixed loss is the ``exp`` of its logarithm.
The Poisson logarithm at mean m = |alpha|^2 eta is taken in Loader's
saddle-point form, whose terms do not cancel: it is good to about
(|ln P| + ln n) ulp where n lies within 20 % of m, and to about n ulp
beyond, where P < e^(-n/100).  Against 40 digits: 3e-15 relative at
m = 4, 1.4e-13 at m = 900, 1.1e-12 at m = 1e4 on entries >= 1e-250, and
1.2e-14 within 10 standard deviations of m = 4e6.  (The direct n ln m - m - ln n! would lose
about n ln m ulp: at m = 4e6 its pmf sums to 1 - 2.3e-9.)  A mixture seeds
only every 32nd photon number n0 = 0, 32, 64, ... that way and steps from
each to the next 31 by the state's ratio, with no ``exp``; the steps add at
most 62 roundings, 7e-15, to an entry.  An entry lost to a seed that
underflows is below 1e-268 (scanned over |alpha|^2 eta up to 1e5).  On 50
nodes at |alpha|^2 = 900 the pmf is 1.6e-13 off a 40-digit sum on entries
>= 1e-250, where seeding every entry is 2.6e-13 off.  Fock states, which
have no ratio, and mixtures of fewer than 2^15 pmf entries (nodes x photon
numbers), where a step's Python overhead costs more than the ``exp``s it
saves, seed every entry.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import DomainError
from .numerics import _OnFirstUse
from .pdt import PdtModel, _node_sum, _read_only, fractional_moment
from .pdt import model_density  # noqa: F401  (benchmarks/workloads.py traces it here)
from .stats import EmpiricalSample, integrated_autocorr_time

# scipy.special, imported at its first use, not with this module (see
# turbchan.numerics)
special = _OnFirstUse(globals(), "scipy.special")

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


# stirlerr(n) = ln n! - (n + 1/2) ln n + n - ln(2 pi) / 2 at n = 0 .. 15 (the
# n = 0 entry unused), rounded from 40 digits
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])


def _stirlerr(x: np.ndarray) -> np.ndarray:
    """stirlerr(x) at integers x >= 1 (as floats): the table to 15, beyond
    it Stirling's series to 1 / (1188 x^9), whose next term is below
    1e-16 there (Loader, 2000)."""
    xx = x * x
    out = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / xx) / xx) / xx) / xx) / x
    small = x <= 15.0
    out[small] = _STIRLERR[x[small].astype(int)]
    return out


# |v| < 0.1 for v = (x - mu) / (x + mu) = tanh(ln(x / mu) / 2)
_BD0_NEAR = 2.0 * math.atanh(0.1)


def _bd0(x: np.ndarray, mu: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x ln(x / mu) + mu - x >= 0 for x >= 1 and mu >= 0, into ``out``.

    Where |v| < 0.1, v = (x - mu) / (x + mu), the terms cancel, and the
    value is (x - mu) v + 2 x sum_j v^(2j+1) / (2j + 1), to j = 9 (Loader,
    2000): the series' first left-out term is below 1e-18 of its first.
    """
    with np.errstate(divide="ignore", over="ignore"):  # x / mu = inf: P = 0
        np.divide(x, mu, out=out)
        np.log(out, out=out)
    near = np.abs(out) < _BD0_NEAR
    out *= x
    out += mu
    out -= x
    if near.any():
        x, mu = np.broadcast_to(x, near.shape)[near], np.broadcast_to(mu, near.shape)[near]
        d = x - mu
        v = d / (x + mu)
        v2 = v * v
        series = v2 / 19.0
        for j in range(8, 0, -1):
            series += 1.0 / (2 * j + 1)
            series *= v2
        out[near] = d * v + 2.0 * x * v * series
    return out


@dataclass(frozen=True)
class Coherent:
    alpha: complex

    def __post_init__(self):
        try:
            finite = math.isfinite(self.mean_n)
        except OverflowError:  # abs(alpha) ** 2 overflows above |alpha| = 1.34e154
            finite = False
        if not finite:
            raise DomainError(f"Coherent: alpha={self.alpha!r} needs a finite |alpha|^2")

    @property
    def mean_n(self) -> float:
        return abs(self.alpha) ** 2

    def cutoff(self, eta_max: float = 1.0) -> int:
        """Smallest n_max leaving at most 0.1 ``TAIL_BOUND`` out at
        transmittance ``eta_max``, and so at any lower one."""
        mu = self.mean_n * eta_max
        if mu == 0.0:
            return 0
        # smallest n with P(N > n) <= 0.1 TAIL_BOUND, searched from the quantile
        n = special.pdtrik(1.0 - 0.1 * TAIL_BOUND, mu)
        if math.isnan(n):  # scipy gives NaN from mu = 9.9e10 on, far beyond the cap
            raise DomainError(f"Coherent: |alpha|^2={self.mean_n:g} at eta_max={eta_max:g} "
                              "is too large for a cutoff")
        n = max(int(n), 0)
        while special.pdtrc(n, mu) > 0.1 * TAIL_BOUND:
            n += 1
        while n > 0 and special.pdtrc(n - 1, mu) <= 0.1 * TAIL_BOUND:
            n -= 1
        return n

    def log_pmf(self, eta, n):
        """Poisson in Loader's saddle-point form, mu = |alpha|^2 eta:
        -bd0(n, mu) - ln(2 pi n) / 2 - stirlerr(n), and -mu at n = 0."""
        mu = eta * self.mean_n
        out = np.empty((n.shape[0], mu.size))
        first = int(n[0, 0] == 0)
        np.negative(mu, out=out[:first])
        if first < n.shape[0]:
            x = n[first:].astype(float)
            rows = _bd0(x, mu, out[first:])
            rows += 0.5 * np.log(2.0 * math.pi * x) + _stirlerr(x)
            np.negative(rows, out=rows)
        return out

    def ratio(self, eta, n0, spacing):
        """|alpha|^2 eta / (n + 1): |alpha|^2 eta per node, n0! / n! per row."""
        # n0! / (n0 + k)! = 1 / (n0 + 1) / ... / (n0 + k), one division at a
        # time; w P(n0) (|alpha|^2 eta)^k stays below (n0 + 31)^31, finite
        # for any n_max a pmf array can have
        steps = np.arange(spacing)[:, None] + n0.astype(float)
        steps[0] = 1.0
        return eta * self.mean_n, np.divide.accumulate(steps, axis=0)


@dataclass(frozen=True)
class Fock:
    n: int
    ratio = None  # eta / (1 - eta) (N - n) / (n + 1) is singular at eta = 1

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Integral) and self.n >= 0):
            raise DomainError(f"Fock: n={self.n!r} must be an integer >= 0")

    @property
    def mean_n(self) -> float:
        return float(self.n)

    def cutoff(self, eta_max: float = 1.0) -> int:
        return self.n

    def log_pmf(self, eta, n):
        """Binomial: ln C(N, k) + k ln eta + (N - k) ln(1 - eta), -inf for k > N."""
        k = n[n[:, 0] <= self.n]
        # ln C(N, k) by betaln: 7e-15 off at N = 60, where gammaln is 7e-14 off
        logc = -math.log1p(self.n) - special.betaln(self.n - k + 1.0, k + 1.0)
        out = np.full((n.shape[0], eta.size), -np.inf)
        rows = special.xlogy(k, eta, out=out[: k.shape[0]])
        rows += logc
        rows += special.xlog1py(self.n - k, -eta)
        return out


@dataclass(frozen=True)
class Thermal:
    nbar: float

    def __post_init__(self):
        if not (0.0 < self.nbar < math.inf):
            raise DomainError(f"Thermal: nbar={self.nbar} must be finite and > 0")

    @property
    def mean_n(self) -> float:
        return self.nbar

    def cutoff(self, eta_max: float = 1.0) -> int:
        # the tail at transmittance eta_max is (m / (1 + m))^(n + 1), m = nbar eta_max
        m = self.nbar * eta_max
        r = m / (1.0 + m)
        if r == 1.0:
            raise DomainError(f"Thermal: nbar={self.nbar} at eta_max={eta_max:g} is too "
                              "large for a cutoff: m / (1 + m) rounds to 1, m = nbar eta_max")
        if r == 0.0:
            return 0  # vacuum
        return max(int(math.ceil(math.log(0.1 * TAIL_BOUND) / math.log(r))) + 1, 1)

    def log_pmf(self, eta, n):
        """Geometric: n ln r - ln(1 + m), m = nbar eta, ln r = -ln(1 + 1 / m)."""
        m = eta * self.nbar
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = n * -np.log1p(1.0 / m)  # 1 / m overflows below m = 1e-308
        if n[0, 0] == 0:
            out[0] = 0.0  # 0 ln 0 = 0, where ln 0 = -inf gave NaN
        out -= np.log1p(m)
        return out

    def ratio(self, eta, n0, spacing):
        """m / (1 + m), m = nbar eta, with no scale per row."""
        m = eta * self.nbar
        return m / (1.0 + m), 1.0


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


def _pmf_matrix(state: InputState, eta, n) -> np.ndarray:
    """Photon-number pmf entries after fixed-loss channels, each the ``exp``
    of its log: row j, column i holds P(n[j]) at transmittance eta[i], for
    ascending photon numbers n."""
    out = state.log_pmf(np.asarray(eta, dtype=float), np.asarray(n)[:, None])
    return np.exp(out, out=out)


def _weighted_columns(state: InputState, eta: np.ndarray, weight: np.ndarray,
                      n_max: int, spacing: int) -> np.ndarray:
    """sum_i weight_i P(c spacing + k) at transmittance eta_i, as entry
    [c, k] of a (seeds x spacing) array, for photon numbers 0 .. n_max and up
    to spacing - 1 beyond.

    The seeds n0 = 0, spacing, 2 spacing, ... are :func:`_pmf_matrix`'s
    entries; each next photon number multiplies the last by the per-node
    factor of ``state.ratio``, and each seed's row by its scale at the end
    (the accuracy is in the module docstring).
    """
    n0 = np.arange(0, n_max + 1, spacing)
    q = _pmf_matrix(state, eta, n0)
    q *= weight
    sums = np.zeros((spacing, n0.size))  # row k: photon numbers n0 + k
    q.sum(axis=1, out=sums[0])
    if spacing == 1:
        return sums.T
    factor, scale = state.ratio(eta, n0, spacing)
    for k in range(1, min(spacing, n_max + 1)):
        q *= factor
        q.sum(axis=1, out=sums[k])
    return (sums * scale).T


def _cutoff(state: InputState, n_max) -> int:
    """``n_max`` as an int; raises :class:`DomainError`, before anything is
    allocated, unless it is an integer >= 0 (numpy's too) with n_max + 1 at
    most ``MAX_PMF_ENTRIES`` (2^26)."""
    if not (isinstance(n_max, numbers.Integral) and n_max >= 0):
        raise DomainError(f"channel_pmf: n_max={n_max!r} must be an integer >= 0")
    if n_max + 1 > MAX_PMF_ENTRIES:
        raise DomainError(f"channel_pmf: n_max={n_max} for {state} (mean photon number "
                          f"{state.mean_n:g}) exceeds the cap of 2^26 pmf entries")
    return int(n_max)


def channel_pmf(state: InputState, channel: ChannelSpec,
                n_max: Optional[int] = None) -> PhotonStats:
    """Photon statistics after a (possibly fluctuating) loss channel.

    The pmf is sum_i w_i pmf(state, eta_i) over the channel's point set
    ``channel.nodes`` (eta_i, w_i).  Every ``_SEED_SPACING``-th (32nd) entry
    is seeded in log space and the entries between follow by the state's
    ratio (see :func:`_weighted_columns`), so that 31 of 32 entries cost a
    multiplication each, not an ``exp``.  States without a ratio (Fock) and
    point sets with nodes x (n_max + 1) below ``_MIN_STEPPED_ENTRIES``
    (2^15; 1425 nodes at |alpha|^2 = 4) seed every entry.  The accuracy of
    both is stated in the module docstring.

    The nodes go in blocks whose working array, (seeds x nodes), holds at
    most ``_BLOCK_ELEMENTS`` entries, so that memory stays bounded for long
    records and large n_max alike.  The sums over the nodes are numpy's
    pairwise sums in this thread, not BLAS products: OpenBLAS hands a large
    product to its other threads, at a flat cost of some 8 ms per call on a
    2-core host, and the last bits of the pmf would then depend on the
    thread count.  The default ``n_max`` is ``state.cutoff(eta_max)`` at the
    largest node eta_max: no node's pmf has a longer tail.  Raises
    :class:`DomainError`, naming that cutoff, when ``n_max`` leaves more than
    ``TAIL_BOUND`` of the mass out, and, before allocating anything, when
    ``n_max`` (given or default) asks for more than ``MAX_PMF_ENTRIES``
    (2^26) entries: a thermal state's default cutoff does from nbar eta_max
    of about 3e6 on.  The mean and variance are those of the pmf as
    computed, taken about its own total: a shortfall of that total from 1
    does not enter the variance times mean^2.
    """
    eta, weight = channel.nodes
    eta_max = float(eta.max())
    n_max = _cutoff(state, state.cutoff(eta_max) if n_max is None else n_max)
    stepped = state.ratio is not None and eta.size * (n_max + 1) >= _MIN_STEPPED_ENTRIES
    spacing = _SEED_SPACING if stepped else 1
    seeds = -(-(n_max + 1) // spacing)
    rows = max(_BLOCK_ELEMENTS // seeds, 1)
    pmf = np.zeros((seeds, spacing))
    for i in range(0, eta.size, rows):
        pmf += _weighted_columns(state, eta[i:i + rows], weight[i:i + rows],
                                 n_max, spacing)
    pmf = pmf.ravel()[: n_max + 1]
    total = float(pmf.sum())
    tail = max(1.0 - total, 0.0)
    if tail > TAIL_BOUND:
        raise DomainError(f"channel_pmf: tail {tail:.2e} exceeds {TAIL_BOUND} at "
                          f"n_max={n_max}; suggest n_max >= {state.cutoff(eta_max)}")
    n = np.arange(n_max + 1)
    mean = _node_sum(pmf, n) / total
    dev = n - mean
    var = _node_sum(pmf, dev * dev) / total
    return PhotonStats(pmf=pmf, mean=mean, variance=var, tail_bound=tail,
                       mandel_q=(var - mean) / mean if mean > 0.0 else 0.0)


def quadrature_moments(state: Coherent, channel: ChannelSpec) -> tuple[float, float]:
    """Mean and variance of x = a + a^dag for a coherent input.

    mean_x = 2 Re(alpha) <sqrt(eta)>;
    var_x = 1 + 4 Re(alpha)^2 (<eta> - <sqrt(eta)>^2) >= 1, with equality
    iff the channel transmittance is deterministic.  The two moments of eta
    are ``fractional_moment(channel, p)`` at p = 1/2 and p = 1.
    """
    if not isinstance(state, Coherent):
        raise DomainError("quadrature_moments: coherent input only")
    m_half, m_one = fractional_moment(channel, 0.5), fractional_moment(channel, 1.0)
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
    model = PdtChannel(pdt_model)
    emp = EmpiricalChannel(EmpiricalSample(series))  # validates, sorts and clips
    if n_max is None:  # one length for both pmfs
        n_max = state.cutoff(max(float(model.nodes[0].max()), float(emp.nodes[0][-1])))
    model_stats = channel_pmf(state, model, n_max)
    emp_stats = channel_pmf(state, emp, n_max)
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
