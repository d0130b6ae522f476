"""Empirical distribution tools for sampled transmittances.

ECDF, two-sided Kolmogorov-Smirnov statistic, normalized histogram,
boundary-reflected Gaussian KDE, the two-time correlation function with
lag-dependent normalization, postselection, and joint histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptySelectionError

__all__ = [
    "EmpiricalSample",
    "PairSample",
    "ecdf",
    "ks_stat",
    "histogram",
    "kde",
    "silverman_bandwidth",
    "corr_fn",
    "conditional_pdt",
    "two_time_hist",
    "integrated_autocorr_time",
]


@dataclass(frozen=True)
class EmpiricalSample:
    """Sorted transmittance sample on [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise DomainError(f"EmpiricalSample: values must be 1-D, not of shape {v.shape}")
        if v.size == 0:
            raise DomainError("EmpiricalSample: empty sample")
        if not np.all(np.isfinite(v)):
            raise DomainError("EmpiricalSample: values must be finite")
        if np.any(v < -1e-12) or np.any(v > 1.0 + 1e-12):
            raise DomainError("EmpiricalSample: values must lie in [0, 1]")
        object.__setattr__(self, "values", np.sort(np.clip(v, 0.0, 1.0)))

    @property
    def count(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class PairSample:
    """Pairs (eta(t), eta(t + tau)) at one fixed lag."""

    eta1: np.ndarray
    eta2: np.ndarray
    tau: float

    def __post_init__(self):
        e1 = np.asarray(self.eta1, dtype=float)
        e2 = np.asarray(self.eta2, dtype=float)
        if e1.shape != e2.shape or e1.ndim != 1 or e1.size == 0:
            raise DomainError("PairSample: eta1/eta2 must be equal-length 1-D arrays")
        for e in (e1, e2):
            if not np.all(np.isfinite(e)):
                raise DomainError("PairSample: values must be finite")
            if np.any(e < -1e-12) or np.any(e > 1.0 + 1e-12):
                raise DomainError("PairSample: values must lie in [0, 1]")
        object.__setattr__(self, "eta1", np.clip(e1, 0.0, 1.0))
        object.__setattr__(self, "eta2", np.clip(e2, 0.0, 1.0))


def ecdf(sample: EmpiricalSample):
    """Right-continuous empirical CDF as a callable."""
    vals = sample.values
    n = vals.size

    def f(eta):
        return np.searchsorted(vals, np.asarray(eta, dtype=float), side="right") / n

    return f


def ks_stat(sample: EmpiricalSample, cdf) -> float:
    """Two-sided KS distance between the sample and a model CDF.

    Evaluates both one-sided gaps at every step point, where the supremum
    of |F_M - F| is attained.
    """
    vals = sample.values
    n = vals.size
    model = np.asarray(cdf(vals), dtype=float)
    if np.isnan(model).any():
        raise DomainError("ks_stat: the model CDF is NaN at a sample point")
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(hi - model), np.abs(lo - model))))


def histogram(sample: EmpiricalSample, bins: int):
    """Unit-integral histogram on [0, 1]; returns (density, edges)."""
    if bins < 2:
        raise DomainError("histogram: need bins >= 2")
    density, edges = np.histogram(sample.values, bins=bins, range=(0.0, 1.0),
                                  density=True)
    return density, edges


def silverman_bandwidth(sample: EmpiricalSample) -> float:
    v = sample.values
    n = v.size
    std = float(np.std(v))
    iqr = float(np.subtract(*np.percentile(v, [75, 25])))
    scale = min(std, iqr / 1.349) if iqr > 0 else std
    if scale <= 0.0:
        scale = max(std, 1e-3)
    return 0.9 * scale * n ** (-0.2)


def kde(sample: EmpiricalSample, bandwidth: float | None = None):
    """Gaussian KDE with mass reflected at 0 and 1; returns a callable.

    Each point sums only the kernels centred within sqrt(74) h (8.6 h) of
    it, over the sorted samples and their reflections about both edges
    (found by ``searchsorted``); any other kernel carries at most exp(-37)
    of its peak.  With at most three such kernels per sample (the sample
    and its two reflections), the density falls by at most
    3 exp(-37) / (h sqrt(2 pi)).
    """
    h = silverman_bandwidth(sample) if bandwidth is None else float(bandwidth)
    if not 0.0 < h < math.inf:
        raise DomainError(f"kde: bandwidth={h} must be finite and > 0")
    v = sample.values  # sorted
    n = v.size
    reach = math.sqrt(74.0) * h
    near_0 = v[: np.searchsorted(v, reach)]
    near_1 = v[np.searchsorted(v, 1.0 - reach, side="right"):]
    # ascending: reflections about 0, the samples, reflections about 1
    centers = np.concatenate((-near_0[::-1], v, 2.0 - near_1[::-1]))

    def density(eta):
        x = np.atleast_1d(np.asarray(eta, dtype=float))
        if np.isnan(x).any():
            raise DomainError("kde: eta is NaN")
        out = np.zeros_like(x)
        lo = np.searchsorted(centers, x - reach)
        hi = np.searchsorted(centers, x + reach, side="right")
        for k in np.flatnonzero((x >= 0.0) & (x <= 1.0)):
            z = (x[k] - centers[lo[k]:hi[k]]) / h
            out[k] = np.exp(-0.5 * z * z).sum()
        out /= n * h * math.sqrt(2.0 * math.pi)
        return out if np.ndim(eta) else float(out[0])

    return density


def corr_fn(series, lags) -> list[tuple[float, float]]:
    """Normalized transmittance correlation function G(tau).

    ``series`` is a sequence of (t, eta) at strictly increasing, uniformly
    spaced times; each requested lag must be finite, >= 0 and a multiple of
    dt.  Means and variances are estimated separately on the two overlapping
    windows (the leading and trailing segments), matching the lag-dependent
    normalization
    G = <d_eta(t) d_eta(t+tau)> / sqrt(<d_eta(t)^2><d_eta(t+tau)^2>).
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError("corr_fn: series must be (t, eta) rows")
    if not np.all(np.isfinite(arr)):
        raise DomainError("corr_fn: series must be finite")
    t = arr[:, 0]
    eta = arr[:, 1]
    n = eta.size
    if n < 3:
        raise DomainError("corr_fn: series too short")
    steps = np.diff(t)
    dt = steps[0]
    if not np.all(steps > 0.0):
        raise DomainError("corr_fn: times must be strictly increasing")
    if not np.allclose(steps, dt, rtol=1e-6, atol=1e-12 * max(dt, 1.0)):
        raise DomainError("corr_fn: series must be uniformly sampled")
    out = []
    for tau in lags:
        if not 0.0 <= tau < math.inf:
            raise DomainError(f"corr_fn: lag {tau} must be finite and >= 0")
        k = tau / dt
        ki = int(round(k))
        if abs(k - ki) > 1e-6:
            raise DomainError(f"corr_fn: lag {tau} is not a multiple of dt={dt}")
        if n < 10 * max(ki, 1):
            raise DomainError(
                f"corr_fn: series of length {n} too short for lag index {ki}"
            )
        a = eta[: n - ki]
        b = eta[ki:]
        da = a - a.mean()
        db = b - b.mean()
        va = float(np.mean(da * da))
        vb = float(np.mean(db * db))
        if va <= 0.0 or vb <= 0.0:
            raise DomainError("corr_fn: zero variance window")
        out.append((float(tau), float(np.mean(da * db) / math.sqrt(va * vb))))
    return out


def integrated_autocorr_time(eta: np.ndarray) -> float:
    """Integrated autocorrelation time in steps (>= 1), self-windowed.

    Sums normalized autocorrelations at lags below n / 4 until the first
    negative value or the 5 tau self-consistent window, whichever comes
    first; used to form effective sample sizes for time-averaged estimates.
    """
    x = np.asarray(eta, dtype=float)
    n = x.size
    if x.ndim != 1:
        raise DomainError(f"integrated_autocorr_time: series must be 1-D, not of shape {x.shape}")
    if n < 10:
        raise DomainError("integrated_autocorr_time: series too short")
    if not np.all(np.isfinite(x)):
        raise DomainError("integrated_autocorr_time: series must be finite")
    x = x - x.mean()
    var = float(np.mean(x * x))
    if var == 0.0:
        return 1.0
    tau = 1.0
    for k in range(1, n // 4):
        rho = float(np.mean(x[:-k] * x[k:])) / var
        if rho <= 0.0:
            break
        tau += 2.0 * rho
        if k >= 5.0 * tau:
            break
    return tau


def conditional_pdt(pairs: PairSample, eta_min: float) -> EmpiricalSample:
    """Postselected sample {eta2 : eta1 >= eta_min}."""
    mask = pairs.eta1 >= eta_min
    if not np.any(mask):
        raise EmptySelectionError(
            f"no pair satisfies eta1 >= {eta_min} (max eta1 = {pairs.eta1.max():.4f})"
        )
    return EmpiricalSample(values=pairs.eta2[mask])


def two_time_hist(pairs: PairSample, bins: int):
    """Normalized joint histogram of (eta1, eta2); returns (density, edges)."""
    if bins < 2:
        raise DomainError("two_time_hist: need bins >= 2")
    h, ex, ey = np.histogram2d(pairs.eta1, pairs.eta2, bins=bins,
                               range=[[0.0, 1.0], [0.0, 1.0]], density=True)
    return h, ex
