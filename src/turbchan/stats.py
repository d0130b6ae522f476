"""Empirical distribution tools for sampled transmittances.

The two-sided Kolmogorov-Smirnov statistic of a sample against a model CDF,
the two-time correlation function with lag-dependent normalization, the
integrated autocorrelation time, and postselection on pairs at one lag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptySelectionError

__all__ = [
    "EmpiricalSample",
    "PairSample",
    "ks_stat",
    "corr_fn",
    "conditional_pdt",
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
        if not 0.0 <= self.tau < math.inf:
            raise DomainError(f"PairSample: tau={self.tau} must be finite and >= 0")
        for e in (e1, e2):
            if not np.all(np.isfinite(e)):
                raise DomainError("PairSample: values must be finite")
            if np.any(e < -1e-12) or np.any(e > 1.0 + 1e-12):
                raise DomainError("PairSample: values must lie in [0, 1]")
        object.__setattr__(self, "eta1", np.clip(e1, 0.0, 1.0))
        object.__setattr__(self, "eta2", np.clip(e2, 0.0, 1.0))


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

