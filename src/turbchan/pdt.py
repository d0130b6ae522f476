"""Analytical probability-distribution-of-transmittance (PDT) models.

Six families, ordered by how much physics they assume:

* ``TruncLogNormal`` and ``BetaPdt``: empirical two-moment fits.
* ``BeamWander``: Gaussian beam of fixed spot size S whose centroid wanders
  with per-axis variance sigma_bw^2.
* ``CircularBeam``: beam-wandering model with log-normally fluctuating S.
* ``EllipticBeam``: random Gaussian ellipse (log-normal squared semi-axes,
  uniform orientation) plus wandering; a deterministic mixture of
  beam-wandering components over the ellipse's shape and orientation.
* ``TotalProb``: law-of-total-probability mixture over the wander radius
  with log-normal or Beta conditional distributions whose moments follow
  the Gaussian-beam radial profile.

Every family carries the same three members:

* ``density(eta)``: the density at a 1-D float array of transmittances;
* ``cdf(eta)``: the CDF there;
* ``nodes``: the PDT as one weighted point set ``(eta, weight)`` whose
  weights sum to 1, built on first use, cached on the model and returned as
  read-only arrays.  An expectation <f(eta)> is ``_node_sum(weight, f(eta))``,
  a sum taken without BLAS (see :func:`fractional_moment`).

The maximal transmittance of a Gaussian spot of second-moment size S is
eta0 = 1 - exp(-2 a^2/S): the factor 2 makes it the exact on-axis
transmittance, and the zero-wander limit of :func:`bw_moments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, SolverError
from .numerics import _OnFirstUse, adaptive_quad, marcum_q1, solve2

# scipy.special, imported at its first use, not with this module (see
# turbchan.numerics)
special = _OnFirstUse(globals(), "scipy.special")

__all__ = ["MomentPair", "TruncLogNormal", "BetaPdt", "BeamWander", "CircularBeam",
           "EllipticBeam", "TotalProb", "PdtModel", "lognormal_from_moments",
           "beta_from_moments", "bw_geometry", "bw_moments",
           "match_bw", "circular_params_from_S", "circular_moments", "match_circular",
           "elliptic_params_from_samples", "elliptic_sample", "totalprob_model",
           "model_density", "model_cdf", "model_moments", "fractional_moment"]


_MOMENT_SLACK = 1e-9  # relative tolerance on the moment inequalities


def _positive(*values) -> bool:
    """True when every value is finite and > 0 (NaN is not)."""
    return all(0.0 < v < math.inf for v in values)


@dataclass(frozen=True)
class MomentPair:
    """First two transmittance moments m1 = <eta>, m2 = <eta^2>."""

    m1: float
    m2: float

    def __post_init__(self):
        if not (0.0 < self.m1 <= 1.0):
            raise DomainError(f"m1={self.m1} outside (0, 1]")
        if not (self.m1**2 * (1.0 - _MOMENT_SLACK) <= self.m2
                <= self.m1 * (1.0 + _MOMENT_SLACK)):
            raise DomainError(
                f"m2={self.m2} violates m1^2 <= m2 <= m1 (m1={self.m1})"
            )

    @property
    def variance(self) -> float:
        return max(self.m2 - self.m1**2, 0.0)

    @classmethod
    def from_samples(cls, values) -> "MomentPair":
        v = np.asarray(values, dtype=float)
        if v.size == 0:
            raise DomainError("MomentPair.from_samples: empty sample")
        return cls(float(np.mean(v)), float(np.mean(v * v)))


# ---------------------------------------------------------------------------
# Point sets shared by the families, and the quadrature CDF
# ---------------------------------------------------------------------------

_GL64_X, _GL64_W = np.polynomial.legendre.leggauss(64)


def _gl_panels(edges) -> tuple[np.ndarray, np.ndarray]:
    """64-node Gauss-Legendre nodes and weights on each panel between edges.

    A 2-D ``edges`` holds one row of panel edges per rule; each rule's nodes
    come back as one row.
    """
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[..., None]
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])[..., None]
    shape = (*edges.shape[:-1], -1)
    return (mid + half * _GL64_X).reshape(shape), (half * _GL64_W).reshape(shape)


def _normalized(weight: np.ndarray, log_density: np.ndarray) -> np.ndarray:
    """Quadrature weights times the density, scaled to total mass 1 per row.

    The density is given by its logarithm up to a constant, so a normalizer
    that underflows (a log-normal truncated far into its tail) never
    appears.
    """
    w = weight * np.exp(log_density - log_density.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def _read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, made read-only: a cached point set is shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _node_sum(weight: np.ndarray, values: np.ndarray) -> float:
    """sum_i weight_i values_i, summed by ``einsum`` in this thread."""
    return float(np.einsum("i,i->", weight, values))


def _mixture(components):
    """One point set from ``(mass, (eta, weight))`` components."""
    etas, weights = zip(*((eta, mass * w) for mass, (eta, w) in components))
    return np.concatenate(etas), np.concatenate(weights)


def _quad_cdf(model: PdtModel, eta: np.ndarray, atoms=()) -> np.ndarray:
    """CDF of ``model`` at the points eta, plus point masses ``(weight, loc)``.

    Adaptive quadrature of :func:`model_density`, accumulated over the
    sorted evaluation points.
    """
    order = np.argsort(eta)
    sorted_pts = np.clip(eta[order], 0.0, 1.0)
    cdf_sorted = np.empty_like(sorted_pts)
    prev_x, acc = 0.0, 0.0
    dens = lambda x: model_density(model, x)
    for i, x in enumerate(sorted_pts):
        if x > prev_x:
            acc += adaptive_quad(dens, prev_x, x, tol=1e-8)
            prev_x = x
        cdf_sorted[i] = acc
    for w, loc in atoms:
        cdf_sorted += w * (sorted_pts >= loc)
    cdf_sorted = np.clip(cdf_sorted, 0.0, 1.0)
    out = np.empty_like(cdf_sorted)
    out[order] = cdf_sorted
    out[eta <= 0.0] = 0.0
    return out


# ---------------------------------------------------------------------------
# Empirical two-moment families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncLogNormal:
    """Log-normal in eta truncated to [0, 1] and renormalized.

    Density exp(-(ln eta + mu)^2 / 2 sigma2) / (F1 sqrt(2 pi sigma2) eta),
    F1 = Phi(mu / sigma) the untruncated CDF at eta = 1; CDF
    Phi((ln eta + mu) / sigma) / F1.  Both take F1 by its logarithm
    (``log_ndtr``), which stays finite where F1 underflows (mu / sigma below
    about -38).
    """

    mu: float
    sigma2: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise DomainError(f"TruncLogNormal: mu={self.mu} must be finite")
        if not _positive(self.sigma2):
            raise DomainError("TruncLogNormal: sigma2 must be finite and > 0")

    @property
    def log_norm(self) -> float:
        """ln F1, the logarithm of the untruncated CDF at eta = 1."""
        return float(special.log_ndtr(self.mu / math.sqrt(self.sigma2)))

    def density(self, eta: np.ndarray) -> np.ndarray:
        out = np.zeros_like(eta)
        mask = (eta > 0.0) & (eta <= 1.0)
        if np.any(mask):
            e = eta[mask]
            sig = math.sqrt(self.sigma2)
            z = (np.log(e) + self.mu) / sig
            out[mask] = (np.exp(-0.5 * z * z - self.log_norm)
                         / (math.sqrt(2 * math.pi) * sig * e))
        return out

    def cdf(self, eta: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):  # ln 0 = -inf, where the CDF is 0
            z = (np.log(np.clip(eta, 0.0, 1.0)) + self.mu) / math.sqrt(self.sigma2)
        return np.exp(special.log_ndtr(z) - self.log_norm)

    @cached_property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """64 nodes in x = ln eta, where the density is normal(-mu, sigma2) on x <= 0.

        The window ends at x = 0 or 9 sigma above the mean of the density tilted
        by eta^2 (the highest moment :func:`model_moments` takes), whichever is
        lower, and reaches down to where the log-density is 40.5 (9 sigma's
        worth) below its largest value on the window.
        """
        m, sig = -self.mu, math.sqrt(self.sigma2)
        hi = min(0.0, m + 2.0 * self.sigma2 + 9.0 * sig)
        lo = m - math.hypot(9.0 * sig, min(m, hi) - m)
        x, w = _gl_panels([lo, hi])
        return _read_only(np.exp(x), _normalized(w, -0.5 * ((x - m) / sig) ** 2))


# Fixed panel edges in y = logit eta.  The log-density's complex
# singularities sit at y = i pi (2k + 1), over y = 0, and its tails are
# exponential in y: panels 4 wide next to y = 0 that double in width away
# from it stay short against both.
_LOGIT_EDGES = 4.0 * 2.0 ** np.arange(12)
_LOGIT_EDGES = np.concatenate([-_LOGIT_EDGES[::-1], [0.0], _LOGIT_EDGES])


def _reach(log_density, mode: float, step: float, drop: float = 40.0) -> float:
    """mode + step 2^k for the least k >= 0 at which a log-concave density
    has fallen by ``drop`` below its value at the mode."""
    top = log_density(mode)
    while top - log_density(mode + step) < drop:
        step *= 2.0
    return mode + step


@dataclass(frozen=True)
class BetaPdt:
    """Beta distribution on [0, 1] with shape parameters a, b > 0."""

    a: float
    b: float

    def __post_init__(self):
        if not _positive(self.a, self.b):
            raise DomainError(f"BetaPdt: a={self.a}, b={self.b} must be finite and > 0")

    def density(self, eta: np.ndarray) -> np.ndarray:
        out = np.zeros_like(eta)
        mask = (eta > 0.0) & (eta < 1.0)
        if np.any(mask):
            e = eta[mask]
            ln = (self.a - 1.0) * np.log(e) + (self.b - 1.0) * np.log1p(-e)
            out[mask] = np.exp(ln - special.betaln(self.a, self.b))
        return out

    def cdf(self, eta: np.ndarray) -> np.ndarray:
        return special.betainc(self.a, self.b, np.clip(eta, 0.0, 1.0))

    @cached_property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """64 nodes per panel in y = logit eta, where the log-density is
        a ln eta + b ln(1 - eta), log-concave with mode ln(a/b).

        The outer ends lie where the density has fallen by e^-40, at least 9 sd
        from the mode; sd = sqrt(trigamma(a) + trigamma(b)) is the standard
        deviation in y.  Panels split at mode -+ 3 sd and at the fixed edges in
        between, so that eta^p-weighted integrands, whose bulk lies ln(1 + p/a)
        further toward eta = 1, stay resolved when a is small.
        """
        a, b = self.a, self.b

        def log_density(y):
            return -a * np.logaddexp(0.0, -y) - b * np.logaddexp(0.0, y)

        mode = math.log(a / b)
        sd = math.sqrt(special.zeta(2.0, a) + special.zeta(2.0, b))  # trigamma
        lo, hi = _reach(log_density, mode, -9.0 * sd), _reach(log_density, mode, 9.0 * sd)
        inner = _LOGIT_EDGES[(_LOGIT_EDGES > lo) & (_LOGIT_EDGES < hi)]
        y, w = _gl_panels(np.unique(np.concatenate(
            ([lo, mode - 3.0 * sd, mode + 3.0 * sd, hi], inner))))
        return _read_only(special.expit(y), _normalized(w, log_density(y)))


def lognormal_from_moments(m: MomentPair) -> TruncLogNormal:
    """mu = -ln(m1^2 / sqrt(m2)), sigma2 = ln(m2 / m1^2)."""
    sigma2 = math.log(m.m2 / (m.m1 * m.m1))
    if sigma2 <= 0.0:
        raise DomainError("lognormal_from_moments: m2 = m1^2 is degenerate")
    mu = -math.log(m.m1 * m.m1 / math.sqrt(m.m2))
    return TruncLogNormal(mu=mu, sigma2=sigma2)


def beta_from_moments(m: MomentPair) -> BetaPdt:
    """a, b matching the pair exactly; needs m1^2 < m2 < m1 strictly."""
    if not (m.m1**2 < m.m2 < m.m1):
        raise DomainError("beta_from_moments: need m1^2 < m2 < m1 strictly")
    a = (m.m1 - m.m2) / (m.m2 - m.m1**2) * m.m1
    b = a * (1.0 / m.m1 - 1.0)
    return BetaPdt(a=a, b=b)


# ---------------------------------------------------------------------------
# Beam-wandering geometry
# ---------------------------------------------------------------------------


def _bw_spot(S, a):
    """Maximal transmittance eta0, shape lambda(S) and dimensionless scale
    R(S)/a, vectorized.

    Uses scaled Bessel forms throughout; lambda and R take the logarithm of
    2 eta0 against 1 - I0(4 a^2/S) e^(-4 a^2/S).
    """
    S = np.asarray(S, dtype=float)
    x = 4.0 * a * a / S
    i0e = special.i0e(x)
    i1e = special.i1e(x)
    denom = np.where(
        x < 1e-4,
        x * (1.0 - 0.75 * x + (5.0 / 12.0) * x * x),
        1.0 - i0e,
    )
    eta0 = -np.expm1(-0.5 * x)
    ln_arg = np.log(2.0 * eta0 / denom)
    lam = 2.0 * x * i1e / denom / ln_arg
    r_dimless = ln_arg ** (-1.0 / lam)
    return eta0, lam, r_dimless


def bw_geometry(S: float, a: float):
    """Maximal transmittance eta0, shape lambda(S), and scale R(S) in metres."""
    if not _positive(S, a):
        raise DomainError("bw_geometry: S and a must be finite and > 0")
    eta0, lam, r_dim = _bw_spot(S, a)
    return float(eta0), float(lam), float(a * r_dim)


def _bw_pdf(eta, eta0, lam, R, sigma_bw2):
    """Beam-wandering PDT on (0, eta0), zero outside; eta0, lam and R are
    columns, one row per spot size, broadcast against the points eta.  At
    sigma_bw2 = 0 each spot is a point mass at its eta0, with no density."""
    if sigma_bw2 == 0.0:
        return np.zeros(np.broadcast_shapes(np.shape(eta), np.shape(eta0)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xi = np.log(eta0 / eta)
        r2s2 = R * R / sigma_bw2
        dens = (r2s2 / (eta * lam) * xi ** (2.0 / lam - 1.0)
                * np.exp(-0.5 * r2s2 * xi ** (2.0 / lam)))
    return np.where((eta > 0.0) & (eta < eta0), dens, 0.0)


def _bw_cdf(eta, eta0, lam, R, sigma_bw2):
    """Closed-form CDF exp(-R^2 ln(eta0/eta)^(2/lam) / 2 s2), broadcast as
    in :func:`_bw_pdf`.  At sigma_bw2 = 0 the exponent is -inf below eta0:
    a step at eta0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = np.exp(-0.5 * R * R / sigma_bw2 * np.log(eta0 / eta) ** (2.0 / lam))
    return np.where(eta >= eta0, 1.0, np.where(eta > 0.0, inside, 0.0))


def _bw_rule(eta0, lam, R, mass, sigma_bw2):
    """Point set of beam-wandering PDTs with the given masses, one per row
    of the columns eta0, lam, R, mass.

    Nodes lie in t = r0 / R, for which eta = eta0 exp(-t^lambda).
    t = sqrt(u), u = ln(eta0/eta)^(2/lambda) exponential with rate
    R^2 / 2 sigma_bw^2, so t is Rayleigh with scale s = sigma_bw / R; it is
    cut where its tail is e^-45.  eta(t) has a knee at t = 1, steep for
    large lambda (lambda ~ 10 at a^2/S = 20), so panels split at t = 1 and
    at eta/eta0 = e^-80 where these lie below the cut, with 64 nodes each.
    At sigma_bw2 = 0 the point set is each eta0 with its mass.
    """
    if sigma_bw2 == 0.0:
        return eta0[:, 0].copy(), mass[:, 0].copy()
    s = math.sqrt(sigma_bw2) / R
    t_max = s * math.sqrt(90.0)
    edges = np.hstack([0.0 * t_max, np.minimum(1.0, t_max),
                       np.minimum(80.0 ** (1.0 / lam), t_max), t_max])
    t, w = _gl_panels(edges)
    with np.errstate(over="ignore"):  # t^lambda beyond the float range: eta = 0
        eta = eta0 * np.exp(-(t**lam))
    weight = mass * _normalized(w * t, -0.5 * (t / s) ** 2)
    panel = np.repeat(np.diff(edges) > 0.0, _GL64_X.size, axis=-1)  # knees past the cut
    return eta[panel], weight[panel]


class _SpotMixture:
    """Beam-wandering components with the eta0, lambda, R and mass columns of
    ``_spots`` (the spot sizes of ``spot_nodes()``, or EllipticBeam's rule):
    density and CDF as (components x points) arrays, the point set by
    :func:`_bw_rule`."""

    @cached_property
    def _spots(self):
        """Columns eta0, lambda, R and mass, one row per spot size."""
        S, mass = self.spot_nodes()
        eta0, lam, r_dim = _bw_spot(S[:, None], self.aperture)
        return eta0, lam, self.aperture * r_dim, mass[:, None]

    def _mix(self, kernel, eta: np.ndarray) -> np.ndarray:
        """sum_k mass_k kernel_k(eta), in blocks of 2^20 (components x points)."""
        eta0, lam, R, mass = self._spots
        blocks = np.array_split(eta, max(1, math.ceil(eta.size * mass.size / 2**20)))
        return np.concatenate([(mass * kernel(e, eta0, lam, R, self.sigma_bw2)).sum(axis=0)
                               for e in blocks])

    def density(self, eta: np.ndarray) -> np.ndarray:
        return self._mix(_bw_pdf, eta)

    def cdf(self, eta: np.ndarray) -> np.ndarray:
        return np.clip(self._mix(_bw_cdf, eta), 0.0, 1.0)

    @cached_property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        return _read_only(*_bw_rule(*self._spots, self.sigma_bw2))


@dataclass(frozen=True)
class BeamWander(_SpotMixture):
    """Wandering Gaussian beam of fixed squared spot radius S."""

    sigma_bw2: float
    S: float
    aperture: float

    def __post_init__(self):
        if not (0.0 <= self.sigma_bw2 < math.inf and _positive(self.S, self.aperture)):
            raise DomainError("BeamWander: S and aperture must be finite and > 0, "
                              "sigma_bw2 finite and >= 0")

    def spot_nodes(self):
        """The one spot size, with mass 1."""
        return np.array([float(self.S)]), np.ones(1)


def bw_moments(S, sigma_bw2, a) -> tuple:
    """Closed-form <eta>, <eta^2> of a wandering Gaussian beam (Esposito).

    Vectorized over S; exact for the physical beam, and at sigma_bw2 = 0
    <eta> is the eta0 of :func:`bw_geometry`.  Raises :class:`DomainError`,
    naming the parameter, unless S > 0, sigma_bw2 >= 0 and a > 0 are finite.
    """
    S = np.asarray(S, dtype=float)
    scalar = S.ndim == 0
    S = np.atleast_1d(S)
    bad_s = S[~((S > 0.0) & (S < math.inf))]
    if bad_s.size:
        raise DomainError(f"bw_moments: S={bad_s[0]} must be finite and > 0")
    if not 0.0 <= sigma_bw2 < math.inf:
        raise DomainError(f"bw_moments: sigma_bw2={sigma_bw2} must be finite and >= 0")
    if not _positive(a):
        raise DomainError(f"bw_moments: a={a} must be finite and > 0")
    if sigma_bw2 <= 1e-12 * np.min(S):
        m1 = -np.expm1(-2.0 * a * a / S)
        m2 = m1 * m1
    else:
        total = 4.0 * sigma_bw2 + S
        m1 = -np.expm1(-2.0 * a * a / total)
        p = S / (8.0 * sigma_bw2)
        beta = 1.0 / (2.0 * p + 1.0)
        # alpha^2 = (4 a^2 / S) 2p / (2p + 1) = 4 a^2 / total, so that
        # exp(-alpha^2 / 2) = 1 - m1.  p -> 0 (spot << wander) is the
        # Bernoulli limit m2 = m1, which c = d = 0 gives.
        alpha = 2.0 * a / np.sqrt(total)
        tiny_p = p < 1e-10
        den = np.sqrt(np.maximum(1.0 - beta * beta, 1e-300))
        c = np.where(tiny_p, 0.0, alpha / den)
        d = np.where(tiny_p, 0.0, alpha * beta / den)
        m2 = m1 - (1.0 - m1) * (marcum_q1(c, d) - marcum_q1(d, c))
    if scalar:
        return float(m1[0]), float(m2[0])
    return m1, m2


def match_bw(m: MomentPair, a: float) -> tuple[float, float]:
    """Solve the closed-form moment pair for (S, sigma_bw2).

    m1 alone fixes the total T = 4 sigma_bw^2 + S = -2 a^2 / ln(1 - m1).  At
    that total m2 rises from m1^2 to m1 with the wander fraction
    f = 4 sigma_bw^2 / T, so one bracketed root in x = logit f matches m2.
    The bracket [-48, 48] runs from :func:`bw_moments`' zero-wander branch
    (m2 = m1^2) to its p < 1e-10 branch (m2 = m1).  Raises
    :class:`SolverError` for targets outside the model's range: m2 = m1 (the
    Bernoulli limit), and the targets within about 1e-6 of the variance range
    below it that fall in the jump at that branch.
    """
    from scipy.optimize import brentq  # imported here: it is slow to import

    if not _positive(a):
        raise DomainError(f"match_bw: a={a} must be finite and > 0")
    t1, t2 = m.m1, m.m2
    if t1 >= 1.0:
        raise SolverError("match_bw: m1 = 1 needs an infinite aperture")
    if t2 >= t1 * (1.0 - 1e-12):
        raise SolverError("match_bw: m2 = m1 (maximal variance) is outside the model")
    total = -2.0 * a * a / math.log1p(-t1)  # 4 sigma^2 + S implied by m1
    if t2 <= t1 * t1 * (1.0 + 1e-12):
        return total, 0.0  # zero wander: point mass at eta0

    def split(x):
        # S = T expit(-x): written as T (1 - f), S rounds to 0 near x = 37
        return total * special.expit(-x), total * special.expit(x) / 4.0

    def excess(x):
        return bw_moments(*split(x), a)[1] - t2

    x = brentq(excess, -48.0, 48.0)
    if abs(excess(x)) > 1e-9 * t2:
        raise SolverError(f"match_bw: m2={t2} falls in the jump at bw_moments' "
                          "p < 1e-10 branch")
    S, sigma_bw2 = split(x)
    return float(S), float(sigma_bw2)


# ---------------------------------------------------------------------------
# Circular-beam model
# ---------------------------------------------------------------------------

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(64)
_GH_WEIGHTS = _GH_WEIGHTS / math.sqrt(math.pi)


def _lognormal_spots(mu_S: float, sigma_S2: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite spot sizes and masses of a log-normal S; one spot when
    sigma_S2 < 1e-14."""
    if sigma_S2 < 1e-14:
        return np.array([math.exp(mu_S)]), np.array([1.0])
    return np.exp(mu_S + math.sqrt(2.0 * sigma_S2) * _GH_NODES), _GH_WEIGHTS


@dataclass(frozen=True)
class CircularBeam(_SpotMixture):
    """Wandering beam whose squared spot radius is log-normal."""

    sigma_bw2: float
    mu_S: float
    sigma_S2: float
    aperture: float

    def __post_init__(self):
        if not (0.0 <= self.sigma_bw2 < math.inf and _positive(self.aperture)):
            raise DomainError("CircularBeam: aperture must be finite and > 0, "
                              "sigma_bw2 finite and >= 0")
        if not math.isfinite(self.mu_S):
            raise DomainError(f"CircularBeam: mu_S={self.mu_S} must be finite")
        if not 0.0 <= self.sigma_S2 < math.inf:
            raise DomainError(f"CircularBeam: sigma_S2={self.sigma_S2} must be finite and >= 0")

    def spot_nodes(self):
        """Gauss-Hermite nodes and weights for the log-normal S mixture."""
        return _lognormal_spots(self.mu_S, self.sigma_S2)


def circular_params_from_S(mean_S: float, mean_S2: float) -> tuple[float, float]:
    """Log-normal parameters (mu_S, sigma_S2) from the first two S moments.

    mean_S2 may fall below mean_S^2 by the relative rounding slack of
    :class:`MomentPair` (a sample of equal spots); sigma_S2 is then 0.
    """
    if not (0.0 < mean_S < math.inf
            and mean_S**2 * (1.0 - _MOMENT_SLACK) <= mean_S2 < math.inf):
        raise DomainError("circular_params_from_S: need mean_S > 0, mean_S2 >= mean_S^2")
    mu_s = math.log(mean_S**2 / math.sqrt(mean_S2))
    sigma_s2 = max(math.log(mean_S2 / mean_S**2), 0.0)
    return mu_s, sigma_s2


def circular_moments(mu_S: float, sigma_S2: float, sigma_bw2: float, a: float):
    """S-averaged closed-form moment pair of the circular-beam model."""
    if not 0.0 <= sigma_S2 < math.inf:
        raise DomainError(f"circular_moments: sigma_S2={sigma_S2} must be finite and >= 0")
    s, mass = _lognormal_spots(mu_S, sigma_S2)
    m1v, m2v = bw_moments(s, sigma_bw2, a)
    return float(mass @ m1v), float(mass @ m2v)


def match_circular(m: MomentPair, sigma_bw2: float, a: float) -> tuple[float, float]:
    """Solve the S-averaged moment pair for (mu_S, sigma_S2) at a given wander
    variance (a sample estimate or the analytic formula).

    At a fixed sigma_S2, m1 = sum_j w_j (1 - exp(-2 a^2 / (4 sigma_bw2 + S_j)))
    falls monotonically in mu_S; along the curve mu_S(sigma_S2) that matches
    m1, m2 rises with sigma_S2.  :func:`solve2` finds both roots, the outer
    one in ln sigma_S2 from ln 1e-15 up to ln 1e3, or less where that keeps
    every spot of the mu_S bracket in [e^-700, e^700].  Raises
    :class:`SolverError` before any search for m1 at or above the
    wander-only limit 1 - exp(-a^2 / (2 sigma_bw2)), for no such bracket
    and for m2 below its sigma_S2 -> 0 (one-spot) value, and after it for
    m2 above its value at the bracket's upper end.
    """
    if not _positive(a):
        raise DomainError(f"match_circular: a={a} must be finite and > 0")
    if not 0.0 <= sigma_bw2 < math.inf:
        raise DomainError(f"match_circular: sigma_bw2={sigma_bw2} must be finite and >= 0")
    t1, t2 = m.m1, m.m2
    wander = 4.0 * sigma_bw2
    spot0 = -2.0 * a * a / math.log1p(-t1) - wander if t1 < 1.0 else 0.0  # one spot's S
    if not spot0 > 0.0:
        raise SolverError(f"match_circular: m1={t1} reaches the wander-only limit")
    # up to s2_max every spot of mu_bracket keeps |ln S| <= |ln spot0| + 2 half <= 700
    spread = max(0.0, 349.0 - abs(math.log(spot0)) / 2.0)  # widest sqrt(2 sigma_S2) x_max
    s2_max = min(1e3, 0.5 * (spread / _GH_NODES[-1]) ** 2)
    if not s2_max > 1e-15:
        raise SolverError(f"match_circular: one-spot S={spot0:g} is near the float range's end")

    def m1_excess(x, mu_s):
        s, mass = _lognormal_spots(mu_s, math.exp(x))
        return float(mass @ -np.expm1(-2.0 * a * a / (wander + s))) - t1

    def m2_excess(x, mu_s):
        s, mass = _lognormal_spots(mu_s, math.exp(x))
        return float(mass @ bw_moments(s, sigma_bw2, a)[1]) - t2

    def mu_bracket(x):  # all spots below (above) the one-spot S: m1 above (below) t1
        half = math.sqrt(2.0 * math.exp(x)) * _GH_NODES[-1] + 1.0
        return math.log(spot0) - half, math.log(spot0) + half

    x, mu_s = solve2(m1_excess, m2_excess, mu_bracket, math.log(1e-15), math.log(s2_max))
    return float(mu_s), math.exp(x)


# ---------------------------------------------------------------------------
# Elliptic-beam model
# ---------------------------------------------------------------------------


_ELLIPTIC_STRATA = 48
_CHI_COS2 = np.cos((np.arange(2) + 0.5) * (0.25 * math.pi)) ** 2  # chi = pi/8, 3pi/8


@dataclass(frozen=True)
class EllipticBeam(_SpotMixture):
    """Random Gaussian ellipse with wander (Vasylyev, Semenov and Vogel).

    Theta = (ln W1^2, ln W2^2) is normal with mean (mu_S, mu_S) and
    covariance ``Sigma`` (its nearest PSD matrix, if it is not PSD).  At
    fixed Theta and chi, the angle of the first axis to the centroid's
    direction (uniform on (0, pi/2)), the model is one beam-wandering
    component (:func:`_elliptic_spot`).  ``_spots`` mixes them over a rule in
    s = Theta1 + Theta2, d = Theta1 - Theta2 and chi:

    * s: the conditional means of the ``_ELLIPTIC_STRATA`` equal-mass strata
      of N(2 mu_S, 2 var s): mass times width, which sets the CDF error of a
      stratum's node, is then about the same for all strata;
    * d given s (normal): max(3, ceil(6 sd)) Gauss-Hermite nodes; three do
      until d spreads widely, as Theta1 <-> Theta2, chi -> pi/2 - chi leaves
      a component as it is;
    * chi: the midpoint rule, Gauss-Chebyshev in cos 2 chi.

    At the benchmark's fits: 288 components, 36 864 nodes, and a CDF within
    1e-4 (sup) of a 600 x 16 x 8 rule.  ``sample_seed`` has no effect.
    """

    sigma_bw2: float
    mu_S: float
    Sigma: np.ndarray
    aperture: float
    sample_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "Sigma", np.asarray(self.Sigma, dtype=float))
        if self.Sigma.shape != (2, 2) or not np.all(np.isfinite(self.Sigma)):
            raise DomainError("EllipticBeam: Sigma must be a finite 2x2 matrix")
        if not np.allclose(self.Sigma, self.Sigma.T) or np.any(np.diag(self.Sigma) < 0.0):
            raise DomainError(f"EllipticBeam: Sigma={self.Sigma.tolist()} must be symmetric "
                              "with variances >= 0")
        if not (0.0 <= self.sigma_bw2 < math.inf and _positive(self.aperture)):
            raise DomainError("EllipticBeam: aperture must be finite and > 0, "
                              "sigma_bw2 finite and >= 0")
        if not math.isfinite(self.mu_S):
            raise DomainError(f"EllipticBeam: mu_S={self.mu_S} must be finite")

    @cached_property
    def _spots(self):
        """Columns eta0, lambda, R and mass, one row per (s, d, chi) node."""
        (s11, s12), (_, s22) = _psd_2x2(self.Sigma)
        var_s, cov_sd = s11 + s22 + 2.0 * s12, s11 - s22
        slope = cov_sd / var_s if var_s > 0.0 else 0.0
        sd_d = math.sqrt(max(s11 + s22 - 2.0 * s12 - slope * cov_sd, 0.0))
        edges = math.sqrt(2.0) * special.ndtri(np.linspace(0.0, 1.0, _ELLIPTIC_STRATA + 1))
        pdf, s_mass = np.exp(-0.5 * edges**2), np.diff(special.ndtr(edges))
        z = (pdf[:-1] - pdf[1:]) / (math.sqrt(2.0 * math.pi) * s_mass)
        x, d_mass = np.polynomial.hermite_e.hermegauss(max(3, math.ceil(6.0 * sd_d)))
        dev_s = (math.sqrt(var_s) * z)[:, None]  # s - 2 mu_S
        s, d = 2.0 * self.mu_S + dev_s, slope * dev_s + sd_d * x
        spot = _elliptic_spot((0.5 * (s + d))[..., None], (0.5 * (s - d))[..., None],
                              _CHI_COS2, self.aperture)
        mass = s_mass[:, None, None] * (d_mass / d_mass.sum())[:, None] / _CHI_COS2.size
        eta0, lam, rdim, mass = (np.broadcast_to(v, spot[1].shape).reshape(-1, 1)
                                 for v in (*spot, mass))
        return eta0, lam, self.aperture * rdim, mass


def _psd_2x2(sigma: np.ndarray) -> np.ndarray:
    """Project a symmetric 2x2 matrix to the nearest PSD matrix."""
    vals, vecs = np.linalg.eigh(sigma)
    if np.all(vals >= 0.0):
        return sigma
    return (vecs * np.maximum(vals, 0.0)) @ vecs.T


def elliptic_params_from_samples(records: Sequence) -> tuple[float, np.ndarray]:
    """Estimate (mu_S, Sigma) from simulated spot-shape matrices.

    Eigenvalue labels are symmetrized (each record contributes both
    orderings with weight 1/2) so the two squared semi-axes share the mean
    required by the model.  Sigma is returned as estimated: it is not PSD
    when |Sigma_12| > Sigma_11, and the model then uses its nearest PSD one.
    Its diagonal, ln(<W_i^4> / <W_i^2>^2), is >= 0 but for rounding (records
    of equal spots), which is clamped to 0.
    """
    if len(records) < 1000:
        raise DomainError("elliptic_params_from_samples: need >= 1000 records")
    sxx = np.array([r.sxx for r in records])
    syy = np.array([r.syy for r in records])
    sxy = np.array([r.sxy for r in records])
    half_tr = 0.5 * (sxx + syy)
    disc = np.sqrt(0.25 * (sxx - syy) ** 2 + sxy**2)
    lam_hi = half_tr + disc
    lam_lo = half_tr - disc
    mean_w2 = float(np.mean(half_tr))  # symmetrized <W_i^2>
    mean_w4 = float(np.mean(0.5 * (lam_hi**2 + lam_lo**2)))
    mean_cross = float(np.mean(lam_hi * lam_lo))
    mu_s = math.log(mean_w2**2 / math.sqrt(mean_w4))
    sig_diag = max(math.log(mean_w4 / mean_w2**2), 0.0)
    sig_off = math.log(mean_cross / mean_w2**2)
    return mu_s, np.array([[sig_diag, sig_off], [sig_off, sig_diag]])


def _elliptic_eta0(w1sq, w2sq, a):
    """Maximal transmittance of a centered Gaussian ellipse, vectorized."""
    w1 = np.sqrt(w1sq)
    w2 = np.sqrt(w2sq)
    x = a * a * np.abs(1.0 / w1sq - 1.0 / w2sq)
    y = a * a * (1.0 / w1sq + 1.0 / w2sq)
    term1 = special.i0e(x) * np.exp(-(y - x))
    diff = np.abs(w1 - w2)
    degenerate = diff < 1e-12 * np.maximum(w1, w2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pref = -2.0 * np.expm1(-0.5 * a * a * (1.0 / w1 - 1.0 / w2) ** 2)
        z = (w1 + w2) ** 2 / np.abs(w1sq - w2sq)
        xi = 4.0 * w1sq * w2sq / (w1 - w2) ** 2
        _, lam_xi, rdim_xi = _bw_spot(np.where(degenerate, 1.0, xi), a)
        expo = np.exp(-((z / rdim_xi) ** lam_xi))
        term2 = np.where(degenerate, 0.0, pref * expo)
    return np.clip(1.0 - term1 - term2, 0.0, 1.0)


def _elliptic_spot(theta1, theta2, cos2, a):
    """eta0, lambda and R/a of the ellipse exp(theta1), exp(theta2) at angle chi
    (cos2 = cos^2 chi) to the centroid's direction: its maximal transmittance,
    and the effective spot W_eff^2 = 4 a^2 / W0(e^y) (Lambert W)'s shape and scale."""
    w1sq = np.exp(theta1)
    w2sq = np.exp(theta2)
    w1 = np.sqrt(w1sq)
    w2 = np.sqrt(w2sq)
    ln_arg = (
        np.log(4.0 * a * a / (w1 * w2))
        + a * a / w1sq * (1.0 + 2.0 * cos2)
        + a * a / w2sq * (1.0 + 2.0 * (1.0 - cos2))
    )
    w_eff2 = 4.0 * a * a / special.wrightomega(ln_arg)  # W0(e^y) = omega(y)
    return (_elliptic_eta0(w1sq, w2sq, a), *_bw_spot(w_eff2, a)[1:])


# samples per block of elliptic_sample: the transform's temporaries stay near
# 2 MiB whatever the number of samples
_ELLIPTIC_BLOCK = 8192


def _elliptic_eta(theta1, theta2, phi, r0x, r0y, a):
    """Transmittance of the ellipses exp(theta1), exp(theta2) at orientation
    phi and centroid (r0x, r0y), through the effective-spot formula."""
    r0 = np.hypot(r0x, r0y)
    eta0, lam, rdim = _elliptic_spot(theta1, theta2, np.cos(phi - np.arctan2(r0y, r0x)) ** 2, a)
    with np.errstate(over="ignore"):
        return eta0 * np.exp(-(((r0 / a) / rdim) ** lam))


def elliptic_sample(model: EllipticBeam, n: int, stream) -> np.ndarray:
    """Monte Carlo transmittance draws from the elliptic-beam model.

    Draws from the :class:`~turbchan.numerics.RngStream` ``stream`` (Theta1,
    Theta2) bivariate normal, an orientation uniform on (0, pi/2], and a
    Gaussian centroid; evaluates the approximate transmittance through the
    effective-spot (Lambert W) formula at the model's own aperture radius.
    The samples lie in [0, 1]: eta0 is clipped to [0, 1], and the wander
    factor exp(-(r0/R)^lambda) lies in [0, 1].

    The three random arrays are drawn whole, in that order; the transform
    then runs over blocks of ``_ELLIPTIC_BLOCK`` (8192) samples into one
    output array, so that beyond the draws and the output (40 bytes a
    sample) memory stays near 2 MiB, and the samples do not depend on the
    block size.  Theta = mu_S + L g is written out for the closed-form
    lower-triangular factor L of Sigma's nearest PSD matrix P (L L^T = P,
    also where P is singular): no BLAS call, whose threads would make the
    last bits depend on the thread count.
    """
    if n < 1:
        raise DomainError("elliptic_sample: n must be >= 1")
    gen = stream.generator()
    (s11, _), (s21, s22) = _psd_2x2(model.Sigma)
    l11 = math.sqrt(s11)
    l21 = s21 / l11 if l11 > 0.0 else 0.0
    l22 = math.sqrt(max(s22 - l21 * l21, 0.0))
    g = gen.standard_normal((n, 2))
    phi = gen.random(n)
    phi *= 0.5 * math.pi
    r0xy = gen.normal(0.0, math.sqrt(model.sigma_bw2), (n, 2))
    eta = np.empty(n)
    for lo in range(0, n, _ELLIPTIC_BLOCK):
        block = slice(lo, lo + _ELLIPTIC_BLOCK)
        g1, g2 = g[block, 0], g[block, 1]
        eta[block] = _elliptic_eta(l11 * g1 + model.mu_S, (l21 * g1 + l22 * g2) + model.mu_S,
                                   phi[block], r0xy[block, 0], r0xy[block, 1], model.aperture)
    return eta


# ---------------------------------------------------------------------------
# Law-of-total-probability models
# ---------------------------------------------------------------------------

_U_NODES = 0.5 * (_GL64_X + 1.0)  # u in (0, 1); xi = sqrt(-2 ln u) is Rayleigh
_U_WEIGHTS = 0.5 * _GL64_W
_XI_NODES = np.sqrt(-2.0 * np.log(_U_NODES))


@dataclass(frozen=True)
class TotalProb:
    """Wander mixture with empirical conditional distributions.

    Conditional moments at wander radius r0 follow the Gaussian-beam radial
    law, scaled so the mixture reproduces the target pair exactly;
    conditionals are log-normal (truncated) or Beta.  Nodes whose
    conditional moments are infeasible for the sub-model degenerate to
    point masses (kept as atoms).  ``node_models`` holds the
    ``(weight, conditional)`` pairs, ``atoms`` the ``(weight, eta)`` pairs.
    """

    sub: str
    sigma_bw2: float
    mean_S: float
    moments: MomentPair
    aperture: float
    eta0: float
    zeta02: float
    node_models: tuple = field(repr=False)
    atoms: tuple = field(repr=False)

    def density(self, eta: np.ndarray) -> np.ndarray:
        """Continuous part (atoms excluded): the weighted sum of the conditionals."""
        out = np.zeros_like(eta)
        for w, cond in self.node_models:
            out += w * cond.density(eta)
        return out

    def cdf(self, eta: np.ndarray) -> np.ndarray:
        return _quad_cdf(self, eta, self.atoms)

    @cached_property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """The conditionals' point sets times their radial weights, plus the atoms."""
        point = np.ones(1)
        return _read_only(*_mixture(
            [(mass, cond.nodes) for mass, cond in self.node_models]
            + [(mass, (np.array([loc]), point)) for mass, loc in self.atoms]))


def totalprob_model(sub: str, sigma_bw2: float, mean_S: float, m: MomentPair,
                    aperture: float) -> TotalProb:
    """Construct the simplified total-probability model.

    eta0 and zeta0^2 normalize the radial profile so the mixture moments
    equal the targets; the radial integral runs over the Rayleigh weight
    xi exp(-xi^2/2) via the substitution u = exp(-xi^2/2).
    """
    if sub not in ("lognormal", "beta"):
        raise DomainError(f"totalprob_model: unknown sub-model {sub!r}")
    if not _positive(sigma_bw2, mean_S, aperture):
        raise DomainError("totalprob_model: sigma_bw2, mean_S and aperture must be finite "
                          "and > 0")
    _, lam, R = bw_geometry(mean_S, aperture)
    sig = math.sqrt(sigma_bw2)
    profile = np.exp(-((sig * _XI_NODES / R) ** lam))
    i1 = float(_U_WEIGHTS @ profile)
    i2 = float(_U_WEIGHTS @ profile**2)
    eta0 = m.m1 / i1
    zeta02 = m.m2 / i2
    node_models, atoms = [], []
    for w, t in zip(_U_WEIGHTS, profile):
        m1r = eta0 * t
        m2r = zeta02 * t * t
        feasible = 0.0 < m1r < 1.0 and m1r**2 * (1 + 1e-12) < m2r < m1r * (1 - 1e-12)
        if feasible:
            pair = MomentPair(m1r, m2r)
            try:
                cond = (lognormal_from_moments(pair) if sub == "lognormal"
                        else beta_from_moments(pair))
                node_models.append((float(w), cond))
                continue
            except DomainError:
                pass
        atoms.append((float(w), float(min(max(m1r, 0.0), 1.0))))
    return TotalProb(sub=sub, sigma_bw2=sigma_bw2, mean_S=mean_S, moments=m,
                     aperture=aperture, eta0=eta0, zeta02=zeta02,
                     node_models=tuple(node_models), atoms=tuple(atoms))


PdtModel = Union[TruncLogNormal, BetaPdt, BeamWander, CircularBeam,
                 EllipticBeam, TotalProb]


# ---------------------------------------------------------------------------
# Density, CDF and moments of any family
# ---------------------------------------------------------------------------


def _points(eta, caller: str) -> np.ndarray:
    """eta as a 1-D float array; raises :class:`DomainError` on a NaN
    (+-inf are valid points)."""
    pts = np.atleast_1d(np.asarray(eta, dtype=float))
    if np.isnan(pts).any():
        raise DomainError(f"{caller}: eta is NaN")
    return pts


def model_density(model: PdtModel, eta) -> np.ndarray:
    """``model.density`` at one point (a float back) or many.

    Raises :class:`DomainError` if any point is NaN.
    """
    out = model.density(_points(eta, "model_density"))
    return float(out[0]) if np.ndim(eta) == 0 else out


def model_cdf(model: PdtModel, eta):
    """``model.cdf`` at one point (a float back) or many.

    Closed forms for all families but TotalProb, which integrates its density
    by adaptive quadrature.  Raises :class:`DomainError` if any point is NaN.
    """
    out = model.cdf(_points(eta, "model_cdf"))
    return float(out[0]) if np.ndim(eta) == 0 else out


def fractional_moment(model: PdtModel, p: float) -> float:
    """<eta^p> for p >= 0: the sum of eta^p over the point set ``model.nodes``.

    The sum is an ``einsum``, not a BLAS dot.  Above 10 000 points OpenBLAS
    hands a dot to its other threads, at a flat 8 ms per call on a 2-core
    host, where the ``einsum`` takes 0.01-0.2 ms for 20k-200k points; and the
    last bits of the dot then depend on the thread count.
    """
    if not (math.isfinite(p) and p >= 0.0):
        raise DomainError(f"fractional_moment: p={p} must be finite and >= 0")
    eta, weight = model.nodes
    return _node_sum(weight, eta**p)


def model_moments(model: PdtModel) -> MomentPair:
    """First two moments of the model's own PDT."""
    return MomentPair(fractional_moment(model, 1.0), fractional_moment(model, 2.0))
