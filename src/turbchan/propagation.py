"""Wave-optics Monte Carlo for turbulent free-space channels.

Split-step solution of the paraxial equation on an n x n grid: half-slab
vacuum Fresnel steps in Fourier space alternate with multiplicative phase
screens.  Screens use the sparse-spectrum representation, i.e. a finite sum
of random plane waves

    phi(r) = sum_j  a_j cos(kappa_j . r) + b_j sin(kappa_j . r),

with wavevector magnitudes drawn per log-spaced spectral band and Gaussian
amplitudes carrying each band's share of the slab phase variance
(2 pi k^2 dz Phi_n).  Sparse screens evaluate exactly at any continuous
transverse point, so frozen-turbulence time series are produced by shifting
the evaluation coordinates (no interpolation, no periodic wrap-around).

Per-realization outputs are the aperture transmittance, the beam centroid,
and the spot-shape second-moment matrix; their sample moments estimate the
ensemble statistics used by the analytical transmittance-distribution
models.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.fft

from .errors import ConfigError, DomainError
from .numerics import RngStream
from .turbulence import (
    ChannelGeometry,
    Kolmogorov,
    SpectrumModel,
    VonKarmanTatarskii,
    fresnel_number,
    rytov_variance,
    spectral_density,
)

__all__ = [
    "Grid",
    "Field",
    "SparseScreen",
    "SimConfig",
    "SampleRecord",
    "EnsembleReport",
    "default_grid",
    "long_term_spot_radius",
    "gaussian_source",
    "sample_screens",
    "evaluate_phase",
    "split_step",
    "transmittance",
    "beam_stats",
    "run_ensemble",
    "run_ensemble_multi",
    "run_timeseries",
    "screen_structure_function",
]

LEAK_WARN_FRACTION = 0.01  # warn when more than 1% of power hits the boundary


# ---------------------------------------------------------------------------
# Grid and field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Square computational grid: n points per axis over ``extent`` meters."""

    n: int
    extent: float

    def __post_init__(self):
        if self.n < 64 or (self.n & (self.n - 1)) != 0:
            raise ConfigError("grid n must be a power of two >= 64", field="grid.n")
        if not (self.extent > 0.0 and math.isfinite(self.extent)):
            raise ConfigError("grid extent must be finite and > 0", field="grid.extent")

    @property
    def spacing(self) -> float:
        return self.extent / self.n

    def axis(self) -> np.ndarray:
        """Cell-center coordinates with 0 on a grid point (FFT convention)."""
        return (np.arange(self.n) - self.n // 2) * self.spacing

    def kaxis(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n, self.spacing)


@dataclass
class Field:
    """Complex field amplitude u(r; z) sampled on a grid at fixed z."""

    grid: Grid
    values: np.ndarray
    leaked_power: float = 0.0

    def power(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2)) * self.grid.spacing**2

    def intensity(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def long_term_spot_radius(geom: ChannelGeometry, spectrum: SpectrumModel) -> float:
    """Rough wander-broadened spot radius at the receiver, for grid sizing.

    Vacuum diffraction plus the weak-turbulence spread and wander terms
    (focused-beam coefficients, adequate as an envelope estimate).
    """
    om = fresnel_number(geom)
    s2 = rytov_variance(geom, spectrum.cn2)
    w0sq = geom.beam_radius**2
    defocus = (1.0 - geom.path_length / geom.focal_length) ** 2 if math.isfinite(
        geom.focal_length
    ) else 1.0
    vac = w0sq * (defocus + om**-2)
    turb = w0sq * (2.93 + 4 * 0.31) * s2 * om ** (-7.0 / 6.0)
    return math.sqrt(vac + turb)


def default_grid(geom: ChannelGeometry, spectrum: SpectrumModel, n: int = 512,
                 diameter_factor: float = 10.0) -> Grid:
    """Grid sized to ``diameter_factor`` long-term spot diameters."""
    w_lt = long_term_spot_radius(geom, spectrum)
    extent = max(diameter_factor * 2.0 * w_lt, 8.0 * max(geom.beam_radius, w_lt))
    grid = Grid(n=n, extent=extent)
    if grid.spacing > geom.beam_radius / 8.0:
        raise ConfigError(
            f"n={n} leaves {geom.beam_radius / grid.spacing:.1f} points per beam "
            "radius (need >= 8); increase n",
            field="grid.n",
        )
    return grid


def gaussian_source(geom: ChannelGeometry, grid: Grid) -> Field:
    """Gaussian transmitter field with waist W0 and wavefront radius F0.

    u(r; 0) = sqrt(2 / pi W0^2) exp(-r^2/W0^2 - i k r^2 / 2 F0), discretized
    and renormalized to unit power on the grid.
    """
    if grid.spacing > geom.beam_radius / 8.0:
        raise ConfigError(
            "grid under-resolves the beam: need >= 8 points per W0",
            field="grid",
        )
    xs = grid.axis()
    r2 = xs[None, :] ** 2 + xs[:, None] ** 2
    w0 = geom.beam_radius
    amp = math.sqrt(2.0 / (math.pi * w0 * w0)) * np.exp(-r2 / (w0 * w0))
    if math.isfinite(geom.focal_length):
        amp = amp * np.exp(-0.5j * geom.k * r2 / geom.focal_length)
    else:
        amp = amp.astype(complex)
    f = Field(grid=grid, values=amp)
    f.values /= math.sqrt(f.power())
    return f


# ---------------------------------------------------------------------------
# Sparse-spectrum phase screens
# ---------------------------------------------------------------------------


@dataclass
class SparseScreen:
    """One slab's phase screen as a finite sum of random plane waves."""

    kx: np.ndarray
    ky: np.ndarray
    amp_cos: np.ndarray
    amp_sin: np.ndarray
    z_index: int
    slab_thickness: float

    @property
    def n_components(self) -> int:
        return self.kx.size


def _band_counts(n_components: int, n_bands: int) -> np.ndarray:
    counts = np.full(n_bands, n_components // n_bands, dtype=int)
    counts[: n_components % n_bands] += 1
    return counts


@functools.lru_cache(maxsize=64)
def _band_tables(spectrum: SpectrumModel, kappa_min: Optional[float],
                 kappa_max: Optional[float], n_bands: int):
    """Per-band variance integrals and inverse-CDF tables for |kappa| draws.

    Bands are log-spaced between kappa_min and kappa_max; within a band the
    magnitude is importance-sampled from kappa * Phi_n(kappa), so every
    component carries an equal share of its band's phase variance and the
    sampled correlation function is unbiased.  A missing bound of a von
    Karman-Tatarskii spectrum defaults to 2 pi / 4 L0 or 4 pi / l0.

    Returns ``(integrals, [(cdf, kappa) per band])``, built once per key and
    process and shared, hence read-only.
    """
    if kappa_min is None or kappa_max is None:
        if isinstance(spectrum, VonKarmanTatarskii):
            kappa_min = kappa_min or 2.0 * math.pi / (4.0 * spectrum.outer_scale)
            kappa_max = kappa_max or 2.0 * math.pi / (spectrum.inner_scale / 2.0)
        else:
            raise ConfigError(
                "Kolmogorov screens need explicit kappa_min/kappa_max "
                "(the power law has no intrinsic scales)",
                field="spectrum",
            )
    if not (0.0 < kappa_min < kappa_max):
        raise ConfigError("need 0 < kappa_min < kappa_max for screen bands")
    edges = np.exp(np.linspace(math.log(kappa_min), math.log(kappa_max), n_bands + 1))
    integrals = np.empty(n_bands)
    tables = []
    for b in range(n_bands):
        lk = np.linspace(math.log(edges[b]), math.log(edges[b + 1]), 257)
        kap = np.exp(lk)
        # integrand of the 1-D radial variance integral, in log kappa
        f = kap**2 * spectral_density(spectrum, kap)
        cum = np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) * np.diff(lk) / 2)])
        integrals[b] = cum[-1]
        cdf = cum / cum[-1]
        cdf.flags.writeable = kap.flags.writeable = False
        tables.append((cdf, kap))
    integrals.flags.writeable = False
    return integrals, tuple(tables)


def sample_screens(spectrum: SpectrumModel, geom: ChannelGeometry, n_screens: int,
                   n_components: int, stream: RngStream, *, n_bands: int = 16,
                   kappa_min: Optional[float] = None,
                   kappa_max: Optional[float] = None) -> list[SparseScreen]:
    """Draw one set of sparse-spectrum screens for the whole path.

    Each of the ``n_screens`` slabs (thickness L / n_screens) gets
    ``n_components`` plane waves: magnitudes importance-sampled per
    log-spaced band, directions uniform on the circle, cos/sin amplitudes
    Gaussian with variance = band variance / components in band.
    """
    if n_components < 64:
        raise ConfigError("need n_components >= 64", field="sim.n_components")
    integrals, tables = _band_tables(spectrum, kappa_min, kappa_max, n_bands)
    dz = geom.path_length / n_screens
    # phase variance of each band in one slab
    band_var = (2.0 * math.pi) ** 2 * geom.k * geom.k * dz * integrals
    counts = _band_counts(n_components, n_bands)
    gen = stream.generator()
    screens = []
    for zi in range(n_screens):
        kx = np.empty(n_components)
        ky = np.empty(n_components)
        a = np.empty(n_components)
        b = np.empty(n_components)
        pos = 0
        for band, (cdf, kap) in enumerate(tables):
            m = counts[band]
            if m == 0:
                continue
            mag = np.interp(gen.random(m), cdf, kap)
            theta = gen.random(m) * 2.0 * math.pi
            sd = math.sqrt(band_var[band] / m)
            kx[pos:pos + m] = mag * np.cos(theta)
            ky[pos:pos + m] = mag * np.sin(theta)
            a[pos:pos + m] = gen.normal(0.0, sd, m)
            b[pos:pos + m] = gen.normal(0.0, sd, m)
            pos += m
        screens.append(SparseScreen(kx=kx, ky=ky, amp_cos=a, amp_sin=b,
                                    z_index=zi, slab_thickness=dz))
    return screens


def evaluate_phase(screen: SparseScreen, points, shift_x: float = 0.0) -> np.ndarray:
    """Screen phase at arbitrary continuous points, shifted by ``shift_x``.

    phi(r) = sum_j a_j cos(kappa_j . (r + s)) + b_j sin(kappa_j . (r + s))
    with s = (shift_x, 0); exact, no interpolation.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    theta = np.outer(pts[:, 0] + shift_x, screen.kx) + np.outer(pts[:, 1], screen.ky)
    return np.cos(theta) @ screen.amp_cos + np.sin(theta) @ screen.amp_sin


def _cis(theta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write exp(i theta) into the complex array ``out``; ``theta`` is scratch.

    Half-angle identity: with t = tan(theta / 2) and d = 2 / (1 + t^2),

        cos theta = d - 1,    sin theta = t d.

    NumPy's float64 ``tan`` is vectorized while ``cos`` and ``sin`` are
    scalar libm calls, so one ``tan`` and four in-place passes over
    ``theta``, ``out.real`` and ``out.imag`` cost less than the two calls
    they replace, and allocate nothing.  Both parts agree with ``np.cos``
    and ``np.sin`` to a few units of 2^-52 in absolute terms, also at
    arguments of thousands of radians, and ||cis| - 1| <= 1e-15.  Near
    theta = +-pi, t is large and d small: cos rounds to -1 and sin = t d
    keeps its relative accuracy.  A NaN or infinite theta gives NaN.
    """
    t = np.multiply(theta, 0.5, out=theta)
    np.tan(t, out=t)
    c, s = out.real, out.imag
    np.multiply(t, t, out=c)
    c += 1.0
    np.divide(2.0, c, out=c)
    np.multiply(t, c, out=s)
    c -= 1.0
    return out


def _grid_tables(screen: SparseScreen, xs: np.ndarray, ys: np.ndarray):
    """Cos/sin tables of one screen on the grid axes: ``([cx; sx], cy, sy)``.

    ``cx = cos(kx x)`` and ``sx = sin(kx x)`` are stacked into one 2K x n
    array, the right-hand factor of :func:`_phase_on_grid`'s matmul.  The
    tables are the real and imaginary parts of exp(i kx x) and exp(i ky y),
    computed by :func:`_cis`; ``cy`` and ``sy`` are views of one complex
    K x n array.
    """
    ex = _cis(np.outer(screen.kx, xs), np.empty((screen.kx.size, xs.size), complex))
    ey = _cis(np.outer(screen.ky, ys), np.empty((screen.ky.size, ys.size), complex))
    return np.concatenate([ex.real, ex.imag]), ey.real, ey.imag


def _phase_on_grid(screen: SparseScreen, xs: np.ndarray, ys: np.ndarray,
                   shift_x: float = 0.0, cache=None) -> np.ndarray:
    """Screen phase on the full grid via a rank-2K real factorization.

    With cx = cos(kx x), sx = sin(kx x), cy = cos(ky y), sy = sin(ky y),

        phi(y, x) = sum_j cx_j (a_j cy_j + b_j sy_j) + sx_j (b_j cy_j - a_j sy_j),

    i.e. one real matmul [a cy + b sy; b cy - a sy]^T @ [cx; sx] of 2K x n
    factors, half the flops of the equivalent complex product.  ``cache``
    holds the tables of :func:`_grid_tables` (frozen-turbulence series reuse
    them at every step); without it they are computed here.  A shift s along
    x rotates each (a_j, b_j) by kx_j s, which keeps the shift exact.  In the
    pool workers of :func:`run_ensemble` this matmul runs on one BLAS thread
    (see :func:`run_ensemble_multi`).
    """
    right, cy, sy = cache if cache is not None else _grid_tables(screen, xs, ys)
    a = screen.amp_cos[:, None]
    b = screen.amp_sin[:, None]
    if shift_x != 0.0:
        turn = screen.kx[:, None] * shift_x
        c, s = np.cos(turn), np.sin(turn)
        a, b = a * c + b * s, b * c - a * s
    left = np.concatenate([a * cy + b * sy, b * cy - a * sy])
    return left.T @ right


# ---------------------------------------------------------------------------
# Split-step propagation
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _window(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Absorbing window w and the absorption 1 - w^2, cached per grid.

    w is a cosine taper over the outer 10% of the span on each side.  The
    absorption is repeated along the last axis, to match a complex field
    viewed as interleaved real and imaginary parts.  Both are read-only.
    """
    half = grid.extent / 2.0
    start = 0.8 * half
    t = np.clip((np.abs(grid.axis()) - start) / (half - start), 0.0, 1.0)
    w1 = np.cos(0.5 * math.pi * t) ** 2
    window = w1[None, :] * w1[:, None]
    absorption = np.repeat(1.0 - window**2, 2, axis=1)  # power fraction removed
    window.flags.writeable = absorption.flags.writeable = False
    return window, absorption


@functools.lru_cache(maxsize=4)
def _kernel(grid: Grid, k: float, dz: float) -> np.ndarray:
    """Vacuum kernel exp(-i kk dz / 2k), through :func:`_cis`; read-only.

    Cached per (grid, k, dz): a split step uses two step lengths, and one
    kernel at n = 1024 takes 16 MB, so only a few are kept.
    """
    kax = grid.kaxis()
    kk = kax[None, :] ** 2 + kax[:, None] ** 2
    p = _cis(kk * (-0.5 * dz / k), np.empty(kk.shape, complex))
    p.flags.writeable = False
    return p


def _vacuum(u: np.ndarray, grid: Grid, k: float, dz: float) -> tuple[np.ndarray, float]:
    """One windowed vacuum step; returns (field, absorbed power).

    ``u`` is overwritten.  The absorbed power is sum |u|^2 (1 - w^2) dA,
    taken in one pass before the window w is applied; ``einsum`` sums it
    without BLAS, so the value does not depend on the thread count.  The
    FFTs run on the calling thread only: extra FFT threads would compete
    with the other pool workers (see :func:`run_ensemble_multi`), or with
    the BLAS threads that spin on after the screen matmul.
    """
    window, absorption = _window(grid)
    spec = scipy.fft.fft2(u, overwrite_x=True)
    spec *= _kernel(grid, k, dz)
    u = scipy.fft.ifft2(spec, overwrite_x=True)
    v = u.view(float)
    absorbed = float(np.einsum("ij,ij,ij->", v, v, absorption)) * grid.spacing**2
    u *= window
    return u, absorbed


def split_step(fld: Field, screens: Sequence[SparseScreen], geom: ChannelGeometry,
               shift_x: float = 0.0, *, _caches=None) -> Field:
    """Propagate the field to z = L through the given screens.

    Symmetric split-step: half-slab vacuum step, screen phase, half-slab
    vacuum step per slab (adjacent half steps merged).  With no screens this
    is a single vacuum Fresnel propagation over the whole path.  The result
    carries the absorbed-power fraction in ``leaked_power``.

    The screen factor exp(i phi) is computed by :func:`_cis` into one
    ``rotation`` buffer per call, with the freshly computed phase as its
    scratch, so the screens allocate no further n x n temporaries for it.
    ``_caches`` holds each screen's :func:`_grid_tables`.
    """
    grid, k = fld.grid, geom.k
    xs = grid.axis()
    steps = [geom.path_length]
    if screens:
        dz = screens[0].slab_thickness
        if not math.isclose(dz * len(screens), geom.path_length, rel_tol=1e-9):
            raise ConfigError("screens do not tile the path length")
        steps = [dz / 2.0, *[dz] * (len(screens) - 1), dz / 2.0]
    u, leaked = _vacuum(fld.values.copy(), grid, k, steps[0])
    rotation = np.empty_like(u)
    for i, (screen, step) in enumerate(zip(screens, steps[1:])):
        cache = _caches[i] if _caches is not None else None
        u *= _cis(_phase_on_grid(screen, xs, xs, shift_x, cache=cache), rotation)
        u, dp = _vacuum(u, grid, k, step)
        leaked += dp
    return Field(grid=grid, values=u, leaked_power=fld.leaked_power + leaked)


# ---------------------------------------------------------------------------
# Receiver-plane observables
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _aperture_weights(grid: Grid, radius: float) -> np.ndarray:
    """Coverage weights of a centered disc; edge cells 4x4 supersampled.

    Cached per (grid, radius): the array is shared, hence read-only.
    """
    xs = grid.axis()
    rr = np.hypot(xs[None, :], xs[:, None])
    half_diag = grid.spacing * math.sqrt(2.0) / 2.0
    w = np.zeros((grid.n, grid.n))
    w[rr <= radius - half_diag] = 1.0
    edge = (rr > radius - half_diag) & (rr < radius + half_diag)
    if np.any(edge):
        iy, ix = np.nonzero(edge)
        sub = (np.arange(4) + 0.5) / 4.0 - 0.5
        ox, oy = np.meshgrid(sub * grid.spacing, sub * grid.spacing)
        px = xs[ix][:, None] + ox.ravel()[None, :]
        py = xs[iy][:, None] + oy.ravel()[None, :]
        inside = (px * px + py * py) <= radius * radius
        w[iy, ix] = inside.mean(axis=1)
    w.flags.writeable = False
    return w


def transmittance(fld: Field, aperture_radius: float) -> float:
    """Fraction of (unit-normalized) intensity inside the centered disc."""
    if aperture_radius < 0.0:
        raise DomainError("aperture radius must be >= 0")
    if aperture_radius == 0.0:
        return 0.0
    w = _aperture_weights(fld.grid, aperture_radius)
    eta = float(np.sum(w * fld.intensity())) * fld.grid.spacing**2
    return min(max(eta, 0.0), 1.0)


def beam_stats(fld: Field) -> tuple[np.ndarray, np.ndarray]:
    """Centroid r0 and spot-shape matrix S = 4 <(r - r0)(r - r0)^T>.

    The intensity is renormalized to unit power first, so boundary losses do
    not bias the moments.
    """
    inten = fld.intensity()
    total = inten.sum()
    if total <= 0.0:
        raise DomainError("beam_stats: field carries no power")
    inten = inten / total
    xs = fld.grid.axis()
    px = inten.sum(axis=0)  # marginal over y -> function of x
    py = inten.sum(axis=1)
    x0 = float(px @ xs)
    y0 = float(py @ xs)
    dx = xs - x0
    dy = xs - y0
    sxx = 4.0 * float(px @ dx**2)
    syy = 4.0 * float(py @ dy**2)
    sxy = 4.0 * float(dy @ inten @ dx)
    return np.array([x0, y0]), np.array([[sxx, sxy], [sxy, syy]])


# ---------------------------------------------------------------------------
# Simulation driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce a Monte Carlo run."""

    geometry: ChannelGeometry
    spectrum: SpectrumModel
    grid: Grid
    n_screens: int = 10
    n_components: int = 256
    n_bands: int = 16
    seed: int = 0
    wind_speed: float = 0.0
    dt: float = 0.0
    n_realizations: int = 0
    duration: float = 0.0
    kappa_min: Optional[float] = None
    kappa_max: Optional[float] = None

    def __post_init__(self):
        if self.n_screens < 5:
            raise ConfigError("need n_screens >= 5", field="sim.n_screens")
        if self.n_components < 64:
            raise ConfigError("need n_components >= 64", field="sim.n_components")
        if self.duration > 0.0 and not 0.0 < self.dt < math.inf:
            raise ConfigError("time series needs a finite dt > 0", field="sim.dt")
        if not 0.0 <= self.wind_speed < math.inf:
            raise ConfigError("wind speed must be finite and >= 0", field="sim.wind_speed")
        w_lt = long_term_spot_radius(self.geometry, self.spectrum)
        min_extent = 8.0 * max(self.geometry.beam_radius, w_lt)
        if self.grid.extent < min_extent:
            raise ConfigError(
                f"grid extent {self.grid.extent:.3g} m < {min_extent:.3g} m "
                "(8 x max(W0, long-term spot radius)); wrap-around risk",
                field="grid.extent",
            )


@dataclass(frozen=True)
class SampleRecord:
    """One realization's transmittance, centroid, and spot-shape matrix."""

    eta: float
    x0: float
    y0: float
    sxx: float
    syy: float
    sxy: float
    realization_index: int
    time: Optional[float] = None

    def __post_init__(self):
        if not (-1e-9 <= self.eta <= 1.0 + 1e-9):
            raise DomainError(f"eta={self.eta} outside [0, 1]")
        if not (self.sxx > 0.0 and self.syy > 0.0):
            raise DomainError("spot-shape diagonal must be positive")
        if self.sxx * self.syy - self.sxy**2 < -1e-12 * self.sxx * self.syy:
            raise DomainError("spot-shape matrix must be positive-semidefinite")

    @property
    def spot_mean(self) -> float:
        """Scalar spot proxy (Sxx + Syy) / 2 = mean of the eigenvalues."""
        return 0.5 * (self.sxx + self.syy)


@dataclass(frozen=True)
class EnsembleReport:
    """Boundary leakage over the realizations (or time steps) of one run.

    Built by :func:`_collect`; ``warnings`` states ``n_leak_warnings`` (the
    realizations whose leaked power is above the warning fraction) and
    ``max_leaked_power``.
    """

    n_realizations: int = 0
    n_leak_warnings: int = 0
    max_leaked_power: float = 0.0
    warnings: tuple = ()


def _collect(results, apertures: Sequence[float]):
    """Group ``(records, leaked_power)`` pairs by aperture, in run order.

    Returns ``(records_by_aperture, report)``; the one place where
    ``LEAK_WARN_FRACTION`` is applied.
    """
    by_aperture = {a: [] for a in apertures}
    leaks = []
    for recs, leaked in results:
        for a, rec in zip(apertures, recs):
            by_aperture[a].append(rec)
        leaks.append(leaked)
    n_leaky = sum(leak > LEAK_WARN_FRACTION for leak in leaks)
    worst = max([0.0, *leaks])
    warnings = (f"{n_leaky} realizations leaked more than {LEAK_WARN_FRACTION:.0%} "
                f"of power (max {worst:.3%})",) if n_leaky else ()
    return by_aperture, EnsembleReport(len(leaks), n_leaky, worst, warnings)


@functools.lru_cache(maxsize=4)
def _source(geom: ChannelGeometry, grid: Grid) -> np.ndarray:
    """Values of :func:`gaussian_source`, cached per (geometry, grid); read-only."""
    u = gaussian_source(geom, grid).values
    u.flags.writeable = False
    return u


def _realization(config: SimConfig, apertures: Sequence[float], index: int,
                 screens=None, shift_x=0.0, caches=None, time=None):
    """Propagate through ``screens`` and observe every aperture.

    Without ``screens`` the set of realization ``index`` is drawn from
    stream ``index`` of the master seed.  Returns ``(records,
    leaked_power)``, the pair :func:`_collect` takes.
    """
    geom, grid = config.geometry, config.grid
    if screens is None:
        screens = _screens(config, index)
    fld = split_step(Field(grid=grid, values=_source(geom, grid)), screens, geom,
                     shift_x, _caches=caches)
    r0, smat = beam_stats(fld)
    records = [SampleRecord(eta=transmittance(fld, a), x0=r0[0], y0=r0[1], sxx=smat[0, 0],
                            syy=smat[1, 1], sxy=smat[0, 1], realization_index=index, time=time)
               for a in apertures]
    return records, fld.leaked_power


def _screens(config: SimConfig, stream_index: int) -> list[SparseScreen]:
    return sample_screens(config.spectrum, config.geometry, config.n_screens,
                          config.n_components, RngStream(config.seed, stream_index),
                          n_bands=config.n_bands, kappa_min=config.kappa_min,
                          kappa_max=config.kappa_max)


# C entry points of openblas_set_num_threads(int) in the OpenBLAS builds that
# NumPy and SciPy wheels load (64-bit-integer and plain, prefixed or not).
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                        "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_blas_thread() -> None:
    """Set every OpenBLAS loaded in this process to one thread.

    The libraries are found in ``/proc/self/maps``; where there is none, or
    none exports a setter, nothing changes.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _BLAS_THREAD_SETTERS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                fn.restype = None
                fn(1)
                break


def run_ensemble(config: SimConfig, workers: int = 1) -> list[SampleRecord]:
    """Independent realizations at the geometry's aperture radius.

    Realization i consumes stream index i of the master seed, so the output
    is identical for any worker count.  This is :func:`run_ensemble_multi`
    at that one aperture, without the report.
    """
    a = config.geometry.aperture_radius
    by_aperture, _ = run_ensemble_multi(config, [a], workers)
    return by_aperture[a]


def run_ensemble_multi(config: SimConfig, apertures: Sequence[float],
                       workers: int = 1):
    """Realizations ``0 .. n_realizations - 1``, each recorded at every aperture.

    Returns ``(records_by_aperture, report)``; the field is propagated once
    per realization and clipped by each aperture.

    With ``workers > 1`` the realizations go to a process pool in chunks of
    8, and ``pool.map`` hands them back in index order.  Each pool worker
    sets its OpenBLAS to one thread before it starts.  A worker inherits the
    parent's BLAS thread count (one per core), so without this every worker
    would run that many busy-waiting BLAS threads for the screen matmul, and
    two workers on two cores would share them with four.  The parent keeps
    its threads, so ``workers=1`` is unchanged.  The records do not depend on
    the thread count: OpenBLAS splits a matmul over blocks of the output, not
    over the summed index.
    """
    if config.n_realizations <= 0:
        raise ConfigError("n_realizations must be > 0", field="sim.n_realizations")
    if not apertures:
        raise ConfigError("need at least one aperture", field="apertures")
    apertures = tuple(apertures)
    indices = range(config.n_realizations)
    run = functools.partial(_realization, config, apertures)
    if workers <= 1:
        return _collect(map(run, indices), apertures)
    import concurrent.futures as cf

    with cf.ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
        return _collect(pool.map(run, indices, chunksize=8), apertures)


def run_timeseries(config: SimConfig, apertures: Optional[Sequence[float]] = None):
    """Frozen-turbulence time series from a single screen set.

    One screen set is drawn (stream index 0) and reused; step m, at time
    t = m dt, evaluates every screen with transverse shift wind_speed * t.
    The series covers ``config.duration`` in round(duration / dt) steps.
    Returns ``(records_by_aperture, report)`` as :func:`run_ensemble_multi`
    does, with one report entry per step; use a single-entry aperture list
    (the default) for the plain series.
    """
    if not config.duration > 0.0:
        raise ConfigError("time series needs duration > 0", field="sim.duration")
    apertures = tuple(apertures) if apertures else (config.geometry.aperture_radius,)
    screens = _screens(config, 0)
    xs = config.grid.axis()
    caches = [_grid_tables(s, xs, xs) for s in screens]
    times = [m * config.dt for m in range(round(config.duration / config.dt))]
    return _collect((_realization(config, apertures, m, screens, config.wind_speed * t,
                                  caches, time=t) for m, t in enumerate(times)), apertures)


def ensemble_summary(records: Sequence[SampleRecord]) -> dict:
    """Definitional sample estimators of the channel statistics.

    Means of eta, eta^2, the per-axis wander variance (x and y pooled), and
    the first two moments of the scalar spot size (Sxx + Syy)/2, each with a
    jackknife-free standard error of the mean.
    """
    eta = np.array([r.eta for r in records])
    x0 = np.array([r.x0 for r in records])
    y0 = np.array([r.y0 for r in records])
    spot = np.array([r.spot_mean for r in records])
    n = eta.size
    if n < 2:
        raise DomainError("ensemble_summary: need at least 2 records")

    def se(v):
        return float(np.std(v, ddof=1) / math.sqrt(v.size))

    eta2 = eta * eta
    spot2 = spot * spot
    return {
        "n": int(n),
        "mean_eta": float(eta.mean()),
        "se_mean_eta": se(eta),
        "mean_eta2": float(eta2.mean()),
        "se_mean_eta2": se(eta2),
        "sigma_bw2": float((np.var(x0, ddof=1) + np.var(y0, ddof=1)) / 2.0),
        "mean_S": float(spot.mean()),
        "se_mean_S": se(spot),
        "mean_S2": float(spot2.mean()),
        "se_mean_S2": se(spot2),
    }


def screen_structure_function(screens: Sequence[SparseScreen],
                              separations: np.ndarray,
                              directions: int = 8) -> np.ndarray:
    """Phase structure function D(r) estimated from sampled screens.

    Uses the per-screen conditional expectation
    D_screen(d) = sum_j (a_j^2 + b_j^2)(1 - cos(kappa_j . d)), averaged over
    screens and over ``directions`` orientations of d; the screen average
    converges to the spectral-integral structure function.
    """
    seps = np.asarray(separations, dtype=float)
    angles = np.linspace(0.0, math.pi, directions, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    acc = np.zeros(seps.size)
    for screen in screens:
        power = screen.amp_cos**2 + screen.amp_sin**2
        for d in dirs:
            proj = screen.kx * d[0] + screen.ky * d[1]
            # (n_sep, K) phase arguments
            acc += (power[None, :] * (1.0 - np.cos(np.outer(seps, proj)))).sum(axis=1)
    return acc / (len(screens) * directions)
