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

This module needs numpy only: the vacuum steps are numpy's FFTs, one axis at
a time and in place, so a wave-optics process loads no module beyond numpy
and the standard library (see :mod:`turbchan.numerics` for what loads
when).

Memory: a propagation holds two n x n complex arrays, the field and one
screen's rotation exp(i phi), plus the screen's phasor factors, c exp(-i ky y)
as n x K complex and exp(i kx x) on the x < 0 half only as n/2 x K cosines
and sines, and blocks of n / 4 rows for the phase and its parts.  What is
cached per process is small beside them: the vacuum kernels as their 1-D
factors, the absorbing window on its frame and the aperture weights on the
disc's bounding box.  The one n x n constant is the launched source of
:func:`_launch`.  A time-series step is a job of :func:`_run_jobs`, as a
realization is, and holds the same arrays.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .numerics import RngStream, _blas_controls
from .turbulence import (
    ChannelGeometry,
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
    "ensemble_summary",
    "screen_structure_function",
]

LEAK_WARN_FRACTION = 0.01  # a realization counts in n_leak_warnings above 1% leaked power


# ---------------------------------------------------------------------------
# Grid and field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Square computational grid: n points per axis over ``extent`` meters."""

    n: int
    extent: float

    def __post_init__(self):
        n = self.n
        if not isinstance(n, numbers.Integral) or n < 64 or (n & (n - 1)) != 0:
            raise ConfigError(f"grid n={n!r} must be an integral power of two >= 64",
                              field="grid.n")
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

    def __post_init__(self):
        # complex128 rows, which power() and transmittance() view as float
        # pairs; an array that has them already is kept, not copied
        self.values = np.ascontiguousarray(self.values, dtype=complex)

    def power(self) -> float:
        """sum |u|^2 dA, summed over the interleaved float view without BLAS."""
        v = self.values.view(float)
        return float(np.einsum("ij,ij->", v, v)) * self.grid.spacing**2

    def intensity(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def long_term_spot_radius(geom: ChannelGeometry, spectrum: VonKarmanTatarskii) -> float:
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


def default_grid(geom: ChannelGeometry, spectrum: VonKarmanTatarskii, n: int = 512) -> Grid:
    """Grid sized to 10 long-term spot diameters."""
    w_lt = long_term_spot_radius(geom, spectrum)
    extent = max(10.0 * 2.0 * w_lt, 8.0 * max(geom.beam_radius, w_lt))
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
    slab_thickness: float

    @property
    def n_components(self) -> int:
        return self.kx.size


def _require_integers(**values) -> None:
    """Raise ``ConfigError`` naming ``sim.<name>`` for a value that is not an integer."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} = {value!r} must be an integer", field=f"sim.{name}")


def _band_counts(n_components: int, n_bands: int) -> np.ndarray:
    counts = np.full(n_bands, n_components // n_bands, dtype=int)
    counts[: n_components % n_bands] += 1
    return counts


def _band_limits(spectrum: VonKarmanTatarskii, kappa_min: Optional[float],
                 kappa_max: Optional[float]) -> tuple[float, float]:
    """The screens' wavenumber band ``(kappa_min, kappa_max)``, checked.

    A bound left as None defaults to 2 pi / 4 L0 (needs a finite L0) or to
    4 pi / l0 (needs l0 > 0).  Raises ``ConfigError``, naming the bound,
    unless 0 < kappa_min < kappa_max < inf.
    """
    if kappa_min is None:
        kappa_min = 2.0 * math.pi / (4.0 * spectrum.outer_scale)  # 0 at L0 = inf
    if kappa_max is None:
        kappa_max = 4.0 * math.pi / spectrum.inner_scale if spectrum.inner_scale else math.inf
    if not 0.0 < kappa_min < math.inf:
        raise ConfigError(f"kappa_min = {kappa_min} must be finite and > 0 (give it when "
                          "L0 = inf)", field="sim.kappa_min")
    if not kappa_min < kappa_max < math.inf:
        raise ConfigError(f"kappa_max = {kappa_max} must be finite and > kappa_min "
                          f"= {kappa_min} (give it when l0 = 0)", field="sim.kappa_max")
    return kappa_min, kappa_max


@functools.lru_cache(maxsize=64)
def _band_tables(spectrum: VonKarmanTatarskii, kappa_min: Optional[float],
                 kappa_max: Optional[float], n_bands: int):
    """Per-band variance integrals and inverse-CDF tables for |kappa| draws.

    Bands are log-spaced between the :func:`_band_limits`; within a band the
    magnitude is importance-sampled from kappa * Phi_n(kappa), so every
    component carries an equal share of its band's phase variance and the
    sampled correlation function is unbiased.

    Returns ``(integrals, [(cdf, kappa) per band])``, built once per key and
    process and shared, hence read-only.
    """
    kappa_min, kappa_max = _band_limits(spectrum, kappa_min, kappa_max)
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


def sample_screens(spectrum: VonKarmanTatarskii, geom: ChannelGeometry, n_screens: int,
                   n_components: int, stream: RngStream, *, n_bands: int = 16,
                   kappa_min: Optional[float] = None,
                   kappa_max: Optional[float] = None) -> list[SparseScreen]:
    """Draw one set of sparse-spectrum screens for the whole path.

    Each of the ``n_screens`` slabs (thickness L / n_screens) gets
    ``n_components`` plane waves: magnitudes importance-sampled per
    log-spaced band, directions uniform on the circle, cos/sin amplitudes
    Gaussian with variance = band variance / components in band.
    """
    _require_integers(n_screens=n_screens, n_components=n_components, n_bands=n_bands)
    if n_screens < 1:
        raise ConfigError("need n_screens >= 1", field="sim.n_screens")
    if n_components < 64:
        raise ConfigError("need n_components >= 64", field="sim.n_components")
    if n_bands < 1:
        raise ConfigError("need n_bands >= 1", field="sim.n_bands")
    integrals, tables = _band_tables(spectrum, kappa_min, kappa_max, n_bands)
    dz = geom.path_length / n_screens
    # phase variance of each band in one slab
    band_var = (2.0 * math.pi) ** 2 * geom.k * geom.k * dz * integrals
    counts = _band_counts(n_components, n_bands)
    gen = stream.generator()
    screens = []
    for _ in range(n_screens):
        kx = np.empty(n_components)
        ky = np.empty(n_components)
        a = np.empty(n_components)
        b = np.empty(n_components)
        pos = 0
        for band, (cdf, kap) in enumerate(tables):
            m = counts[band]
            if m == 0:
                continue
            # one call per distribution: the same draws, in the same order,
            # as one call per half
            uniform = gen.random(2 * m)
            mag = np.interp(uniform[:m], cdf, kap)
            theta = uniform[m:] * 2.0 * math.pi
            kx[pos:pos + m] = mag * np.cos(theta)
            ky[pos:pos + m] = mag * np.sin(theta)
            normal = gen.normal(0.0, math.sqrt(band_var[band] / m), 2 * m)
            a[pos:pos + m] = normal[:m]
            b[pos:pos + m] = normal[m:]
            pos += m
        screens.append(SparseScreen(kx=kx, ky=ky, amp_cos=a, amp_sin=b,
                                    slab_thickness=dz))
    return screens


def evaluate_phase(screen: SparseScreen, points, shift_x: float = 0.0) -> np.ndarray:
    """Screen phase at arbitrary continuous points, shifted by ``shift_x``.

    phi(r) = sum_j a_j cos(kappa_j . (r + s)) + b_j sin(kappa_j . (r + s))
    with s = (shift_x, 0); exact, no interpolation.  Raises ``DomainError``
    for a point or a shift that is not finite.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not (math.isfinite(shift_x) and np.all(np.isfinite(pts))):
        raise DomainError(f"evaluate_phase: points and shift_x = {shift_x} must be finite")
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


def _axis_cis(k: np.ndarray, axis: np.ndarray, out=None, scale=None) -> np.ndarray:
    """exp(i k x) on a uniform ``axis`` of power-of-two length, as (axis, K).

    Angle addition: with x = x[q m] + r h for a fine block of m points,
    m a power of two near sqrt(n),

        exp(i k x[q m + r]) = exp(i k x[q m]) * exp(i k r h),

    so :func:`_cis` runs on the n / m coarse and the m fine angles only, and
    one broadcast complex multiply fills the n x K table.  The coarse
    points are the axis's own values.  Each component's column agrees with
    exp(i k x) within (16 + 2 max |k x|) 2^-52, about twice the error of
    cos and sin at the rounded product k x.  ``out``, if given, is a
    C-contiguous complex (axis, K) array the table is written into.
    ``scale``, if given, is a complex K-vector each column is multiplied
    by; it goes into the n / m coarse factors, so it costs no pass over
    the table.
    """
    n = axis.size
    m = 1 << ((n.bit_length() - 1) // 2)
    h = (axis[-1] - axis[0]) / (n - 1)
    coarse = _cis(np.multiply.outer(axis[::m], k), np.empty((n // m, k.size), complex))
    if scale is not None:
        coarse *= scale
    fine = _cis(np.multiply.outer(np.arange(m) * h, k), np.empty((m, k.size), complex))
    out = np.empty((n, k.size), complex) if out is None else out
    np.multiply(coarse[:, None, :], fine[None, :, :], out=out.reshape(n // m, m, k.size))
    return out


def _grid_tables(screen: SparseScreen, grid: Grid, shift_x: float = 0.0, out=(None, None)):
    """The factors of one screen's phase on the grid: ``(ex, w)``.

    With c = a + i b, the screen is phi = Re sum_j c_j exp(-i (kx_j x + ky_j y)).
    ``w = c exp(-i ky y)`` is a complex (n, K) array over the whole axis.
    ``ex`` is a real (2, n/2, K) array, cos(kx x) and sin(kx x) on the
    x < 0 half of the axis only, x[0] = -(n/2) d ... x[n/2 - 1] = -d:
    :meth:`Grid.axis` puts x[n/2] = 0 and x[n - j] = -x[j], so with
    exp(-i kx x) = conj exp(i kx x) this half gives every other column
    (see :func:`_phase_on_grid`).  Both come from :func:`_axis_cis`, with
    c folded into the coarse factors of ``w``.  A shift s along x
    multiplies c by exp(-i kx s), which keeps the shift exact.  ``out``, if
    given, is the pair of C-contiguous arrays ``(ex, w)`` of those shapes
    the factors are written into; the x table is staged, complex, in the
    first rows of ``w``'s array.
    """
    c = screen.amp_cos + 1j * screen.amp_sin
    if shift_x != 0.0:
        c *= np.exp(-1j * screen.kx * shift_x)
    xs = grid.axis()
    half = grid.n // 2
    ex, w = out
    if w is None:
        w = np.empty((grid.n, screen.n_components), complex)
    if ex is None:
        ex = np.empty((2, half, screen.n_components))
    stage = _axis_cis(screen.kx, xs[:half], w[:half])
    np.copyto(ex[0], stage.real)
    np.copyto(ex[1], stage.imag)
    return ex, _axis_cis(-screen.ky, xs, w, scale=c)


def _phase_on_grid(tables, out=(None, None, None)) -> np.ndarray:
    """Screen phase on the grid from the x < 0 half of the x axis.

    With the factors W = c exp(-i ky y) and E = exp(i kx x) of
    :func:`_grid_tables`, each (points, K),

        phi(y, x) = Re sum_j W[y, j] conj(E[x, j]) = A + B,
        A = W.re E.re^T,   B = W.im E.im^T,

    and as E(-x) = conj E(x), phi(y, -x) = A - B; at x = 0, E = 1 and phi
    is the row sum of W.re.  So A and B on the n/2 points x < 0 of the
    ``ex`` table, two real (rows x K)(K x n/2) matmuls, give every column
    with one add, one subtract and one sum: rows x n x K multiply-adds,
    half as many as a table over the whole axis needs.  The x = 0 column
    is left out of the matmuls so that they have n/2 columns, a power of
    two: OpenBLAS then gives every element the same bits for any row block
    and thread count, which it does not for n/2 + 1 columns.

    ``tables`` is the pair ``(ex, w)`` of :func:`_grid_tables`, where
    ``w`` may be a block of its rows; the phase has a row per row of ``w``
    and the grid's n columns.  A is written into the phase's x < 0 columns and
    B into a buffer of its own.  ``out``, if given, is the C-contiguous
    ``(phase, split, b)`` the work is written into, all real: phi (w rows,
    n), W's real and imaginary parts (2, w rows, K) and B (w rows, n/2).
    In ensemble and series runs the matmuls run on one OpenBLAS thread
    (see :func:`_run_jobs`).
    """
    ex, w = tables
    rows, half = w.shape[0], ex.shape[1]
    phase, split, b = out
    if phase is None:
        phase = np.empty((rows, 2 * half))
    if split is None:
        split = np.empty((2, *w.shape))
    np.copyto(split[0], w.real)
    np.copyto(split[1], w.imag)
    a = np.matmul(split[0], ex[0].T, out=phase[:, :half])
    b = np.matmul(split[1], ex[1].T, out=b)
    np.subtract(a[:, :0:-1], b[:, :0:-1], out=phase[:, half + 1:])
    a += b
    np.sum(split[0], axis=1, out=phase[:, half])
    return phase


# ---------------------------------------------------------------------------
# Split-step propagation
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _window(grid: Grid) -> tuple:
    """Absorbing window w on its frame, cached per grid.

    w is a cosine taper over the outer 10% of the span on each side and
    exactly 1 inside it, where it changes neither the field nor the absorbed
    power.  So only the frame around that inner square is kept, as four
    blocks: the top and bottom strips and the left and right pieces between
    them.  Each block is ``(index, w, absorption)``: the (rows, columns)
    slices of the block, w there and the power fraction removed 1 - w^2,
    repeated along the last axis to match a complex field viewed as
    interleaved real and imaginary parts.  The arrays are read-only.
    """
    half = grid.extent / 2.0
    start = 0.8 * half
    t = np.clip((np.abs(grid.axis()) - start) / (half - start), 0.0, 1.0)
    w1 = np.cos(0.5 * math.pi * t) ** 2
    inner = np.flatnonzero(t == 0.0)
    lo, hi = int(inner[0]), int(inner[-1]) + 1
    blocks = []
    for rows, cols in ((slice(0, lo), slice(None)), (slice(hi, None), slice(None)),
                       (slice(lo, hi), slice(0, lo)), (slice(lo, hi), slice(hi, None))):
        w = w1[rows, None] * w1[None, cols]
        absorption = np.repeat(1.0 - w**2, 2, axis=1)
        w.flags.writeable = absorption.flags.writeable = False
        blocks.append(((rows, cols), w, absorption))
    return tuple(blocks)


@functools.lru_cache(maxsize=4)
def _kernel(grid: Grid, k: float, dz: float) -> tuple[np.ndarray, np.ndarray]:
    """Vacuum kernel exp(-i (kx^2 + ky^2) dz / 2k) as ``(row, col)`` factors.

    The kernel is the outer product of the 1-D factor exp(-i k^2 dz / 2k)
    along x (``row``, 1 x n) and along y (``col``, n x 1); on the square
    grid both are views of one read-only array of n complex values, built
    through :func:`_cis`.  Cached per (grid, k, dz): a split step uses two
    step lengths, 16 KB each at n = 1024.
    """
    kax = grid.kaxis()
    p = _cis(kax * kax * (-0.5 * dz / k), np.empty(kax.shape, complex))
    p.flags.writeable = False
    return p[None, :], p[:, None]


def _vacuum(u: np.ndarray, grid: Grid, k: float, dz: float) -> tuple[np.ndarray, float]:
    """One windowed vacuum step; returns (field, absorbed power).

    ``u`` is overwritten.  The absorbed power is sum |u|^2 (1 - w^2) dA,
    taken before the window w is applied, both on the frame of
    :func:`_window` only; ``einsum`` sums it without BLAS, so the value does
    not depend on the thread count.  The FFTs run on the calling thread
    only: in a pool an extra FFT thread would compete with the other
    workers, and in a serial run the second core builds the next screen's
    rotation (see :func:`split_step`).  They are numpy's, one axis at a
    time and in place (``out=u``), so no spectrum array is allocated; they
    release the GIL, which lets that helper thread run meanwhile.  The
    kernel is applied as its two 1-D factors of :func:`_kernel`, one
    broadcast multiply each.
    """
    np.fft.fft(u, axis=1, out=u)
    np.fft.fft(u, axis=0, out=u)
    row, col = _kernel(grid, k, dz)
    u *= row
    u *= col
    np.fft.ifft(u, axis=0, out=u)
    np.fft.ifft(u, axis=1, out=u)
    absorbed = 0.0
    for index, w, absorption in _window(grid):
        block = u[index]
        v = block.view(float)
        absorbed += float(np.einsum("ij,ij,ij->", v, v, absorption))
        block *= w
    return u, absorbed * grid.spacing**2


def split_step(fld: Field, screens: Sequence[SparseScreen], geom: ChannelGeometry,
               shift_x: float = 0.0, *, _launched: bool = False, _helper=None) -> Field:
    """Propagate the field to z = L through the given screens.

    Symmetric split-step: half-slab vacuum step, screen phase, half-slab
    vacuum step per slab (adjacent half steps merged).  With no screens this
    is a single vacuum Fresnel propagation over the whole path.  The result
    carries the absorbed-power fraction in ``leaked_power``.

    Each screen's factor exp(i phi) is computed by :func:`_cis` into one
    n x n ``rotation`` buffer, in four blocks of n / 4 rows, each block's
    phase one :func:`_phase_on_grid` call into an (n / 4) x n ``phase``
    buffer: two real (n / 4) x K by K x (n / 2) matmuls, n^2 K
    multiply-adds per screen in all.  The screen's :func:`_grid_tables` are
    built with its rotation: the left factor W = c exp(-i ky y) into an
    n x K complex buffer and the x < 0 half of exp(i kx x) into a real
    (2, n / 2, K) one.  Per block, W's real and imaginary parts go to a
    real (2, n / 4, K) buffer and the mirrored product to an (n / 4) x
    (n / 2) one.  All are allocated once per call, on the calling thread:
    at n = 512, K = 256 they and the phase block hold 4.25 MiB beside the
    field and the rotation.  With ``_launched``, ``fld`` has already
    taken the first half-slab step (the cached :func:`_launch` of
    :func:`_realization`), its ``leaked_power`` included, and only a copy
    of its values is made.

    ``_helper`` is a one-thread executor (see :func:`_serial_helper`), or
    None.  With it, screen i + 1's rotation is built on the helper thread
    while this thread multiplies in rotation i and runs slab i's vacuum
    step; without it the same work runs inline in that order.  The values
    are the same bits either way.
    """
    grid, k = fld.grid, geom.k
    steps = [geom.path_length]
    if screens:
        dz = screens[0].slab_thickness
        if not math.isclose(dz * len(screens), geom.path_length, rel_tol=1e-9):
            raise ConfigError("screens do not tile the path length")
        steps = [dz / 2.0, *[dz] * (len(screens) - 1), dz / 2.0]
    for step in set(steps[1:]):
        _kernel(grid, k, step)
    u = fld.values.astype(complex)  # a copy: the steps transform it in place
    if _launched:
        leaked = fld.leaked_power
    else:
        u, absorbed = _vacuum(u, grid, k, steps[0])
        leaked = fld.leaked_power + absorbed
    n, half = grid.n, grid.n // 2
    rows = n // 4  # a phase block; smaller blocks slow the matmul down
    rotation = np.empty_like(u)
    phase = np.empty((rows, n))
    mirror = np.empty((rows, half))  # B of _phase_on_grid, the part odd in x
    # W, the x table and W's parts, flat: any K takes contiguous views of them
    width = max((s.n_components for s in screens), default=0)
    wbuf = np.empty(n * width, complex)
    xbuf = np.empty(n * width)
    sbuf = np.empty(2 * rows * width)

    def rotate(i: int) -> None:
        screen = screens[i]
        size = screen.n_components
        ex, w = _grid_tables(screen, grid, shift_x, (xbuf[: n * size].reshape(2, half, size),
                                                     wbuf[: n * size].reshape(n, size)))
        split = sbuf[: 2 * rows * size].reshape(2, rows, size)
        for start in range(0, n, rows):
            block = slice(start, start + rows)
            _cis(_phase_on_grid((ex, w[block]), (phase, split, mirror)), rotation[block])

    ahead = _helper.submit(rotate, 0) if _helper is not None and screens else None
    for i, step in enumerate(steps[1:]):
        if ahead is None:
            rotate(i)
        else:
            ahead.result()
        u *= rotation
        if ahead is not None and i + 1 < len(screens):
            ahead = _helper.submit(rotate, i + 1)
        u, dp = _vacuum(u, grid, k, step)
        leaked += dp
    return Field(grid=grid, values=u, leaked_power=leaked)


# ---------------------------------------------------------------------------
# Receiver-plane observables
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _aperture_weights(grid: Grid, radius: float) -> tuple:
    """Coverage weights of a centered disc on its bounding box: ``(index, w)``.

    Edge cells are 4x4 supersampled, and every cell outside the box has
    weight 0.  ``index`` is the (rows, columns) slices of the box, which
    are the same on the square grid; ``w`` holds the weights there,
    repeated along the last axis to match a complex field viewed as
    interleaved real and imaginary parts.  Cached per (grid, radius): the
    array is shared, hence read-only.
    """
    xs = grid.axis()
    half_diag = grid.spacing * math.sqrt(2.0) / 2.0
    near = np.flatnonzero(np.abs(xs) < radius + half_diag)
    box = slice(int(near[0]), int(near[-1]) + 1)
    xb = xs[box]
    rr = np.hypot(xb[None, :], xb[:, None])
    w = np.zeros(rr.shape)
    w[rr <= radius - half_diag] = 1.0
    edge = (rr > radius - half_diag) & (rr < radius + half_diag)
    if np.any(edge):
        iy, ix = np.nonzero(edge)
        sub = (np.arange(4) + 0.5) / 4.0 - 0.5
        ox, oy = np.meshgrid(sub * grid.spacing, sub * grid.spacing)
        px = xb[ix][:, None] + ox.ravel()[None, :]
        py = xb[iy][:, None] + oy.ravel()[None, :]
        inside = (px * px + py * py) <= radius * radius
        w[iy, ix] = inside.mean(axis=1)
    w = np.repeat(w, 2, axis=1)
    w.flags.writeable = False
    return (box, box), w


def transmittance(fld: Field, aperture_radius: float) -> float:
    """Fraction of (unit-normalized) intensity inside the centered disc.

    sum w |u|^2 dA over the bounding box of :func:`_aperture_weights`, the
    only cells where the weight w is not 0.  A radius of +inf takes the
    power on the whole grid, :meth:`Field.power`; a negative or NaN radius
    raises.
    """
    if not aperture_radius >= 0.0:
        raise DomainError(f"aperture radius {aperture_radius} must be >= 0")
    if aperture_radius == 0.0:
        return 0.0
    if aperture_radius == math.inf:
        return min(fld.power(), 1.0)
    index, w = _aperture_weights(fld.grid, aperture_radius)
    v = fld.values[index].view(float)
    eta = float(np.einsum("ij,ij,ij->", v, v, w)) * fld.grid.spacing**2
    return min(max(eta, 0.0), 1.0)


def beam_stats(fld: Field) -> tuple[np.ndarray, np.ndarray]:
    """Centroid r0 and spot-shape matrix S = 4 <(r - r0)(r - r0)^T>.

    The moments are those of the intensity renormalized to unit power, so
    boundary losses do not bias them: the marginals and the cross term are
    taken from the raw intensity and divided by its total.
    """
    inten = fld.intensity()
    total = inten.sum()
    if total <= 0.0:
        raise DomainError("beam_stats: field carries no power")
    xs = fld.grid.axis()
    px = inten.sum(axis=0) / total  # marginal over y -> function of x
    py = inten.sum(axis=1) / total
    x0 = float(px @ xs)
    y0 = float(py @ xs)
    dx = xs - x0
    dy = xs - y0
    sxx = 4.0 * float(px @ dx**2)
    syy = 4.0 * float(py @ dy**2)
    sxy = 4.0 * float(dy @ inten @ dx) / total
    return np.array([x0, y0]), np.array([[sxx, sxy], [sxy, syy]])


# ---------------------------------------------------------------------------
# Simulation driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce a Monte Carlo run."""

    geometry: ChannelGeometry
    spectrum: VonKarmanTatarskii
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
        _require_integers(seed=self.seed, n_screens=self.n_screens,
                          n_components=self.n_components, n_bands=self.n_bands,
                          n_realizations=self.n_realizations)
        if not self.duration < math.inf:
            raise ConfigError(f"duration = {self.duration} must be finite",
                              field="sim.duration")
        if self.n_screens < 5:
            raise ConfigError("need n_screens >= 5", field="sim.n_screens")
        if self.n_components < 64:
            raise ConfigError("need n_components >= 64", field="sim.n_components")
        if self.n_bands < 1:
            raise ConfigError("need n_bands >= 1", field="sim.n_bands")
        if self.duration > 0.0 and not 0.0 < self.dt < math.inf:
            raise ConfigError("time series needs a finite dt > 0", field="sim.dt")
        if self.duration > 0.0 and not 0.5 < self.duration / self.dt < math.inf:
            # round(duration / dt) steps: none at or below 0.5, no count at inf
            raise ConfigError("duration / dt must be finite and > 0.5", field="sim.duration")
        if not 0.0 <= self.wind_speed < math.inf:
            raise ConfigError("wind speed must be finite and >= 0", field="sim.wind_speed")
        _band_limits(self.spectrum, self.kappa_min, self.kappa_max)
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
        for name in ("x0", "y0", "sxx", "syy", "sxy"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name}={getattr(self, name)} must be finite")
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

    Built by :func:`_collect`: ``n_leak_warnings`` counts the realizations
    whose leaked power is above ``LEAK_WARN_FRACTION``, and
    ``max_leaked_power`` is the largest leaked fraction of any.
    """

    n_realizations: int = 0
    n_leak_warnings: int = 0
    max_leaked_power: float = 0.0


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
    return by_aperture, EnsembleReport(len(leaks), n_leaky, max([0.0, *leaks]))


@functools.lru_cache(maxsize=4)
def _launch(geom: ChannelGeometry, grid: Grid, dz: float) -> tuple[np.ndarray, float]:
    """The source after its first half-slab step: ``(values, absorbed power)``.

    Every realization with slabs ``dz`` thick starts from the
    :func:`gaussian_source` propagated dz / 2 and windowed.  Cached per
    (geometry, grid, dz); the values are read-only.
    """
    u, absorbed = _vacuum(gaussian_source(geom, grid).values, grid, geom.k, dz / 2.0)
    u.flags.writeable = False
    return u, absorbed


def _realization(config: SimConfig, apertures: Sequence[float], job, helper=None):
    """Run one job ``(index, stream, shift_x, time)`` and observe every aperture.

    Draws the screen set of ``stream`` of the master seed and propagates it
    at transverse shift ``shift_x`` from the cached :func:`_launch`;
    ``helper`` goes to :func:`split_step`.  Returns ``(records, leaked_power)``,
    the records carrying ``index`` and ``time``.
    """
    index, stream, shift_x, time = job
    geom, grid = config.geometry, config.grid
    screens = _screens(config, stream)
    u, absorbed = _launch(geom, grid, screens[0].slab_thickness)
    fld = split_step(Field(grid=grid, values=u, leaked_power=absorbed), screens, geom,
                     shift_x, _launched=True, _helper=helper)
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


def _one_blas_thread() -> None:
    """Set every OpenBLAS loaded in this process to one thread."""
    for _, put in _blas_controls():
        put(1)


@contextlib.contextmanager
def _serial_helper():
    """One helper thread for a serial run's :func:`split_step` calls, or None.

    Sets every loaded OpenBLAS to one thread and yields a one-worker
    ``ThreadPoolExecutor``; on exit, also on error, the executor is shut
    down and each library gets its previous thread count back.  One BLAS
    thread, because a second one would spin on the core the helper uses.
    Yields None, and changes nothing, where this process may use one CPU
    only or no OpenBLAS thread control is found.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    controls = _blas_controls() if len(cpus) > 1 else []
    if not controls:
        yield None
        return
    import concurrent.futures as cf

    before = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(1)
        with cf.ThreadPoolExecutor(max_workers=1) as helper:
            yield helper
    finally:
        for (_, put), count in zip(controls, before):
            put(count)


def _run_jobs(config: SimConfig, apertures: Sequence[float], jobs, workers: int = 1):
    """Map :func:`_realization` over ``jobs``, in order, into :func:`_collect`.

    An empty aperture list, or a NaN or negative radius, raises before any
    propagation; +inf takes all the power on the grid.

    With ``workers > 1`` the jobs go to a process pool in chunks of 8.  Each
    pool worker sets its OpenBLAS to one thread before it starts: it
    inherits the parent's count (one per core), so every worker would
    otherwise run that many busy-waiting BLAS threads for the (n / 4) x K
    by K x (n / 2) products of each screen's phase
    (:func:`_phase_on_grid`).  Pool workers run :func:`split_step` without
    a helper thread.

    With ``workers <= 1`` the run holds one :func:`_serial_helper` context,
    inline on one CPU: each screen's rotation is built on the helper thread
    one screen ahead of the FFTs, with OpenBLAS on one thread until the run
    ends.  The records do not depend on any of this: the phase matmuls
    have n/2 columns, a power of two, for which OpenBLAS gives each
    element the same bits for any thread count (see :func:`_phase_on_grid`),
    and the helper computes the same values the calling thread would.
    """
    if not apertures:
        raise ConfigError("need at least one aperture", field="apertures")
    apertures = tuple(apertures)
    if not all(a >= 0.0 for a in apertures):
        raise ConfigError(f"aperture radii {apertures} must be >= 0 (not NaN)",
                          field="apertures")
    run = functools.partial(_realization, config, apertures)
    if workers <= 1:
        with _serial_helper() as helper:
            return _collect(map(functools.partial(run, helper=helper), jobs), apertures)
    import concurrent.futures as cf

    with cf.ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
        return _collect(pool.map(run, jobs, chunksize=8), apertures)


def run_ensemble(config: SimConfig, workers: int = 1) -> list[SampleRecord]:
    """Independent realizations at the geometry's aperture radius.

    Realization i consumes stream index i of the master seed, so the output
    is identical for any worker count.  This is :func:`run_ensemble_multi`
    at that one aperture, without the report.
    """
    a = config.geometry.aperture_radius
    by_aperture, _ = run_ensemble_multi(config, [a], workers)
    return by_aperture[a]


def run_ensemble_multi(config: SimConfig, apertures: Sequence[float], workers: int = 1):
    """Realizations ``0 .. n_realizations - 1``, each recorded at every aperture.

    Returns ``(records_by_aperture, report)``; realization i is the job
    ``(i, i, 0.0, None)`` of :func:`_run_jobs`, propagated once and clipped
    by each aperture.
    """
    if config.n_realizations <= 0:
        raise ConfigError("n_realizations must be > 0", field="sim.n_realizations")
    jobs = [(i, i, 0.0, None) for i in range(config.n_realizations)]
    return _run_jobs(config, apertures, jobs, workers)


def run_timeseries(config: SimConfig, apertures: Optional[Sequence[float]] = None):
    """Frozen-turbulence time series from a single screen set.

    The series covers ``config.duration`` in round(duration / dt) steps;
    step m, at time t = m dt, is the job ``(m, 0, wind_speed * t, t)`` of
    :func:`_run_jobs`: stream 0's screens shifted by wind_speed * t, so
    step 0 is realization 0 of :func:`run_ensemble_multi`.  Returns what
    that does, one report entry per step; the apertures default to the
    geometry's.  The series runs serially.
    """
    if not config.duration > 0.0:
        raise ConfigError("time series needs duration > 0", field="sim.duration")
    if apertures is None:
        apertures = (config.geometry.aperture_radius,)
    times = [m * config.dt for m in range(round(config.duration / config.dt))]
    jobs = [(m, 0, config.wind_speed * t, t) for m, t in enumerate(times)]
    return _run_jobs(config, apertures, jobs)


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
                              separations: np.ndarray) -> np.ndarray:
    """Phase structure function D(r) estimated from sampled screens.

    Uses the per-screen conditional expectation
    D_screen(d) = sum_j (a_j^2 + b_j^2)(1 - cos(kappa_j . d)), averaged over
    screens and over 8 orientations of d; the screen average converges to
    the spectral-integral structure function.
    """
    seps = np.asarray(separations, dtype=float)
    directions = 8
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
