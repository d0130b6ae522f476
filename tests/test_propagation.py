"""Wave-optics engine: source, screens, split-step, observables, drivers."""

import concurrent.futures as cf
import ctypes
import dataclasses
import hashlib
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from turbchan import propagation
from turbchan.errors import ConfigError, DomainError
from turbchan.numerics import RngStream
from turbchan.propagation import (
    EnsembleReport,
    Field,
    Grid,
    SampleRecord,
    SimConfig,
    beam_stats,
    default_grid,
    ensemble_summary,
    evaluate_phase,
    gaussian_source,
    run_ensemble,
    run_ensemble_multi,
    run_timeseries,
    sample_screens,
    screen_structure_function,
    split_step,
    transmittance,
    _aperture_weights,
    _band_limits,
    _cis,
    _collect,
    _grid_tables,
    _kernel,
    _launch,
    _one_blas_thread,
    _phase_on_grid,
    _realization,
    _screens,
    _serial_helper,
    _vacuum,
    _window,
)
from turbchan.turbulence import ChannelGeometry, VonKarmanTatarskii

FIG2_GEOM = ChannelGeometry(wavelength=809e-9, path_length=3000.0,
                            beam_radius=0.0278, aperture_radius=0.02,
                            focal_length=3000.0)
FIG2_SPEC = VonKarmanTatarskii(cn2=1e-15, outer_scale=80.0, inner_scale=1e-3)
VACUUM = VonKarmanTatarskii(cn2=0.0, outer_scale=80.0, inner_scale=1e-3)

# bound on a warm serial run's traced peak at small_config, in units of one
# n x n complex array
WORKING_SET = 4.0

# scaled-down channel for cheap ensemble tests
SMALL_GEOM = ChannelGeometry(wavelength=808e-9, path_length=1000.0,
                             beam_radius=0.0508, aperture_radius=0.04)
SMALL_SPEC = VonKarmanTatarskii(cn2=5e-15, outer_scale=1000.0, inner_scale=1e-3)


def _blas_thread_counts():
    """Thread count of every loaded OpenBLAS that exports a getter."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return []
    counts = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return counts


def _full_window(grid):
    """The absorbing window on the whole grid, as a plain n x n array."""
    half = grid.extent / 2.0
    start = 0.8 * half
    t = np.clip((np.abs(grid.axis()) - start) / (half - start), 0.0, 1.0)
    w1 = np.cos(0.5 * math.pi * t) ** 2
    return w1[None, :] * w1[:, None]


def _unwindowed_step(u, kernel):
    """The FFT pair of :func:`_vacuum`, without the window: numpy's
    transforms one axis at a time, each into a new array, and the kernel's
    ``(row, col)`` factors multiplied in that order."""
    row, col = kernel
    spec = np.fft.fft(np.fft.fft(u, axis=1), axis=0) * row * col
    return np.fft.ifft(np.fft.ifft(spec, axis=0), axis=1)


def _full_kernel(grid, k, dz):
    """The vacuum kernel as one n x n array: the outer product of its factors."""
    row, col = _kernel(grid, k, dz)
    return row * col


def _disc_weights(grid, radius):
    """Coverage weights of a centered disc on the whole grid, edge cells 4x4
    supersampled: the full-grid form of :func:`_aperture_weights`."""
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
        w[iy, ix] = ((px * px + py * py) <= radius * radius).mean(axis=1)
    return w


def _box_weights(grid, radius):
    """The cached box weights of :func:`_aperture_weights` placed on the grid."""
    index, w = _aperture_weights(grid, radius)
    assert np.array_equal(w[:, ::2], w[:, 1::2])
    full = np.zeros((grid.n, grid.n))
    full[index] = w[:, ::2]
    return full


def small_config(**kw):
    grid = kw.pop("grid", default_grid(SMALL_GEOM, SMALL_SPEC, n=256))
    args = dict(geometry=SMALL_GEOM, spectrum=SMALL_SPEC, grid=grid,
                n_screens=5, n_components=128, seed=404, n_realizations=4)
    args.update(kw)
    return SimConfig(**args)


class TestGrid:
    def test_power_of_two_required(self):
        with pytest.raises(ConfigError):
            Grid(n=200, extent=1.0)
        with pytest.raises(ConfigError):
            Grid(n=32, extent=1.0)

    @pytest.mark.parametrize("n", [256.0, 256.5, "256", None])
    def test_non_integral_n_rejected(self, n):
        with pytest.raises(ConfigError) as exc:
            Grid(n=n, extent=0.5)
        assert exc.value.field == "grid.n"

    def test_numpy_integer_n_accepted(self):
        g = Grid(n=np.int64(256), extent=0.5)
        assert g.axis().size == 256
        assert g.spacing == pytest.approx(0.5 / 256)

    def test_axis_contains_origin(self):
        g = Grid(n=64, extent=1.0)
        assert 0.0 in g.axis()
        assert g.spacing == pytest.approx(1.0 / 64)


class TestGaussianSource:
    def test_unit_power(self):
        grid = default_grid(FIG2_GEOM, VACUUM)
        f = gaussian_source(FIG2_GEOM, grid)
        assert f.power() == pytest.approx(1.0, abs=1e-9)

    def test_peak_at_center(self):
        grid = default_grid(FIG2_GEOM, VACUUM)
        f = gaussian_source(FIG2_GEOM, grid)
        iy, ix = np.unravel_index(np.argmax(np.abs(f.values)), f.values.shape)
        assert abs(grid.axis()[ix]) < grid.spacing
        assert abs(grid.axis()[iy]) < grid.spacing

    def test_waist_radius(self):
        grid = default_grid(FIG2_GEOM, VACUUM)
        f = gaussian_source(FIG2_GEOM, grid)
        xs = grid.axis()
        row = np.abs(f.values[np.argmin(np.abs(xs)), :])
        peak = row.max()
        # |u| falls to exp(-1) of peak at r = W0, within one grid spacing
        right = xs[xs >= 0.0]
        vals = row[xs >= 0.0]
        crossing = right[np.argmin(np.abs(vals - peak / math.e))]
        assert abs(crossing - FIG2_GEOM.beam_radius) <= grid.spacing

    def test_under_resolved_raises(self):
        with pytest.raises(ConfigError):
            gaussian_source(FIG2_GEOM, Grid(n=64, extent=1.0))


class TestScreens:
    def screens(self, n_screens=5, n_components=96, seed=5):
        return sample_screens(FIG2_SPEC, FIG2_GEOM, n_screens, n_components,
                              RngStream(seed, 0))

    def test_determinism(self):
        s1 = self.screens()
        s2 = self.screens()
        for a, b in zip(s1, s2):
            assert np.array_equal(a.kx, b.kx)
            assert np.array_equal(a.amp_cos, b.amp_cos)

    def test_fig2_screen_set_pinned(self):
        # every bit of one FIG2 screen set: the draws' order and grouping
        # may change only if no screen changes
        screens = sample_screens(FIG2_SPEC, FIG2_GEOM, 10, 256, RngStream(5, 3))
        digests = {name: hashlib.sha256(b"".join(getattr(s, name).tobytes()
                                                 for s in screens)).hexdigest()
                   for name in ("kx", "ky", "amp_cos", "amp_sin")}
        assert digests == {
            "kx": "ff31b075882175dfb4b4826aed3f0fb876b967579320c27e9708ebadc8fc009b",
            "ky": "b356e483e01e0db6f95a76e52dc65c61237761dc5be990ffa8e6c82b7c6a12c8",
            "amp_cos": "37e8a9186d4a384cb5bdeafec2de9942a70d0042386f6c44ee3f56c976a382b5",
            "amp_sin": "4f2c28590d06714e2b5be069f3650fa8607fc44d9e329642ec1aa1854ea0dad9",
        }
        assert screens[0].kx[0].hex() == "-0x1.07c814afb395cp-5"
        assert screens[9].amp_sin[-1].hex() == "-0x1.317696387663fp-14"
        assert all(s.slab_thickness.hex() == "0x1.2c00000000000p+8" for s in screens)

    def test_component_count_and_slabs(self):
        s = self.screens(n_screens=6, n_components=100)
        assert len(s) == 6
        assert all(sc.n_components == 100 for sc in s)
        assert all(sc.slab_thickness == pytest.approx(500.0) for sc in s)

    def test_wavevectors_within_bands(self):
        s = self.screens()[0]
        kmag = np.hypot(s.kx, s.ky)
        kmin = 2 * math.pi / (4 * FIG2_SPEC.outer_scale)
        kmax = 2 * math.pi / (FIG2_SPEC.inner_scale / 2)
        assert np.all(kmag >= kmin * (1 - 1e-9))
        assert np.all(kmag <= kmax * (1 + 1e-9))

    @pytest.mark.parametrize("kappa_min,kappa_max,field", [
        (None, math.inf, "sim.kappa_max"),
        (None, math.nan, "sim.kappa_max"),
        (None, 0.0, "sim.kappa_max"),
        (0.0, None, "sim.kappa_min"),
        (-1.0, None, "sim.kappa_min"),
        (math.nan, None, "sim.kappa_min"),
        (math.inf, None, "sim.kappa_min"),
        (1e3, 1e2, "sim.kappa_max"),
        (1e3, 1e3, "sim.kappa_max"),
    ])
    def test_bad_band_limits_raise(self, kappa_min, kappa_max, field):
        # a bound of 0 is not taken for "use the default", and an infinite
        # bound does not turn into NaN screens
        with pytest.raises(ConfigError) as err:
            sample_screens(FIG2_SPEC, FIG2_GEOM, 5, 96, RngStream(0, 0),
                           kappa_min=kappa_min, kappa_max=kappa_max)
        assert err.value.field == field
        with pytest.raises(ConfigError) as err:
            small_config(kappa_min=kappa_min, kappa_max=kappa_max)
        assert err.value.field == field

    def test_kolmogorov_needs_explicit_bands(self):
        with pytest.raises(ConfigError) as err:
            sample_screens(VonKarmanTatarskii(1e-15), FIG2_GEOM, 5, 96, RngStream(0, 0))
        assert err.value.field == "sim.kappa_min"

    def test_band_defaults_per_bound(self):
        cn2 = 1e-15
        assert _band_limits(VonKarmanTatarskii(cn2, 80.0), None, 1e4) == (
            2.0 * math.pi / 320.0, 1e4)
        assert _band_limits(VonKarmanTatarskii(cn2, math.inf, 1e-3), 0.1, None) == (
            0.1, 4.0 * math.pi / 1e-3)
        assert _band_limits(FIG2_SPEC, None, None) == (2.0 * math.pi / 320.0,
                                                       4.0 * math.pi / 1e-3)
        for spectrum, kappa_min, field in (
                (VonKarmanTatarskii(cn2), None, "sim.kappa_min"),
                (VonKarmanTatarskii(cn2, 80.0), None, "sim.kappa_max"),
                (VonKarmanTatarskii(cn2, math.inf, 1e-3), None, "sim.kappa_min"),
                (VonKarmanTatarskii(cn2), 0.1, "sim.kappa_max")):
            with pytest.raises(ConfigError) as err:
                _band_limits(spectrum, kappa_min, None)
            assert err.value.field == field
            with pytest.raises(ConfigError) as err:
                small_config(spectrum=spectrum, kappa_min=kappa_min)
            assert err.value.field == field

    def test_band_default_reaches_the_screens(self):
        # l0 = 0 with kappa_max given: the wavenumbers start at 2 pi / 4 L0
        s = sample_screens(VonKarmanTatarskii(1e-15, 80.0), FIG2_GEOM, 5, 96,
                           RngStream(5, 0), kappa_max=1e3)[0]
        kmag = np.hypot(s.kx, s.ky)
        assert np.all(kmag >= 2.0 * math.pi / 320.0 * (1 - 1e-9))
        assert np.all(kmag <= 1e3 * (1 + 1e-9))

    @pytest.mark.parametrize("name,value", [("n_components", 96.5), ("n_components", 128.0),
                                            ("n_screens", 2.5), ("n_screens", 0),
                                            ("n_screens", -1)])
    def test_screen_counts_must_be_integers(self, name, value):
        counts = {"n_screens": 5, "n_components": 96, name: value}
        with pytest.raises(ConfigError) as err:
            sample_screens(FIG2_SPEC, FIG2_GEOM, stream=RngStream(0, 0), **counts)
        assert err.value.field == f"sim.{name}"

    def test_shift_identity(self):
        s = self.screens()[0]
        pts = np.array([[0.01, -0.02], [0.0, 0.0], [-0.03, 0.015]])
        shift = 0.0123
        shifted = evaluate_phase(s, pts, shift_x=shift)
        moved = evaluate_phase(s, pts + np.array([shift, 0.0]), shift_x=0.0)
        assert np.allclose(shifted, moved, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("in_place,shift", [(False, 0.0), (True, 0.0123),
                                                (False, -0.0071)])
    def test_phase_on_grid_matches_pointwise(self, in_place, shift):
        s = self.screens()[0]
        grid = Grid(n=64, extent=0.2)
        rows, half = grid.n, grid.n // 2
        # into given buffers, as split_step does it, or into new ones
        tables = ((np.empty((2, half, s.n_components)), np.empty((rows, s.n_components), complex))
                  if in_place else (None, None))
        ex, w = _grid_tables(s, grid, shift, tables)
        out = ((np.empty((rows, grid.n)), np.empty((2, rows, s.n_components)),
                np.empty((rows, half))) if in_place else (None,) * 3)
        got = _phase_on_grid((ex, w), out)
        assert got.shape == (grid.n, grid.n)
        gx, gy = np.meshgrid(grid.axis(), grid.axis())  # [iy, ix], the grid phase's layout
        want = evaluate_phase(s, np.column_stack([gx.ravel(), gy.ravel()]),
                              shift_x=shift).reshape(gx.shape)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_mirrored_columns_at_fig2(self):
        # the x table holds x < 0 only; the columns at x > 0 come from the
        # mirror E(-x) = conj E(x) and x = 0 from a row sum, so check both
        # sides of the fold, the centre and both edges, on a row block as
        # split_step passes it
        grid = default_grid(FIG2_GEOM, FIG2_SPEC, n=512)
        n, half, rows = grid.n, grid.n // 2, grid.n // 4
        s = sample_screens(FIG2_SPEC, FIG2_GEOM, 10, 256, RngStream(5, 3))[4]
        ex, w = _grid_tables(s, grid, 0.0123)
        assert ex.shape == (2, half, 256) and w.shape == (n, 256)
        block = slice(rows, 2 * rows)
        got = _phase_on_grid((ex, w[block]))
        xs = grid.axis()
        cols = np.array([0, 1, half - 1, half, half + 1, n - 1])
        picked = np.array([0, 1, rows // 2, rows - 1])
        gx, gy = np.meshgrid(xs[cols], xs[block][picked])
        want = evaluate_phase(s, np.column_stack([gx.ravel(), gy.ravel()]),
                              shift_x=0.0123).reshape(gx.shape)
        assert np.max(np.abs(got[np.ix_(picked, cols)] - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("points,shift", [([[math.nan, 0.0]], 0.0),
                                              ([[0.0, 0.01], [0.0, math.inf]], 0.0),
                                              ([[0.0, 0.0]], math.nan),
                                              ([[0.0, 0.0]], -math.inf)])
    def test_non_finite_input_raises(self, points, shift):
        with pytest.raises(DomainError, match="finite"):
            evaluate_phase(self.screens()[0], points, shift_x=shift)

    def test_zero_shift_is_identity(self):
        s = self.screens()[0]
        pts = np.array([[0.004, 0.002]])
        assert evaluate_phase(s, pts) == pytest.approx(
            evaluate_phase(s, pts, shift_x=0.0)
        )

    def test_phase_slope_bound(self):
        s = self.screens()[0]
        bound = np.sum(np.hypot(s.kx, s.ky) * (np.abs(s.amp_cos) + np.abs(s.amp_sin)))
        r = np.array([[0.003, -0.001]])
        for delta in (1e-4, 1e-6, 1e-8):
            step = np.array([[delta, 0.0]])
            diff = abs(evaluate_phase(s, r + step)[0] - evaluate_phase(s, r)[0])
            assert diff <= bound * delta * (1 + 1e-9)

    def test_stationarity_of_variance(self):
        # E[phi(r)^2] is r-independent by construction; compare the
        # screen-averaged second moment at two translated point sets
        pts = np.array([[0.0, 0.0], [0.05, -0.02]])
        shiftvec = np.array([1.7, -3.1])
        acc = np.zeros(2)
        acc_shift = np.zeros(2)
        n = 400
        for i in range(n):
            s = sample_screens(FIG2_SPEC, FIG2_GEOM, 1, 96, RngStream(99, i))[0]
            acc += evaluate_phase(s, pts) ** 2
            acc_shift += evaluate_phase(s, pts + shiftvec) ** 2
        mean, mean_shift = acc / n, acc_shift / n
        # same distribution: agree within a few relative MC standard errors
        assert np.all(np.abs(mean - mean_shift) / mean < 4.0 * math.sqrt(2.0 / n) + 0.05)

    def test_structure_function_inertial_range(self):
        # quick 5/3-law check (the 1000-screen gate lives in acceptance)
        cn2 = 1e-15
        screens = []
        for i in range(250):
            screens += sample_screens(VonKarmanTatarskii(cn2), FIG2_GEOM, 1, 256,
                                      RngStream(123, i), kappa_min=1e-3,
                                      kappa_max=1.26e4)
        seps = np.logspace(math.log10(0.01), math.log10(0.5), 6)
        d_est = screen_structure_function(screens, seps)
        dz = FIG2_GEOM.path_length
        d_theory = 2.914 * FIG2_GEOM.k**2 * cn2 * dz * seps ** (5.0 / 3.0)
        assert np.all(np.abs(d_est / d_theory - 1.0) < 0.12)

    @pytest.mark.parametrize("screens,seps,match", [
        # NaN once came back as D = NaN, inf as a warning from cos, and no
        # screens as 0 / 0
        (1, [0.01, math.nan], "separations must be finite"),
        (1, [math.inf], "separations must be finite"),
        (0, [0.01], "need at least one screen"),
    ], ids=["nan-separation", "inf-separation", "no-screens"])
    def test_structure_function_bad_input_raises(self, screens, seps, match):
        drawn = sample_screens(FIG2_SPEC, FIG2_GEOM, 5, 96, RngStream(0, 0))[:screens]
        with pytest.raises(DomainError, match=f"^screen_structure_function: {match}"):
            screen_structure_function(drawn, seps)


EPS = np.finfo(float).eps


class TestCis:
    def cis(self, theta):
        theta = np.array(theta, dtype=float)  # a copy: _cis overwrites it
        out = np.empty(theta.shape, complex)
        with np.errstate(invalid="ignore"):
            assert _cis(theta, out) is out
        return out

    @pytest.mark.parametrize("span", [50.0, 4000.0, 6000.0])
    def test_matches_cos_sin(self, span):
        # the FIG2 grid tables at n=512 reach |kx x| of about 5300 rad
        theta = np.random.default_rng(7).uniform(-span, span, 200_000)
        z = self.cis(theta)
        assert np.max(np.abs(z.real - np.cos(theta))) <= 4 * EPS
        assert np.max(np.abs(z.imag - np.sin(theta))) <= 4 * EPS
        assert np.max(np.abs(np.abs(z) - 1.0)) <= 1e-15

    def test_zero_and_pi(self):
        assert self.cis([0.0])[0] == 1.0
        for theta in (math.pi, -math.pi):
            z = self.cis([theta])[0]
            assert z.real == -1.0
            assert abs(z.imag - math.sin(theta)) <= 4 * EPS
        near = [np.nextafter(v, d) for v in (0.0, math.pi, -math.pi)
                for d in (-math.inf, math.inf)]
        z = self.cis(near)
        assert np.max(np.abs(z.real - np.cos(near))) <= 4 * EPS
        assert np.max(np.abs(z.imag - np.sin(near))) <= 4 * EPS

    def test_nan_in_nan_out(self):
        z = self.cis([math.nan, math.inf, -math.inf, 0.5])
        assert np.all(np.isnan(z.real[:3])) and np.all(np.isnan(z.imag[:3]))
        assert np.isfinite(z[3])


class TestGridTables:
    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_match_extended_precision(self, n):
        # angle addition builds each table from n / m coarse and m fine
        # phasors; each component's error stays within a few units of
        # |k x| 2^-52 of exp(+-i k x) in 64-bit-mantissa arithmetic, with
        # |k x| that component's largest angle on the axis
        grid = default_grid(FIG2_GEOM, FIG2_SPEC, n=n)
        xs = grid.axis()
        screen = sample_screens(FIG2_SPEC, FIG2_GEOM, 10, 256, RngStream(0, 0))[0]
        # unit amplitudes: c = 1 exactly, so W is the phasor table exp(-i ky y)
        unit = dataclasses.replace(screen, amp_cos=np.ones(256), amp_sin=np.zeros(256))
        ex, w = _grid_tables(unit, grid)
        # the x table is the x < 0 half, as (cos, sin) planes
        for (re, im), axis, k in (((ex[0], ex[1]), xs[: n // 2], screen.kx),
                                  ((w.real, w.imag), xs, -screen.ky)):
            assert re.shape == im.shape == (axis.size, k.size)
            theta = np.multiply.outer(axis.astype(np.longdouble), k.astype(np.longdouble))
            err = np.maximum(np.abs(re - np.cos(theta)),
                             np.abs(im - np.sin(theta))).astype(float)
            largest = np.max(np.abs(theta), axis=0).astype(float)
            assert np.all(np.max(err, axis=0) <= (16.0 + 2.0 * largest) * EPS)


class TestSplitStepScreens:
    def case(self):
        config = small_config()
        src = gaussian_source(config.geometry, config.grid)
        screens = [sample_screens(config.spectrum, config.geometry, config.n_screens,
                                  config.n_components, RngStream(config.seed, i))
                   for i in range(2)]
        return config, src, screens

    def test_matches_exp_path(self):
        config, src, screens = self.case()
        geom, grid = config.geometry, config.grid
        got = split_step(src, screens[0], geom, shift_x=0.013)
        # the same symmetric split step with np.exp(1j * phi) for the rotation
        dz = screens[0][0].slab_thickness
        u, _ = _vacuum(src.values.copy(), grid, geom.k, dz / 2.0)
        for i, screen in enumerate(screens[0]):
            u = u * np.exp(1j * _phase_on_grid(_grid_tables(screen, grid, 0.013)))
            u, _ = _vacuum(u, grid, geom.k, dz if i + 1 < len(screens[0]) else dz / 2.0)
        assert np.max(np.abs(got.values - u)) <= 1e-13

    @pytest.mark.parametrize("shift", [0.0, 0.013])
    def test_realization_matches_plain_split_step(self, shift):
        # the cached launch step changes no bit of the records or the leak
        config = small_config(seed=77)
        apertures = (0.02, 0.04, math.inf)
        got, leaked = _realization(config, apertures, (3, 3, shift, None))
        fld = split_step(gaussian_source(config.geometry, config.grid), _screens(config, 3),
                         config.geometry, shift)
        r0, smat = beam_stats(fld)
        want = [SampleRecord(eta=transmittance(fld, a), x0=r0[0], y0=r0[1], sxx=smat[0, 0],
                             syy=smat[1, 1], sxy=smat[0, 1], realization_index=3)
                for a in apertures]
        assert [repr(r) for r in got] == [repr(r) for r in want]
        assert leaked.hex() == fld.leaked_power.hex()

    def test_one_split_step_per_realization(self, monkeypatch):
        # the traced benchmark times propagation through this module attribute
        calls = []
        plain = propagation.split_step

        def counting(*args, **kwargs):
            calls.append(args[0].grid)
            return plain(*args, **kwargs)

        monkeypatch.setattr(propagation, "split_step", counting)
        run_ensemble_multi(small_config(n_realizations=3), [0.02, 0.04])
        assert len(calls) == 3
        run_timeseries(small_config(wind_speed=10.0, dt=1e-3, duration=0.002))
        assert len(calls) == 5

    def test_rotation_buffer_reuse(self):
        # one rotation buffer per call, reused across its screens, and the
        # shared tables are read-only: repeated and interleaved calls agree
        config, src, screens = self.case()
        first = [split_step(src, s, config.geometry) for s in screens]
        again = [split_step(src, s, config.geometry) for s in reversed(screens)][::-1]
        for a, b in zip(first, again):
            assert np.array_equal(a.values, b.values)


class TestSplitStepVacuum:
    @pytest.mark.parametrize(
        "focal,s_formula",
        [
            (math.inf, lambda w0, om: w0**2 * (1 + om**-2)),
            (3000.0, lambda w0, om: w0**2 * om**-2),
        ],
    )
    def test_diffraction_closed_form(self, focal, s_formula):
        geom = ChannelGeometry(wavelength=809e-9, path_length=3000.0,
                               beam_radius=0.0278, aperture_radius=0.02,
                               focal_length=focal)
        grid = default_grid(geom, VACUUM, n=512)
        out = split_step(gaussian_source(geom, grid), [], geom)
        _, smat = beam_stats(out)
        om = geom.k * geom.beam_radius**2 / (2 * geom.path_length)
        expected = s_formula(geom.beam_radius, om)
        assert smat[0, 0] == pytest.approx(expected, rel=0.01)
        assert smat[1, 1] == pytest.approx(expected, rel=0.01)

    def test_power_conserved(self):
        grid = default_grid(FIG2_GEOM, VACUUM, n=512)
        out = split_step(gaussian_source(FIG2_GEOM, grid), [], FIG2_GEOM)
        assert out.power() == pytest.approx(1.0, abs=1e-6)
        assert out.leaked_power < 1e-6

    def test_one_pass_absorbed_power(self):
        # a collimated beam spread far past a cramped grid: the window
        # absorbs a large share, which must equal the power before minus after
        geom = ChannelGeometry(wavelength=809e-9, path_length=20000.0,
                               beam_radius=0.0278, aperture_radius=0.02)
        grid = Grid(n=128, extent=0.3)
        u0 = gaussian_source(geom, grid).values
        got, absorbed = _vacuum(u0.copy(), grid, geom.k, geom.path_length)
        ref = np.fft.ifft2(np.fft.fft2(u0) * _full_kernel(grid, geom.k, geom.path_length))
        cell = grid.spacing**2
        before = float(np.sum(np.abs(ref) ** 2)) * cell
        ref *= _full_window(grid)
        after = float(np.sum(np.abs(ref) ** 2)) * cell
        assert before - after > 0.05
        assert absorbed == pytest.approx(before - after, rel=1e-12)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("grid", [Grid(n=128, extent=0.3),
                                      default_grid(FIG2_GEOM, FIG2_SPEC, n=512)])
    def test_window_frame_matches_full_grid(self, grid):
        # w = 1 inside the frame: windowing the frame only leaves every bit
        # of the field as the full-grid multiply does, and the absorbed
        # power changes only its summation order
        geom = ChannelGeometry(wavelength=809e-9, path_length=20000.0,
                               beam_radius=0.0278, aperture_radius=0.02)
        u0 = gaussian_source(geom, grid).values
        got, absorbed = _vacuum(u0.copy(), grid, geom.k, geom.path_length)
        ref = _unwindowed_step(u0, _kernel(grid, geom.k, geom.path_length))
        v = ref.view(float)
        full = np.repeat(1.0 - _full_window(grid) ** 2, 2, axis=1)
        want = float(np.einsum("ij,ij,ij->", v, v, full)) * grid.spacing**2
        ref *= _full_window(grid)
        assert np.array_equal(got.view(float), ref.view(float))
        assert want > 0.0
        assert absorbed == pytest.approx(want, rel=1e-13, abs=0.0)
        frame = sum(w.size for _, w, _ in _window(grid))
        assert frame < 0.4 * grid.n**2

    @pytest.mark.parametrize("steps", [10, 20])
    def test_kernel_matches_exp(self, steps):
        # slab and half-slab steps of the 10-screen FIG2 ensemble at n=512:
        # the outer product of the 1-D factors is the 2-D Fresnel kernel
        grid = default_grid(FIG2_GEOM, FIG2_SPEC, n=512)
        kax = grid.kaxis()
        kk = kax[None, :] ** 2 + kax[:, None] ** 2
        dz = FIG2_GEOM.path_length / steps
        ref = np.exp(-0.5j * kk * dz / FIG2_GEOM.k)
        assert np.max(np.abs(_full_kernel(grid, FIG2_GEOM.k, dz) - ref)) <= 1e-13

    def test_cache_entries_are_small_and_read_only(self):
        # a kernel holds n values, an aperture the disc's bounding box only
        grid = default_grid(FIG2_GEOM, FIG2_SPEC, n=512)
        n, h = grid.n, grid.spacing
        row, col = _kernel(grid, FIG2_GEOM.k, 300.0)
        assert row.shape == (1, n) and col.shape == (n, 1)
        for factor in (row, col):
            assert factor.base is not None and factor.base.size == n
            assert not factor.flags.writeable
        for radius in (h, 0.02, 0.05):
            (rows, cols), w = _aperture_weights(grid, radius)
            m = rows.stop - rows.start
            assert cols == rows and w.shape == (m, 2 * m)
            assert m <= 2.0 * (radius / h + 1.0) + 1.0
            assert not w.flags.writeable
        assert _aperture_weights(grid, 0.02)[1].shape == (25, 50)  # FIG2: 25 x 25 of 512^2

    def test_focused_transmittance_closed_form(self):
        geom = FIG2_GEOM
        grid = default_grid(geom, VACUUM, n=512)
        out = split_step(gaussian_source(geom, grid), [], geom)
        _, smat = beam_stats(out)
        eta = transmittance(out, geom.aperture_radius)
        expected = 1.0 - math.exp(-2 * geom.aperture_radius**2 / smat[0, 0])
        assert eta == pytest.approx(expected, rel=0.01)


@pytest.fixture(scope="module")
def vacuum_field():
    grid = default_grid(FIG2_GEOM, VACUUM, n=256)
    return split_step(gaussian_source(FIG2_GEOM, grid), [], FIG2_GEOM)


class TestTransmittanceAndStats:
    def test_zero_aperture(self, vacuum_field):
        assert transmittance(vacuum_field, 0.0) == 0.0

    def test_nan_aperture_raises(self, vacuum_field):
        with pytest.raises(DomainError):
            transmittance(vacuum_field, math.nan)
        with pytest.raises(DomainError):
            transmittance(vacuum_field, -0.01)

    def test_infinite_aperture_takes_all_power(self, vacuum_field):
        assert transmittance(vacuum_field, math.inf) == min(vacuum_field.power(), 1.0)

    def test_full_aperture(self, vacuum_field):
        eta = transmittance(vacuum_field, vacuum_field.grid.extent / 2)
        assert eta == pytest.approx(1.0, abs=1e-4)

    def test_monotone_in_radius(self, vacuum_field):
        radii = np.linspace(0.002, 0.06, 12)
        etas = [transmittance(vacuum_field, r) for r in radii]
        assert all(b >= a for a, b in zip(etas, etas[1:]))

    def test_centered_symmetric(self, vacuum_field):
        r0, smat = beam_stats(vacuum_field)
        assert abs(r0[0]) < 1e-12 and abs(r0[1]) < 1e-12
        assert abs(smat[0, 1]) < 1e-12

    def test_aperture_weights_cached_read_only(self):
        grid = Grid(n=128, extent=0.3)
        entry = _aperture_weights(grid, 0.05)
        assert _aperture_weights(Grid(n=128, extent=0.3), 0.05) is entry
        assert _aperture_weights(grid, 0.06) is not entry
        assert _aperture_weights(Grid(n=256, extent=0.3), 0.05) is not entry
        _, w = entry
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0, 0] = 1.0
        assert np.array_equal(_box_weights(grid, 0.05), _disc_weights(grid, 0.05))

    @pytest.mark.parametrize("radius", ["zero", "cell", 0.02, "half", "corner", "beyond",
                                        math.inf])
    def test_box_matches_full_grid_disc(self, radius):
        # the box sum against the full-grid weighted sum, on an off-centre
        # turbulent spot; "corner" cuts the grid's corners, "beyond" takes it all
        config = small_config(seed=12)
        grid = config.grid
        radius = {"zero": 0.0, "cell": grid.spacing, "half": grid.extent / 2,
                  "corner": 0.6 * grid.extent, "beyond": grid.extent}.get(radius, radius)
        fld = split_step(gaussian_source(config.geometry, grid), _screens(config, 0),
                         config.geometry, 0.01)
        w = _disc_weights(grid, radius) if radius < math.inf else np.ones((grid.n, grid.n))
        if radius < math.inf:
            assert np.array_equal(_box_weights(grid, radius), w)
        want = min(float(np.sum(w * np.abs(fld.values) ** 2)) * grid.spacing**2, 1.0)
        assert transmittance(fld, radius) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("case", ["vacuum", "turbulent", "real"])
    def test_power_matches_abs_square_sum(self, case, vacuum_field):
        if case == "vacuum":
            fld = vacuum_field
        else:
            config = small_config(seed=13)
            fld = split_step(gaussian_source(config.geometry, config.grid),
                             _screens(config, 0), config.geometry)
            if case == "real":  # a real field is taken as complex
                fld = Field(grid=fld.grid, values=fld.values.real.copy())
                assert fld.values.dtype == complex
        want = float(np.sum(np.abs(fld.values) ** 2)) * fld.grid.spacing**2
        assert fld.power() == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_beam_stats_matches_normalized_formulas(self):
        # a sheared, off-centre Gaussian spot: the moments of the raw
        # intensity divided by its total are those of the normalized one
        grid = Grid(n=256, extent=0.3)
        xs = grid.axis()
        x, y = xs[None, :] - 0.021, xs[:, None] + 0.013
        u = np.exp(-(x * x / 0.02**2 + 0.8 * x * y / 0.02**2 + y * y / 0.025**2))
        fld = Field(grid=grid, values=u * np.exp(1j * 40.0 * x))
        inten = np.abs(fld.values) ** 2
        inten = inten / inten.sum()
        px, py = inten.sum(axis=0), inten.sum(axis=1)
        x0, y0 = px @ xs, py @ xs
        dx, dy = xs - x0, xs - y0
        want = [x0, y0, 4.0 * (px @ dx**2), 4.0 * (py @ dy**2), 4.0 * (dy @ inten @ dx)]
        r0, smat = beam_stats(fld)
        got = [r0[0], r0[1], smat[0, 0], smat[1, 1], smat[0, 1]]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert abs(x0 - 0.021) < 1e-3 and abs(smat[0, 1]) > 0.1 * smat[0, 0]
        assert smat[1, 0] == smat[0, 1]

    def test_translation_shifts_centroid_only(self, vacuum_field):
        grid = vacuum_field.grid
        shift_cells = 7
        rolled = Field(grid=grid, values=np.roll(vacuum_field.values, shift_cells, axis=1))
        r0_base, s_base = beam_stats(vacuum_field)
        r0_moved, s_moved = beam_stats(rolled)
        assert r0_moved[0] - r0_base[0] == pytest.approx(shift_cells * grid.spacing, rel=1e-6)
        assert np.allclose(s_moved, s_base, rtol=1e-6)


class TestSimConfigIntegers:
    @pytest.mark.parametrize("name,value", [
        ("seed", 1.5), ("seed", 1.0), ("seed", "1"), ("n_screens", 5.5),
        ("n_screens", 6.0), ("n_components", 128.5), ("n_realizations", 4.5),
        ("n_realizations", None)])
    def test_non_integer_rejected(self, name, value):
        with pytest.raises(ConfigError) as err:
            small_config(**{name: value})
        assert err.value.field == f"sim.{name}"

    def test_numpy_integers_give_the_same_records(self):
        plain = run_ensemble(small_config(seed=1, n_realizations=2))
        numpy_ints = run_ensemble(small_config(seed=np.int64(1), n_screens=np.int32(5),
                                               n_realizations=np.int64(2)))
        assert numpy_ints == plain


class TestSampleRecord:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["x0", "y0", "sxx", "syy", "sxy"])
    def test_non_finite_rejected(self, name, value):
        args = dict(eta=0.5, x0=0.0, y0=0.0, sxx=1.0, syy=1.0, sxy=0.0,
                    realization_index=0)
        args[name] = value
        with pytest.raises(DomainError, match=name):
            SampleRecord(**args)

    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            SampleRecord(eta=1.5, x0=0, y0=0, sxx=1, syy=1, sxy=0, realization_index=0)
        with pytest.raises(DomainError):
            SampleRecord(eta=0.5, x0=0, y0=0, sxx=-1, syy=1, sxy=0, realization_index=0)
        with pytest.raises(DomainError):
            SampleRecord(eta=0.5, x0=0, y0=0, sxx=1, syy=1, sxy=2, realization_index=0)


class TestLeakageRecord:
    def test_collect_groups_and_counts(self):
        leaks = [0.0, 0.02, 0.005, 0.3]
        results = [([f"r{i}a", f"r{i}b"], leak) for i, leak in enumerate(leaks)]
        by_ap, report = _collect(iter(results), (0.02, 0.04))
        assert by_ap == {0.02: ["r0a", "r1a", "r2a", "r3a"],
                         0.04: ["r0b", "r1b", "r2b", "r3b"]}
        assert report == EnsembleReport(
            n_realizations=4, n_leak_warnings=2, max_leaked_power=0.3)

    def test_no_warning_below_the_fraction(self):
        _, report = _collect([(["r"], 0.01), (["r"], 0.004)], (0.02,))
        assert (report.n_realizations, report.n_leak_warnings) == (2, 0)
        assert report.max_leaked_power == 0.01

    def test_report_is_frozen(self):
        _, report = _collect([], (0.02,))
        assert report == EnsembleReport()
        with pytest.raises(AttributeError):
            report.n_leak_warnings = 1


class TestEnsemble:
    def test_determinism_same_seed(self):
        cfg = small_config()
        r1 = run_ensemble(cfg)
        r2 = run_ensemble(cfg)
        assert r1 == r2

    def test_worker_count_invariance(self):
        cfg = small_config(n_realizations=4)
        seq = run_ensemble(cfg, workers=1)
        par = run_ensemble(cfg, workers=2)
        assert seq == par

    def test_worker_count_invariance_two_chunks(self):
        # 16 realizations make two chunks of 8, one per pool worker
        cfg = small_config(n_realizations=16, seed=505)
        assert run_ensemble(cfg, workers=1) == run_ensemble(cfg, workers=2)

    def test_leakage_worker_count_invariance(self):
        # a cramped grid leaks power at the boundary; the absorbed power is
        # summed without BLAS, so it does not depend on the thread count
        cfg = small_config(n_realizations=4, grid=Grid(n=256, extent=0.45))
        one = run_ensemble_multi(cfg, [0.02, 0.04], workers=1)
        two = run_ensemble_multi(cfg, [0.02, 0.04], workers=2)
        assert one[1].max_leaked_power > 0.0
        assert one == two
        assert one[1].max_leaked_power.hex() == two[1].max_leaked_power.hex()

    @pytest.mark.parametrize("apertures", [[0.02, math.nan], [0.02, -0.01], []],
                             ids=["nan", "-0.01", "empty"])
    @pytest.mark.parametrize("run", [run_ensemble_multi, run_timeseries],
                             ids=["ensemble", "series"])
    def test_bad_aperture_raises_before_propagation(self, run, apertures, monkeypatch):
        calls = []
        monkeypatch.setattr(propagation, "split_step", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigError) as err:
            run(small_config(wind_speed=10.0, dt=1e-3, duration=0.002), apertures)
        assert err.value.field == "apertures"
        assert calls == []

    @pytest.mark.parametrize("field, value", [
        ("workers", -3), ("workers", 0), ("workers", 2.5), ("workers", "2"), ("workers", None),
        ("grid", None), ("geometry", None), ("spectrum", None),
    ])
    def test_bad_input_raises_before_propagation(self, field, value, monkeypatch):
        calls = []
        monkeypatch.setattr(propagation, "split_step", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigError) as err:
            if field == "workers":
                run_ensemble(small_config(), workers=value)
            else:
                run_ensemble(small_config(**{field: value}))
        assert err.value.field == field
        assert calls == []

    def test_zero_cn2_runs_as_vacuum(self):
        # every band has zero variance, so every screen has zero amplitudes
        cfg = small_config(spectrum=VonKarmanTatarskii(cn2=0.0, outer_scale=1000.0,
                                                       inner_scale=1e-3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = run_ensemble(cfg)
        assert len(records) == 4
        assert {dataclasses.replace(r, realization_index=0) for r in records} == {
            dataclasses.replace(records[0], realization_index=0)}
        geom = cfg.geometry
        vacuum = transmittance(split_step(gaussian_source(geom, cfg.grid), [], geom),
                               geom.aperture_radius)
        for r in records:
            assert r.eta == pytest.approx(vacuum, rel=0.0, abs=1e-12)
        assert ensemble_summary(records)["sigma_bw2"] < 1e-30

    def test_second_call_builds_no_constants(self):
        cfg = small_config(n_realizations=2)
        run_ensemble(cfg)
        caches = (_launch, _window, _kernel, _aperture_weights)
        misses = [f.cache_info().misses for f in caches]
        run_ensemble(small_config(n_realizations=2, seed=9))
        assert [f.cache_info().misses for f in caches] == misses
        dz = cfg.geometry.path_length / cfg.n_screens
        k = cfg.geometry.k
        frame = [a for _, w, absorption in _window(cfg.grid) for a in (w, absorption)]
        cached = [_launch(cfg.geometry, cfg.grid, dz)[0], *frame,
                  *_kernel(cfg.grid, k, dz), *_kernel(cfg.grid, k, dz / 2.0),
                  _aperture_weights(cfg.grid, cfg.geometry.aperture_radius)[1]]
        assert [f.cache_info().misses for f in caches] == misses  # the runs' own arrays
        assert not any(c.flags.writeable for c in cached)

    @pytest.mark.parametrize("run", [run_ensemble, run_timeseries], ids=["ensemble", "series"])
    def test_working_set(self, run):
        # the traced peak of a warm serial run (2 realizations or 2 steps),
        # above what the caches held before it: the field and one rotation
        # (n^2 complex each), the phasor tables and one phase block, not n^2
        # kernels, masks, a full phase or every screen's tables
        cfg = small_config(n_realizations=2, wind_speed=10.0, dt=1e-3, duration=0.002)
        run(cfg)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run(dataclasses.replace(cfg, seed=9))
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < WORKING_SET * cfg.grid.n**2 * 16

    def test_pool_workers_use_one_blas_thread(self):
        before = _blas_thread_counts()
        if not before:
            pytest.skip("no OpenBLAS with a thread-count getter is loaded")
        with cf.ProcessPoolExecutor(max_workers=1, initializer=_one_blas_thread) as pool:
            in_worker = pool.submit(_blas_thread_counts).result(timeout=60)
        assert in_worker == [1] * len(before)
        assert _blas_thread_counts() == before  # the parent keeps its threads

    def test_all_records_valid(self):
        cfg = small_config(n_realizations=6)
        by_ap, report = run_ensemble_multi(cfg, [0.02, 0.04])
        assert report.n_realizations == 6
        for recs in by_ap.values():
            assert len(recs) == 6
            for r in recs:
                assert 0.0 <= r.eta <= 1.0
                assert r.sxx > 0 and r.syy > 0
                assert r.sxx * r.syy >= r.sxy**2 - 1e-15

    def test_centroid_gaussian_symmetry(self):
        # x0 skewness compatible with 0 (the centroid is Gaussian to high
        # accuracy); 3 standard errors of the skewness estimator
        cfg = small_config(n_realizations=120, seed=2718)
        recs = run_ensemble(cfg)
        x0 = np.array([r.x0 for r in recs])
        z = (x0 - x0.mean()) / x0.std()
        skew = float(np.mean(z**3))
        assert abs(skew) < 3.0 * math.sqrt(6.0 / x0.size)

    def test_summary_matches_columns(self):
        cfg = small_config(n_realizations=8)
        recs = run_ensemble(cfg)
        summ = ensemble_summary(recs)
        etas = np.array([r.eta for r in recs])
        assert summ["mean_eta"] == pytest.approx(etas.mean(), rel=1e-12)
        assert summ["se_mean_eta"] == pytest.approx(
            etas.std(ddof=1) / math.sqrt(etas.size), rel=1e-12
        )

    def test_grid_refinement_stability(self):
        # doubling n moves <eta> by less than the Monte Carlo standard error
        cfg_lo = small_config(n_realizations=16, grid=default_grid(SMALL_GEOM, SMALL_SPEC, n=256))
        cfg_hi = small_config(n_realizations=16, grid=default_grid(SMALL_GEOM, SMALL_SPEC, n=512))
        lo = ensemble_summary(run_ensemble(cfg_lo))
        hi = ensemble_summary(run_ensemble(cfg_hi))
        assert abs(lo["mean_eta"] - hi["mean_eta"]) < lo["se_mean_eta"]

    def test_extent_guard(self):
        with pytest.raises(ConfigError):
            small_config(grid=Grid(n=256, extent=0.2))


@pytest.fixture
def spy(monkeypatch):
    """Each split_step call's ``_helper`` and the BLAS thread counts it ran at."""
    seen = []
    plain = propagation.split_step

    def spying(*args, **kwargs):
        seen.append((kwargs.get("_helper"), _blas_thread_counts()))
        return plain(*args, **kwargs)

    monkeypatch.setattr(propagation, "split_step", spying)
    return seen


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def blas():
    """The BLAS thread counts before the test."""
    counts = _blas_thread_counts()
    if not counts:
        pytest.skip("no OpenBLAS with thread-count controls is loaded")
    return counts


class TestSerialHelper:
    """The helper thread of serial runs and the one-BLAS-thread toggle."""

    def runs(self, monkeypatch, spy, run):
        # the same serial run with a helper (two usable CPUs) and inline (one)
        out = []
        for cpus in (2, 1):
            usable_cpus(monkeypatch, cpus)
            spy.clear()
            out.append(run())
            helpers = {h is not None for h, _ in spy}
            assert helpers == {cpus > 1}
            if cpus > 1:
                assert all(set(counts) == {1} for _, counts in spy)
        return out

    @pytest.mark.parametrize("grid", [None, Grid(n=256, extent=0.45)], ids=["small", "leaky"])
    def test_ensemble_same_bits(self, monkeypatch, spy, blas, grid):
        cfg = small_config(n_realizations=3, **({"grid": grid} if grid else {}))
        helped, inline = self.runs(monkeypatch, spy,
                                   lambda: run_ensemble_multi(cfg, [0.02, 0.04], workers=1))
        assert [repr(r) for rs in helped[0].values() for r in rs] == \
            [repr(r) for rs in inline[0].values() for r in rs]
        assert helped[1].max_leaked_power.hex() == inline[1].max_leaked_power.hex()
        if grid is not None:
            assert helped[1].max_leaked_power > 0.0
        assert _blas_thread_counts() == blas

    @pytest.mark.parametrize("grid", [None, Grid(n=256, extent=0.45)], ids=["small", "leaky"])
    def test_timeseries_same_bits(self, monkeypatch, spy, blas, grid):
        cfg = small_config(wind_speed=10.0, dt=1e-3, duration=0.003,
                           **({"grid": grid} if grid else {}))
        helped, inline = self.runs(monkeypatch, spy, lambda: run_timeseries(cfg, [0.02, 0.04]))
        assert [repr(r) for rs in helped[0].values() for r in rs] == \
            [repr(r) for rs in inline[0].values() for r in rs]
        assert helped[1].max_leaked_power.hex() == inline[1].max_leaked_power.hex()
        assert _blas_thread_counts() == blas

    def test_blas_counts_restored_after_error(self, monkeypatch, spy, blas):
        usable_cpus(monkeypatch, 2)

        def no_power(fld):
            raise DomainError("beam_stats: field carries no power")

        monkeypatch.setattr(propagation, "beam_stats", no_power)
        with pytest.raises(DomainError):
            run_ensemble(small_config(n_realizations=2))
        assert spy and spy[0][0] is not None
        assert _blas_thread_counts() == blas
        with pytest.raises(DomainError):
            run_timeseries(small_config(wind_speed=10.0, dt=1e-3, duration=0.002))
        assert _blas_thread_counts() == blas

    def test_helper_error_propagates(self, monkeypatch, spy, blas):
        usable_cpus(monkeypatch, 2)
        plain = propagation._cis

        def failing(theta, out):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("helper job failed")
            return plain(theta, out)

        monkeypatch.setattr(propagation, "_cis", failing)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="helper job failed"):
            run_ensemble(small_config(n_realizations=2))
        assert spy and spy[0][0] is not None
        assert threading.active_count() == threads
        assert _blas_thread_counts() == blas

    def test_no_blas_control_no_helper(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(propagation, "_blas_controls", lambda: [])
        with _serial_helper() as helper:
            assert helper is None

    def test_pool_workers_make_no_helper(self, monkeypatch):
        # the forked workers inherit this patch; a helper there would raise
        plain = propagation.split_step

        def no_helper(*args, **kwargs):
            if kwargs.get("_helper") is not None:
                raise AssertionError("pool worker got a helper")
            return plain(*args, **kwargs)

        cfg = small_config(n_realizations=2)
        serial = run_ensemble(cfg, workers=1)
        monkeypatch.setattr(propagation, "split_step", no_helper)
        assert run_ensemble(cfg, workers=2) == serial


class TestTimeSeries:
    def test_zero_wind_constant(self):
        cfg = small_config(wind_speed=0.0, dt=1e-3, duration=0.01)
        by_ap, _ = run_timeseries(cfg)
        etas = np.array([r.eta for r in by_ap[SMALL_GEOM.aperture_radius]])
        assert np.ptp(etas) < 1e-12

    def test_times_and_length(self):
        cfg = small_config(wind_speed=10.0, dt=2e-3, duration=0.02)
        by_ap, report = run_timeseries(cfg)
        recs = by_ap[SMALL_GEOM.aperture_radius]
        assert len(recs) == 10
        assert report.n_realizations == 10  # one report entry per step
        assert recs[3].time == pytest.approx(6e-3)

    def test_matches_unshifted_ensemble_member(self):
        # step 0 of the series is realization 0 of the ensemble, bit for bit,
        # and step m a plain split step through stream 0's screens at v m dt
        cfg = small_config(wind_speed=10.0, dt=1e-3, duration=0.003, seed=31)
        a = SMALL_GEOM.aperture_radius
        steps = run_timeseries(cfg)[0][a]
        ens = run_ensemble(small_config(n_realizations=1, seed=31))[0]
        assert repr(dataclasses.replace(steps[0], time=None)) == repr(ens)
        m = 2
        t = m * cfg.dt
        fld = split_step(gaussian_source(cfg.geometry, cfg.grid), _screens(cfg, 0),
                         cfg.geometry, cfg.wind_speed * t)
        r0, smat = beam_stats(fld)
        want = SampleRecord(eta=transmittance(fld, a), x0=r0[0], y0=r0[1], sxx=smat[0, 0],
                            syy=smat[1, 1], sxy=smat[0, 1], realization_index=m, time=t)
        assert repr(steps[m]) == repr(want)

    @pytest.mark.parametrize("dt,duration", [(1e-3, 4e-4), (1e-3, 5e-4), (5e-324, 1.0)])
    def test_no_step_rejected(self, dt, duration):
        # 0 < duration <= dt / 2 rounds to a series of no steps; a duration
        # / dt that overflows to inf has no step count at all
        with pytest.raises(ConfigError) as err:
            small_config(dt=dt, duration=duration)
        assert err.value.field == "sim.duration"

    def test_requires_dt(self):
        with pytest.raises(ConfigError):
            small_config(duration=1.0)

    @pytest.mark.parametrize("kw", [dict(duration=0.01, dt=math.nan),
                                    dict(duration=0.01, dt=math.inf),
                                    dict(wind_speed=math.nan),
                                    dict(wind_speed=math.inf)],
                             ids=["dt-nan", "dt-inf", "wind-nan", "wind-inf"])
    def test_non_finite_dt_or_wind_raises(self, kw):
        with pytest.raises(ConfigError):
            small_config(**kw)

    def test_infinite_duration_rejected(self):
        cfg = small_config(dt=1e-3, duration=0.002)
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(cfg, duration=math.inf, dt=0.1)
        assert err.value.field == "sim.duration"

    @pytest.mark.parametrize("duration", [0.0, -1.0, math.nan])
    def test_requires_duration(self, duration):
        with pytest.raises(ConfigError):
            run_timeseries(small_config(dt=1e-3, duration=duration))
