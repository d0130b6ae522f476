"""Spectrum models and dimensionless channel parameters."""

import math

import mpmath
import numpy as np
import pytest

from turbchan.errors import DomainError
from turbchan.turbulence import (
    ChannelGeometry,
    Kolmogorov,
    VonKarmanTatarskii,
    fresnel_number,
    rytov_variance,
    spectral_density,
)

FIG2_GEOM = ChannelGeometry(
    wavelength=809e-9, path_length=3000.0, beam_radius=0.0278,
    aperture_radius=0.02, focal_length=3000.0,
)
FIG2_CN2 = 1e-15


class TestSpectralDensity:
    def test_von_karman_origin(self):
        m = VonKarmanTatarskii(cn2=2e-15, outer_scale=50.0, inner_scale=1e-3)
        assert spectral_density(m, 0.0) == pytest.approx(
            0.033 * 2e-15 * 50.0 ** (11.0 / 3.0), rel=1e-12
        )

    def test_kolmogorov_origin_raises(self):
        with pytest.raises(DomainError):
            spectral_density(Kolmogorov(1e-15), 0.0)

    def test_kolmogorov_limit_of_von_karman(self):
        kappa = 1.0  # rad/m, deep in the inertial range
        kol = spectral_density(Kolmogorov(1e-15), kappa)
        for L0, l0 in ((1e3, 1e-4), (1e5, 1e-6), (1e7, 1e-8)):
            vk = spectral_density(
                VonKarmanTatarskii(1e-15, outer_scale=L0, inner_scale=l0), kappa
            )
            assert vk == pytest.approx(kol, rel=10.0 * (1.0 / (kappa * L0) ** 2 + (l0 * kappa) ** 2) + 1e-9)
        vk = spectral_density(
            VonKarmanTatarskii(1e-15, outer_scale=1e7, inner_scale=1e-8), kappa
        )
        assert vk == pytest.approx(kol, rel=1e-9)

    def test_strictly_decreasing(self):
        kappas = np.logspace(-3, 4, 200)
        for model in (
            Kolmogorov(1e-15),
            VonKarmanTatarskii(1e-15, outer_scale=80.0, inner_scale=1e-3),
        ):
            vals = spectral_density(model, kappas)
            assert np.all(np.diff(vals) < 0.0)
            assert np.all(vals > 0.0)

    def test_kappa_z_enters_through_magnitude(self):
        m = VonKarmanTatarskii(1e-15, outer_scale=80.0, inner_scale=1e-3)
        assert spectral_density(m, 3.0, 4.0) == pytest.approx(
            spectral_density(m, 5.0, 0.0), rel=1e-12
        )

    def test_integrable_over_plane(self):
        # 2 pi int kappa Phi d kappa converges for the von Karman model
        m = VonKarmanTatarskii(1e-15, outer_scale=80.0, inner_scale=1e-3)
        kap = np.logspace(-6, 5, 4000)
        integrand = 2.0 * math.pi * kap**2 * spectral_density(m, kap)  # in log space
        val = np.trapezoid(integrand, np.log(kap))
        assert np.isfinite(val) and val > 0.0

    def test_invalid_scales(self):
        with pytest.raises(DomainError):
            VonKarmanTatarskii(1e-15, outer_scale=1e-3, inner_scale=1.0)


class TestRytovAndFresnel:
    def test_fig2_rytov_high_precision(self):
        with mpmath.workdps(50):
            k = 2 * mpmath.pi / mpmath.mpf("809e-9")
            expected = float(
                mpmath.mpf("1.23") * mpmath.mpf("1e-15")
                * k ** (mpmath.mpf(7) / 6) * mpmath.mpf(3000) ** (mpmath.mpf(11) / 6)
            )
        got = rytov_variance(FIG2_GEOM, FIG2_CN2)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.32, abs=0.01)

    def test_rytov_path_power_law(self):
        g2 = ChannelGeometry(wavelength=809e-9, path_length=6000.0,
                             beam_radius=0.0278, aperture_radius=0.02)
        assert rytov_variance(g2, FIG2_CN2) == pytest.approx(
            rytov_variance(FIG2_GEOM, FIG2_CN2) * 2.0 ** (11.0 / 6.0), rel=1e-12
        )

    def test_rytov_zero_cn2(self):
        assert rytov_variance(FIG2_GEOM, 0.0) == 0.0

    @pytest.mark.parametrize("cn2", [-1e-15, math.nan, math.inf, -math.inf])
    def test_rytov_rejects_bad_cn2(self, cn2):
        with pytest.raises(DomainError):
            rytov_variance(FIG2_GEOM, cn2)

    def test_fig2_fresnel_number(self):
        with mpmath.workdps(50):
            k = 2 * mpmath.pi / mpmath.mpf("809e-9")
            expected = float(k * mpmath.mpf("0.0278") ** 2 / 6000)
        got = fresnel_number(FIG2_GEOM)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.00, abs=0.01)

    def test_fresnel_scalings(self):
        base = fresnel_number(FIG2_GEOM)
        doubled_w0 = ChannelGeometry(wavelength=809e-9, path_length=3000.0,
                                     beam_radius=2 * 0.0278, aperture_radius=0.02)
        assert fresnel_number(doubled_w0) == pytest.approx(4.0 * base, rel=1e-12)
        doubled_L = ChannelGeometry(wavelength=809e-9, path_length=6000.0,
                                    beam_radius=0.0278, aperture_radius=0.02)
        assert fresnel_number(doubled_L) == pytest.approx(base / 2.0, rel=1e-12)


class TestGeometry:
    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            ChannelGeometry(wavelength=-1e-6, path_length=1e3,
                            beam_radius=0.02, aperture_radius=0.01)
        with pytest.raises(DomainError):
            ChannelGeometry(wavelength=1e-6, path_length=1e3,
                            beam_radius=0.02, aperture_radius=0.0)

    def test_focused_flag(self):
        assert FIG2_GEOM.focused
        collimated = ChannelGeometry(wavelength=809e-9, path_length=3000.0,
                                     beam_radius=0.0278, aperture_radius=0.02)
        assert not collimated.focused
        assert math.isinf(collimated.focal_length)

    def test_wavenumber(self):
        assert FIG2_GEOM.k == pytest.approx(2 * math.pi / 809e-9, rel=1e-15)
