"""Spectrum models and dimensionless channel parameters."""

import math

import mpmath
import numpy as np
import pytest

from turbchan.errors import DomainError
from turbchan.turbulence import (
    ChannelGeometry,
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
FIG2_SPEC = VonKarmanTatarskii(cn2=1e-15, outer_scale=80.0, inner_scale=1e-3)
KOLMOGOROV = VonKarmanTatarskii(1e-15)  # L0 = inf, l0 = 0
KAPPAS = np.logspace(-3, 4, 50)
# spectral_density(FIG2_SPEC, KAPPAS) as evaluated while Kolmogorov was a
# separate class, recorded with float.hex on an x86-64 host with AVX-512
FIG2_PINNED = np.array([float.fromhex(h) for h in (
    "0x1.54e72efe04c42p-32", "0x1.513c1b5538af1p-32", "0x1.4a52a76c95038p-32",
    "0x1.3d95260a82601p-32", "0x1.2709dfaef2e99p-32", "0x1.01f5b475d3c56p-32",
    "0x1.981f2951b905cp-33", "0x1.1685b64c62f51p-33", "0x1.3ba4f0ae94cd2p-34",
    "0x1.26fa0333094c0p-35", "0x1.d41796ccefb25p-37", "0x1.4a7a04c2d126bp-38",
    "0x1.b1ad23a3c744fp-40", "0x1.10c4fdd9d7bd1p-41", "0x1.4f3f6b7697dfep-43",
    "0x1.96f3b398b406bp-45", "0x1.eac5ef88bb50bp-47", "0x1.26eba9047dd6ep-48",
    "0x1.61d2f8b767a38p-50", "0x1.a819cfd0d0f0fp-52", "0x1.fc17c11cfe08fp-54",
    "0x1.3048bab83b072p-55", "0x1.6c68d460e2abep-57", "0x1.b462e9c17c9b5p-59",
    "0x1.0547ead578daep-60", "0x1.38df2ef3f3cdcp-62", "0x1.76a55ee69499dp-64",
    "0x1.c09d5d438b81cp-66", "0x1.0c97cb5b25dbdp-67", "0x1.419f05f4ae367p-69",
    "0x1.811e1fcf14d95p-71", "0x1.cd25de89310adp-73", "0x1.14177dab5a8e3p-74",
    "0x1.4a970b336b9bep-76", "0x1.8bd56cb73cd54p-78", "0x1.d9ecf6afedd56p-80",
    "0x1.1bae027dcd513p-81", "0x1.538844d2ba580p-83", "0x1.963598178b72ep-85",
    "0x1.e595446b42b74p-87", "0x1.21c67b22d0812p-88", "0x1.58cc61a91727ep-90",
    "0x1.97dc8a6babde8p-92", "0x1.dd01c9cf93069p-94", "0x1.10e246e0db608p-95",
    "0x1.2b4534f3daeb4p-97", "0x1.2e6eeec7b33e5p-99", "0x1.04fc7b717c7b3p-101",
    "0x1.4c126eb3bad12p-104", "0x1.d51439bf624cep-108",
)])


class TestSpectralDensity:
    def test_von_karman_origin(self):
        m = VonKarmanTatarskii(cn2=2e-15, outer_scale=50.0, inner_scale=1e-3)
        assert spectral_density(m, 0.0) == pytest.approx(
            0.033 * 2e-15 * 50.0 ** (11.0 / 3.0), rel=1e-12
        )

    def test_kolmogorov_origin_raises(self):
        # raised before the division: no RuntimeWarning (an error in tier-1)
        with pytest.raises(DomainError):
            spectral_density(KOLMOGOROV, 0.0)
        with pytest.raises(DomainError):
            spectral_density(KOLMOGOROV, np.array([1.0, 0.0]), 0.0)
        with pytest.raises(DomainError):
            spectral_density(VonKarmanTatarskii(1e-15, inner_scale=1e-3), 0.0)
        assert spectral_density(KOLMOGOROV, 0.0, 2.0) == spectral_density(KOLMOGOROV, 2.0)

    def test_kolmogorov_against_mpmath(self):
        got = spectral_density(KOLMOGOROV, KAPPAS)
        with mpmath.workdps(40):
            want = [float(mpmath.mpf("0.033") * mpmath.mpf("1e-15")
                          * mpmath.mpf(k) ** (mpmath.mpf(-11) / 3)) for k in KAPPAS]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_fig2_values_pinned(self):
        got = spectral_density(FIG2_SPEC, KAPPAS)
        # the finite-scale expression, evaluated as it always was ...
        k2 = KAPPAS * KAPPAS
        inner = np.exp(-k2 * (1e-3 / (2.0 * math.pi)) ** 2)
        want = 0.033 * 1e-15 * inner / (k2 + 80.0 ** -2.0) ** (11.0 / 6.0)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        # ... gives the recorded values (bitwise where numpy's exp and power
        # round as on the recording host)
        np.testing.assert_array_max_ulp(got, FIG2_PINNED, maxulp=4)

    def test_kolmogorov_limit_of_von_karman(self):
        kappa = 1.0  # rad/m, deep in the inertial range
        kol = spectral_density(KOLMOGOROV, kappa)
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
            KOLMOGOROV,
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
        for L0, l0 in ((1e-3, 1.0), (1.0, 1.0), (1.0, -1e-3), (math.inf, math.inf),
                       (math.nan, 0.0), (80.0, math.nan), (0.0, 0.0)):
            with pytest.raises(DomainError):
                VonKarmanTatarskii(1e-15, outer_scale=L0, inner_scale=l0)

    def test_kolmogorov_defaults(self):
        assert (KOLMOGOROV.outer_scale, KOLMOGOROV.inner_scale) == (math.inf, 0.0)
        assert VonKarmanTatarskii(1e-15, 80.0).inner_scale == 0.0


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
