"""Weak-turbulence closed-form parameter set."""

import math

import mpmath
import pytest

from turbchan.analytic import weak_turb_params
from turbchan.errors import DomainError
from turbchan.turbulence import ChannelGeometry

FIG2 = ChannelGeometry(wavelength=809e-9, path_length=3000.0, beam_radius=0.0278,
                       aperture_radius=0.02, focal_length=3000.0)
CN2 = 1e-15


def independent_fig2_values(a):
    """Duplicate plug-in arithmetic at 50 digits, straight from the formulas."""
    with mpmath.workdps(50):
        lam = mpmath.mpf("809e-9")
        L = mpmath.mpf(3000)
        w0 = mpmath.mpf("0.0278")
        cn2 = mpmath.mpf("1e-15")
        k = 2 * mpmath.pi / lam
        s2 = mpmath.mpf("1.23") * cn2 * k ** (mpmath.mpf(7) / 6) * L ** (mpmath.mpf(11) / 6)
        om = k * w0**2 / (2 * L)
        w0sq = w0**2
        sbw2 = mpmath.mpf("0.31") * w0sq * s2 * om ** (-mpmath.mpf(7) / 6) \
            - mpmath.mpf("0.06") * w0sq * s2**2 * om ** (-mpmath.mpf(1) / 3)
        meanS = w0sq * om**-2 + mpmath.mpf("2.93") * w0sq * s2 * om ** (-mpmath.mpf(7) / 6) \
            + mpmath.mpf("0.24") * w0sq * s2**2 * om ** (-mpmath.mpf(1) / 3)
        meanS2 = w0sq**2 * (
            om**-4
            + mpmath.mpf("6.48") * s2 * om ** (-mpmath.mpf(19) / 6)
            + mpmath.mpf("9.40") * s2**2 * om ** (-mpmath.mpf(7) / 3)
            + mpmath.mpf("2.60") * s2**3 * om ** (-mpmath.mpf(3) / 2)
            - mpmath.mpf("0.05") * s2**4 * om ** (-mpmath.mpf(2) / 3)
        )
        a = mpmath.mpf(repr(a))
        meta = 1 - mpmath.exp(
            -2 * a**2 / (w0sq * (om**-2 + mpmath.mpf("1.05") * s2 * om ** (-mpmath.mpf(7) / 6)))
        )
        v = om**-2 + mpmath.mpf("3.17") * s2 * om ** (-mpmath.mpf(7) / 6)
        g = 1 + 2 * v * om**2
        meta2 = (1 - mpmath.exp(-4 * a**2 / (w0sq * om**-2 * g))) * (
            1 - mpmath.exp(-(a**2) * g / (v * w0sq))
        )
        return dict(sigma_bw2=float(sbw2), mean_S=float(meanS), mean_S2=float(meanS2),
                    mean_eta=float(meta), mean_eta2=float(meta2), aux_v=float(v))


class TestZeroTurbulenceLimit:
    def test_vacuum_terms(self):
        p = weak_turb_params(FIG2, 0.0)
        om = p.fresnel
        w0sq = FIG2.beam_radius**2
        assert p.sigma_bw2 == 0.0
        assert p.mean_S == pytest.approx(w0sq * om**-2, rel=1e-12)
        assert p.mean_S2 == pytest.approx(w0sq**2 * om**-4, rel=1e-12)
        assert p.rytov2 == 0.0
        assert p.validity


class TestFig2PlugIn:
    def test_duplicate_arithmetic(self):
        p = weak_turb_params(FIG2, CN2)
        oracle = independent_fig2_values(0.02)
        for name, val in oracle.items():
            assert getattr(p, name) == pytest.approx(val, rel=1e-12), name

    def test_fig2_is_inside_validity(self):
        p = weak_turb_params(FIG2, CN2)
        assert p.validity and p.rytov2 < 0.5


class TestFlagsAndErrors:
    def test_monotone_in_cn2(self):
        vals = [weak_turb_params(FIG2, c) for c in (1e-16, 5e-16, 1e-15, 2e-15)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi.sigma_bw2 > lo.sigma_bw2
            assert hi.mean_S > lo.mean_S

    def test_invalid_moment_scan_is_flagged(self):
        # scan sigma_R^2 in (0, 0.5]; wherever mean_S2 < mean_S^2 or the
        # eta pair is inconsistent, the record must be flagged, never raised
        for scale in (0.05, 0.2, 0.5, 1.0, 1.56):
            p = weak_turb_params(FIG2, CN2 * scale)
            assert p.rytov2 <= 0.5 + 1e-9
            if p.mean_S2 < p.mean_S**2 or p.mean_eta2 > p.mean_eta:
                assert not p.moment_consistent

    def test_fig2_pair_inconsistency_reported(self):
        # at a = 2 cm the printed eta/eta^2 pair violates variance >= 0;
        # the record carries the flag instead of raising
        p = weak_turb_params(FIG2, CN2)
        assert p.mean_eta2 < p.mean_eta**2
        assert not p.moment_consistent
        assert p.validity

    def test_unfocused_is_invalid(self):
        # weak turbulence, but the formulas assume F0 = L
        g = ChannelGeometry(wavelength=809e-9, path_length=3000.0,
                            beam_radius=0.0278, aperture_radius=0.02)
        p = weak_turb_params(g, CN2)
        assert p.rytov2 < 0.5
        assert not p.validity

    def test_strong_turbulence_flag(self):
        p = weak_turb_params(FIG2, 5e-15)
        assert not p.validity

    def test_negative_cn2_raises(self):
        with pytest.raises(DomainError):
            weak_turb_params(FIG2, -1e-15)

    @pytest.mark.parametrize("cn2", [math.nan, math.inf, -math.inf])
    def test_non_finite_cn2_raises(self, cn2):
        with pytest.raises(DomainError):
            weak_turb_params(FIG2, cn2)
