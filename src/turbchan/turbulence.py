"""Turbulence power spectra and dimensionless channel parameters.

One refractive-index spectrum model, the modified von Karman-Tatarskii
spectrum with outer scale ``L0`` and inner scale ``l0``,

    Phi_n(kappa) = 0.033 Cn2 exp[-(kappa l0 / 2 pi)^2] / (kappa^2 + L0^-2)^(11/6).

At its defaults L0 = inf, l0 = 0 it is the Kolmogorov power law
0.033 Cn2 kappa^(-11/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "VonKarmanTatarskii",
    "ChannelGeometry",
    "spectral_density",
    "rytov_variance",
    "fresnel_number",
]

WEAK_TURBULENCE_RYTOV_LIMIT = 0.5  # upper end of the weak-turbulence domain in sigma_R^2


@dataclass(frozen=True)
class VonKarmanTatarskii:
    """Modified von Karman-Tatarskii spectrum.

    cn2 in m^(-2/3); outer_scale (L0) and inner_scale (l0) in meters with
    L0 > l0 >= 0.  ``VonKarmanTatarskii(cn2)`` (L0 = inf, l0 = 0) is the
    Kolmogorov spectrum.
    """

    cn2: float
    outer_scale: float = math.inf
    inner_scale: float = 0.0

    def __post_init__(self):
        if not (self.cn2 >= 0.0 and math.isfinite(self.cn2)):
            raise DomainError("VonKarmanTatarskii: cn2 must be finite and >= 0")
        if not (self.outer_scale > self.inner_scale >= 0.0):
            raise DomainError("VonKarmanTatarskii: require L0 > l0 >= 0")


@dataclass(frozen=True)
class ChannelGeometry:
    """Physical scenario: beam, wavelength, path, and receiver aperture.

    ``focal_length`` is the wavefront radius F0 at the transmitter;
    ``math.inf`` means a collimated beam, ``focal_length == path_length``
    a beam focused on the receiver.  All lengths in meters.
    """

    wavelength: float
    path_length: float
    beam_radius: float
    aperture_radius: float
    focal_length: float = math.inf

    def __post_init__(self):
        for name in ("wavelength", "path_length", "beam_radius", "aperture_radius"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise DomainError(f"ChannelGeometry: {name} must be finite and > 0")
        if not self.focal_length > 0.0:
            raise DomainError("ChannelGeometry: focal_length must be > 0 (inf = collimated)")

    @property
    def k(self) -> float:
        """Optical wavenumber 2 pi / wavelength (rad/m)."""
        return 2.0 * math.pi / self.wavelength

    @property
    def focused(self) -> bool:
        return math.isfinite(self.focal_length) and math.isclose(
            self.focal_length, self.path_length, rel_tol=1e-9
        )


def spectral_density(model: VonKarmanTatarskii, kappa_perp, kappa_z=0.0):
    """Refractive-index power spectral density Phi_n(kappa).

    Accepts scalars or arrays; kappa = sqrt(kappa_perp^2 + kappa_z^2).
    With L0 = inf the origin is non-integrable and kappa == 0 raises; with
    a finite L0 the value there is 0.033 cn2 L0^(11/3).
    """
    kp = np.asarray(kappa_perp, dtype=float)
    kz = np.asarray(kappa_z, dtype=float)
    if np.any(~np.isfinite(kp)) or np.any(~np.isfinite(kz)):
        raise DomainError("spectral_density: kappa components must be finite")
    kappa2 = kp * kp + kz * kz
    if model.outer_scale == math.inf and np.any(kappa2 == 0.0):
        raise DomainError("spectral_density: with L0 = inf the spectrum diverges at kappa=0")
    inner = np.exp(-kappa2 * (model.inner_scale / (2.0 * math.pi)) ** 2)
    out = 0.033 * model.cn2 * inner / (kappa2 + model.outer_scale ** -2.0) ** (11.0 / 6.0)
    return float(out) if np.isscalar(kappa_perp) and np.isscalar(kappa_z) else out


def rytov_variance(geom: ChannelGeometry, cn2: float) -> float:
    """Rytov variance sigma_R^2 = 1.23 Cn2 k^(7/6) L^(11/6)."""
    if not (cn2 >= 0.0 and math.isfinite(cn2)):
        raise DomainError("rytov_variance: cn2 must be finite and >= 0")
    return 1.23 * cn2 * geom.k ** (7.0 / 6.0) * geom.path_length ** (11.0 / 6.0)


def fresnel_number(geom: ChannelGeometry) -> float:
    """Fresnel number Omega = k W0^2 / (2 L)."""
    return geom.k * geom.beam_radius**2 / (2.0 * geom.path_length)
