"""Closed-form weak-turbulence channel parameters for a focused beam.

Evaluates the wander variance, the first two moments of the squared spot
radius, and the first two transmittance moments as explicit functions of
the Rytov variance and the Fresnel number.  The formulas assume a beam
focused on the receiver (F0 = L) and weak fluctuations (sigma_R^2 < 0.5);
outside that domain the values come back with ``validity`` False.

The printed mean-transmittance expression adds a dimensionless term to a
squared length inside the exponent; both the literal form and a
dimensionally repaired variant
``1 - exp(-2 a^2 / (W0^2 (Omega^-2 + 1.05 sigma_R^2 Omega^-7/6)))`` are
provided, selected by ``eta_convention``, a :class:`~turbchan.pdt.EtaConvention`
(the repaired ``consistent`` form is the default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .pdt import EtaConvention
from .turbulence import (
    WEAK_TURBULENCE_RYTOV_LIMIT,
    ChannelGeometry,
    fresnel_number,
    rytov_variance,
)

__all__ = ["WeakTurbulenceParams", "weak_turb_params"]


@dataclass(frozen=True)
class WeakTurbulenceParams:
    """Analytic channel parameters plus validity bookkeeping.

    ``aux_v`` is the dimensionless Omega^-2 + 3.17 sigma_R^2 Omega^-7/6
    auxiliary entering the second transmittance moment (distinct from any
    wind speed).  ``validity`` is True inside the formulas' domain (see the
    module).  ``moment_consistent`` is False when the set violates basic
    moment inequalities (negative variances), which can happen outside the
    validity domain.
    """

    sigma_bw2: float
    mean_S: float
    mean_S2: float
    mean_eta: float
    mean_eta2: float
    aux_v: float
    rytov2: float
    fresnel: float
    eta_convention: EtaConvention
    validity: bool
    moment_consistent: bool


def weak_turb_params(geom: ChannelGeometry, cn2: float,
                     eta_convention=EtaConvention.consistent) -> WeakTurbulenceParams:
    """Weak-turbulence parameter set for the given geometry and Cn2."""
    if not (cn2 >= 0.0 and math.isfinite(cn2)):
        raise DomainError("weak_turb_params: cn2 must be finite and >= 0")
    try:
        eta_convention = EtaConvention(eta_convention)
    except ValueError:
        raise DomainError(f"unknown eta_convention {eta_convention!r}") from None
    s2 = rytov_variance(geom, cn2)
    om = fresnel_number(geom)
    w0sq = geom.beam_radius**2
    a2 = geom.aperture_radius**2

    om_m76 = om ** (-7.0 / 6.0)
    sigma_bw2 = 0.31 * w0sq * s2 * om_m76 - 0.06 * w0sq * s2**2 * om ** (-1.0 / 3.0)
    mean_S = (
        w0sq * om**-2
        + 2.93 * w0sq * s2 * om_m76
        + 0.24 * w0sq * s2**2 * om ** (-1.0 / 3.0)
    )
    mean_S2 = w0sq**2 * (
        om**-4
        + 6.48 * s2 * om ** (-19.0 / 6.0)
        + 9.40 * s2**2 * om ** (-7.0 / 3.0)
        + 2.60 * s2**3 * om ** (-3.0 / 2.0)
        - 0.05 * s2**4 * om ** (-2.0 / 3.0)
    )
    aux_v = om**-2 + 3.17 * s2 * om_m76

    if eta_convention is EtaConvention.paper_literal:
        # As printed: the 1.05 term is dimensionless next to a squared length.
        mean_eta = 1.0 - math.exp(-a2 / (2.0 * (w0sq * om**-2 + 1.05 * s2 * om_m76)))
    else:
        w_eff2 = w0sq * (om**-2 + 1.05 * s2 * om_m76)
        mean_eta = 1.0 - math.exp(-2.0 * a2 / w_eff2)

    g = 1.0 + 2.0 * aux_v * om**2
    mean_eta2 = (1.0 - math.exp(-4.0 * a2 / (w0sq * om**-2 * g))) * (
        1.0 - math.exp(-a2 * g / (aux_v * w0sq))
    )

    moment_consistent = (
        mean_S2 >= mean_S**2
        and 0.0 < mean_eta < 1.0
        and 0.0 < mean_eta2 <= mean_eta
        and mean_eta2 >= mean_eta**2
        and sigma_bw2 > 0.0
    ) if cn2 > 0.0 else True

    return WeakTurbulenceParams(
        sigma_bw2=sigma_bw2, mean_S=mean_S, mean_S2=mean_S2,
        mean_eta=mean_eta, mean_eta2=mean_eta2, aux_v=aux_v,
        rytov2=s2, fresnel=om, eta_convention=eta_convention,
        validity=s2 < WEAK_TURBULENCE_RYTOV_LIMIT and geom.focused,
        moment_consistent=moment_consistent,
    )
