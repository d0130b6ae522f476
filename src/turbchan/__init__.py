"""Free-space optical channels through atmospheric turbulence.

Wave-optics phase-screen Monte Carlo, analytical transmittance-distribution
models, two-time correlation analysis, and quantum photocounting statistics
for fluctuating-loss channels.
"""

__version__ = "0.1.0"

from .turbulence import (  # noqa: F401
    ChannelGeometry,
    VonKarmanTatarskii,
    fresnel_number,
    rytov_variance,
    spectral_density,
)
