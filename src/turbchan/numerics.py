"""Numerical kernels used throughout the package.

The first-order Marcum Q function (scipy's ``ncx2`` below a = 1e3, a
large-a expansion above), adaptive quadrature with an absolute-error
contract, a solver for 2x2 moment-matching systems as two nested bracketed
roots, counter-based random streams, the thread-count controls of the
loaded OpenBLAS libraries, and the stand-in through which ``pdt`` and
``quantum`` load ``scipy.special``.

What loads when.  Importing turbchan, or any of its modules, loads no scipy
module, and wave optics runs on numpy alone.  ``scipy.special`` loads at
the first special function that ``pdt`` or ``quantum`` evaluates (through
:class:`_OnFirstUse`), ``scipy.integrate`` at the first
:func:`adaptive_quad`, ``scipy.stats`` at the first :func:`marcum_q1`, and
``scipy.optimize`` at the first :func:`solve2` or beam-wandering fit.
``scipy.special`` alone brings some 85 modules (its array-API layer pulls
in ``numpy.f2py``, ``numpy.testing`` and ``charset_normalizer``), about
25 MB resident and 0.3 s of a fresh process's start; ``stats`` and
``integrate`` add ``sparse``, ``linalg`` and ``spatial``.

Random streams are Philox counter-based generators keyed by
``(master_seed, stream_index)``: the same pair always reproduces the same
sequence, and distinct indices give statistically independent streams, so
results never depend on how work is scheduled across workers.
"""

from __future__ import annotations

import ctypes
import importlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError, SolverError

__all__ = ["RngStream", "marcum_q1", "adaptive_quad", "solve2"]

_TWO64 = 2**64
_MARCUM_LARGE_A = 1e3  # marcum_q1 takes its large-a expansion from here up


@dataclass
class RngStream:
    """One independent, reproducible random stream.

    Each :meth:`generator` call returns a generator at the start of the
    stream.  Streams with distinct ``stream_index`` are independent by
    construction and safe to hand to separate workers.
    """

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array(
            [self.master_seed % _TWO64, self.stream_index % _TWO64],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Modules imported on first use
# ---------------------------------------------------------------------------


class _OnFirstUse:
    """Stand-in for a module that is imported at its first attribute use.

    ``special = _OnFirstUse(globals(), "scipy.special")`` binds ``special``
    to the stand-in; the first ``special.name`` imports ``scipy.special``,
    rebinds ``special`` in that namespace to the module itself and returns
    the attribute, so every later lookup finds the module and runs no
    import.
    """

    def __init__(self, namespace: dict, name: str):
        self._namespace, self._name = namespace, name

    def __getattr__(self, attr):
        module = importlib.import_module(self._name)
        self._namespace[self._name.rpartition(".")[2]] = module
        return getattr(module, attr)


# ---------------------------------------------------------------------------
# BLAS thread controls
# ---------------------------------------------------------------------------


# Prefixes and suffixes of openblas_{get,set}_num_threads in the OpenBLAS
# builds that NumPy and SciPy wheels load (64-bit-integer and plain,
# prefixed or not).
_BLAS_SYMBOLS = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                 ("openblas_", "64_"), ("openblas_", ""))


def _blas_controls() -> list:
    """``(get, set)`` thread-count functions of every loaded OpenBLAS.

    The libraries are found in ``/proc/self/maps``; one that exports no
    getter and setter pair is left out, and without the file the list is
    empty.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return []
    controls = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _BLAS_SYMBOLS:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return controls


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------


def marcum_q1(a, b) -> float:
    """First-order Marcum Q function Q1(a, b), broadcasting over arrays.

    Q1(a, b) is the survival function at b^2 of the noncentral chi-square
    law with 2 degrees of freedom and noncentrality a^2.  Below a =
    ``_MARCUM_LARGE_A`` = 1e3 it is ``scipy.stats.ncx2.sf`` (imported on the
    first call; 60 us an element at a = 1e3) at b clipped into
    [a - 10, a + 40], outside which Q1 is 1 or 0 in floats and ncx2
    overflows.  From 1e3 up, where ncx2 fails for a ~ b (off by 0.059 at
    a = 2.3e5), it is the large-a expansion in d = b - a (Temme 1993; Gil,
    Segura & Temme 2014), 1 us an element, with phi the normal density:

        Q1 = erfc(d / sqrt 2) / 2 + phi(d) [1/(2a) - d/(8a^2) + (d^2 + 1)/(16a^3)] + O(a^-4)

    Against 40-digit mpmath at |d| <= 9 both are within 1.3e-13: ncx2's
    error grows with a (1.3e-13 at 1e3, 7e-13 at 1e4), the expansion's falls
    (3e-14 at 1e3, 1e-16 from 1e4).  Q1(a, 0) is exactly 1.  Raises
    :class:`DomainError` unless both arguments are finite and non-negative;
    otherwise it neither raises nor warns.
    """
    from scipy import special, stats  # imported here: they are slow to import

    aa, bb = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.any(~np.isfinite(aa)) or np.any(~np.isfinite(bb)):
        raise DomainError("marcum_q1: arguments must be finite")
    if np.any(aa < 0.0) or np.any(bb < 0.0):
        raise DomainError("marcum_q1: arguments must be non-negative")
    q = np.empty(aa.shape)
    small = aa < _MARCUM_LARGE_A
    if np.any(small):
        a_s = aa[small]
        b_s = np.clip(bb[small], a_s - 10.0, a_s + 40.0)
        q[small] = stats.ncx2.sf(b_s * b_s, 2, a_s * a_s)
    a_l, d = aa[~small], bb[~small] - aa[~small]
    dc = np.clip(d, -40.0, 40.0)  # phi(40) = 0 in floats, and dc^2 does not overflow
    phi = np.exp(-0.5 * dc * dc) / math.sqrt(2.0 * math.pi)
    series = 1.0 - 0.25 * (dc - 0.5 * (dc * dc + 1.0) / a_l) / a_l
    q[~small] = 0.5 * special.erfc(d / math.sqrt(2.0)) + 0.5 * phi / a_l * series
    q = np.where(bb == 0.0, 1.0, np.clip(q, 0.0, 1.0))
    return float(q) if q.ndim == 0 else q


# ---------------------------------------------------------------------------
# Quadrature and root finding
# ---------------------------------------------------------------------------


def adaptive_quad(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Integrate f over (lo, hi) to absolute accuracy ``tol``.

    ``hi`` (or ``lo``) may be infinite; integrable endpoint singularities
    are handled by the underlying adaptive scheme.  Raises
    :class:`NumericsError` carrying the best estimate when the error
    estimate cannot be brought under ``tol``.  ``scipy.integrate`` is
    imported on the first call, not with the module.
    """
    from scipy import integrate  # imported here: it is slow to import

    kwargs = dict(epsabs=tol, epsrel=max(1e-12, tol * 1e-2), limit=200)
    with np.errstate(all="ignore"):
        result = integrate.quad(f, lo, hi, full_output=1, **kwargs)
    value, abserr = result[0], result[1]
    if len(result) >= 4 and abserr > tol:
        kwargs["limit"] = 800
        with np.errstate(all="ignore"):
            result = integrate.quad(f, lo, hi, full_output=1, **kwargs)
        value, abserr = result[0], result[1]
    if abserr > max(tol, 1e-13 * abs(value)) * 1.01:
        raise NumericsError(
            f"adaptive_quad: error estimate {abserr:.3e} exceeds tol {tol:.3e}",
            best_estimate=value,
        )
    return float(value)


def solve2(f, g, inner_bracket, lo: float, hi: float) -> tuple[float, float]:
    """Solve f(x, y) = 0 = g(x, y) as two nested ``brentq`` roots.

    y(x) is the root of f(x, .) in ``inner_bracket(x)``; x is the root of
    h(x) = g(x, y(x)), which must rise through zero in [lo, hi], or
    :class:`SolverError` is raised.  ``scipy.optimize`` loads on first use.
    """
    from scipy.optimize import brentq  # imported here: it is slow to import

    def y_of(x):
        return brentq(lambda y: f(x, y), *inner_bracket(x), xtol=1e-15)

    def h(x):
        return g(x, y_of(x))

    h_lo = h(lo)
    h_hi = h(hi) if h_lo <= 0.0 else None
    if h_lo > 0.0 or h_hi <= 0.0:
        raise SolverError(f"solve2: no root in [lo, hi]: h = {h_lo}, {h_hi}")
    x = brentq(h, lo, hi, xtol=1e-15)
    return x, y_of(x)
