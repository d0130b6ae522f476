"""Numerical kernels used throughout the package.

The first-order Marcum Q function, adaptive quadrature with an
absolute-error contract, a solver for 2x2 moment-matching systems as two
nested bracketed roots, counter-based random streams, the thread-count
controls of the loaded OpenBLAS libraries, and the stand-in through which
``pdt`` and ``quantum`` load ``scipy.special``.

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

import contextlib
import ctypes
import importlib
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError, SolverError

__all__ = ["RngStream", "marcum_q1", "adaptive_quad", "solve2"]

_TWO64 = 2**64
_SOLVE2_FLOOR = 0.05  # narrowest gap in which solve2 seeks a point it can evaluate


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
    """First-order Marcum Q function Q1(a, b).

    Q1(a, b) is the survival function at b^2 of the noncentral chi-square
    distribution with 2 degrees of freedom and noncentrality a^2, taken
    from ``scipy.stats.ncx2``; Q1(a, 0) is exactly 1.  Supports
    broadcasting over array inputs.  ``scipy.stats`` is imported on the
    first call, not with the module.

    Where ``ncx2``'s series does not converge it returns a wrong value with
    only a RuntimeWarning (Q1(234090.18828742488, 234090.18837286206) is
    0.49997, ``ncx2.sf`` gives 0.37498); that warning raises
    :class:`NumericsError` here.
    """
    from scipy import stats  # imported here: it is slow to import

    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    if np.any(~np.isfinite(aa)) or np.any(~np.isfinite(bb)):
        raise DomainError("marcum_q1: arguments must be finite")
    if np.any(aa < 0.0) or np.any(bb < 0.0):
        raise DomainError("marcum_q1: arguments must be non-negative")
    # recorded, not raised: scipy's C code cannot unwind from a warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        sf = stats.ncx2.sf(bb * bb, 2, aa * aa)
    doubts = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    if doubts:
        raise NumericsError(f"marcum_q1: ncx2 did not converge ({doubts[0]})")
    q = np.where(bb == 0.0, 1.0, np.clip(sf, 0.0, 1.0))
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
    h(x) = g(x, y(x)), which must rise through zero in [lo, hi].  An x where
    g raises :class:`NumericsError` lies outside the evaluable region: the
    next trial halves the wider gap between the failed points and the
    nearest evaluated ones around the root.  Raises :class:`SolverError`
    when h(lo) > 0, h(hi) <= 0 or h(lo) cannot be evaluated, and when that
    gap is under ``_SOLVE2_FLOOR``.  Imports ``scipy.optimize`` on first use.
    """
    from scipy.optimize import brentq  # imported here: it is slow to import

    values, tried = {}, []  # h where g could be evaluated; every x tried

    def y_of(x):
        return brentq(lambda y: f(x, y), *inner_bracket(x), xtol=1e-15)

    def h(x):
        if x not in values:
            tried.append(x)
            values[x] = g(x, y_of(x))
        return values[x]

    with contextlib.suppress(NumericsError):
        if h(lo) <= 0.0:
            h(hi)
    if values.get(lo, 1.0) > 0.0 or values.get(hi, 1.0) <= 0.0:
        raise SolverError(f"solve2: no root in [lo, hi]: h = {values.get(lo)}, {values.get(hi)}")
    x = hi
    while True:
        above = min((k for k, v in values.items() if v > 0.0), default=np.inf)
        below = max(k for k, v in values.items() if v <= 0.0 and k < above)
        if x in values and above < np.inf:
            with contextlib.suppress(NumericsError):
                x = brentq(h, below, above, xtol=1e-15)
                return x, y_of(x)
            x = tried[-1]  # where brentq met a point that failed
            continue
        # halve the wider gap between a failed point and an evaluated one
        failed = [k for k in tried if below < k < above and k not in values] or [above]
        gaps = [(below, min(failed))] + [(max(failed), above)] * (above < np.inf)
        width, x = max((b - a, 0.5 * (a + b)) for a, b in gaps)
        if width < _SOLVE2_FLOOR:
            raise SolverError(f"solve2: h cannot be evaluated within {_SOLVE2_FLOOR:g} of a root")
        with contextlib.suppress(NumericsError):
            h(x)
