"""Numerical kernels used throughout the package.

The first-order Marcum Q function, adaptive quadrature with an
absolute-error contract, a damped-Newton solver for 2x2 moment-matching
systems, and counter-based random streams.

Importing this module loads no scipy subpackage.  ``scipy.integrate``
(for :func:`adaptive_quad`) and ``scipy.stats`` (for :func:`marcum_q1`)
load on first use: together they pull in ``scipy.optimize``, ``sparse``,
``linalg`` and ``spatial``, a large share of a fresh process's import time
and memory, and the wave-optics path never calls either function.

Random streams are Philox counter-based generators keyed by
``(master_seed, stream_index)``: the same pair always reproduces the same
sequence, and distinct indices give statistically independent streams, so
results never depend on how work is scheduled across workers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError, SolverError

__all__ = [
    "RngStream",
    "marcum_q1",
    "adaptive_quad",
    "solve2",
]

_TWO64 = 2**64


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


def adaptive_quad(f, lo: float, hi: float, tol: float = 1e-10, *,
                  points=None) -> float:
    """Integrate f over (lo, hi) to absolute accuracy ``tol``.

    ``hi`` (or ``lo``) may be infinite; integrable endpoint singularities
    are handled by the underlying adaptive scheme.  Raises
    :class:`NumericsError` carrying the best estimate when the error
    estimate cannot be brought under ``tol``.  ``scipy.integrate`` is
    imported on the first call, not with the module.
    """
    from scipy import integrate  # imported here: it is slow to import

    kwargs = dict(epsabs=tol, epsrel=max(1e-12, tol * 1e-2), limit=200)
    if points is not None and np.isfinite(lo) and np.isfinite(hi):
        pts = [p for p in points if lo < p < hi]
        if pts:
            kwargs["points"] = pts
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


def solve2(F, x0, tol: float = 1e-10, *, max_iter: int = 80,
           scan=None) -> np.ndarray:
    """Solve the 2x2 system F(x) = 0 by damped Newton iteration.

    The Jacobian comes from central finite differences.  If iteration from
    ``x0`` stalls and ``scan=(lo, hi, n)`` is given, the box is scanned on an
    n x n grid and Newton restarts from the best point.  Callers needing
    positive parameters should solve in log space and exponentiate.
    """

    def newton(x_start):
        x = np.asarray(x_start, dtype=float).copy()
        fx = np.asarray(F(x), dtype=float)
        best = (float(np.max(np.abs(fx))), x.copy())
        for _ in range(max_iter):
            nrm = float(np.max(np.abs(fx)))
            if nrm <= tol:
                return x, nrm
            if nrm < best[0]:
                best = (nrm, x.copy())
            J = np.empty((2, 2))
            for j in range(2):
                h = 1e-7 * max(1.0, abs(x[j]))
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                J[:, j] = (np.asarray(F(xp), float) - np.asarray(F(xm), float)) / (2 * h)
            try:
                step = np.linalg.solve(J, -fx)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(J, -fx, rcond=None)
            if not np.all(np.isfinite(step)):
                break
            lam, accepted = 1.0, False
            for _ in range(14):
                x_new = x + lam * step
                f_new = np.asarray(F(x_new), dtype=float)
                if np.all(np.isfinite(f_new)) and np.max(np.abs(f_new)) < nrm:
                    x, fx, accepted = x_new, f_new, True
                    break
                lam *= 0.5
            if not accepted:
                break
        nrm = float(np.max(np.abs(fx)))
        if nrm < best[0]:
            best = (nrm, x.copy())
        return best[1], best[0]

    x, resid = newton(x0)
    if resid <= tol:
        return x
    if scan is not None:
        lo, hi, n = scan
        lo = np.asarray(lo, float)
        hi = np.asarray(hi, float)
        g0 = np.linspace(lo[0], hi[0], n)
        g1 = np.linspace(lo[1], hi[1], n)
        best_pt, best_nrm = None, np.inf
        for u in g0:
            for v in g1:
                fv = np.asarray(F(np.array([u, v])), dtype=float)
                if np.all(np.isfinite(fv)):
                    nrm = float(np.max(np.abs(fv)))
                    if nrm < best_nrm:
                        best_nrm, best_pt = nrm, np.array([u, v])
        if best_pt is not None:
            x2, resid2 = newton(best_pt)
            if resid2 <= tol:
                return x2
            if resid2 < resid:
                x, resid = x2, resid2
    raise SolverError(
        f"solve2: no convergence (best residual {resid:.3e} > tol {tol:.3e})",
        best_residual=resid,
        best_x=x,
    )
