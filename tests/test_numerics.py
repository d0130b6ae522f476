"""Marcum Q, quadrature, solver, and random-stream contracts."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from turbchan.errors import DomainError, NumericsError, SolverError
from turbchan.numerics import (
    RngStream,
    adaptive_quad,
    marcum_q1,
    solve2,
)


class TestMarcumQ:
    def test_b_zero_is_one(self):
        for a in (0.0, 0.3, 2.0, 10.0):
            assert marcum_q1(a, 0.0) == 1.0

    def test_a_zero_rayleigh_tail(self):
        for b in (0.1, 1.0, 3.0):
            assert marcum_q1(0.0, b) == pytest.approx(math.exp(-b * b / 2), abs=1e-12)

    def test_defining_integral_oracle(self):
        from scipy.special import i0

        val, err = integrate.quad(
            lambda t: t * math.exp(-(t * t + 1.0) / 2.0) * i0(t), 1.0, 30.0
        )
        assert err < 1e-10
        assert marcum_q1(1.0, 1.0) == pytest.approx(val, abs=1e-9)

    @pytest.mark.parametrize(
        "a,b", [(0.5, 0.5), (1.0, 2.0), (3.0, 1.0), (5.0, 5.0), (10.0, 12.0), (20.0, 18.0)]
    )
    def test_against_noncentral_chi2(self, a, b):
        # Q1(a, b) equals the ncx2(df=2, nc=a^2) survival function at b^2
        assert marcum_q1(a, b) == pytest.approx(
            stats.ncx2.sf(b * b, 2, a * a), abs=1e-10
        )

    def test_monotonicity_grid(self):
        avals = np.linspace(0.0, 4.0, 9)
        bvals = np.linspace(0.0, 4.0, 9)
        grid = np.array([[marcum_q1(a, b) for b in bvals] for a in avals])
        assert np.all(np.diff(grid, axis=0) >= -1e-12)  # non-decreasing in a
        assert np.all(np.diff(grid, axis=1) <= 1e-12)  # non-increasing in b
        assert np.all((grid >= 0.0) & (grid <= 1.0))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            marcum_q1(-1.0, 1.0)
        with pytest.raises(DomainError):
            marcum_q1(1.0, math.inf)

    def test_nonconvergence_raises(self):
        # ncx2.sf gives 0.37498 here with a RuntimeWarning; the Rice integral
        # (mpmath) gives 0.49997
        with pytest.raises(NumericsError):
            marcum_q1(234090.18828742488, 234090.18837286206)


class TestAdaptiveQuad:
    def test_unit_constant(self):
        assert adaptive_quad(lambda e: 1.0, 0.0, 1.0, 1e-12) == pytest.approx(1.0)

    def test_rayleigh_norm_to_infinity(self):
        val = adaptive_quad(lambda x: x * math.exp(-x * x / 2), 0.0, math.inf, 1e-12)
        assert val == pytest.approx(1.0, abs=1e-11)

    def test_beta22_mean(self):
        # Beta(2,2) density is 6 eta (1 - eta); mean a/(a+b) = 0.5
        val = adaptive_quad(lambda e: e * 6.0 * e * (1.0 - e), 0.0, 1.0, 1e-12)
        assert val == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("coeffs", [(1.0,), (0.0, 2.0), (3.0, -1.0, 2.0, 0.5, 1.0, -2.0)])
    def test_polynomials_exact(self, coeffs):
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(1.0) - poly.integ()(0.0)
        assert adaptive_quad(poly, 0.0, 1.0, 1e-12) == pytest.approx(exact, abs=1e-12)

    def test_nonconvergence_carries_best_estimate(self):
        # integrand too wild for the tolerance: error carries an estimate
        with pytest.raises(NumericsError) as exc:
            adaptive_quad(lambda x: math.sin(1.0 / x) / x, 1e-12, 1.0, 1e-14)
        assert exc.value.best_estimate is not None


# Run in a fresh interpreter: this test module imports scipy.integrate and
# scipy.stats at its top, so only a new process sees what turbchan itself
# loads, and exercises the first-use imports of adaptive_quad and marcum_q1.
_FRESH_IMPORTS = """\
import importlib, json, math, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import turbchan
names = [m.name for m in pkgutil.iter_modules(turbchan.__path__, "turbchan.")]
for name in names:
    importlib.import_module(name)
loaded = sorted(m for m in sys.modules if m.startswith("scipy."))
from turbchan.numerics import adaptive_quad, marcum_q1
print(json.dumps({
    "file": turbchan.__file__,
    "modules": names,
    "loaded": loaded,
    "quad": adaptive_quad(lambda x: x * x, 0.0, 1.0, 1e-12),
    "q1": marcum_q1(0.0, 1.5),
    "after": sorted(m for m in sys.modules if m.startswith("scipy.")),
}))
"""

_DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg",
             "scipy.spatial", "scipy.stats")


class TestImportSet:
    """Importing turbchan loads no slow scipy subpackage; adaptive_quad and
    marcum_q1 import theirs on first use."""

    def test_fresh_interpreter(self):
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", _FRESH_IMPORTS, str(src)],
                             capture_output=True, text=True, check=True, timeout=120)
        got = json.loads(out.stdout)
        assert Path(got["file"]).resolve().parent == src / "turbchan"
        assert {"turbchan.numerics", "turbchan.pdt", "turbchan.propagation",
                "turbchan.quantum"} <= set(got["modules"])
        early = [m for m in got["loaded"] if m.startswith(_DEFERRED)]
        assert early == []
        assert got["quad"] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert got["q1"] == pytest.approx(math.exp(-1.125), rel=1e-12)
        assert {"scipy.integrate", "scipy.stats"} <= set(got["after"])


class TestSolve2:
    def test_identity_linear(self):
        b = np.array([2.0, -1.0])
        sol = solve2(lambda x: x - b, np.zeros(2), tol=1e-12)
        assert np.allclose(sol, b, atol=1e-12)

    def test_rosenbrock_like(self):
        def F(x):
            return np.array([x[0] ** 2 + x[1] ** 2 - 4.0, x[0] - x[1]])

        sol = solve2(F, np.array([3.0, 0.5]), tol=1e-12)
        assert np.allclose(np.abs(sol), math.sqrt(2.0), atol=1e-10)

    def test_scan_fallback(self):
        def F(x):
            return np.array([math.tanh(x[0] - 5.0), math.tanh(x[1] + 3.0)])

        sol = solve2(F, np.array([-50.0, 50.0]), tol=1e-10,
                     scan=(np.array([-10.0, -10.0]), np.array([10.0, 10.0]), 11))
        assert np.allclose(sol, [5.0, -3.0], atol=1e-8)

    def test_infeasible_raises(self):
        def F(x):
            return np.array([x[0] ** 2 + 1.0, x[1]])  # first component never 0

        with pytest.raises(SolverError) as exc:
            solve2(F, np.array([1.0, 1.0]), tol=1e-10)
        assert exc.value.best_residual >= 1.0


class TestRngStream:
    def test_same_seed_identical(self):
        seq1 = RngStream(123, 5).generator().standard_normal(20)
        seq2 = RngStream(123, 5).generator().standard_normal(20)
        assert seq1.tolist() == seq2.tolist()

    def test_uniform_range(self):
        vals = RngStream(9, 0).generator().random(1000)
        assert np.all((vals >= 0.0) & (vals < 1.0))

    def test_gaussian_clt_bounds(self):
        gen = RngStream(2024, 0).generator()
        draws = gen.standard_normal(1_000_000)
        assert abs(draws.mean()) < 4e-3
        assert abs(draws.var() - 1.0) < 0.01

    def test_cross_stream_independence(self):
        n = 100_000
        a = RngStream(77, 1).generator().standard_normal(n)
        b = RngStream(77, 2).generator().standard_normal(n)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(n)

    def test_generator_rewinds(self):
        s = RngStream(5, 3)
        first = s.generator().random(5)
        s.generator().random(100)
        again = s.generator().random(5)
        assert first.tolist() == again.tolist()

    def test_worker_count_invariance(self):
        # draws depend only on (seed, index), never on scheduling
        direct = {i: RngStream(31, i).generator().random(4).tolist() for i in range(8)}
        shuffled = {i: RngStream(31, i).generator().random(4).tolist()
                    for i in reversed(range(8))}
        assert direct == shuffled
