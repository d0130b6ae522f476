"""Marcum Q, quadrature, nested-root solver, and random-stream contracts."""

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
# loads, and exercises the first-use imports of scipy.special (pdt, quantum),
# adaptive_quad and marcum_q1.
_FRESH_IMPORTS = """\
import importlib, json, math, pkgutil, sys
sys.path[:0] = sys.argv[1:3]
import turbchan
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
names = [m.name for m in pkgutil.iter_modules(turbchan.__path__, "turbchan.")]
for name in names:
    importlib.import_module(name)
loaded = scipy_modules()
from test_propagation import small_config
from turbchan import pdt, propagation
config = small_config(n_realizations=2)
runs = [propagation.run_ensemble(config, workers=w) for w in (1, 2)]
ran = scipy_modules()
tln = pdt.TruncLogNormal(0.4, 0.3)
cdf = pdt.model_cdf(tln, 0.5)
import scipy.special, scipy.stats
ref = scipy.stats.lognorm(s=math.sqrt(tln.sigma2), scale=math.exp(-tln.mu))
from turbchan.numerics import adaptive_quad, marcum_q1
print(json.dumps({
    "file": turbchan.__file__,
    "modules": names,
    "loaded": loaded,
    "ran": ran,
    "records": len(runs[0]),
    "same_records": runs[0] == runs[1],
    "cdf": [cdf, ref.cdf(0.5) / ref.cdf(1.0)],
    "special_bound": pdt.special is scipy.special,
    "quad": adaptive_quad(lambda x: x * x, 0.0, 1.0, 1e-12),
    "q1": marcum_q1(0.0, 1.5),
    "after": sorted(m for m in sys.modules if m.startswith("scipy.")),
}))
"""


class TestImportSet:
    """Importing turbchan, and running wave optics with it, loads no scipy
    module; pdt's scipy.special, adaptive_quad's scipy.integrate and
    marcum_q1's scipy.stats load on first use."""

    def test_fresh_interpreter(self):
        tests = Path(__file__).resolve().parent
        src = tests.parent / "src"
        out = subprocess.run([sys.executable, "-c", _FRESH_IMPORTS, str(src), str(tests)],
                             capture_output=True, text=True, check=True, timeout=120)
        got = json.loads(out.stdout)
        assert Path(got["file"]).resolve().parent == src / "turbchan"
        assert {"turbchan.numerics", "turbchan.pdt", "turbchan.propagation",
                "turbchan.quantum"} <= set(got["modules"])
        assert got["loaded"] == []
        assert got["ran"] == []
        assert got["records"] == 2 and got["same_records"]
        assert got["cdf"][0] == pytest.approx(got["cdf"][1], rel=1e-12, abs=0.0)
        assert got["special_bound"]
        assert got["quad"] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert got["q1"] == pytest.approx(math.exp(-1.125), rel=1e-12)
        assert {"scipy.integrate", "scipy.stats"} <= set(got["after"])


class TestSolve2:
    """Nested bracketed roots: y(x) solves f = y - x^2 = 0, and
    h(x) = g(x, y(x)) = x^2 + x - 2 rises through zero at x = 1."""

    @staticmethod
    def f(x, y):
        return y - x * x

    @staticmethod
    def bracket(x):
        return x * x - 1.0, x * x + 1.0

    @staticmethod
    def evaluable_below(edge, calls):
        """g, failing above x = edge; every x tried is appended to calls."""
        def g(x, y):
            calls.append(x)
            if x > edge:
                raise NumericsError("outside the evaluable region")
            return x + y - 2.0
        return g

    def test_root(self):
        x, y = solve2(self.f, lambda x, y: x + y - 2.0, self.bracket, 0.0, 5.0)
        assert x == pytest.approx(1.0, rel=1e-14)
        assert y == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("lo,hi,refusal", [
        (1.5, 5.0, r"h = 1\.75, None$"), (0.0, 0.5, r"h = -2\.0, -1\.25$")],
        ids=["below", "above"])
    def test_root_outside_bracket_refused(self, lo, hi, refusal):
        with pytest.raises(SolverError, match=refusal):
            solve2(self.f, lambda x, y: x + y - 2.0, self.bracket, lo, hi)

    def test_lower_end_that_cannot_be_evaluated_refused(self):
        with pytest.raises(SolverError, match="h = None, None$"):
            solve2(self.f, self.evaluable_below(-1.0, []), self.bracket, 0.0, 5.0)

    def test_points_that_cannot_be_evaluated_pull_back(self):
        # the upper end fails: each trial point halves the gap to the last
        # point evaluated until one brackets the root
        calls = []
        x, _ = solve2(self.f, self.evaluable_below(1.2, calls), self.bracket, 0.0, 5.0)
        assert x == pytest.approx(1.0, rel=1e-14)
        assert calls[:2] == [0.0, 5.0] and len(calls) < 30

    def test_root_that_cannot_be_evaluated_refused(self):
        # each failed point at least halves the gap to the last point
        # evaluated, so no more than log2(5 / 0.05) < 7 fail before the floor
        calls = []
        with pytest.raises(SolverError, match="within 0.05 of a root"):
            solve2(self.f, self.evaluable_below(0.9, calls), self.bracket, 0.0, 5.0)
        assert sum(x > 0.9 for x in calls) <= 7


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
