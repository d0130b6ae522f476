"""Marcum Q, quadrature, nested-root solver, and random-stream contracts."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from turbchan import numerics
from turbchan.errors import DomainError, NumericsError, SolverError
from turbchan.numerics import (
    RngStream,
    adaptive_quad,
    marcum_q1,
    solve2,
)


# (a, b, Q1(a, b)): Q1 from the Rice integral in mpmath at 45 digits, rounded
# to the nearest double.  Rows run over a from 0.5 to 2.9e7 at b - a in
# {-9, -7.25, -3, -1, 0, 0.5, 1, 3, 9}; the last 33 are the (a, b) with a
# from 2.2e5 to 2.9e7 and |a - b| < 0.82 where scipy's ncx2.sf warns and is
# off by up to 0.11 (met in two circular-beam fits).
MARCUM_TABLE = [
    (0.5, 0.5, 0.8955085810698596), (0.5, 1.0, 0.6427142302725438),
    (0.5, 1.5, 0.3690689840062107), (0.5, 3.5, 0.004082962188941547),
    (0.5, 9.5, 5.096493894241863e-19), (1.0, 0.0, 1.0), (1.0, 1.0, 0.7328798037968203),
    (1.0, 1.5, 0.48803999913530094), (1.0, 2.0, 0.26901206003591),
    (1.0, 4.0, 0.002889532770647601), (1.0, 10.0, 3.6353194978517406e-19), (3.0, 0.0, 1.0),
    (3.0, 2.0, 0.8867207544023923), (3.0, 3.0, 0.5674797622908615),
    (3.0, 3.5, 0.3656802008863562), (3.0, 4.0, 0.19651218938840762),
    (3.0, 6.0, 0.001966514578583554), (3.0, 12.0, 2.275265160944074e-19), (10.0, 1.0, 1.0),
    (10.0, 2.75, 0.9999999999998929), (10.0, 7.0, 0.9988918146180643),
    (10.0, 9.0, 0.8537790056770286), (10.0, 10.0, 0.5199721896495484),
    (10.0, 10.5, 0.32594703743194997), (10.0, 11.0, 0.17047921351305234),
    (10.0, 13.0, 0.0015571828884428012), (10.0, 19.0, 1.5611056366688246e-19), (30.0, 21.0, 1.0),
    (30.0, 22.75, 0.999999999999819), (30.0, 27.0, 0.9987259227985712),
    (30.0, 29.0, 0.8454123528095842), (30.0, 30.0, 0.506649962062034),
    (30.0, 30.5, 0.3143818472633876), (30.0, 31.0, 0.16265558112746062),
    (30.0, 33.0, 0.001422011718932621), (30.0, 39.0, 1.2887140024896324e-19), (100.0, 91.0, 1.0),
    (100.0, 92.75, 0.9999999999997995), (100.0, 97.0, 0.9986724302320505),
    (100.0, 99.0, 0.8425576548394447), (100.0, 100.0, 0.5019947363373024),
    (100.0, 100.5, 0.310295692317557), (100.0, 101.0, 0.15986211290485636),
    (100.0, 103.0, 0.0013718937944361743), (100.0, 109.0, 1.1788806689540486e-19),
    (300.0, 291.0, 1.0), (300.0, 292.75, 0.9999999999997942), (300.0, 297.0, 0.9986575069517117),
    (300.0, 299.0, 0.8417483678033744), (300.0, 300.0, 0.5006649047241524),
    (300.0, 300.5, 0.30912407079775894), (300.0, 301.0, 0.15905820351885222),
    (300.0, 303.0, 0.001357266081516764), (300.0, 309.0, 1.1455947798131603e-19),
    (999.0, 990.0, 1.0), (999.0, 991.75, 0.9999999999997924), (999.0, 996.0, 0.9986523217787742),
    (999.0, 998.0, 0.8414658828745593), (999.0, 999.0, 0.5001996708360206),
    (999.0, 999.5, 0.30871372557765775), (999.0, 1000.0, 0.15877633012357198),
    (999.0, 1002.0, 0.0013521145114789915), (999.0, 1008.0, 1.1337219024056633e-19),
    (1000.0, 991.0, 1.0), (1000.0, 992.75, 0.9999999999997924),
    (1000.0, 997.0, 0.9986523195572946), (1000.0, 999.0, 0.8414657617074159),
    (1000.0, 1000.0, 0.5001994711651346), (1000.0, 1000.5, 0.3087135494127772),
    (1000.0, 1001.0, 0.15877620907759596), (1000.0, 1003.0, 0.001352112296657218),
    (1000.0, 1009.0, 1.133716780380899e-19), (3000.0, 2991.0, 1.0),
    (3000.0, 2992.75, 0.9999999999997918), (3000.0, 2997.0, 0.9986508407945349),
    (3000.0, 2999.0, 0.8413850778844545), (3000.0, 3000.0, 0.5000664903809904),
    (3000.0, 3000.5, 0.30859621383656805), (3000.0, 3001.0, 0.158695579025959),
    (3000.0, 3003.0, 0.0013506364884742536), (3000.0, 3009.0, 1.1303004185249892e-19),
    (10000.0, 9991.0, 1.0), (10000.0, 9992.75, 0.9999999999997917),
    (10000.0, 9997.0, 0.9986503235774127), (10000.0, 9999.0, 0.8413568449072626),
    (10000.0, 10000.0, 0.500019947114045), (10000.0, 10000.5, 0.3085551417723118),
    (10000.0, 10001.0, 0.15866735216524985), (10000.0, 10003.0, 0.0013501196074340292),
    (10000.0, 10009.0, 1.1291022790376253e-19), (100000.0, 99991.0, 1.0),
    (100000.0, 99992.75, 0.9999999999997916), (100000.0, 99997.0, 0.9986501241277782),
    (100000.0, 99999.0, 0.8413459559251902), (100000.0, 100000.0, 0.500001994711402),
    (100000.0, 100000.5, 0.3085392990504203), (100000.0, 100001.0, 0.15865646378205506),
    (100000.0, 100003.0, 0.0013499201907059626), (100000.0, 100009.0, 1.1286398036652773e-19),
    (230000.0, 229991.0, 1.0), (230000.0, 229992.75, 0.9999999999997916),
    (230000.0, 229997.0, 0.9986501116028544), (230000.0, 229999.0, 0.8413452720924289),
    (230000.0, 230000.0, 0.5000008672658269), (230000.0, 230000.5, 0.30853830408497696),
    (230000.0, 230001.0, 0.15865577995419947), (230000.0, 230003.0, 0.0013499076660517474),
    (230000.0, 230009.0, 1.1286107530690812e-19), (29000000.0, 28999991.0, 1.0),
    (29000000.0, 28999992.75, 0.9999999999997916), (29000000.0, 28999997.0, 0.9986501020447811),
    (29000000.0, 28999999.0, 0.8413447502404521), (29000000.0, 29000000.0, 0.5000000068783151),
    (29000000.0, 29000000.5, 0.3085375447960787), (29000000.0, 29000001.0, 0.15865525810336606),
    (29000000.0, 29000003.0, 0.001349898108041272),
    (29000000.0, 29000009.0, 1.1285885831913024e-19),
    (219963.26280447908, 219964.08204089635, 0.20632641888130773),
    (235382.536805545, 235382.5376552257, 0.4996618739246722),
    (278569.0068644659, 278569.0075824209, 0.4997142934755032),
    (283060.09902294923, 283060.7356450474, 0.26218608920007536),
    (307765.55746236746, 307765.55811221275, 0.49974139738479323),
    (343961.8674851764, 343961.3435817968, 0.6998276335281002),
    (354282.5423984681, 354282.03375699936, 0.6944987166061702),
    (407223.6890925738, 407223.6886014433, 0.5001964225515615),
    (475974.15331610816, 475973.77471813356, 0.6475071768831283),
    (534728.16446411, 534728.1640900882, 0.5001495861484813),
    (595758.0508704869, 595757.7483938757, 0.6188559396094633),
    (608886.7049380279, 608886.4089833342, 0.6163679728647952),
    (718657.8360333345, 718657.5852841161, 0.5989962663626306),
    (889454.2187349971, 889454.2185101401, 0.5000899292295822),
    (1208412.1210575167, 1208411.9719337965, 0.5592721586407206),
    (1228486.9006501455, 1228486.753963265, 0.5583105733748485),
    (1434998.8729473487, 1434998.7473703066, 0.5499667695074312),
    (1527894.6973939736, 1527894.5794520006, 0.5469433118234354),
    (2629525.027325371, 2629524.958794774, 0.527318443378966),
    (3249806.910255703, 3249806.8548053564, 0.5221102180002457),
    (3314846.4493629886, 3314846.395000615, 0.5216768320064632),
    (4166520.61348419, 4166520.5702339727, 0.5172490103034245),
    (5119384.729887158, 5119384.694687045, 0.514039952676441),
    (6169694.156843033, 6169694.127635277, 0.5116505845015653),
    (7365569.901423055, 7365569.876957477, 0.5097594068104775),
    (11467054.82226356, 11467054.80654872, 0.5062690731086408),
    (14541432.270103468, 14541432.25771109, 0.504943730512597),
    (14921529.638463655, 14921529.626386948, 0.5048178055092375),
    (14979658.642933827, 14979658.630903987, 0.5047991092377058),
    (16841503.104935173, 16841503.09423524, 0.5042685854783051),
    (17288796.70867048, 17288796.698247373, 0.5041581536073299),
    (23259625.75758706, 23259625.749839604, 0.5030907655921543),
    (29167999.619191956, 29167999.61301385, 0.5024646992994967),
]


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

    def test_value_where_ncx2_fails(self):
        # ncx2.sf gives 0.37498 here with a RuntimeWarning; the Rice integral
        # (mpmath) gives 0.49996676761072828
        got = marcum_q1(234090.18828742488, 234090.18837286206)
        assert got == pytest.approx(0.49996676761072828, abs=1e-15)

    @pytest.mark.parametrize("a,b,q", MARCUM_TABLE)
    def test_against_mpmath_table(self, a, b, q):
        # ncx2's error grows with a, to 1.25e-13 at (999, 991.75); the
        # expansion's error falls from 3e-14 at a = 1e3
        assert marcum_q1(a, b) == pytest.approx(q, abs=2e-13)

    def test_array_matches_scalar_calls(self):
        a = np.array([[0.5, 30.0, 999.0], [1e3, 5e4, 2.9e7]])
        b = a + np.array([[0.3, -2.0, 7.0], [0.0, 3.0, -0.5]])
        got = marcum_q1(a, b)
        assert got.shape == (2, 3)
        assert np.array_equal(got, [[marcum_q1(x, y) for x, y in zip(*row)]
                                    for row in zip(a, b)])
        assert marcum_q1(np.array([999.9, 1e3, 1e5]), 0.0).tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("d", [-3.0, 0.0, 3.0])
    def test_continuous_across_regions(self, d):
        a = numerics._MARCUM_LARGE_A
        below = np.nextafter(a, 0.0)
        assert abs(marcum_q1(a, a + d) - marcum_q1(below, below + d)) <= 4e-13

    @pytest.mark.parametrize("a,b,q", [
        (10.0, 1e200, 0.0), (1e200, 10.0, 1.0), (1e200, 1e200, 0.5),
        (50.0, 1e-6, 1.0)])  # ncx2.sf raised OverflowError from tgamma here
    def test_extreme_arguments_neither_raise_nor_warn(self, a, b, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert marcum_q1(a, b) == q


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


class TestRngStream:
    @pytest.mark.parametrize("seed,index", [(1.5, 0), (1, 0.7), (1.0, 0), ("1", 0),
                                            (None, 0), (1, np.float64(2.0))])
    def test_non_integers_rejected(self, seed, index):
        with pytest.raises(DomainError):
            RngStream(seed, index)

    def test_numpy_integers_accepted(self):
        want = RngStream(7, 3).generator().random(4).tolist()
        assert RngStream(np.int64(7), np.uint64(3)).generator().random(4).tolist() == want
        assert (RngStream(np.int32(-1)).generator().random(4).tolist()
                == RngStream(-1).generator().random(4).tolist())

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
