"""The two benchmark workloads, their correctness checks and traced functions.

Each workload has:

* ``configure(sizes)``: the configuration built before the first timed call
  (timed, together with the imports, as set-up);
* ``prepare(seed, sizes)``: the benchmark's own inputs, from the seed only;
* ``unit(inputs, sizes, checks, index)``: one unit of timed work; it checks
  the outputs and returns, for each stage (``stage1_s``, ``stage2_s``), the
  times of each program call the stage makes, and under ``untimed_s`` the
  wall time its untimed checks took, if any;
* ``reference()``: a fixed-seed run compared with ``reference.json`` (None
  where the workload has no simulated output).

Every call into the program goes through a module attribute
(``pdt.model_cdf``, not a name imported from ``pdt``), so the traced run's
wrappers see it.

Calls are timed in wall time, except the single-threaded ones (the
``pdt_photon`` calls), which are timed in process CPU time: for them the two agree on an idle host, and CPU time leaves out the
time the process waits while the host runs other jobs.  The propagation
calls run BLAS on several threads, so their CPU time is not their latency.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import turbchan.numerics  # noqa: F401  (patched by the traced run)
from turbchan import ChannelGeometry, VonKarmanTatarskii
from turbchan import pdt, propagation, quantum
from turbchan import stats as tstats
from turbchan.errors import DomainError

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# FIG2 link: 809 nm, 3 km, beam focused on the receiver.
FIG2_GEOM = ChannelGeometry(wavelength=809e-9, path_length=3000.0,
                            beam_radius=0.0278, aperture_radius=0.02,
                            focal_length=3000.0)
FIG2_SPEC = VonKarmanTatarskii(cn2=1e-15, outer_scale=80.0, inner_scale=1e-3)
APERTURE = FIG2_GEOM.aperture_radius
STATE = quantum.Coherent(2.0)

# Synthetic records for pdt_photon, drawn by the benchmark (scipy only).
SYNTH_SIGMA_BW2 = 8.1e-5  # per-axis centroid variance, m^2
SYNTH_MEAN_S = 1.24e-3  # mean spot eigenvalue, m^2
SYNTH_LOG_VAR = 0.035  # variance of ln(eigenvalue)
CDF_POINTS = np.linspace(0.0, 1.0, 41)
MOMENT_ORDERS = (0.5, 1.0, 2.0)
# One pass visits the families in this order, split over two units: unit i
# takes every second family from i % 2.  The two TotalProb families (about
# 7.5 s each of a 17 s pass) fall in different units.
PASS_FAMILIES = ("beam_wander", "circular", "elliptic", "totalprob_lognormal",
                 "totalprob_beta", "lognormal", "beta", "empirical")
# The photon calls take a quarter of a pass; a unit makes them twice, so
# that their figure rests on more seconds of samples.
PHOTON_REPEATS = 2

# Tolerances of the correctness gate.
FIT_RTOL = {"beam_wander": 1e-9, "circular": 1e-9, "lognormal": 1e-12}
QUAD_RTOL = 1e-6  # model_moments by quadrature at tol 1e-8 on eta ~ 0.4
PMF_MEAN_RTOL = 1e-6

# Problem sizes the self-test keeps (see Sizes for the ones it shrinks).
ENSEMBLE_N = 512
SERIAL_CALLS = 4  # workers=1 calls per ensemble unit ...
SERIAL_REALIZATIONS = 2  # ... of this many realizations each

# Fixed inputs of the reference check, independent of --seed.
REFERENCE_SEED = 0
REFERENCE_REALIZATIONS = 2
REFERENCE_RTOL = 1e-9

CPU = time.process_time  # clock of the single-threaded calls (see above)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes the self-test shrinks; the command line uses the defaults."""

    realizations: int = 16  # pool set: two chunks of 8, one per worker
    records: int = 2000
    ks_subsample: int = 128


class Checks:
    """Correctness gate and operation count.

    Every check and every program call made through ``call`` is one attempted
    operation.  A check that fails goes to ``failures`` (the outputs are
    wrong); a call that raises the program's ``DomainError`` goes to
    ``raised`` (no output to check).  Both count as failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.raised: list[str] = []

    def call(self, times, key: str, fn, *args, per: int = 1,
             clock=time.perf_counter, **kwargs):
        """Run ``fn`` as one operation; append its time, divided by ``per``, to
        ``times[key]`` (unless ``times`` is None).  Returns None if it raised
        ``DomainError``."""
        self.attempted += 1
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        except DomainError as exc:
            self.raised.append(f"{key}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if times is not None:
                times.setdefault(key, []).append((clock() - t0) / per)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def close(self, got: float, want: float, rtol: float, what: str) -> None:
        ok = math.isfinite(got) and abs(got - want) <= rtol * abs(want)
        self.expect(ok, f"{what}: got {got!r}, want {want!r} (rel {rtol:g})")


def derived_seed(seed: int, index: int) -> int:
    """Independent seed for the index-th unit of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# ensemble_fig2
# ---------------------------------------------------------------------------


def ensemble_config(n: int, seed: int, realizations: int):
    grid = propagation.default_grid(FIG2_GEOM, FIG2_SPEC, n=n)
    return propagation.SimConfig(geometry=FIG2_GEOM, spectrum=FIG2_SPEC, grid=grid,
                                 n_screens=10, n_components=256, seed=seed,
                                 n_realizations=realizations)


class EnsembleFig2:
    name = "ensemble_fig2"
    stage1 = ("realizations_per_s", "1/s")  # printed names of stage1_s, stage2_s
    stage2 = ("pool2_realizations_per_s", "1/s")

    def configure(self, sizes: Sizes):
        return ensemble_config(ENSEMBLE_N, 0, sizes.realizations)

    def prepare(self, seed: int, sizes: Sizes):
        return {"seed": seed}

    def unit(self, inputs, sizes: Sizes, checks: Checks, index: int) -> dict:
        seed = derived_seed(inputs["seed"], index)
        pooled, serial = {}, {}
        cfg = ensemble_config(ENSEMBLE_N, seed, sizes.realizations)
        records = checks.call(pooled, "run_ensemble", propagation.run_ensemble, cfg,
                              workers=2, per=sizes.realizations)
        for j in range(SERIAL_CALLS):
            small = ensemble_config(ENSEMBLE_N, derived_seed(seed, j), SERIAL_REALIZATIONS)
            checks.call(serial, "run_ensemble", propagation.run_ensemble, small,
                        workers=1, per=SERIAL_REALIZATIONS)
        out = {"stage1_s": serial, "stage2_s": pooled}
        if index == 0:  # the whole pool set again with workers=1, untimed
            t0 = time.perf_counter()
            checks.expect(propagation.run_ensemble(cfg, workers=1) == records,
                          "run_ensemble: workers=1 and workers=2 records differ")
            out["untimed_s"] = time.perf_counter() - t0
        return out

    def reference(self) -> dict:
        cfg = ensemble_config(ENSEMBLE_N, REFERENCE_SEED, REFERENCE_REALIZATIONS)
        return propagation.ensemble_summary(propagation.run_ensemble(cfg, workers=1))


# ---------------------------------------------------------------------------
# pdt_photon
# ---------------------------------------------------------------------------


def synthetic_records(n: int, seed: int) -> list:
    """Wandering, elliptic Gaussian spots and their exact transmittance.

    Centroids are Gaussian with per-axis variance SYNTH_SIGMA_BW2; the two
    spot eigenvalues are independent log-normals with mean SYNTH_MEAN_S;
    the orientation is uniform.  eta is the power of a circular Gaussian
    beam with W^2 = (Sxx + Syy) / 2 inside the aperture:
    P(chi'^2_2(4 r0^2 / W^2) <= 4 a^2 / W^2).
    """
    from scipy import stats as sps

    gen = np.random.default_rng(seed)
    r0 = gen.normal(0.0, math.sqrt(SYNTH_SIGMA_BW2), (n, 2))
    mu = math.log(SYNTH_MEAN_S) - 0.5 * SYNTH_LOG_VAR
    lam = np.exp(gen.normal(mu, math.sqrt(SYNTH_LOG_VAR), (n, 2)))
    phi = gen.uniform(0.0, math.pi, n)
    c, s = np.cos(phi), np.sin(phi)
    sxx = lam[:, 0] * c * c + lam[:, 1] * s * s
    syy = lam[:, 0] * s * s + lam[:, 1] * c * c
    sxy = (lam[:, 0] - lam[:, 1]) * c * s
    w2 = 0.5 * (sxx + syy)
    eta = sps.ncx2.cdf(4.0 * APERTURE**2 / w2, 2, 4.0 * (r0**2).sum(axis=1) / w2)
    return [propagation.SampleRecord(eta=float(eta[i]), x0=float(r0[i, 0]),
                                     y0=float(r0[i, 1]), sxx=float(sxx[i]),
                                     syy=float(syy[i]), sxy=float(sxy[i]),
                                     realization_index=i)
            for i in range(n)]


def fit_families(records, eta, seed: int):
    """All six PDT families fitted to the records, and the target moment pair."""
    summ = propagation.ensemble_summary(records)
    m = pdt.MomentPair.from_samples(eta)
    sbw2 = summ["sigma_bw2"]
    s, s2 = pdt.match_bw(m, APERTURE)
    mu_c, s_c2 = pdt.match_circular(m, sbw2, APERTURE)
    mu_e, sigma_e = pdt.elliptic_params_from_samples(records)
    models = {
        "beam_wander": pdt.BeamWander(sigma_bw2=s2, S=s, aperture=APERTURE),
        "circular": pdt.CircularBeam(sigma_bw2=sbw2, mu_S=mu_c, sigma_S2=s_c2,
                                     aperture=APERTURE),
        "elliptic": pdt.EllipticBeam(sigma_bw2=sbw2, mu_S=mu_e, Sigma=sigma_e,
                                     aperture=APERTURE, sample_seed=seed),
        "totalprob_lognormal": pdt.totalprob_model("lognormal", sbw2, summ["mean_S"],
                                                   m, APERTURE),
        "totalprob_beta": pdt.totalprob_model("beta", sbw2, summ["mean_S"], m,
                                              APERTURE),
        "lognormal": pdt.lognormal_from_moments(m),
        "beta": pdt.beta_from_moments(m),
    }
    return models, m


def fit_moments(family: str, model, moments: dict) -> tuple[float, float]:
    """The moment pair each fit is constructed to reproduce.

    BeamWander and CircularBeam are matched on their closed-form moments,
    the truncated log-normal on the untruncated log-normal moments, and
    Beta and TotalProb on the moments of their own PDT (model_moments).
    """
    if family == "beam_wander":
        return pdt.bw_moments(model.S, model.sigma_bw2, model.aperture)
    if family == "circular":
        return pdt.circular_moments(model.mu_S, model.sigma_S2, model.sigma_bw2,
                                    model.aperture)
    if family == "lognormal":
        return (math.exp(-model.mu + 0.5 * model.sigma2),
                math.exp(-2.0 * model.mu + 2.0 * model.sigma2))
    return moments[1.0], moments[2.0]


class PdtPhoton:
    name = "pdt_photon"
    stage1 = ("fit_rank_s", "s")
    stage2 = ("photon_stats_s", "s")

    def configure(self, sizes: Sizes):
        return STATE

    def prepare(self, seed: int, sizes: Sizes):
        records = synthetic_records(sizes.records, seed)
        eta = np.array([r.eta for r in records])
        pick = np.random.default_rng([seed, 1]).choice(eta.size, sizes.ks_subsample,
                                                       replace=False)
        return {"seed": seed, "records": records, "eta": eta,
                "ks_sample": tstats.EmpiricalSample(eta[pick])}

    def unit(self, inputs, sizes: Sizes, checks: Checks, index: int) -> dict:
        """Half a pass: the fits, then every second family of PASS_FAMILIES."""
        records, eta = inputs["records"], inputs["eta"]
        fit_rank, photon = {}, {}
        out = {"stage1_s": fit_rank, "stage2_s": photon}
        fitted = checks.call(fit_rank, "fit", fit_families, records, eta, inputs["seed"],
                             clock=CPU)
        if fitted is None:  # the raise was counted; nothing to evaluate
            return out
        models, target = fitted
        for family in PASS_FAMILIES[index % 2::2]:
            model = models.get(family)
            moments = None
            if model is not None:
                checks.call(fit_rank, f"{family}.cdf", pdt.model_cdf, model, CDF_POINTS,
                            clock=CPU)
                moments = checks.call(fit_rank, f"{family}.moments", lambda: {
                    p: pdt.fractional_moment(model, p) for p in MOMENT_ORDERS}, clock=CPU)
                ks = checks.call(fit_rank, f"{family}.ks", tstats.ks_stat,
                                 inputs["ks_sample"],
                                 lambda e, model=model: pdt.model_cdf(model, e), clock=CPU)
                if ks is not None:
                    checks.expect(0.0 <= ks <= 1.0, f"ks_stat({family}) = {ks!r}")
                if moments is not None and family != "elliptic":
                    # EllipticBeam is fitted from spot shapes, not a moment pair.
                    m1, m2 = fit_moments(family, model, moments)
                    rtol = FIT_RTOL.get(family, QUAD_RTOL)
                    checks.close(float(m1), target.m1, rtol, f"{family} fit m1")
                    checks.close(float(m2), target.m2, rtol, f"{family} fit m2")
            if family == "circular":
                continue  # photon statistics left out: see README (52 s, then DomainError)
            if family == "empirical":
                channel = quantum.EmpiricalChannel(tstats.EmpiricalSample(eta))
                mean_eta = float(eta.mean())
            else:
                channel = quantum.PdtChannel(model)
                mean_eta = None if moments is None else moments[1.0]
            for _ in range(PHOTON_REPEATS):
                pmf = checks.call(photon, f"{family}.pmf", quantum.channel_pmf, STATE,
                                  channel, clock=CPU)
                if pmf is not None and mean_eta is not None:  # a raise was counted
                    checks.close(pmf.mean, STATE.mean_n * mean_eta, PMF_MEAN_RTOL,
                                 f"channel_pmf({family}) mean")
                checks.call(photon, f"{family}.quadrature", quantum.quadrature_moments,
                            STATE, channel, clock=CPU)
        return out

    def reference(self):
        return None


WORKLOADS = {w.name: w for w in (EnsembleFig2(), PdtPhoton())}


def check_reference(workload, checks: Checks) -> None:
    """Fixed-seed program output against the values stored with the benchmark."""
    got = workload.reference()
    if got is None:
        return
    want = json.loads(REFERENCE_FILE.read_text())[workload.name]
    for key, ref in want.items():
        checks.close(float(got[key]), float(ref), REFERENCE_RTOL, f"ensemble_summary.{key}")


# ---------------------------------------------------------------------------
# Traced run: where each wrapper goes
# ---------------------------------------------------------------------------


def _channel_family(args, kwargs) -> str:
    channel = args[1] if len(args) > 1 else kwargs["channel"]
    if isinstance(channel, quantum.EmpiricalChannel):
        return "empirical"
    model = channel.model
    if isinstance(model, pdt.TotalProb):
        return f"totalprob_{model.sub}"
    return {pdt.BeamWander: "beam_wander", pdt.CircularBeam: "circular",
            pdt.EllipticBeam: "elliptic", pdt.TruncLogNormal: "lognormal",
            pdt.BetaPdt: "beta"}[type(model)]


def trace_targets() -> list[tuple]:
    """``(module, attribute, span name, group, label)`` for every wrapper."""
    targets = [("turbchan.propagation", f, f"propagation.{f}", None, None)
               for f in ("sample_screens", "split_step", "transmittance", "beam_stats")]
    targets += [("turbchan.pdt", f, "pdt.match", None, None)
                for f in ("match_bw", "match_circular", "elliptic_params_from_samples",
                          "totalprob_model", "lognormal_from_moments",
                          "beta_from_moments")]
    targets += [("turbchan.pdt", f, f"pdt.{f}", None, None)
                for f in ("model_cdf", "elliptic_sample")]
    for f in ("fractional_moment", "model_density"):
        targets += [(m, f, f"pdt.{f}", None, None)
                    for m in ("turbchan.pdt", "turbchan.quantum")]
    targets += [("turbchan.pdt", f, f"numerics.{f}", None, None)
                for f in ("adaptive_quad", "solve2", "marcum_q1")]
    targets += [("turbchan.stats", "ks_stat", "stats.ks_stat", None, None),
                ("turbchan.quantum", "channel_pmf", "quantum.channel_pmf",
                 "quantum.channel_pmf", _channel_family)]
    return targets
