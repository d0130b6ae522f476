"""Benchmark command for turbchan.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload ensemble_fig2 --seed 1 --seconds 30 --trace 0

Workloads: ensemble_fig2, pdt_photon (see README.md).  The command runs one
fixed-seed reference check, then repeats units of the workload until
``--seconds`` is spent, timing set-up in a fresh interpreter before the first
unit and after each.  A stage's figure is the sum, over the program calls it
makes, of each call's mean time in the run.  With ``--trace 1`` it runs units
untraced, traced, traced, untraced and reports per-layer figures plus the
tracing overhead; the spans go to ``.bench_out/`` in the checkout.  The
metric names and units are those of ``BENCHMARK.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_FILE = HERE.parent / "BENCHMARK.json"

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]].configure(workloads.Sizes())
print(time.perf_counter() - t0)
"""


class CheckoutError(RuntimeError):
    """The working directory is not a turbchan source checkout."""


def use_checkout(root: Path) -> Path:
    """Put the checkout's ``src`` first on the import path and return it."""
    src = (root / "src").resolve()
    if not (src / "turbchan" / "__init__.py").is_file():
        raise CheckoutError(f"no turbchan sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import turbchan

    if Path(turbchan.__file__).resolve().parent != src / "turbchan":
        raise CheckoutError(f"imported turbchan from {turbchan.__file__}, not {src}")
    return src


def setup_seconds(src: Path, workload: str) -> float:
    """Import-plus-configuration wall time of one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(src), str(HERE), workload],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


def stage_seconds(units: list, stage: str) -> float:
    """Sum over a stage's calls of each call's mean time in the run.

    A mean, not a median: the host's slow phases last tens of seconds, so
    a call's few samples in a run fall in one or two phases, and the mean
    averages over them where the median picks one.
    """
    calls = {call for u in units for call in u[stage]}
    return sum(statistics.fmean([t for u in units for t in u[stage].get(call, ())])
               for call in calls)


def spec_metrics(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` list of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC_FILE.read_text())[kind]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if there is one."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit(root: Path) -> str:
    """HEAD commit read from ``.git`` without running git; "unknown" if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(root),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        sizes=None) -> dict:
    """Run one workload; returns metrics, named figures and checks."""
    src = use_checkout(root)
    import workloads
    from tracing import Tracer

    sizes = sizes or workloads.Sizes()
    wl = workloads.WORKLOADS[workload]
    checks = workloads.Checks()
    inputs = wl.prepare(seed, sizes)
    workloads.check_reference(wl, checks)

    # Set-up is sampled in a fresh interpreter before the first unit and
    # after every unit, so its median spans the run's slow and fast phases
    # of the host.  The samples do not count against ``seconds``.
    setup = [setup_seconds(src, workload)]
    units, layer = [], {}
    if trace:
        # Untraced, traced, traced, untraced: units 0 and 1 each run once
        # on either side, so neither side gets only the first, cold unit.
        tracer = Tracer()
        traced = []
        for index, on in ((0, False), (0, True), (1, True), (1, False)):
            if on:
                with tracer.patched(workloads.trace_targets()):
                    traced.append(wl.unit(inputs, sizes, checks, index))
            else:
                units.append(wl.unit(inputs, sizes, checks, index))
            setup.append(setup_seconds(src, workload))
        summary = tracer.summary()
        layer = {name: summary.get(name, 0.0) for name in spec_metrics("per_layer")}
        if workload == "ensemble_fig2":
            layer["propagation.pool2.efficiency"] = (
                stage_seconds(units, "stage1_s") / (2.0 * stage_seconds(units, "stage2_s")))
        stages = ("stage1_s", "stage2_s")
        layer["trace.overhead_ratio"] = (
            sum(stage_seconds(traced, st) for st in stages)
            / sum(stage_seconds(units, st) for st in stages) - 1.0)
        tracer.write(root / ".bench_out" / f"spans_{workload}_seed{seed}.json")
    else:
        spent, durations = 0.0, []
        while True:
            t0 = time.perf_counter()
            units.append(wl.unit(inputs, sizes, checks, len(units)))
            took = time.perf_counter() - t0
            spent += took
            durations.append(took - units[-1].get("untimed_s", 0.0))
            setup.append(setup_seconds(src, workload))
            # A pdt_photon pass is two units of different sizes: run at least
            # one pass, and expect the next unit to take as long as the
            # larger of the last two.
            if len(units) >= 2 and spent + max(durations[-2:]) > seconds:
                break

    setup_s = statistics.median(setup)
    stage1 = stage_seconds(units, "stage1_s")
    stage2 = stage_seconds(units, "stage2_s")
    e2e = {"setup_s": setup_s, "stage1_s": stage1, "stage2_s": stage2,
           "peak_rss_mb": peak_rss_mb()}
    named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (e2e["peak_rss_mb"], "MB")}
    for (name, unit), value in ((wl.stage1, stage1), (wl.stage2, stage2)):
        named[name] = (1.0 / value if unit == "1/s" else value, unit)
    failed = len(checks.failures) + len(checks.raised)
    named["failed_fraction"] = (failed / max(checks.attempted, 1), "ratio")
    return {
        "units": units,
        "setup": setup,
        "env": environment(root, seed),
        "e2e": e2e,
        "layer": layer,
        "named": named,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "raised": checks.raised,
    }


def result_line(res: dict, trace: bool) -> str:
    spec = spec_metrics("per_layer" if trace else "end_to_end")
    values = res["layer"] if trace else res["e2e"]
    return json.dumps({
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]) + len(res["raised"]),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in spec.items()},
    })


def main(argv=None) -> int:
    root = Path.cwd()
    try:
        use_checkout(root)
    except CheckoutError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except Exception:  # a raising program fails the run; report it, print no result
        traceback.print_exc()
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(res["env"]))
    for i, u in enumerate(res["units"]):
        print(f"unit {i}: stage1_s {stage_seconds([u], 'stage1_s'):.6g}  "
              f"stage2_s {stage_seconds([u], 'stage2_s'):.6g}")
    print("setup samples " + " ".join(f"{t:.4g}" for t in res["setup"]))
    for name, (value, unit) in res["named"].items():
        print(f"{name:32s} {value:.6g} {unit}")
    for name, value in res["layer"].items():
        print(f"{name:40s} {value:.6g}")
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    for failure, count in Counter(res["raised"]).items():
        print(f"RAISED {count}x {failure}")
    print(result_line(res, bool(args.trace)))
    return 0 if not res["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
