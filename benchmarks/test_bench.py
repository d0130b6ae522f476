"""Self-test of the benchmark at tiny sizes.

Run from the root of a source checkout:

    python3 -m pytest -q benchmarks/test_bench.py
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

run.use_checkout(ROOT)
import workloads  # noqa: E402

TINY = workloads.Sizes(realizations=2, records=1000, ks_subsample=16)
NAMED = {
    "ensemble_fig2": {"realizations_per_s": "1/s", "pool2_realizations_per_s": "1/s"},
    "pdt_photon": {"fit_rank_s": "s", "photon_stats_s": "s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_fraction": "ratio"}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric_and_passes_the_gate(workload):
    res = run.run(workload, seed=1, seconds=0.0, trace=True, root=ROOT, sizes=TINY)
    assert res["failures"] == []
    assert res["raised"] == []
    assert res["attempted"] > 0
    assert {k: unit for k, (_, unit) in res["named"].items()} == {**COMMON,
                                                                    **NAMED[workload]}
    assert res["named"]["failed_fraction"][0] == 0.0
    for trace, spec in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        line = json.loads(run.result_line(res, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert {n: m["unit"] for n, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec}
    assert all(v > 0 for v in res["e2e"].values())
    for name in ("model_cdf", "adaptive_quad", "model_density"):
        assert not hasattr(getattr(workloads.pdt, name), "__wrapped__")


def test_calls_repeat_exactly():
    counts = []
    for _ in range(2):
        res = run.run("ensemble_fig2", seed=4, seconds=0.0, trace=True, root=ROOT,
                      sizes=TINY)
        counts.append({k: v for k, v in res["layer"].items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    # Two traced units of workers=1 calls, plus the untimed workers=1 repeat
    # of unit 0's pool set; the pool's own workers are other processes.
    serial = workloads.SERIAL_CALLS * workloads.SERIAL_REALIZATIONS
    assert counts[0]["propagation.transmittance.calls"] == 2 * serial + TINY.realizations


def test_a_raised_domain_error_counts_as_failed_not_as_wrong_output():
    checks = workloads.Checks()
    times = {}

    def refuse():
        raise workloads.DomainError("tail bound exceeded")

    assert checks.call(times, "refuse", refuse) is None
    assert checks.call(times, "accept", lambda: 7) == 7
    assert checks.attempted == 2 and checks.failures == []
    assert checks.raised == ["refuse: DomainError: tail bound exceeded"]
    assert len(times["refuse"]) == len(times["accept"]) == 1
    with pytest.raises(ZeroDivisionError):  # anything else ends the run
        checks.call(times, "crash", lambda: 1 / 0)


def _fake_module():
    mod = types.ModuleType("bench_fake_layers")

    def leaf(x):
        return x + 1

    def middle(x):
        return mod.leaf(x) + mod.leaf(x)

    def outer(x):
        if x < 0:
            raise ValueError("negative")
        return mod.middle(x)

    mod.leaf, mod.middle, mod.outer = leaf, middle, outer
    sys.modules[mod.__name__] = mod
    return mod


def test_self_time_subtracts_children_and_restores_on_error():
    mod = _fake_module()
    originals = (mod.leaf, mod.middle, mod.outer)
    tracer = Tracer()
    targets = [(mod.__name__, f, f"fake.{f}", None, None)
               for f in ("leaf", "middle", "outer")]
    with pytest.raises(ValueError):
        with tracer.patched(targets):
            assert mod.outer(1) == 4
            mod.outer(-1)
    assert (mod.leaf, mod.middle, mod.outer) == originals
    s = tracer.summary()
    assert s["fake.leaf.calls"] == 2 and s["fake.outer.calls"] == 2
    assert s["fake.middle.self_s"] == pytest.approx(
        s["fake.middle.s"] - s["fake.leaf.s"], abs=1e-9)
    assert s["fake.outer.self_s"] == pytest.approx(
        s["fake.outer.s"] - s["fake.middle.s"], abs=1e-9)


def test_group_total_counts_outermost_spans_only():
    mod = _fake_module()
    tracer = Tracer()
    targets = [(mod.__name__, f, "fake.any", None, None) for f in ("leaf", "middle")]
    with tracer.patched(targets):
        mod.middle(0)
    s = tracer.summary()
    assert s["fake.any.calls"] == 3
    outer = tracer.spans[0]
    assert s["fake.any.s"] == pytest.approx(outer[3] - outer[2])


def test_refuses_a_directory_without_the_sources(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "pdt_photon", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
