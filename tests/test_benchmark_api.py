"""The program names and fits that the benchmark's workloads use.

``benchmarks/workloads.py`` is read here, never changed.  A traced benchmark
run patches every name of ``trace_targets()``; a deleted one would surface
only there, as an ``AttributeError``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from turbchan import pdt, quantum

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    name = "benchmark_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_trace_targets_resolve(workloads):
    if not hasattr(workloads, "trace_targets"):
        pytest.skip("the benchmark no longer patches program names")
    for module, attribute, *_ in workloads.trace_targets():
        assert hasattr(importlib.import_module(module), attribute), f"{module}.{attribute}"


def test_fit_families_builds_every_model(workloads):
    # EllipticBeam is built with the sample_seed the workload passes
    records = workloads.synthetic_records(1000, 1)
    eta = np.array([r.eta for r in records])
    models, target = workloads.fit_families(records, eta, 1)
    assert isinstance(target, pdt.MomentPair)
    kinds = {"beam_wander": pdt.BeamWander, "circular": pdt.CircularBeam,
             "elliptic": pdt.EllipticBeam, "totalprob_lognormal": pdt.TotalProb,
             "totalprob_beta": pdt.TotalProb, "lognormal": pdt.TruncLogNormal,
             "beta": pdt.BetaPdt}
    assert set(models) == set(kinds)
    for family, model in models.items():
        assert isinstance(model, kinds[family]), family
        assert quantum.PdtChannel(model).model is model
