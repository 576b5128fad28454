import json
import tracemalloc
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def benchmark_config_path():
    return REPO / "configs" / "benchmark.json"


@pytest.fixture(scope="session")
def diagnose_config_path():
    return REPO / "configs" / "diagnose.json"


@pytest.fixture()
def small_config_dict(tmp_path):
    """A minutes-scale config shrunk to seconds for plumbing tests."""
    return {
        "run.d": 1, "run.N": 16, "run.T": 0.5, "run.alpha": 1.0,
        "run.seed": 7, "run.h0": 0.05,
        "run.eps_grid": [0.2, 0.1],
        "run.replicas": 24, "run.samples_per_replica": 2,
        "potential.kind": "quadratic", "potential.lambda": 1.0,
        "potential.kappa": 0.0,
        "noise.kind": "scalar-ou", "noise.gamma": 2.0, "noise.sigma": 1.0,
        "limit.modes": ["paper", "green-kubo"],
        "gk.reps": 32, "gk.horizon_fast": 20.0,
        "output.dir": str(tmp_path / "out"),
    }


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def traced_peak_above(fn):
    """Bytes of the ``tracemalloc`` peak during ``fn()`` above the arrays it
    returns (an array, or a tuple of arrays)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = result if isinstance(result, tuple) else (result,)
    return peak - sum(a.nbytes for a in arrays)
