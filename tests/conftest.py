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


# Replicas per stream on the blocked purposes, as the reproducibility
# contract fixes it; the references below draw from it independently of
# the kernels' own block code.
BLOCK = 64


def block_gens(seed, path, reps, size=BLOCK):
    """(first replica, size s, generator) of each stream block of replicas
    0..reps-1 under ``path``; the last block ends at replica reps - 1."""
    from smallmass import rng as _rng

    return [(b * size, min(size, reps - b * size), _rng.stream(seed, *path, b))
            for b in range(-(-reps // size))]


class Replay:
    """Stands in for a generator: hands out pre-drawn arrays in order, one
    per ``standard_normal`` call, each of the shape the call asks for."""

    def __init__(self, *arrays):
        self._arrays = iter(arrays)

    def standard_normal(self, shape):
        z = next(self._arrays)
        assert z.shape == tuple(shape)
        return z


def replica_replays(seed, path, reps, n, *, positions=None, driver=None, step=(),
                    size=BLOCK):
    """One ``Replay`` per replica 0..reps-1 holding what the block contract
    gives it, in draw order: its row of its block's ``(s,) + positions``
    draw, of its ``(s,) + driver`` draw, and of each of the n steps of its
    ``(n, s) + step`` draw, every block's draws taken whole and up front."""
    out = []
    for _, s, gen in block_gens(seed, path, reps, size):
        starts = [gen.standard_normal((s,) + shape) for shape in (positions, driver)
                  if shape is not None]
        Z = gen.standard_normal((n, s) + tuple(step))
        out.extend(Replay(*(a[j] for a in starts), *Z[:, j]) for j in range(s))
    return out
