"""The benchmark's workloads and the configuration files it generates.

The program only ever sees the generated files: the seed given to the
benchmark is written into ``run.seed`` of a copy, and the copy is the
command's only input.  ``configs/`` is read, never written.

Sizes are scaled down from the committed configs so that one measured
run repeats the command several times in fresh processes and reports
medians; each scaled value is listed in ``overrides``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

# BLAS threads would oversubscribe the two worker processes.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

SEED_MODULUS = 2**32


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # smallmass subcommand: converge | diagnose
    workers: int  # SMALLMASS_WORKERS for the timed runs
    why: str
    base: str | None  # committed config the workload copies, if any
    overrides: dict = field(default_factory=dict)
    w2_method: str | None = None  # expected w2_method column (converge)
    selected_mode: str | None = None  # expected verdict, where it is fixed

    def config(self, root: Path, seed: int) -> dict:
        doc = json.loads((root / self.base).read_text(encoding="utf-8")) if self.base else {}
        doc.update(self.overrides)
        doc["run.seed"] = seed % SEED_MODULUS
        return doc

    def env(self, workers: int) -> dict:
        return dict(THREAD_ENV, SMALLMASS_WORKERS=str(workers))


OU_SWEEP = Workload(
    name="ou-sweep",
    command="converge",
    workers=1,
    why=("headline converge at 1 worker: quadratic potential, scalar-ou noise, N=256, one "
         "particle kept per replica; nearly all time is the eps particle advance on big arrays"),
    base="configs/benchmark.json",
    # 2400 -> 512 replicas; the limit sample stays the same size as the
    # eps sample (32 x 16 = 512), so W2 keeps the exact 1-d route.  Below
    # about 400 samples the green-kubo verdict flips on some seeds (the
    # two-sample W2 noise reaches the 0.29 gap between the modes).
    overrides={"run.replicas": 512, "limit.replicas": 32, "limit.samples_per_replica": 16},
    w2_method="quantile-1d",
    selected_mode="green-kubo",
)

COUPLED_SWEEP = Workload(
    name="coupled-sweep",
    command="converge",
    workers=2,
    why=("interacting path at 2 workers: curie-weiss drift with law-dependent fourier-field "
         "forcing, d=2; field averaging, pairwise_mean, assignment W2 with bootstrap, pool"),
    base=None,
    overrides={
        "run.d": 2, "run.N": 32, "run.T": 1.0, "run.alpha": 1.0, "run.h0": 0.05,
        "run.eps_grid": [0.2, 0.1, 0.05, 0.025],
        # 128 replicas x 1 kept sample = 128 <= 512, the exact assignment route.
        "run.replicas": 128, "run.samples_per_replica": 1,
        "potential.kind": "curie-weiss", "potential.lambda": 1.0, "potential.kappa": 0.5,
        "noise.kind": "fourier-field", "noise.gamma": 1.0, "noise.sigma": 1.0,
        "noise.omegas": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        "noise.a": [1.0, 0.5, 0.5], "noise.b": [0.0, 0.5, 0.5],
        "limit.modes": ["paper", "green-kubo"],
        "limit.replicas": 4, "limit.samples_per_replica": 32,
        "gk.reps": 16, "gk.horizon_fast": 20.0,
        "output.dir": "out",
    },
    w2_method="assignment",
)

DIAGNOSE = Workload(
    name="diagnose",
    command="diagnose",
    workers=1,
    why=("diagnose at 1 worker: the eps kernel on tiny arrays (N=4) with a recorder call per "
         "step, plus the scalar u/v path and FFT Green-Kubo; bound by fixed per-step cost"),
    base="configs/diagnose.json",
    overrides={"diag.moment_reps": 512},
)

WORKLOADS = {w.name: w for w in (OU_SWEEP, COUPLED_SWEEP, DIAGNOSE)}
