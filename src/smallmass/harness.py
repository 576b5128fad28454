"""Experiment orchestration: the eps-sweep convergence study and friends.

Every CLI command's output file is written here: ``COMMANDS`` maps each
command name to a ``fn(cfg, out_dir) -> path`` writer.

The convergence study samples the law of the terminal position twice --
from the second-order system at each eps on the grid, and from the limit
equation under each configured diffusion mode -- and reports the
Wasserstein-2 distance between the sample pairs, row per eps.

A limit mode is nothing but its diffusion matrix: ``_mode_diffusion`` is
the one place a mode name becomes a ``DiffusionSpec``, and every mode's
limit sample is drawn on the same stream path (common random numbers), so
the modes differ only by their matrices and the verdict does not depend on
the order of ``limit.modes``.  The bootstrap likewise resamples the eps
sample once per row and scores every mode on the same picks.

Sampling the annealed law deserves care: particles within one replica
share a driver path and an attracting drift, so they synchronize and are
nearly redundant as samples.  Pooling therefore draws at most
``samples_per_replica`` particles per replica, and the effective sample
size is governed by the replica count; the confidence halfwidths come
from a block bootstrap over replicas.  This bias note is recorded in the
report header.

Scheduling never touches values: replicas are keyed to counter-based
streams, work is split into fixed-size batches, and aggregation follows
(eps index, replica index) order, so a run with one worker and a run with
sixteen emit byte-identical files.  The parent builds a sample's kernel
arguments once (run, noise model, potential, initial law, scheme, stream
path) and every batch worker only adds its replica ids and calls the
kernel.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import rng as _rng
from ._version import __version__ as _version
from .config import Config
from .core import EmpiricalMeasure
from .diagnostics import GkEstimate, dyadic_lags, green_kubo, moment_table, uv_check
from .dynamics_eps import run_eps_replicas
from .dynamics_limit import DiffusionSpec, LimitScheme, run_limit_replicas
from .errors import UsageError
from .noise import sigma_matrix
from .transport import W2_AUTO_RULE, w2_auto

__all__ = [
    "ConvergenceReport",
    "run_convergence",
    "run_diagnose",
    "run_estimate_gk",
    "worker_count",
]

WORKERS_ENV = "SMALLMASS_WORKERS"
EPS_BATCH = 64
BOOTSTRAP_RESAMPLES = 24

CONVERGE_COLUMNS = ("eps", "w2_paper_mode", "w2_gk_mode", "ci_halfwidth",
                    "n_samples", "w2_method")
# The W2 column of each limit mode; the config admits at most one mode per column.
MODE_COLUMN = {"paper": "w2_paper_mode", "green-kubo": "w2_gk_mode",
               "explicit": "w2_gk_mode"}


def worker_count() -> int:
    """Worker pool size: the environment variable, else the CPUs this
    process may run on (its affinity mask where the platform has one)."""
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if n < 1:
        raise UsageError(f"{WORKERS_ENV} must be >= 1")
    return n


def _eps_batch_worker(args):
    rc, model, pot, scheme, init, stream_path, ids, spr = args
    pos, _ = run_eps_replicas(rc, model, pot, scheme, init, ids, stream_path,
                              batch_size=EPS_BATCH, keep=spr)
    return pos[:, :spr, :].reshape(-1, rc.d)


def _limit_batch_worker(args):
    rc, pot, diff, init, stream_path, sch, ids, spr = args
    pos = run_limit_replicas(rc, pot, diff, init, ids, stream_path, sch, keep=spr)
    return pos[:, :spr, :].reshape(-1, rc.d)


def _limit_args(cfg: Config, diff: DiffusionSpec, stream_path) -> tuple:
    """The limit kernel's arguments except the replica ids.  Every limit
    sample takes its step from here: ``limit.h``, else (``None``) the
    kernel's default step law.  ``diff`` pickles bit-exact; rebuilt, its
    root would be re-rounded."""
    h = cfg.values["limit.h"]
    return (cfg.run_config(cfg.eps_grid[0]), cfg.potential(), diff, cfg.init_law(),
            stream_path, None if h is None else LimitScheme(h))


@dataclass(frozen=True)
class ConvergenceReport:
    """One row per eps plus enough metadata to re-run the experiment."""

    rows: list
    metadata: dict

    def write_csv(self, path):
        return write_table(path, self.metadata, CONVERGE_COLUMNS,
                           [[r[c] for c in CONVERGE_COLUMNS] for r in self.rows])

    @property
    def selected_mode(self) -> str:
        return self.metadata["selected_mode"]


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_table(path, metadata: dict, header, rows):
    """CSV with a '#'-prefixed metadata block; fixed 17-significant-digit
    decimal formatting so identical runs are byte-identical.  Fields that
    contain a comma or a quote are quoted the way the csv module does.
    Returns ``path``."""
    buf = io.StringIO()
    for key in sorted(metadata):
        buf.write(f"# {key} = {metadata[key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    text = buf.getvalue()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _base_metadata(cfg: Config) -> dict:
    meta = {
        "smallmass.version": _version,
        "mixing.envelope": "exp(-gamma*s) declared; true driver mixing is dominated by C*exp(-gamma*s)",
        "sampling.note": ("pooled at most samples_per_replica particles per replica; "
                          "within-replica particles share a driver path and are not "
                          "independent samples of the annealed law"),
        "w2.auto_thresholds": W2_AUTO_RULE,
    }
    for key in sorted(cfg.values):
        val = cfg.values[key]
        if val is None:
            continue
        meta[f"config.{key}"] = json.dumps(val, separators=(",", ":"))
    return meta


def _reference_measure(cfg: Config) -> EmpiricalMeasure:
    """Frozen measure for law-dependent noise metadata (the initial law)."""
    gen = _rng.stream(cfg.seed, _rng.DIRECT, 1)
    pts = cfg.init_law().draw_positions(1024, cfg.values["run.d"], gen)
    return EmpiricalMeasure(pts)


def _mode_diffusion(cfg: Config, mode: str) -> DiffusionSpec:
    """D_eff of one mode; the one place a mode name becomes a matrix.

    paper: Sigma / (alpha^2 * gamma), the stationary forcing covariance at
    the reference measure over the envelope decay rate gamma; green-kubo:
    G / alpha^2 with G measured; explicit: ``limit.explicit_matrix`` as is.
    """
    alpha = cfg.values["run.alpha"]
    if mode == "paper":
        model = cfg.noise_model()
        matrix = sigma_matrix(model, _reference_measure(cfg)) / (alpha**2 * model.gamma)
    elif mode == "green-kubo":
        matrix = run_estimate_gk(cfg).G / alpha**2
    else:
        matrix = cfg.values["limit.explicit_matrix"]
    return DiffusionSpec(mode=mode, matrix=matrix)


def build_mode_diffusions(cfg: Config) -> dict[str, DiffusionSpec]:
    """D_eff per configured mode, in ``limit.modes`` order."""
    return {mode: _mode_diffusion(cfg, mode) for mode in cfg.modes}


def _pooled(worker, head, reps, spr) -> np.ndarray:
    """``spr`` samples from each of ``reps`` replicas, in replica order.

    ``worker((*head, ids, spr))`` runs once per batch of ``EPS_BATCH``
    replica ids, in a process pool when there are several batches and
    workers.  The batches are fixed up front, so the worker count cannot
    change the bytes."""
    items = [(*head, list(range(a, min(a + EPS_BATCH, reps))), spr)
             for a in range(0, reps, EPS_BATCH)]
    workers = worker_count()
    if workers == 1 or len(items) == 1:
        parts = [worker(item) for item in items]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(worker, items))
    return np.concatenate(parts, axis=0)


def pool_eps_samples(cfg: Config, eps: float, eps_index: int) -> np.ndarray:
    v = cfg.values
    head = (cfg.run_config(eps), cfg.noise_model(), cfg.potential(), v["run.scheme"],
            cfg.init_law(), (_rng.EPS_RUN, eps_index))
    return _pooled(_eps_batch_worker, head, v["run.replicas"], v["run.samples_per_replica"])


def pool_limit_samples(cfg: Config, diff: DiffusionSpec) -> np.ndarray:
    """The limit-law sample under ``diff``; every mode draws on the same
    stream path, so two modes differ only by their diffusion matrices."""
    return _pooled(_limit_batch_worker, _limit_args(cfg, diff, (_rng.LIMIT_RUN, 0)),
                   *cfg.limit_pooling())


def _pool_self_test_samples(cfg: Config, eps_index: int, diff: DiffusionSpec) -> np.ndarray:
    v = cfg.values
    return _pooled(_limit_batch_worker, _limit_args(cfg, diff, (_rng.SELF_TEST, eps_index)),
                   v["run.replicas"], v["run.samples_per_replica"])


def _block_bootstrap_ci(eps_sample: np.ndarray, spr: int, limit_samples,
                        seed: int, eps_index: int) -> float:
    """95% halfwidth of the W2 value under replica-block resampling: one
    set of block picks per eps row, scored against each limit sample, and
    the largest halfwidth over the samples."""
    n_blocks = eps_sample.shape[0] // spr
    blocks = eps_sample.reshape(n_blocks, spr, -1)
    gen = _rng.stream(seed, _rng.BOOT, eps_index)
    vals = np.empty((len(limit_samples), BOOTSTRAP_RESAMPLES))
    for b in range(BOOTSTRAP_RESAMPLES):
        pick = gen.integers(0, n_blocks, size=n_blocks)
        resampled = blocks[pick].reshape(-1, blocks.shape[2])
        for m, lim in enumerate(limit_samples):
            vals[m, b] = w2_auto(resampled, lim, seed=seed).value
    return float(1.96 * np.max(np.std(vals, axis=1, ddof=1)))


def run_convergence(cfg: Config) -> ConvergenceReport:
    """The eps-sweep study behind the headline convergence claim."""
    diffs = build_mode_diffusions(cfg)
    meta = _base_metadata(cfg)
    for mode, diff in diffs.items():
        meta[f"diffusion.{mode}.D_eff"] = json.dumps(diff.matrix.tolist())
    modes = cfg.modes
    limit_samples = {mode: pool_limit_samples(cfg, diffs[mode]) for mode in modes}
    spr = cfg.values["run.samples_per_replica"]
    rows = []
    for eps_index, eps in enumerate(cfg.eps_grid):
        if cfg.values["run.self_test"]:
            eps_sample = _pool_self_test_samples(cfg, eps_index, diffs[modes[0]])
        else:
            eps_sample = pool_eps_samples(cfg, eps, eps_index)
        row = {"eps": eps, "w2_paper_mode": float("nan"), "w2_gk_mode": float("nan"),
               "n_samples": eps_sample.shape[0]}
        for mode in modes:
            res = w2_auto(eps_sample, limit_samples[mode], seed=cfg.seed)
            row[MODE_COLUMN[mode]] = res.value
        row["ci_halfwidth"] = _block_bootstrap_ci(eps_sample, spr, limit_samples.values(),
                                                  cfg.seed, eps_index)
        row["w2_method"] = res.method
        rows.append(row)
    terminal = {mode: rows[-1][MODE_COLUMN[mode]] for mode in modes}
    # The smaller terminal W2 wins; on a tie, paper.
    meta["selected_mode"] = min(terminal, key=lambda m: (terminal[m], m != "paper"))
    meta["selected_mode_note"] = ("mode with the smaller terminal W2; settles the "
                                  "limit-noise normalization empirically")
    return ConvergenceReport(rows=rows, metadata=meta)


def run_estimate_gk(cfg: Config) -> GkEstimate:
    model = cfg.noise_model()
    return green_kubo(model, m_source=_reference_measure(cfg),
                      horizon_fast=cfg.gk_horizon(), reps=cfg.values["gk.reps"],
                      seed=cfg.seed, dt=cfg.values["gk.dt"])


def run_diagnose(cfg: Config):
    """Moment tables and u/v reports per eps, plus the G estimate.

    Returns (rows, metadata) where rows are module-tagged (module, eps,
    stat, value, ci) tuples ready for CSV.
    """
    model = cfg.noise_model()
    pot = cfg.potential()
    init = cfg.init_law()
    v = cfg.values
    rows = []
    lags = dyadic_lags(v["diag.lag_lo"], v["diag.lag_hi"])
    for eps_index, eps in enumerate(cfg.eps_grid):
        rc_small = replace(cfg.run_config(eps), N=v["diag.N"])
        mt = moment_table(rc_small, model, pot, v["run.scheme"],
                          reps=v["diag.moment_reps"], grid_points=v["diag.grid_points"],
                          init=init, eps_index=eps_index)
        for key in ("sx2", "sx4", "sy2", "sy4"):
            rows.append(("moment_table", eps, f"sup_{key}", mt.sup[key], mt.ci[key]))
        uv = uv_check(rc_small, model, reps=v["diag.reps"], lags=lags, init=init,
                      pot=pot, eps_index=eps_index)
        rows.append(("uv", eps, "v_msq", uv.v_msq, uv.v_msq_ci))
        for lag, ratio in sorted(uv.u_increment_ratios.items()):
            rows.append(("uv", eps, f"u_inc_ratio[{lag:.6g}]", ratio, ""))
        rows.append(("uv", eps, "u_inc_ratio_max_over_median",
                     uv.ratio_max / uv.ratio_median, ""))
        for key in ("variance_slope", "lag1_increment_corr", "excess_kurtosis"):
            rows.append(("bm_proxy", eps, key, uv.bm_stats[key], ""))
    gk = run_estimate_gk(cfg)
    for i in range(gk.G.shape[0]):
        for j in range(gk.G.shape[1]):
            rows.append(("green_kubo", "", f"G[{i},{j}]", gk.G[i, j], gk.ci_fro))
    rows.append(("green_kubo", "", "truncation_lag", gk.truncation_lag, ""))
    meta = _base_metadata(cfg)
    return rows, meta


# -- one writer per CLI command ---------------------------------------------


def _write_converge(cfg: Config, out_dir: str):
    return run_convergence(cfg).write_csv(os.path.join(out_dir, "converge.csv"))


def _write_estimate_gk(cfg: Config, out_dir: str):
    gk = run_estimate_gk(cfg)
    meta = _base_metadata(cfg)
    meta["gk.truncation_lag"] = f"{gk.truncation_lag:.17g}"
    meta["gk.ci_fro"] = f"{gk.ci_fro:.17g}"
    rows = [[i, j, gk.G[i, j]] for i in range(gk.G.shape[0]) for j in range(gk.G.shape[1])]
    return write_table(os.path.join(out_dir, "gk.csv"), meta, ["i", "j", "G"], rows)


def _write_diagnose(cfg: Config, out_dir: str):
    rows, meta = run_diagnose(cfg)
    return write_table(os.path.join(out_dir, "diagnose.csv"), meta,
                       ["module", "eps", "stat", "value", "ci"], rows)


def _write_samples(cfg: Config, path: str, sample: np.ndarray, extra: dict):
    """One row per pooled sample point under the base metadata plus ``extra``."""
    header = ["sample"] + [f"x_{i + 1}" for i in range(cfg.values["run.d"])]
    rows = [[i] + list(map(float, p)) for i, p in enumerate(sample)]
    return write_table(path, {**_base_metadata(cfg), **extra}, header, rows)


def run_simulate_eps(cfg: Config, out_dir: str):
    """Pool the eps-system terminal samples for the first grid value."""
    eps = cfg.eps_grid[0]
    path = _write_samples(cfg, os.path.join(out_dir, "samples_eps.csv"),
                          pool_eps_samples(cfg, eps, 0), {"run.eps": _fmt(eps)})
    if cfg.values["output.dump_trajectories"]:
        _dump_eps_trajectory(cfg, eps, os.path.join(out_dir, "trajectory_eps.csv"))
    return path


def _dump_eps_trajectory(cfg: Config, eps: float, path: str):
    """Every step of replica 0 at ``eps``, on the step grid of the pooled samples."""
    rc = cfg.run_config(eps)
    d = rc.d
    header = ["t", "i"] + [f"x_{k + 1}" for k in range(d)] + [f"y_{k + 1}" for k in range(d)]
    rows = []

    def record(ids, k, t, X, Y, xi):
        for i in range(rc.N):
            rows.append([t, i] + list(map(float, X[0, i])) + list(map(float, Y[0, i])))

    run_eps_replicas(rc, cfg.noise_model(), cfg.potential(), cfg.values["run.scheme"],
                     cfg.init_law(), [0], (_rng.EPS_RUN, 0), recorder=record)
    write_table(path, {"trajectory.replica": "0"}, header, rows)


def run_simulate_limit(cfg: Config, out_dir: str):
    """Pool limit-law terminal samples for the first configured mode; the
    other modes are not built."""
    mode = cfg.modes[0]
    diff = _mode_diffusion(cfg, mode)
    path = _write_samples(cfg, os.path.join(out_dir, "samples_limit.csv"),
                          pool_limit_samples(cfg, diff),
                          {"limit.mode": mode, "limit.D_eff": json.dumps(diff.matrix.tolist())})
    if cfg.values["output.dump_trajectories"]:
        _dump_limit_trajectory(cfg, diff, os.path.join(out_dir, "trajectory_limit.csv"))
    return path


def _dump_limit_trajectory(cfg: Config, diff: DiffusionSpec, path: str):
    """Every step of replica 0 of the first mode's limit sample."""
    rc, pot, diff, init, stream_path, sch = _limit_args(cfg, diff, (_rng.LIMIT_RUN, 0))
    header = ["t", "i"] + [f"x_{k + 1}" for k in range(rc.d)]
    rows = []

    def record(ids, k, t, X):
        for i in range(rc.N):
            rows.append([t, i] + list(map(float, X[0, i])))

    run_limit_replicas(rc, pot, diff, init, [0], stream_path, sch, recorder=record)
    write_table(path, {"trajectory.replica": "0"}, header, rows)


COMMANDS = {
    "converge": _write_converge,
    "simulate-eps": run_simulate_eps,
    "simulate-limit": run_simulate_limit,
    "estimate-gk": _write_estimate_gk,
    "diagnose": _write_diagnose,
}


def load_sample_file(path) -> np.ndarray:
    """Read a numeric CSV of sample points ('#' comments and an optional
    header line are skipped; a leading 'sample' index column is dropped)."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                try:
                    rows.append([float(p) for p in parts])
                except ValueError:
                    if not rows:
                        continue  # header line
                    raise UsageError(f"non-numeric row in {path}: {line!r}") from None
    except OSError as err:
        raise UsageError(f"cannot read sample file {path}: {err}") from None
    if not rows:
        raise UsageError(f"no samples found in {path}")
    arr = np.asarray(rows, dtype=float)
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise UsageError(f"ragged rows in {path}")
    if arr.shape[1] > 1 and np.array_equal(arr[:, 0], np.arange(arr.shape[0])):
        arr = arr[:, 1:]
    return arr
