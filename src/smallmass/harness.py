"""Experiment orchestration: the eps-sweep convergence study and friends.

Every CLI command's output file is written here: ``COMMANDS`` maps each
command name to a ``fn(cfg, out_dir) -> path`` writer.

The convergence study samples the law of the terminal position twice --
from the second-order system at each eps on the grid, and from the limit
equation under each configured diffusion mode -- and reports the
Wasserstein-2 distance between the sample pairs, row per eps.

A limit mode is nothing but its diffusion matrix: ``Config.diffusion`` is
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

Where particles do not interact, one particle's law does not depend on
``run.N``, so a sample of ``spr`` particles per replica is drawn from a
run at N = ``spr`` (``Config.particle_local`` is the one rule, and
``_sample_run`` the one place it sets N); interacting configs run all
``run.N`` and keep the leading ``spr``, at most ``run.N``.  A trajectory
dump runs its sample's N, so it ends on the sample.

Scheduling never touches values: replicas are keyed to counter-based
streams by blocks of ``rng.BLOCK``, each worker advances one contiguous
batch of whole blocks in lock-step, and aggregation follows (eps index,
replica index) order, so a run with one worker and a run with sixteen
emit byte-identical files.  A
command starts at most one process pool: ``converge`` hands every limit
mode's and every eps row's batches to it before scoring anything, and the
parent scores row k's W2 as soon as row k's batches are back while the
later rows run ahead in the workers.  Results are gathered in submission
order, so no byte depends on which batch finishes first.  The kernels
draw their normals a window of steps at a time under a fixed budget, so
memory does not bound the batch size.  A pooled sample is one frozen
``_Sample`` value, built once in the parent by ``_eps_sample`` or
``_limit_sample``: its system, its kernel's other arguments (run, noise
model or diffusion, potential, initial law, scheme), its stream path and
its size.  ``_Pool`` ships each batch as the sample, by pickle, with its
replica ids, and the batch worker only calls ``_Sample.run``; a
trajectory dump runs the same value on replica 0's block.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import rng as _rng
from ._version import __version__ as _version
from .config import MODE_COLUMN, Config
from .core import RunConfig
from .diagnostics import (GkEstimate, _uv_steps, dyadic_lags, green_kubo, moment_table,
                          uv_check)
from .dynamics_eps import run_eps_replicas
from .dynamics_limit import DiffusionSpec, LimitScheme, run_limit_replicas
from .errors import UsageError
from .transport import W2_AUTO_RULE, w2_auto

__all__ = [
    "ConvergenceReport",
    "run_convergence",
    "run_diagnose",
    "run_estimate_gk",
    "worker_count",
]

WORKERS_ENV = "SMALLMASS_WORKERS"
BOOTSTRAP_RESAMPLES = 24

CONVERGE_COLUMNS = ("eps", "w2_paper_mode", "w2_gk_mode", "ci_halfwidth",
                    "n_samples", "w2_method")


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


def _sample_run(cfg: Config, eps: float, spr: int, system: str) -> RunConfig:
    """The run a sample of ``spr`` particles per replica integrates: at
    N = ``spr`` where one particle's law in ``system`` does not depend on N
    (``Config.particle_local``), else at ``run.N``."""
    rc = cfg.run_config(eps)
    return replace(rc, N=spr) if cfg.particle_local(system) else rc


@dataclass(frozen=True)
class _Sample:
    """One pooled sample: ``spr`` particles from each of ``reps`` replicas
    of ``system`` ("eps" or "limit"), drawn on stream ``path``.  ``args``
    are the kernel's other arguments, in the kernel's order."""

    system: str
    args: tuple
    path: tuple
    reps: int
    spr: int

    def run(self, ids, recorder=None) -> np.ndarray:
        """The terminal positions of the ``spr`` kept particles of each
        replica in ``ids``, as rows in replica order; ``recorder`` goes to
        the kernel."""
        if self.system == "eps":
            pos, _ = run_eps_replicas(*self.args, ids, self.path, recorder=recorder)
        else:
            rc, pot, diff, init, sch = self.args
            pos = run_limit_replicas(rc, pot, diff, init, ids, self.path, sch,
                                     recorder=recorder)
        return pos[:, :self.spr, :].reshape(-1, pos.shape[2])


def _run_batch(item) -> np.ndarray:
    """The batch worker of both systems: ``item`` is ``(sample, ids)``."""
    sample, ids = item
    return sample.run(ids)


def _eps_sample(cfg: Config, eps_index: int) -> _Sample:
    """The eps-system sample of grid point ``eps_index``."""
    v = cfg.values
    spr = v["run.samples_per_replica"]
    rc = _sample_run(cfg, cfg.eps_grid[eps_index], spr, "eps")
    return _Sample("eps", (rc, cfg.noise_model(), cfg.potential(), "exponential",
                           cfg.init_law()),
                   (_rng.EPS_RUN, eps_index), v["run.replicas"], spr)


def _limit_sample(cfg: Config, diff: DiffusionSpec, path, reps: int, spr: int) -> _Sample:
    """A limit-equation sample under ``diff`` on stream ``path``.  Every
    limit sample takes its step from here: ``limit.h``, else (``None``) the
    kernel's default step law.  ``diff`` pickles bit-exact; rebuilt, its
    root would be re-rounded."""
    h = cfg.values["limit.h"]
    rc = _sample_run(cfg, cfg.eps_grid[0], spr, "limit")
    return _Sample("limit", (rc, cfg.potential(), diff, cfg.init_law(),
                             None if h is None else LimitScheme(h)), path, reps, spr)


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


def build_mode_diffusions(cfg: Config) -> dict[str, DiffusionSpec]:
    """D_eff per configured mode, in ``limit.modes`` order."""
    return {mode: cfg.diffusion(mode) for mode in cfg.modes}


def _n_batches(reps: int) -> int:
    """Batches of a sample of ``reps`` replicas: one per worker, at most
    one per stream block."""
    return min(worker_count(), math.ceil(reps / _rng.BLOCK))


def _batches(reps: int) -> list:
    """The replica ids of one sample cut on stream-block boundaries into
    ``_n_batches(reps)`` contiguous batches, in order, whose block counts
    differ by at most one.  Every pooled sample is on a purpose keyed by
    ``rng.BLOCK`` replicas, and only the last batch ends in a short block."""
    n, n_blocks = _n_batches(reps), math.ceil(reps / _rng.BLOCK)
    cuts = [min(reps, _rng.BLOCK * (n_blocks * i // n)) for i in range(n + 1)]
    return [list(range(a, b)) for a, b in zip(cuts, cuts[1:])]


class _Pool:
    """The batches of ``samples``; entered, one function per sample that
    returns its points in replica order.

    Where no sample has more than one batch (always at one worker) no pool
    starts, and a sample's batches run inline when it is collected.  Else
    one process pool, with as many processes as the largest sample has
    batches, gets every sample's batches on entry, in order, so later
    samples run ahead while the caller scores earlier ones.  On the way
    out, batches not yet started are cancelled and every worker has ended,
    also when the body raised."""

    def __init__(self, samples):
        self._items = [[(s, ids) for ids in _batches(s.reps)] for s in samples]
        self._futures = self._pool = None

    def __enter__(self):
        n = max(map(len, self._items))
        if n > 1:
            self._pool = ProcessPoolExecutor(max_workers=n)
            try:
                self._futures = [[self._pool.submit(_run_batch, item) for item in items]
                                 for items in self._items]
            except BaseException:
                self._pool.shutdown(cancel_futures=True)
                raise
        return [partial(self._collect, k) for k in range(len(self._items))]

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)

    def _collect(self, k: int) -> np.ndarray:
        if self._futures is None:
            parts = [_run_batch(item) for item in self._items[k]]
        else:
            parts = [f.result() for f in self._futures[k]]
        return np.concatenate(parts, axis=0)


def _pooled(sample: _Sample) -> np.ndarray:
    """``sample``'s points, in replica order, on a pool of its own.

    ``_run_batch`` runs once per batch of ``_batches``.  Each batch is one
    lock-step kernel call, and a kernel gives every replica the same bits
    whatever batch it rides in, so the worker count cannot change the
    bytes."""
    with _Pool([sample]) as (collect,):
        return collect()


def pool_eps_samples(cfg: Config, eps_index: int, pending=None) -> np.ndarray:
    """The eps sample of grid point ``eps_index``: ``pending()``, its
    batches already handed to the command's ``_Pool``, or else run now."""
    return pending() if pending is not None else _pooled(_eps_sample(cfg, eps_index))


def pool_limit_samples(cfg: Config, diff: DiffusionSpec, pending=None) -> np.ndarray:
    """The limit-law sample under ``diff``; every mode draws on the same
    stream path, so two modes differ only by their diffusion matrices.
    ``pending`` as in ``pool_eps_samples``."""
    return pending() if pending is not None else _pooled(
        _limit_sample(cfg, diff, (_rng.LIMIT_RUN, 0), *cfg.limit_pooling()))


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
    """The eps-sweep study behind the headline convergence claim.

    Every limit mode's and every eps row's batches go to one process pool
    before anything is scored; row k is scored as soon as its batches are
    back, while the later rows run on."""
    if cfg.values["run.replicas"] < 2:
        raise UsageError("converge needs run.replicas >= 2: its confidence halfwidth "
                         "resamples replica blocks, and one block cannot vary")
    diffs = build_mode_diffusions(cfg)
    meta = _base_metadata(cfg)
    for mode, diff in diffs.items():
        meta[f"diffusion.{mode}.D_eff"] = json.dumps(diff.matrix.tolist())
    modes, v = cfg.modes, cfg.values
    spr = v["run.samples_per_replica"]
    limit = [_limit_sample(cfg, diffs[mode], (_rng.LIMIT_RUN, 0), *cfg.limit_pooling())
             for mode in modes]
    # A self-test scores the first mode's limit law against itself, on the
    # sampling floor.
    row_samples = [_limit_sample(cfg, diffs[modes[0]], (_rng.SELF_TEST, i), v["run.replicas"],
                                 spr) if v["run.self_test"] else _eps_sample(cfg, i)
                   for i in range(len(cfg.eps_grid))]
    rows = []
    with _Pool(limit + row_samples) as pending:
        limit_samples = {mode: pool_limit_samples(cfg, diffs[mode], p)
                         for mode, p in zip(modes, pending)}
        for eps_index, (eps, p) in enumerate(zip(cfg.eps_grid, pending[len(modes):])):
            eps_sample = pool_eps_samples(cfg, eps_index, p)
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
    return green_kubo(model, m_source=cfg.reference_measure(),
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
    # Every row's u/v horizon is checked before the first row simulates.
    for eps in cfg.eps_grid:
        _uv_steps(cfg.run_config(eps), lags)
    for eps_index, eps in enumerate(cfg.eps_grid):
        rc_small = replace(cfg.run_config(eps), N=v["diag.N"])
        mt = moment_table(rc_small, model, pot, reps=v["diag.moment_reps"],
                          grid_points=v["diag.grid_points"], init=init,
                          eps_index=eps_index)
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


def _write_samples(cfg: Config, out_dir: str, sample: _Sample, extra: dict):
    """Pool ``sample`` into ``samples_<system>.csv``, one row per point under
    the base metadata plus ``extra``, and with ``output.dump_trajectories``
    dump its replica 0 to ``trajectory_<system>.csv``; returns the first
    path."""
    header = ["sample"] + [f"x_{i + 1}" for i in range(cfg.values["run.d"])]
    rows = [[i] + list(map(float, p)) for i, p in enumerate(_pooled(sample))]
    path = write_table(os.path.join(out_dir, f"samples_{sample.system}.csv"),
                       {**_base_metadata(cfg), **extra}, header, rows)
    if cfg.values["output.dump_trajectories"]:
        _dump_trajectory(sample, os.path.join(out_dir, f"trajectory_{sample.system}.csv"))
    return path


def run_simulate_eps(cfg: Config, out_dir: str):
    """Pool the eps-system terminal samples for the first grid value."""
    return _write_samples(cfg, out_dir, _eps_sample(cfg, 0),
                          {"run.eps": _fmt(cfg.eps_grid[0])})


def run_simulate_limit(cfg: Config, out_dir: str):
    """Pool limit-law terminal samples for the first configured mode; the
    other modes are not built."""
    mode = cfg.modes[0]
    diff = cfg.diffusion(mode)
    sample = _limit_sample(cfg, diff, (_rng.LIMIT_RUN, 0), *cfg.limit_pooling())
    return _write_samples(cfg, out_dir, sample,
                          {"limit.mode": mode, "limit.D_eff": json.dumps(diff.matrix.tolist())})


def _dump_trajectory(sample: _Sample, path: str):
    """Every step of every particle of replica 0 in ``sample``'s run: its
    positions, and for the eps system its velocities.  Replica 0's whole
    stream block runs, and its first row is written."""
    rc = sample.args[0]
    names = "xy" if sample.system == "eps" else "x"
    header = ["t", "i"] + [f"{a}_{k + 1}" for a in names for k in range(rc.d)]
    rows = []

    def record(ids, k, t, *state):
        for i in range(rc.N):
            rows.append([t, i] + [float(c) for arr in state[:len(names)] for c in arr[0, i]])

    sample.run(range(min(_rng.BLOCK, sample.reps)), recorder=record)
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
    header, the first other line, are skipped; a leading column that the
    header names 'sample' is an index and is dropped).  Any other
    non-numeric line, or a non-finite value, is an error naming the file
    and the line."""
    rows, header = [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                try:
                    row = [float(p) for p in parts]
                except ValueError:
                    if not (rows or header):
                        header = parts
                        continue
                    raise UsageError(f"non-numeric row in {path}, line {lineno}: "
                                     f"{line!r}") from None
                if not all(map(math.isfinite, row)):
                    raise UsageError(f"non-finite value in {path}, line {lineno}: {line!r}")
                rows.append(row)
    except OSError as err:
        raise UsageError(f"cannot read sample file {path}: {err}") from None
    if not rows:
        raise UsageError(f"no samples found in {path}")
    arr = np.asarray(rows, dtype=float)
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise UsageError(f"ragged rows in {path}")
    if arr.shape[1] > 1 and header[:1] == ["sample"]:
        arr = arr[:, 1:]
    return arr
