"""Experiment orchestration: the eps-sweep convergence study and friends.

Every CLI command's output file is written here: ``COMMANDS`` maps each
command name to a ``fn(cfg, out_dir) -> path`` writer.

The convergence study samples the law of the terminal position twice --
from the second-order system at each eps on the grid, and from the limit
equation under each configured diffusion mode -- and reports the
Wasserstein-2 distance between the sample pairs, row per eps.

A limit mode is nothing but its noise intensity D_eff: ``Config.diffusion``
is the one place a mode name becomes a ``DiffusionSpec``, and every mode's
limit sample is drawn on the same stream path (common random numbers), so
the modes differ only by their D_eff and the verdict does not depend on
the order of ``limit.modes``.  The bootstrap likewise resamples the eps
sample once per row and scores every mode on the same picks.  Those
paired scores give the terminal gap W2_paper - W2_gk its 95% interval:
``selected_mode`` is the mode with the smaller terminal W2, and with both
modes configured the report states whether the interval excludes 0
(``selected_mode_decided``) or leaves the verdict undecided.

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

Scheduling never touches values: replicas are keyed to their
streams by blocks of ``rng.BLOCK``, each worker advances one contiguous
batch of whole blocks in lock-step, and aggregation follows (eps index,
replica index) order, so a run with one worker and a run with sixteen
emit byte-identical files.  ``converge`` samples every eps row in one
sweep: its batches are replica ranges across all rows, and a batch
advances its replicas in every row at once, in one step loop
(``dynamics_eps.run_eps_sweep``), which gives each row the bits of that
row run alone.  A command starts at most one process pool.
``converge`` hands it every limit mode's batches and the sweep's first;
once the samples are back, each row's scoring (its point W2 per mode and
``_block_bootstrap_ci``) goes to the same pool as one task per row
(``_score_row``).  Results are gathered in submission order, so no byte
depends on which task finishes first; with no pool (always at one
worker) every batch and task runs inline, in the same order.  The
kernels draw their normals a window of steps at a time under a fixed
budget, so memory does not bound the batch size.  A pooled sample is one
frozen ``_Sample`` value, built once in the parent by ``_eps_sample`` or
``_limit_sample``: its system, its kernel's other arguments (run or one
run per eps row, noise model or diffusion, potential, initial law,
scheme), its stream path (one per eps row) and its size.  ``_Pool``
ships each batch as the sample, by pickle, with its replica ids, and the
batch worker only calls ``_Sample.run``; a trajectory dump runs a
one-row sample on replica 0's block.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import rng as _rng
from ._version import __version__ as _version
from .config import MODE_COLUMN, Config
from .core import RunConfig
from .diagnostics import (GkEstimate, _uv_steps, dyadic_lags, green_kubo, moment_table,
                          uv_check)
# run_eps_replicas stays bound here, unused: the benchmark's tracer wraps it
# at every smallmass name that holds it, and its tests read it from here.
from .dynamics_eps import run_eps_replicas, run_eps_sweep  # noqa: F401
from .dynamics_limit import DiffusionSpec, LimitScheme, run_limit_replicas
from .errors import UsageError, require_finite
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
    of ``system`` ("eps" or "limit").  ``args`` are the kernel's other
    arguments, in the kernel's order.  A limit sample is one row, drawn on
    stream ``path``; an eps sample is a sweep of rows, and ``args[0]`` and
    ``path`` hold one run and one stream path per row."""

    system: str
    args: tuple
    path: tuple
    reps: int
    spr: int

    def run(self, ids, recorder=None) -> np.ndarray:
        """The terminal positions of the ``spr`` kept particles of each
        replica in ``ids``, (rows, points, d) with the points in replica
        order; ``recorder`` goes to the kernel."""
        if self.system == "eps":
            pos, _ = run_eps_sweep(*self.args, ids, self.path, recorder=recorder)
        else:
            rc, pot, diff, init, sch = self.args
            pos = run_limit_replicas(rc, pot, diff, init, ids, self.path, sch,
                                     recorder=recorder)[None]
        return pos[:, :, :self.spr, :].reshape(pos.shape[0], -1, pos.shape[3])


def _run_batch(item) -> np.ndarray:
    """The batch worker of both systems: ``item`` is ``(sample, ids)``."""
    sample, ids = item
    return sample.run(ids)


def _eps_sample(cfg: Config, eps_indices) -> _Sample:
    """The eps-system sample of the grid points ``eps_indices``, one row
    each."""
    v = cfg.values
    spr = v["run.samples_per_replica"]
    runs = tuple(_sample_run(cfg, cfg.eps_grid[i], spr, "eps") for i in eps_indices)
    return _Sample("eps", (runs, cfg.noise_model(), cfg.potential(), cfg.init_law()),
                   tuple((_rng.EPS_RUN, i) for i in eps_indices), v["run.replicas"], spr)


def _limit_sample(cfg: Config, diff: DiffusionSpec, path, reps: int, spr: int) -> _Sample:
    """A limit-equation sample under ``diff`` on stream ``path``.  Every
    limit sample takes its step from here: ``limit.h``, else (``None``) the
    kernel's default step law."""
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


def _d_eff_text(cfg: Config, diff: DiffusionSpec) -> str:
    """The header text of ``diff``: its d x d covariance, D_eff times the
    identity, as a JSON list of rows."""
    return json.dumps((diff.d_eff * np.eye(cfg.values["run.d"])).tolist())


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
    """The batches of ``samples``, and the tasks the caller maps after them.

    Where no sample has more than one batch (always at one worker) no pool
    starts: a sample's batches run inline when it is collected, and so do
    mapped tasks.  Else one process pool, with as many processes as the
    largest sample has batches, gets every sample's batches on entry, in
    order, and each ``map`` hands it its tasks at once.  Results come back
    in submission order, whichever finishes first.  On the way out, work
    not yet started is cancelled and every worker has ended, also when the
    body raised."""

    def __init__(self, samples):
        self._items = [[(s, ids) for ids in _batches(s.reps)] for s in samples]
        self._futures = self._pool = None
        self._collected = {}

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
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)

    def collect(self, k: int) -> np.ndarray:
        """Sample k's points, (rows, points, d), the points of its batches
        joined in replica order; collected once, on first use."""
        if k not in self._collected:
            if self._futures is None:
                parts = [_run_batch(item) for item in self._items[k]]
            else:
                parts = [f.result() for f in self._futures[k]]
            self._collected[k] = np.concatenate(parts, axis=-2)
        return self._collected[k]

    def map(self, fn, items) -> list:
        """``[fn(item) for item in items]``, the calls on the pool where
        one runs."""
        if self._pool is None:
            return [fn(item) for item in items]
        futures = [self._pool.submit(fn, item) for item in items]
        return [f.result() for f in futures]


def _pooled(sample: _Sample) -> np.ndarray:
    """``sample``'s points, (rows, points, d) in replica order, on a pool
    of its own.

    ``_run_batch`` runs once per batch of ``_batches``.  Each batch is one
    lock-step kernel call, and a kernel gives every replica the same bits
    whatever batch it rides in, so the worker count cannot change the
    bytes."""
    with _Pool([sample]) as pool:
        return pool.collect(0)


def pool_eps_samples(cfg: Config, eps_index: int, pending=None) -> np.ndarray:
    """The eps sample of grid point ``eps_index``: ``pending()``, taken
    from the command's ``_Pool``, or else its row run now on its own."""
    return pending() if pending is not None else _pooled(_eps_sample(cfg, [eps_index]))[0]


def pool_limit_samples(cfg: Config, diff: DiffusionSpec, pending=None) -> np.ndarray:
    """The limit-law sample under ``diff``; every mode draws on the same
    stream path, so two modes differ only by their D_eff.
    ``pending`` as in ``pool_eps_samples``."""
    return pending() if pending is not None else _pooled(
        _limit_sample(cfg, diff, (_rng.LIMIT_RUN, 0), *cfg.limit_pooling()))[0]


def _block_bootstrap_ci(eps_sample: np.ndarray, spr: int, limit_samples,
                        seed: int, eps_index: int) -> tuple[float, np.ndarray]:
    """95% halfwidth of the W2 value under replica-block resampling: one
    set of block picks per eps row, scored against each limit sample, and
    the largest halfwidth over the samples.  Also returns the scores,
    ``vals[mode, resample]``, paired across the modes by their picks."""
    n_blocks = eps_sample.shape[0] // spr
    blocks = eps_sample.reshape(n_blocks, spr, -1)
    gen = _rng.stream(seed, _rng.BOOT, eps_index)
    vals = np.empty((len(limit_samples), BOOTSTRAP_RESAMPLES))
    for b in range(BOOTSTRAP_RESAMPLES):
        pick = gen.integers(0, n_blocks, size=n_blocks)
        resampled = blocks[pick].reshape(-1, blocks.shape[2])
        for m, lim in enumerate(limit_samples):
            vals[m, b] = w2_auto(resampled, lim, seed=seed).value
    return float(1.96 * np.max(np.std(vals, axis=1, ddof=1))), vals


def _mode_verdict(terminal: dict, vals: np.ndarray) -> dict:
    """The ``selected_mode`` metadata of a converge report.

    ``terminal`` maps each configured mode, in ``limit.modes`` order, to
    its terminal W2, and ``vals`` holds the terminal row's bootstrap
    scores in the same order.  The smaller W2 wins, paper on a tie.  With
    both modes the verdict is decided only where the 95% interval of the
    paired gap W2_paper - W2_gk, the gap plus or minus 1.96 standard
    deviations of its paired bootstrap replicates, excludes 0."""
    meta = {"selected_mode": min(terminal, key=lambda m: (terminal[m], m != "paper")),
            "selected_mode_note": "the only configured mode; no normalization is compared"}
    if len(terminal) > 1:
        paper, gk = (vals[list(terminal).index(m)] for m in ("paper", "green-kubo"))
        gap = terminal["paper"] - terminal["green-kubo"]
        half = 1.96 * float(np.std(paper - gk, ddof=1))
        decided = not gap - half <= 0 <= gap + half
        meta["selected_mode_gap_ci"] = json.dumps([gap - half, gap + half])
        meta["selected_mode_decided"] = json.dumps(decided)
        meta["selected_mode_note"] = (
            "mode with the smaller terminal W2; the gap interval excludes 0, so it settles "
            "the limit-noise normalization empirically" if decided else
            "undecided: the gap interval contains 0, so the smaller terminal W2 does not "
            "settle the limit-noise normalization")
    return meta


def _score_row(item) -> tuple:
    """The scores of one converge row: ``item`` is ``(eps_sample, spr,
    limit_samples, seed, eps_index)``.  Returns each limit sample's point
    W2, the method of the last, and the bootstrap halfwidth and scores of
    ``_block_bootstrap_ci``."""
    eps_sample, spr, limit_samples, seed, eps_index = item
    results = [w2_auto(eps_sample, lim, seed=seed) for lim in limit_samples]
    half, vals = _block_bootstrap_ci(eps_sample, spr, limit_samples, seed, eps_index)
    return [r.value for r in results], results[-1].method, half, vals


def run_convergence(cfg: Config) -> ConvergenceReport:
    """The eps-sweep study behind the headline convergence claim.

    Every limit mode's batches and the eps sweep's go to one process pool
    first; a sweep batch advances its replicas in every row at once.  Once
    the samples are back, each row's scoring goes to the same pool as one
    task, collected in row order.  A row whose W2 or halfwidth is not
    finite raises ``NumericError`` naming its eps."""
    if cfg.values["run.replicas"] < 2:
        raise UsageError("converge needs run.replicas >= 2: its confidence halfwidth "
                         "resamples replica blocks, and one block cannot vary")
    diffs = build_mode_diffusions(cfg)
    meta = _base_metadata(cfg)
    for mode, diff in diffs.items():
        meta[f"diffusion.{mode}.D_eff"] = _d_eff_text(cfg, diff)
    modes, v = cfg.modes, cfg.values
    spr = v["run.samples_per_replica"]
    limit = [_limit_sample(cfg, diffs[mode], (_rng.LIMIT_RUN, 0), *cfg.limit_pooling())
             for mode in modes]
    grid = range(len(cfg.eps_grid))
    # A self-test scores the first mode's limit law against itself, on the
    # sampling floor: one limit sample per row.
    row_samples = ([_limit_sample(cfg, diffs[modes[0]], (_rng.SELF_TEST, i),
                                  v["run.replicas"], spr) for i in grid]
                   if v["run.self_test"] else [_eps_sample(cfg, grid)])
    # Sample and row of each eps row's points in the pool.
    at = [(len(modes) + i, 0) if v["run.self_test"] else (len(modes), i) for i in grid]
    rows = []
    with _Pool(limit + row_samples) as pool:
        limit_samples = [pool_limit_samples(cfg, diffs[mode], lambda k=k: pool.collect(k)[0])
                         for k, mode in enumerate(modes)]
        eps_samples = [pool_eps_samples(cfg, i, lambda k=k, j=j: pool.collect(k)[j])
                       for i, (k, j) in zip(grid, at)]
        scores = pool.map(_score_row, [(eps_samples[i], spr, limit_samples, cfg.seed, i)
                                       for i in grid])
    for eps, eps_sample, (values, method, half, _) in zip(cfg.eps_grid, eps_samples, scores):
        row = {"eps": eps, "w2_paper_mode": float("nan"), "w2_gk_mode": float("nan"),
               "n_samples": eps_sample.shape[0], "ci_halfwidth": half, "w2_method": method}
        row.update((MODE_COLUMN[mode], value) for mode, value in zip(modes, values))
        require_finite("a W2 value or its bootstrap halfwidth", half, *values, eps=eps)
        rows.append(row)
    meta.update(_mode_verdict({mode: rows[-1][MODE_COLUMN[mode]] for mode in modes},
                              scores[-1][3]))
    return ConvergenceReport(rows=rows, metadata=meta)


def run_estimate_gk(cfg: Config) -> GkEstimate:
    v = cfg.values
    return green_kubo(cfg.noise_model(), m_source=cfg.reference_measure(),
                      horizon_fast=v["gk.horizon_fast"], reps=v["gk.reps"], seed=cfg.seed)


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
    # Every row's u/v horizon and buffer size are checked before the first row
    # simulates.
    for eps in cfg.eps_grid:
        _uv_steps(cfg.run_config(eps), lags, v["diag.reps"])
    for eps_index, eps in enumerate(cfg.eps_grid):
        rc_small = replace(cfg.run_config(eps), N=v["diag.N"])
        mt = moment_table(rc_small, model, pot, reps=v["diag.moment_reps"], init=init,
                          eps_index=eps_index)
        for key in ("sx2", "sx4", "sy2", "sy4"):
            rows.append(("moment_table", eps, f"sup_{key}", mt.sup[key], mt.ci[key]))
        uv = uv_check(rc_small, model, reps=v["diag.reps"], lags=lags, init=init,
                      pot=pot, eps_index=eps_index)
        rows.append(("uv", eps, "v_msq", uv.v_msq, uv.v_msq_ci))
        for lag, ratio in sorted(uv.u_increment_ratios.items()):
            rows.append(("uv", eps, f"u_inc_ratio[{lag:.6g}]", ratio, ""))
        # all-zero increments (a silent field) leave the ratio undefined: NaN,
        # as for a degenerate bm_proxy
        median = uv.ratio_median
        rows.append(("uv", eps, "u_inc_ratio_max_over_median",
                     uv.ratio_max / median if median else math.nan, ""))
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
    rows = [[i] + list(map(float, p)) for i, p in enumerate(_pooled(sample)[0])]
    path = write_table(os.path.join(out_dir, f"samples_{sample.system}.csv"),
                       {**_base_metadata(cfg), **extra}, header, rows)
    if cfg.values["output.dump_trajectories"]:
        _dump_trajectory(sample, os.path.join(out_dir, f"trajectory_{sample.system}.csv"))
    return path


def run_simulate_eps(cfg: Config, out_dir: str):
    """Pool the eps-system terminal samples for the first grid value."""
    return _write_samples(cfg, out_dir, _eps_sample(cfg, [0]),
                          {"run.eps": _fmt(cfg.eps_grid[0])})


def run_simulate_limit(cfg: Config, out_dir: str):
    """Pool limit-law terminal samples for the first configured mode; the
    other modes are not built."""
    mode = cfg.modes[0]
    diff = cfg.diffusion(mode)
    sample = _limit_sample(cfg, diff, (_rng.LIMIT_RUN, 0), *cfg.limit_pooling())
    return _write_samples(cfg, out_dir, sample,
                          {"limit.mode": mode, "limit.D_eff": _d_eff_text(cfg, diff)})


def _dump_trajectory(sample: _Sample, path: str):
    """Every step of every particle of replica 0 in ``sample``'s run: its
    positions, and for the eps system its velocities.  Replica 0's whole
    stream block runs, and its first row is written."""
    rc = sample.args[0][0] if sample.system == "eps" else sample.args[0]
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
    if len({len(r) for r in rows}) != 1:
        raise UsageError(f"ragged rows in {path}")
    arr = np.asarray(rows, dtype=float)
    if arr.shape[1] > 1 and header[:1] == ["sample"]:
        arr = arr[:, 1:]
    return arr
