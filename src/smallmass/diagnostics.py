"""Numerical checks of the moment, decay, and increment estimates.

These diagnostics make the qualitative estimates behind the zero-mass
limit falsifiable at desk scale:

* ``moment_table``: the scaled moments E||sqrt(eps) X||^{2,4} and
  E||sqrt(eps) Y||^{2,4} stay bounded uniformly over the eps grid;
* ``uv_check``: the integrated forcing u and its exponentially filtered
  part v, computed with the integrator's own quadrature (left-endpoint
  forcing, exact exponential weights for v).  For law-dependent fields
  the paths are recorded from the lock-step eps kernel
  (``run_eps_replicas``).  The paths are stored time-major, so each
  step writes one contiguous slab.  E||v(T)||^2 must vanish linearly in
  eps, and the fourth-moment increment ratio E||u(t) - u(s)||^4 / |t - s|
  must stay bounded across dyadic lags;
* ``green_kubo``: the effective diffusion of the law-averaged forcing,
  G = 2 * integral of its stationary autocovariance, the executable
  surrogate for the limit noise normalization;
* ``bm_proxy``: three falsifiable statistics of the u paths (linear
  variance growth, vanishing increment autocorrelation, vanishing excess
  kurtosis) standing in for the martingale-problem characterization of the
  diffusion limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .core import EmpiricalMeasure, PotentialSpec, RunConfig
from .dynamics_eps import InitialLaw, _Advance, _n_steps, run_eps_replicas
from .errors import UsageError
from .noise import (NoiseModel, _contract_forcing, _factor_mean, advance_xi,
                    averaged_forcing_xi, stationary_xi)

__all__ = [
    "GkEstimate",
    "MomentTable",
    "UvReport",
    "bm_proxy",
    "dyadic_lags",
    "green_kubo",
    "moment_table",
    "uv_check",
]

_MOMENT_KEYS = ("sx2", "sx4", "sy2", "sy4")
# Points of the decimated time grid behind the Brownian-proxy statistics.
_BM_GRID = 50
# Fewest independent u paths the Brownian-proxy statistics accept.
BM_PROXY_MIN_PATHS = 100
# Shortest Green-Kubo horizon, in driver correlation times 1/gamma.
GK_MIN_HORIZON = 20.0
# Longest Green-Kubo sampling step, in the same units: the trapezoid rule
# over-integrates an exponential autocovariance by about (dt gamma)^2 / 12,
# 0.08% at this step.
GK_MAX_DT = 0.1


@dataclass(frozen=True)
class MomentTable:
    """Sup over a time grid of the scaled moment estimates, with CIs."""

    eps: float
    sup: dict  # key -> sup_t estimate, keys sx2 sx4 sy2 sy4
    ci: dict  # key -> 95% halfwidth of the sup-attaining entry
    n_replicas: int
    n_particles: int
    grid_times: np.ndarray


@dataclass(frozen=True)
class UvReport:
    """Decay and increment statistics of the integrated forcing."""

    eps: float
    v_msq: float
    v_msq_ci: float
    u_increment_ratios: dict  # lag (slow time) -> E||du||^4 / lag
    bm_stats: dict
    n_replicas: int

    @property
    def ratio_max(self) -> float:
        return max(self.u_increment_ratios.values())

    @property
    def ratio_median(self) -> float:
        return float(np.median(list(self.u_increment_ratios.values())))


@dataclass(frozen=True)
class GkEstimate:
    """Effective diffusion of the averaged forcing, with its provenance."""

    G: np.ndarray
    horizon_fast: float
    truncation_lag: float
    reps: int
    ci_fro: float


class _MomentRecorder:
    def __init__(self, n_total_steps, grid_points, eps, n_replicas):
        every = max(1, n_total_steps // (grid_points - 1))
        self.idx = list(range(0, n_total_steps + 1, every))
        if self.idx[-1] != n_total_steps:
            self.idx.append(n_total_steps)
        self.lookup = {k: i for i, k in enumerate(self.idx)}
        self.eps = eps
        self.values = np.zeros((n_replicas, len(self.idx), 4))
        self.times = np.zeros(len(self.idx))

    def __call__(self, ids, k, t, X, Y, xi):
        slot = self.lookup.get(k)
        if slot is None:
            return
        self.times[slot] = t
        sx = self.eps * np.sum(X * X, axis=-1)  # ||sqrt(eps) X||^2 per particle
        sy = self.eps * np.sum(Y * Y, axis=-1)
        block = np.stack(
            [sx.mean(axis=-1), (sx * sx).mean(axis=-1),
             sy.mean(axis=-1), (sy * sy).mean(axis=-1)], axis=-1
        )
        self.values[ids, slot] = block


def moment_table(cfg: RunConfig, model: NoiseModel, pot: PotentialSpec, *,
                 reps: int = 256, grid_points: int = 48, init: InitialLaw | None = None,
                 eps_index: int = 0, batch_size: int | None = None) -> MomentTable:
    """Estimate sup_t of the scaled moments over ``reps`` replicas.

    Particles within a replica share one driver path, so the effective
    sample size is the replica count; confidence halfwidths are computed
    across replicas.  The replicas run through ``run_eps_replicas``
    ``batch_size`` (a multiple of ``rng.BLOCK``) at a time, all in one
    lock-step batch by default: the kernel's normals are drawn in windows
    under a fixed budget, so a larger batch costs state memory only, and
    the values do not depend on it.
    """
    if grid_points < 2:
        raise UsageError(f"grid_points must be >= 2, got {grid_points}")
    if reps < 2:
        raise UsageError(f"moment_table needs reps >= 2 for its confidence halfwidths, "
                         f"got {reps}")
    init = init or InitialLaw()
    rec = _MomentRecorder(_n_steps(cfg.T, cfg.eps_step), grid_points, cfg.eps, reps)
    run_eps_replicas(cfg, model, pot, "exponential", init, range(reps),
                     (_rng.MOMENT_RUN, eps_index), batch_size=batch_size,
                     recorder=rec)
    per_rep = rec.values  # (R, G, 4)
    est = per_rep.mean(axis=0)  # (G, 4)
    sup_slots = est.argmax(axis=0)
    sup, ci = {}, {}
    for j, key in enumerate(_MOMENT_KEYS):
        slot = int(sup_slots[j])
        sup[key] = float(est[slot, j])
        ci[key] = float(1.96 * per_rep[:, slot, j].std(ddof=1) / math.sqrt(reps))
    return MomentTable(eps=cfg.eps, sup=sup, ci=ci, n_replicas=reps,
                       n_particles=cfg.N, grid_times=rec.times)


def dyadic_lags(lo: float = 0.01, hi: float = 1.0) -> list[float]:
    """The doubling ladder lo, 2*lo, 4*lo, ... capped at hi."""
    if not lo > 0.0:
        raise UsageError(f"the lag ladder needs lo > 0, got {lo!r}")
    lags, lag = [], lo
    while lag <= hi * (1.0 + 1e-12):
        lags.append(lag)
        lag *= 2.0
    return lags


def _uv_steps(cfg: RunConfig, lags: list[float]) -> tuple[int, list[int]]:
    """The step count n of ``uv_check``'s horizon and the step length of
    each lag of the ladder that fits in it; raises ``UsageError`` where the
    horizon or the ladder is too short, before anything is simulated."""
    h = cfg.eps_step
    n = _n_steps(cfg.T, h)
    if n < 2:
        raise UsageError(f"uv_check needs a horizon of at least 2 steps for the "
                         f"Brownian-proxy increments, got {n}")
    steps = [m for m in (max(1, int(round(lag / h))) for lag in lags) if m <= n]
    if not steps:
        raise UsageError("no admissible lags: horizon too short for the lag ladder")
    return n, steps


def uv_check(cfg: RunConfig, model: NoiseModel, *, reps: int = 512,
             lags: list[float] | None = None, init: InitialLaw | None = None,
             pot: PotentialSpec | None = None, eps_index: int = 0) -> UvReport:
    """Compute u and v paths and their decay/increment statistics.

    u(t) = (alpha sqrt(eps))^{-1} * integral_0^t of the averaged forcing,
    v(t) = the same integral filtered by exp(-(alpha/eps)(t-s)); both use
    the integrator's quadrature (forcing frozen at step left endpoints,
    exact exponential weights for v) so that diagnostic and dynamics share
    one discretization error.  For the x-independent ``scalar-ou`` field
    only the driver is simulated; law-dependent fields ride the particle
    system, recorded from the lock-step eps kernel ``run_eps_replicas``
    under the exponential scheme with potential ``pot`` (default
    ``quadratic(1.0)``).

    E||v||^2 is estimated by averaging over replicas and over the second
    half of the horizon; v is stationary there up to an exp(-alpha T /
    (2 eps)) transient, and the time average tightens the estimate without
    changing what is estimated.
    """
    if reps < BM_PROXY_MIN_PATHS:
        raise UsageError(f"uv_check needs reps >= {BM_PROXY_MIN_PATHS} for the "
                         f"Brownian-proxy statistics, got {reps}")
    lags = lags if lags is not None else dyadic_lags()
    h = cfg.eps_step
    n, steps = _uv_steps(cfg, lags)
    if model.kind == "scalar-ou":
        u, v_late = _u_paths_scalar(cfg, model, reps, n, eps_index)
    else:
        u, v_late = _u_paths_ensemble(cfg, model, reps, n, eps_index, init, pot)
    n_pts, R, d = u.shape
    # v statistics from the late-time pool; in d = 1 the squared value
    # already is the squared norm
    np.multiply(v_late, v_late, out=v_late)
    v_sq = np.sum(v_late, axis=-1) if d > 1 else v_late.reshape(-1, R)  # (n_late, R)
    per_rep = v_sq.mean(axis=0)
    del v_late, v_sq
    v_msq = float(per_rep.mean())
    v_ci = float(1.96 * per_rep.std(ddof=1) / math.sqrt(len(per_rep)))
    # increment ratios over dyadic lags; each lag's (n+1-m, R) increments
    # live in the front of one flat buffer per quantity, sized for the
    # shortest lag, and are reduced over that same contiguous layout.  In
    # d = 1 the squared increment is its own coordinate sum, so it is
    # formed in the sum's buffer.
    sq_buf = np.empty((n_pts - min(steps)) * R)
    du_buf = np.empty((n_pts - min(steps)) * R * d) if d > 1 else sq_buf
    ratios = {}
    for m in steps:
        du = du_buf[:(n_pts - m) * R * d].reshape(n_pts - m, R, d)
        sq = sq_buf[:(n_pts - m) * R].reshape(n_pts - m, R)
        np.subtract(u[m:], u[:-m], out=du)
        np.multiply(du, du, out=du)
        if d > 1:
            np.sum(du, axis=-1, out=sq)
        np.square(sq, out=sq)
        ratios[m * h] = float(np.mean(sq)) / (m * h)
    # Brownian-proxy statistics on a decimated grid
    every = max(1, n // _BM_GRID)
    times = np.arange(0, n + 1, every) * h
    stats = bm_proxy(u[::every].swapaxes(0, 1), times)
    return UvReport(eps=cfg.eps, v_msq=v_msq, v_msq_ci=v_ci,
                    u_increment_ratios=ratios, bm_stats=stats, n_replicas=reps)


class _UvPaths:
    """u and late-time v paths under the integrator's quadrature.

    ``add`` folds the left-endpoint forcing ``eta`` of step k into u
    (weight h / (alpha sqrt(eps))) and into v (the exponential step's own
    weights r and 1 - r), for the replica rows ``rows``, a slice; ``eta``
    holds one row per replica of ``rows``.  Each set of rows must bring its
    steps 0..n-1 in order, from u = v = 0.  The paths are time-major: row
    k + 1 of the (n + 1, R, d) ``u`` holds u after step k, and from step
    n // 2 on, the matching row of ``v_late`` holds v; the running (R, d)
    ``v`` carries v from step to step.
    """

    def __init__(self, cfg, d, reps, n):
        h = cfg.eps_step
        step = _Advance(h, cfg.eps, cfg.alpha)
        self.cu = h / (cfg.alpha * math.sqrt(cfg.eps))
        self.r_fac = step.r
        self.cv = math.sqrt(cfg.eps) * step.one_minus_r / cfg.alpha**2
        self.n_late_from = n // 2
        self.u = np.zeros((n + 1, reps, d))
        self.v = np.zeros((reps, d))
        self.v_late = np.empty((n - self.n_late_from, reps, d))
        self.tmp = np.empty((reps, d))

    def add(self, rows, k, eta):
        v, tmp = self.v[rows], self.tmp[rows]
        np.add(self.u[k, rows], np.multiply(eta, self.cu, out=tmp), out=self.u[k + 1, rows])
        np.multiply(v, self.r_fac, out=v)
        v += np.multiply(eta, self.cv, out=tmp)
        if k >= self.n_late_from:
            self.v_late[k - self.n_late_from, rows] = v


def _driver_paths(model, seed, path, reps, n, delta_s):
    """Yield the driver values of ``reps`` stationary paths at steps 0..n-1.

    The replicas draw by blocks, in the order that ``rng.block_draws``
    carries out: its one start is the driver values, and its per-step
    normals are driver-shaped; the paths are advanced in lock-step by
    ``delta_s``.  Under ``GK_RUN`` the blocks hold one replica each, so
    replica r draws from ``(seed, *path, r)`` alone.  Each yielded
    (reps,) + driver_shape array is fresh: later steps do not overwrite it.
    """
    xi, steps = _rng.block_draws(seed, path, range(reps), n, model.driver_shape,
                                 lambda gen, s: stationary_xi(model, gen, reps=s))
    for z in steps:
        yield xi
        xi = advance_xi(xi, model, delta_s, z)


def _u_paths_scalar(cfg, model, reps, n, eps_index):
    """Vectorized u/v paths for the x-independent field (standalone driver)."""
    paths = _UvPaths(cfg, model.d, reps, n)
    drivers = _driver_paths(model, cfg.seed, (_rng.UV_RUN, eps_index), reps, n,
                            cfg.eps_step / cfg.eps)
    for k, xi in enumerate(drivers):
        paths.add(slice(None), k, xi)  # scalar-ou: the law average is the driver value
    return paths.u, paths.v_late


def _u_paths_ensemble(cfg, model, reps, n, eps_index, init, pot):
    """u/v paths riding on the full particle system (law-dependent fields)."""
    paths = _UvPaths(cfg, model.d, reps, n)

    def record(ids, k, t, X, Y, xi):
        if k < n:
            # the kernel's ids are consecutive (``rng.block_streams``)
            paths.add(slice(ids[0], ids[-1] + 1), k, averaged_forcing_xi(model, xi, X))

    run_eps_replicas(cfg, model, pot or PotentialSpec.quadratic(1.0), "exponential",
                     init or InitialLaw(), range(reps), (_rng.UV_RUN, eps_index),
                     recorder=record)
    return paths.u, paths.v_late


def green_kubo(model: NoiseModel, m_source: EmpiricalMeasure | None = None,
               horizon_fast: float = 50.0, reps: int = 64, seed: int = 0,
               dt: float | None = None) -> GkEstimate:
    """Effective diffusion G = 2 * integral of the forcing autocovariance.

    The averaged forcing is sampled on a fast-time grid under the frozen
    measure ``m_source`` (ignored for the x-independent kind); the
    empirical autocovariance is averaged over ``reps`` independent driver
    paths and integrated by the trapezoid rule up to the first lag at
    which its magnitude falls below the noise floor estimated from the
    tail of the lag window.  No sample mean is subtracted: the drivers are
    centered by construction, and subtracting a sample mean would bias the
    integral downward by order 1/horizon.
    """
    if reps < 2:
        raise UsageError(f"green_kubo needs reps >= 2 for its confidence halfwidth, got {reps}")
    if horizon_fast < GK_MIN_HORIZON / model.gamma:
        raise UsageError(f"horizon_fast={horizon_fast:g} too short; need at least "
                         f"{GK_MIN_HORIZON:g}/gamma = {GK_MIN_HORIZON / model.gamma:g}")
    if model.kind != "scalar-ou" and m_source is None:
        raise UsageError(f"{model.kind} needs a frozen measure for the estimator")
    if dt is None:
        dt = 0.05 / model.gamma
    elif not 0.0 < dt * model.gamma <= GK_MAX_DT:
        raise UsageError(f"dt={dt:g} out of range; need 0 < dt <= {GK_MAX_DT:g}/gamma = "
                         f"{GK_MAX_DT / model.gamma:g}")
    n = int(round(horizon_fast / dt))
    d = model.d
    eta = np.empty((reps, n, d))
    # The measure is frozen, so its factor mean is taken once.
    gbar = _factor_mean(model, m_source.points if m_source is not None else None)
    for k, xi in enumerate(_driver_paths(model, seed, (_rng.GK_RUN,), reps, n, dt)):
        eta[:, k] = _contract_forcing(model, xi, gbar)
    # empirical autocovariance per replica, FFT over time, no mean removal
    max_lag = n // 5
    cov = np.zeros((reps, max_lag + 1, d, d))
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    F = np.fft.rfft(eta, n=nfft, axis=1)  # (R, nf, d)
    counts = n - np.arange(max_lag + 1)
    for i in range(d):
        for j in range(d):
            full = np.fft.irfft(F[:, :, i] * np.conj(F[:, :, j]), n=nfft, axis=1)
            cov[:, :, i, j] = full[:, : max_lag + 1] / counts
    cbar = cov.mean(axis=0)  # (L+1, d, d)
    trace = np.trace(cbar, axis1=1, axis2=2) / d
    tail = trace[int(2 * max_lag / 3):]
    floor = float(tail.std(ddof=1)) if tail.size > 1 else 0.0
    below = np.nonzero(np.abs(trace[1:]) < floor)[0]
    cut = int(below[0]) + 1 if below.size else max_lag
    lags = np.arange(cut + 1) * dt
    G = 2.0 * np.trapezoid(cbar[: cut + 1], dx=dt, axis=0)
    G = 0.5 * (G + G.T)
    per_rep = 2.0 * np.trapezoid(cov[:, : cut + 1], dx=dt, axis=1)
    ci_fro = float(1.96 * np.sqrt(np.sum(per_rep.var(axis=0, ddof=1)) / reps))
    return GkEstimate(G=G, horizon_fast=horizon_fast, truncation_lag=float(lags[-1]),
                      reps=reps, ci_fro=ci_fro)


def bm_proxy(u_paths: np.ndarray, times: np.ndarray) -> dict:
    """Brownian-limit statistics of a family of paths on a uniform grid.

    Returns variance-vs-time regression slope (through the origin), pooled
    lag-1 increment autocorrelation, and pooled excess kurtosis of the
    increments.  A Brownian limit predicts (linear variance, zero
    correlation, zero excess kurtosis).  Paths with no variability are
    flagged degenerate with the undefined statistics set to NaN.
    """
    # replica-major, so the pooled means sum in one fixed order
    u = np.ascontiguousarray(u_paths, dtype=float)
    if u.ndim == 2:
        u = u[:, :, None]
    if u.shape[0] < BM_PROXY_MIN_PATHS:
        raise UsageError(f"bm_proxy needs at least {BM_PROXY_MIN_PATHS} independent paths")
    times = np.asarray(times, dtype=float)
    if times.shape[0] != u.shape[1]:
        raise UsageError("times must match the path grid")
    if u.shape[1] < 3:
        raise UsageError(f"bm_proxy needs at least 3 grid times (two increments per "
                         f"path), got {u.shape[1]}")
    msq = np.mean(np.sum(u * u, axis=-1), axis=0)  # E||u(t)||^2
    denom = float(np.dot(times, times))
    slope = float(np.dot(times, msq) / denom) if denom > 0 else 0.0
    du = np.diff(u, axis=1)  # (R, n-1, d)
    flat = du.reshape(du.shape[0], -1)
    total_var = float(np.var(flat))
    if total_var < 1e-300:
        return {"variance_slope": 0.0, "lag1_increment_corr": float("nan"),
                "excess_kurtosis": float("nan"), "degenerate": True}
    a = du[:, :-1, :].reshape(-1)
    b = du[:, 1:, :].reshape(-1)
    corr = float(np.corrcoef(a, b)[0, 1])
    z = du.reshape(-1)
    m2 = float(np.mean(z * z))
    kurt = float(np.mean(z**4) / (m2 * m2) - 3.0)
    return {"variance_slope": slope, "lag1_increment_corr": corr,
            "excess_kurtosis": kurt, "degenerate": False}
