"""Numerical checks of the moment, decay, and increment estimates.

These diagnostics make the qualitative estimates behind the zero-mass
limit falsifiable at desk scale:

* ``moment_table``: the scaled moments E||sqrt(eps) X||^{2,4} and
  E||sqrt(eps) Y||^{2,4} stay bounded uniformly over the eps grid;
* ``uv_check``: the integrated forcing u and its exponentially filtered
  part v, computed with the integrator's own quadrature (left-endpoint
  forcing, exact exponential weights for v).  For law-dependent fields
  u and v are streamed from the forcing that the lock-step eps kernel
  (``run_eps_replicas``) hands its recorder at each step, as evaluated
  once by ``dynamics_eps._forcing``; a driver per particle changes that
  one helper.  The statistics are streamed step by step: u is held in a
  ring of the longest lag plus one chunk of steps, not for the horizon.
  E||v(T)||^2 must vanish linearly in eps, and the fourth-moment
  increment ratio E||u(t) - u(s)||^4 / |t - s| must stay bounded across
  dyadic lags;
* ``green_kubo``: the effective diffusion of the law-averaged forcing,
  G = 2 * integral of its stationary autocovariance, the executable
  surrogate for the limit noise normalization.  The components are
  independent, so G is diagonal, one integral per component.  The lagged
  products are summed by overlap-save as the driver advances: the forcing
  is held for a window of about two to four times the longest lag, not for
  the horizon;
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
from .dynamics_eps import MAX_STEPS, InitialLaw, _Advance, _n_steps, run_eps_replicas
from .errors import UsageError, require_finite
from .noise import NoiseModel, _contract_forcing, _factor_mean, advance_xi, stationary_xi

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
# Points of the time grid over which moment_table takes its sup.
_MOMENT_GRID = 48
# Fewest independent u paths the Brownian-proxy statistics accept.
BM_PROXY_MIN_PATHS = 100
# Shortest and default Green-Kubo horizon, in driver correlation times 1/gamma.
GK_MIN_HORIZON = 20.0
GK_HORIZON = 50.0
# Green-Kubo sampling step, in the same units: the trapezoid rule
# over-integrates an exponential autocovariance by about (dt gamma)^2 / 12,
# 0.02% at this step.
GK_DT = 0.05
# Most values reps * steps * d of a path buffer: green_kubo's overlap-save
# window and the ring of u of uv_check's stream.  Measured with tracemalloc,
# green_kubo holds at most 36 bytes per window value beyond its driver's
# draws, at every d (36 at d = 1, 23 at d = 2, 16 at d = 8): the window,
# three spectra of one component and the lag sums of each component, which
# hold fewer values than the window.  That is 4.5 GiB at the cap.  The
# default Green-Kubo grid, a window of 512 steps, passes at 131072 reps
# for d <= 2.
MAX_PATH_VALUES = 2**27
# Steps of u that uv_check's stream adds to its increment sums at a time.
CHUNK = 32


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Sup over a time grid of the scaled moment estimates, with CIs."""

    eps: float
    sup: dict  # key -> sup_t estimate, keys sx2 sx4 sy2 sy4
    ci: dict  # key -> 95% halfwidth of the sup-attaining entry
    n_replicas: int  # these two sizes have one reader, perfbench's tracer
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

    @property
    def ratio_max(self) -> float:
        return max(self.u_increment_ratios.values())

    @property
    def ratio_median(self) -> float:
        # np.median's bits without its import of numpy.ma (about 1.3 MB)
        r = sorted(self.u_increment_ratios.values())
        mid = len(r) // 2
        return r[mid] if len(r) % 2 else (r[mid - 1] + r[mid]) / 2


@dataclass(frozen=True, eq=False)
class GkEstimate:
    """Effective diffusion of the averaged forcing, with its provenance.

    ``G`` is the d x d diagonal matrix of the per-component integrals; its
    off-diagonal entries are exact zeros, as the forcing's components are
    independent.  ``ci_fro`` is the 95% halfwidth of the diagonal in the
    Frobenius norm, from the replicas' spread."""

    G: np.ndarray
    horizon_fast: float
    truncation_lag: float
    reps: int
    ci_fro: float


class _MomentRecorder:
    def __init__(self, n_total_steps, eps, n_replicas):
        every = max(1, n_total_steps // (_MOMENT_GRID - 1))
        self.idx = list(range(0, n_total_steps + 1, every))
        if self.idx[-1] != n_total_steps:
            self.idx.append(n_total_steps)
        self.lookup = {k: i for i, k in enumerate(self.idx)}
        self.eps = eps
        self.values = np.zeros((n_replicas, len(self.idx), 4))
        self.times = np.zeros(len(self.idx))

    def __call__(self, ids, k, t, X, Y, xi, forcing):
        slot = self.lookup.get(k)
        if slot is None:
            return
        self.times[slot] = t
        sx = self.eps * _sq_norm(X)  # ||sqrt(eps) X||^2 per particle
        sy = self.eps * _sq_norm(Y)
        block = np.stack(
            [sx.mean(axis=-1), (sx * sx).mean(axis=-1),
             sy.mean(axis=-1), (sy * sy).mean(axis=-1)], axis=-1
        )
        # the kernel's ids are consecutive (``rng.block_streams``), so a
        # slice writes them: 3.8 us against 23.9 us for a fancy index of
        # 512 ids on a 2-vCPU Xeon VM
        self.values[ids[0]:ids[-1] + 1, slot] = block


def _sq_norm(A):
    """||a||^2 over the last axis of ``A``; in d = 1 the square itself,
    which has the bits of the sum over the length-1 axis (1.1 us against
    5.1 us at (512, 4, 1)), as in ``_UvStream``."""
    sq = A * A
    return sq[..., 0] if sq.shape[-1] == 1 else np.sum(sq, axis=-1)


def moment_table(cfg: RunConfig, model: NoiseModel, pot: PotentialSpec, *,
                 reps: int = 256, init: InitialLaw | None = None, eps_index: int = 0,
                 batch_size: int | None = None) -> MomentTable:
    """Estimate sup_t of the scaled moments over ``reps`` replicas, t
    every ``n // (_MOMENT_GRID - 1)``-th of the run's n steps (every step
    where n is shorter) and the last.

    Particles within a replica share one driver path, so the effective
    sample size is the replica count; confidence halfwidths are computed
    across replicas.  The replicas run through ``run_eps_replicas``
    ``batch_size`` (a multiple of ``rng.BLOCK``) at a time, all in one
    lock-step batch by default: the kernel's normals are drawn in windows
    under a fixed budget, so a larger batch costs state memory only, and
    the values do not depend on it.  A sup or halfwidth that is not finite
    raises ``NumericError``.
    """
    if reps < 2:
        raise UsageError(f"moment_table needs reps >= 2 for its confidence halfwidths, "
                         f"got {reps}")
    init = init or InitialLaw()
    rec = _MomentRecorder(_n_steps(cfg.T, cfg.eps_step), cfg.eps, reps)
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
    require_finite("a moment_table sup or halfwidth", *sup.values(), *ci.values(), eps=cfg.eps)
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


def _uv_steps(cfg: RunConfig, lags: list[float], reps: int) -> tuple[int, list[int]]:
    """The step count n of ``uv_check``'s horizon and the distinct step
    lengths of the lags of the ladder that fit in it; raises ``UsageError``
    where the horizon or the ladder is too short, or where the stream's
    ring of u, M = ``max(steps) + CHUNK + 1`` rows of ``reps`` replicas,
    holds more than ``MAX_PATH_VALUES`` values, before anything is
    simulated."""
    h = cfg.eps_step
    n = _n_steps(cfg.T, h)
    if n < 2:
        raise UsageError(f"uv_check needs a horizon of at least 2 steps for the "
                         f"Brownian-proxy increments, got {n}")
    # Where h exceeds the shorter lags several of them round to one step
    # count; each count is kept once, in ladder order.
    steps = list(dict.fromkeys(m for m in (max(1, int(round(lag / h))) for lag in lags)
                               if m <= n))
    if not steps:
        raise UsageError("no admissible lags: horizon too short for the lag ladder")
    rows = max(steps) + CHUNK + 1
    values = rows * reps * cfg.d
    if values > MAX_PATH_VALUES:
        raise UsageError(f"uv_check's u buffer, {rows} steps of {reps} replicas in "
                         f"d = {cfg.d}, holds {values:.3g} values; at most "
                         f"{MAX_PATH_VALUES} are allowed: lower diag.lag_hi or "
                         "diag.reps")
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
    ``quadratic(1.0)``).  The statistics are streamed (``_UvStream``), so
    memory does not grow with the horizon.

    E||v||^2 is estimated by averaging over replicas and over the second
    half of the horizon; v is stationary there up to an exp(-alpha T /
    (2 eps)) transient, and the time average tightens the estimate without
    changing what is estimated.  A statistic that is not finite raises
    ``NumericError``, but for the NaNs that mark a degenerate ``bm_proxy``.
    """
    if reps < BM_PROXY_MIN_PATHS:
        raise UsageError(f"uv_check needs reps >= {BM_PROXY_MIN_PATHS} for the "
                         f"Brownian-proxy statistics, got {reps}")
    lags = lags if lags is not None else dyadic_lags()
    h = cfg.eps_step
    n, steps = _uv_steps(cfg, lags, reps)
    if model.kind == "scalar-ou":
        stream = _uv_scalar(cfg, model, reps, n, steps, eps_index)
    else:
        stream = _uv_ensemble(cfg, model, reps, n, steps, eps_index, init, pot)
    per_rep = stream.v_sq / (n - n // 2)
    v_msq = float(per_rep.mean())
    v_ci = float(1.96 * per_rep.std(ddof=1) / math.sqrt(reps))
    ratios = {m * h: float(stream.inc4[i].sum() / ((n + 1 - m) * reps)) / (m * h)
              for i, m in enumerate(steps)}
    stats = bm_proxy(stream.grid, np.arange(0, n + 1, stream.every) * h)
    # a degenerate proxy's NaN statistics are undefined, not failed
    require_finite("a uv_check statistic", v_msq, v_ci, *ratios.values(),
                   *([] if stats["degenerate"] else stats.values()), eps=cfg.eps)
    return UvReport(eps=cfg.eps, v_msq=v_msq, v_msq_ci=v_ci,
                    u_increment_ratios=ratios, bm_stats=stats)


class _UvStream:
    """Running u/v statistics under the integrator's quadrature.

    ``add`` folds the left-endpoint forcing ``eta`` of step k, one row per
    replica, into u (weight h / (alpha sqrt(eps))) and into v (the
    exponential step's own weights r and 1 - r).  Steps 0..n-1 must come in
    order, from u = v = 0.  No path is held whole; per replica the stream
    keeps

    * ``buf``, a ring of the last M = L + CHUNK + 1 values of u time-major,
      with L the longest lag of ``steps``: u(t) sits at row t mod M;
    * ``inc4``, per lag m of ``steps``, the sum of ||u(t) - u(t - m)||^4
      over t = m..n.  At the end of each chunk of CHUNK steps and at step
      n - 1 the chunk's increments of every lag are added; the rows they
      read, u(t - L) at the oldest, are not yet overwritten;
    * ``grid``, u on ``bm_proxy``'s decimated grid (every ``every``-th
      step), replica-major;
    * ``v_sq``, the sum of ||v||^2 after steps n // 2 .. n - 1, added in
      step order, so that its mean has the bits of a mean over the whole
      late path.
    """

    def __init__(self, cfg, d, reps, n, steps):
        h = cfg.eps_step
        step = _Advance(h, cfg.eps, cfg.alpha)
        self.cu = h / (cfg.alpha * math.sqrt(cfg.eps))
        self.r_fac = step.r
        self.cv = math.sqrt(cfg.eps) * step.one_minus_r / cfg.alpha**2
        self.n, self.steps = n, steps
        self.n_late_from = n // 2
        self.every = max(1, n // _BM_GRID)
        self.buf = np.zeros((max(steps) + CHUNK + 1, reps, d))
        self.inc4 = np.zeros((len(steps), reps))
        self.grid = np.zeros((reps, n // self.every + 1, d))
        self.v = np.zeros((reps, d))
        self.v_sq = np.zeros(reps)
        self.tmp = np.empty((reps, d))
        self.du = np.empty((CHUNK, reps, d))
        # In d = 1 the squared increment and ||v||^2 are their own coordinate
        # sums, so they alias the scratch: a sum over the length-1 axis cost
        # 4.4 us per step and 103 us per chunk and lag at 1024 replicas on a
        # 2-vCPU Xeon VM, about 0.08 s of diagnose on configs/diagnose.json.
        self.sq = np.empty((CHUNK, reps)) if d > 1 else self.du[:, :, 0]
        self.norm = np.empty(reps) if d > 1 else self.tmp[:, 0]

    def add(self, k, eta):
        M = len(self.buf)
        u, v, tmp = self.buf[(k + 1) % M], self.v, self.tmp
        np.add(self.buf[k % M], np.multiply(eta, self.cu, out=tmp), out=u)
        np.multiply(v, self.r_fac, out=v)
        v += np.multiply(eta, self.cv, out=tmp)
        if k >= self.n_late_from:
            np.multiply(v, v, out=tmp)
            if tmp.shape[1] > 1:
                np.sum(tmp, axis=-1, out=self.norm)
            self.v_sq += self.norm
        if (k + 1) % self.every == 0:
            self.grid[:, (k + 1) // self.every] = u
        if k % CHUNK == CHUNK - 1 or k == self.n - 1:
            self._flush(k)

    def _flush(self, k):
        """Add the increments ending at u(t), t = start + 1..k + 1, of the
        chunk that starts at step ``start``.  The rows of u(t) and of
        u(t - m) each wrap the ring at most once, so each lag subtracts in
        at most three contiguous pieces, and sums its chunk at once."""
        buf, start, end = self.buf, k - k % CHUNK, k + 1
        M = len(buf)
        for i, m in enumerate(self.steps):
            lo = max(start + 1, m)  # first t of the chunk with a u(t - m)
            count = end + 1 - lo
            if count <= 0:
                continue
            du, sq = self.du[:count], self.sq[:count]
            t = lo
            while t <= end:
                a, b = t % M, (t - m) % M
                w = min(end + 1 - t, M - a, M - b)
                np.subtract(buf[a:a + w], buf[b:b + w], out=du[t - lo:t - lo + w])
                t += w
            np.multiply(du, du, out=du)
            if du.shape[2] > 1:
                np.sum(du, axis=-1, out=sq)
            np.square(sq, out=sq)
            self.inc4[i] += np.sum(sq, axis=0)


def _driver_paths(model, seed, path, reps, n, delta_s):
    """Yield the driver values of ``reps`` stationary paths at steps 0..n-1.

    The replicas draw by blocks, in the order that ``rng.sweep_draws``
    carries out for one row: its one start is the driver values, and its
    per-step normals are driver-shaped; the paths are advanced in
    lock-step by ``delta_s``.  Under ``GK_RUN`` the blocks hold one
    replica each, so replica r draws from ``(seed, *path, r)`` alone.  The
    driver advances in place: the one (reps,) + driver_shape array yielded
    at every step holds the next step's values once the generator resumes.
    """
    (xi,), steps = _rng.sweep_draws(seed, [path], range(reps), [n], model.driver_shape,
                                    lambda gen, s: stationary_xi(model, gen, reps=s))
    for (z,) in steps:
        yield xi
        advance_xi(xi, model, delta_s, z, out=xi)


def _uv_scalar(cfg, model, reps, n, steps, eps_index):
    """The u/v stream of the x-independent field (standalone driver)."""
    stream = _UvStream(cfg, model.d, reps, n, steps)
    drivers = _driver_paths(model, cfg.seed, (_rng.UV_RUN, eps_index), reps, n,
                            cfg.eps_step / cfg.eps)
    for k, xi in enumerate(drivers):
        stream.add(k, xi)  # scalar-ou: the law average is the driver value
    return stream


def _uv_ensemble(cfg, model, reps, n, steps, eps_index, init, pot):
    """The u/v stream riding on the full particle system (law-dependent fields)."""
    stream = _UvStream(cfg, model.d, reps, n, steps)

    def record(ids, k, t, X, Y, xi, forcing):
        if forcing is not None:
            stream.add(k, forcing)

    # one lock-step batch, so each call brings every replica
    run_eps_replicas(cfg, model, pot or PotentialSpec.quadratic(1.0), "exponential",
                     init or InitialLaw(), range(reps), (_rng.UV_RUN, eps_index),
                     recorder=record)
    return stream


def _gk_grid(gamma: float, horizon_fast: float | None, reps: int, d: int,
             keys=("horizon_fast", "gamma", "reps")) -> tuple[float, float, int, int, int]:
    """The horizon, step, step count n, longest lag ``n // 5`` and window
    length S of ``green_kubo``'s fast-time grid.

    The step is ``GK_DT / gamma``; a horizon of ``None`` takes the default,
    ``GK_HORIZON / gamma``.  S is the least power of two of at least
    2 * max_lag + 1 steps.  Raises ``UsageError``, naming the horizon, the
    rate and the replica count by ``keys``, where the horizon is under
    ``GK_MIN_HORIZON / gamma``, the grid has more than ``MAX_STEPS``
    steps, or the windows of ``reps`` paths in ``d`` coordinates hold more
    than ``MAX_PATH_VALUES`` values, before anything is sampled.
    """
    h_key, rate, reps_key = keys
    if horizon_fast is None:
        horizon_fast = GK_HORIZON / gamma
    elif horizon_fast < GK_MIN_HORIZON / gamma:
        raise UsageError(f"{h_key} must be >= {GK_MIN_HORIZON:g}/{rate} = "
                         f"{GK_MIN_HORIZON / gamma:g}, got {h_key}={horizon_fast!r}")
    dt = GK_DT / gamma
    steps = horizon_fast / dt
    if steps > MAX_STEPS:
        raise UsageError(f"{h_key} / ({GK_DT:g}/{rate}) = {horizon_fast!r} / {dt!r} is a "
                         f"grid of {steps:.3g} steps; at most {MAX_STEPS} are allowed")
    n = round(steps)
    max_lag = n // 5
    S = 1 << (2 * max_lag).bit_length()  # the least power of two >= 2 max_lag + 1
    values = reps * S * d
    if values > MAX_PATH_VALUES:
        raise UsageError(f"{reps_key} = {reps} paths of {n} steps in d = {d} hold "
                         f"{reps * n * d:.3g} values; at most {MAX_PATH_VALUES} are "
                         f"allowed at once, and green_kubo's window of {S} steps per "
                         f"path holds {values:.3g}: lower {reps_key} or {h_key}")
    return horizon_fast, dt, n, max_lag, S


def green_kubo(model: NoiseModel, m_source: EmpiricalMeasure | None = None,
               horizon_fast: float | None = None, reps: int = 64,
               seed: int = 0) -> GkEstimate:
    """Effective diffusion G = 2 * integral of the forcing autocovariance.

    The averaged forcing is sampled on ``_gk_grid``'s fast-time grid, in
    steps of ``GK_DT / gamma`` and by default ``GK_HORIZON / gamma`` long,
    under the frozen measure ``m_source`` (ignored for the x-independent
    kind).  Every forcing kind has independent components, so only each
    component's own lagged products are summed and G is diagonal.  Each
    replica's products, lags 0..n // 5, are summed by overlap-save as its
    driver advances: the forcing fills a window of S steps (``_gk_grid``)
    behind the last n // 5 values, and each full window and the last one
    add one circular correlation per component (``_add_lag_products``), so
    the forcing is never held whole and the lag sums hold fewer values than
    the window.  The empirical autocovariance is averaged over ``reps``
    independent driver paths and integrated by the trapezoid rule up to the
    first lag at which its mean over the components falls below the noise
    floor estimated from the tail of the lag window.  No sample mean is
    subtracted: the drivers are centered by construction, and subtracting a
    sample mean would bias the integral downward by order 1/horizon.  A G or
    halfwidth that is not finite (a forcing whose products overflow) raises
    ``NumericError``.
    """
    if reps < 2:
        raise UsageError(f"green_kubo needs reps >= 2 for its confidence halfwidth, got {reps}")
    horizon_fast, dt, n, max_lag, S = _gk_grid(model.gamma, horizon_fast, reps, model.d)
    if model.kind != "scalar-ou" and m_source is None:
        raise UsageError(f"{model.kind} needs a frozen measure for the estimator")
    d = model.d
    # The measure is frozen, so its factor mean is taken once.
    gbar = _factor_mean(model, m_source.points if m_source is not None else None)
    # Overlap-save: rows 0..max_lag - 1 of the window hold the values before
    # the segment (zeros before step 0), rows max_lag..S - 1 its new steps.
    window = np.zeros((reps, S, d))
    sums = np.zeros((reps, max_lag + 1, d))
    end = max_lag
    for k, xi in enumerate(_driver_paths(model, seed, (_rng.GK_RUN,), reps, n, dt)):
        window[:, end] = _contract_forcing(model, xi, gbar)
        end += 1
        if end == S or k == n - 1:
            _add_lag_products(sums, window, max_lag, end)
            window[:, :max_lag] = window[:, end - max_lag:end]
            end = max_lag
    # empirical autocovariance per replica and component, no mean removal
    cov = sums / (n - np.arange(max_lag + 1))[:, None]
    cbar = cov.mean(axis=0)  # (L+1, d)
    cmean = cbar.mean(axis=1)  # over the components
    tail = cmean[int(2 * max_lag / 3):]
    below = np.nonzero(np.abs(cmean[1:]) < float(tail.std(ddof=1)))[0]
    cut = int(below[0]) + 1 if below.size else max_lag
    G = np.diag(2.0 * np.trapezoid(cbar[: cut + 1], dx=dt, axis=0))
    per_rep = 2.0 * np.trapezoid(cov[:, : cut + 1], dx=dt, axis=1)
    ci_fro = float(1.96 * np.sqrt(np.sum(per_rep.var(axis=0, ddof=1)) / reps))
    require_finite("green_kubo's G or its halfwidth", *G.flat, ci_fro)
    return GkEstimate(G=G, horizon_fast=horizon_fast, truncation_lag=float(cut * dt),
                      reps=reps, ci_fro=ci_fro)


def _add_lag_products(sums, window, max_lag, end):
    """Add eta_i(t) eta_i(t - m), m = 0..max_lag, into ``sums[:, m, i]``
    for each new step t of ``window``, rows max_lag..end - 1.

    New row u, of the new rows zero-padded to the window length S, pairs
    with window row u + max_lag - m, and no index wraps: one circular
    correlation of length S per component gives every lag at once.  One
    component's spectra are held at a time, whatever d is.
    """
    S = window.shape[1]
    for i in range(window.shape[2]):
        Y = np.fft.rfft(window[:, max_lag:end, i], n=S, axis=1)
        np.conjugate(Y, out=Y)
        X = np.fft.rfft(window[:, :end, i], n=S, axis=1)
        X *= Y
        sums[:, :, i] += np.fft.irfft(X, n=S, axis=1)[:, max_lag::-1]


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
