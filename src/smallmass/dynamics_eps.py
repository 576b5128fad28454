"""Integration of the N-particle second-order system with fast forcing.

The system integrated here is, per particle i with common law-averaged
forcing,

    eps * x_i'' = -alpha * x_i' - grad_v(x_i, mu_hat)
                  + eps^{-1/2} * eta_bar(s, mu_hat),

where mu_hat is the ensemble's empirical measure and eta_bar(s, mu_hat) is
the mixing field averaged over mu_hat (``noise.averaged_forcing_xi``): one
shared draw evaluated under the fast clock s = t/eps.  Each step evaluates
it once, in ``_forcing``, which spreads it over the particles and hands it
to the force, the recorder of ``run_eps_replicas``, the step report and
the Euler half of ``paired_scheme_gap``.  Giving each particle its own
driver changes that one helper and the draw shapes.

The scheme is exponential: it discretizes the variation-of-constants
form of the velocity equation.  With the total force F frozen at the left
endpoint of the step and r = exp(-alpha*h/eps),

    Y <- Y*r + (F/alpha)*(1 - r)
    X <- X + (eps/alpha)*Y_old*(1 - r) + (F/alpha)*(h - (eps/alpha)*(1 - r)),

which is exact for constant F and unconditionally stable; with zero force
it reproduces the homogeneous relaxation to machine precision for any h.
Explicit Euler lives only in the cross-check (``paired_scheme_gap``),
where it additionally requires h < 2*eps/alpha for stability of the
velocity relaxation.

Step-size law: accuracy (not stability) ties the step to the fast scale,
h = h0 * eps with h0 <= 0.2, because the frozen forcing must resolve the
driver's oscillation.

Randomness comes from keyed streams (``rng``), one per block of replicas
and eps row; the replica sweep (``run_eps_sweep``) draws them in the order
that ``rng.sweep_draws`` carries out and advances many replicas in
lock-step, whatever the batch.  It advances every eps row of a grid in
one step loop on a (rows, B, N, d) state: each row's step constants come
from the scalar expressions of ``_Advance`` and ``noise.driver_step`` and
scale that row alone (``_row_constant``), and the rows run in descending
step count, so those still running are a prefix of the stack.  A row
therefore gets the bits it gets when it runs alone, which is what
``run_eps_replicas`` does: the same loop over one row.  The kernel
integrates exactly the N particles it is handed: how many particles a
sample needs is decided by the caller (``harness``), not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng as _rng
from .core import (ParticleEnsemble, PotentialSpec, RunConfig, _per_particle,
                   grad_v_batch)
from .errors import NumericError, UsageError
from .noise import (DriverState, NoiseModel, advance_xi, averaged_forcing_xi,
                    driver_step, stationary_xi)

__all__ = [
    "EpsScheme",
    "InitialLaw",
    "StepReport",
    "paired_scheme_gap",
    "run_eps_replicas",
    "run_eps_sweep",
    "step",
]

# Most steps of a Green-Kubo grid, an eps row or a limit run: a C int, as
# every count of a config.
MAX_STEPS = 2**31 - 1


@dataclass(frozen=True)
class EpsScheme:
    """Slow-time step of the second-order system; ``kind`` names the
    scheme, and "exponential" is the only one."""

    kind: str
    h: float

    def __post_init__(self):
        # The exponential scheme is unconditionally stable; its accuracy
        # cap (h <= 0.2 * eps) is enforced where runs are configured, so
        # that exactness checks may use arbitrary steps.
        if self.kind != "exponential":
            raise UsageError(f"unknown scheme kind: {self.kind!r}")
        if self.h <= 0.0:
            raise UsageError("step must be > 0")


@dataclass(frozen=True)
class StepReport:
    """Per-step diagnostics of the quantities the moment bounds control."""

    time: float
    forcing_norm: float  # ||eps^{-1/2} * averaged forcing||
    max_speed: float
    energy_proxy: float  # mean ||sqrt(eps) * velocity||^2


@dataclass(frozen=True)
class InitialLaw:
    """Initial ensemble law: Gaussian positions, deterministic velocities.

    The deterministic (x0, y0) initial condition is the zero-variance
    special case.  Velocities default to zero to suppress the order-eps
    initial layer in convergence studies.
    """

    position_mean: float | np.ndarray = 0.0
    position_std: float = 1.0
    velocity: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.position_std < 0.0:
            raise UsageError("position_std must be >= 0")

    def draw_positions(self, n: int, d: int, rng, reps: int | None = None) -> np.ndarray:
        """(n, d) positions, or ``reps`` sets of them in one (reps, n, d) draw."""
        # The normal draw is always consumed so stream alignment does not
        # depend on position_std.
        z = rng.standard_normal((n, d) if reps is None else (reps, n, d))
        return np.asarray(self.position_mean, dtype=float) + self.position_std * z

    def velocities(self, n: int, d: int) -> np.ndarray:
        return np.broadcast_to(
            np.asarray(self.velocity, dtype=float), (n, d)
        ).astype(float).copy()


def _forcing(model, X, xi, inv_sqrt_eps):
    """The law-averaged forcing of driver ``xi`` over the particles ``X``
    (..., N, d), shape (..., d), and eps^{-1/2} times it spread over the
    particles, (..., N, d); ``inv_sqrt_eps`` is a float, or for a stack of
    rows a ``_row_constant`` of the forcing's shape.

    This is the one place where a step evaluates its forcing: the kernel's
    force, its recorder, the step report and the cross-check's Euler half
    all take it from here.  The spread is a contiguous copy
    (``_per_particle``), so the subtract that follows reads two arrays of
    one layout instead of a stride-0 broadcast with an inner loop of
    length d; the bits are those of the broadcast
    ``(inv_sqrt_eps * bar)[..., None, :]``.
    """
    bar = averaged_forcing_xi(model, xi, X)
    return bar, _per_particle(inv_sqrt_eps * bar, X.shape[-2])


def _total_force(pot, X, spread, out=None, tmp=None):
    """F_i = -grad_v(X_i, mu_hat) + eps^{-1/2} * law-averaged field, with
    the forcing as ``_forcing`` spreads it; written to ``out`` when given."""
    return np.subtract(spread, grad_v_batch(pot, X, out=out, tmp=tmp), out=out)


class _Advance:
    """One exponential step on arrays, in place; leading batch axes broadcast.

    The step constants are computed once, from one row's h and eps, by the
    scalar ``math`` expressions below; ``rows`` lays several rows'
    constants out over a state of those rows.  Each call overwrites X, Y,
    the force F and the scratch buffer ``tmp`` (all of one shape), with the
    floating-point operations in the order of the closed forms in the
    module docstring, so the results do not depend on buffering or on the
    other rows.
    """

    CONSTANTS = ("alpha", "r", "one_minus_r", "eps_alpha", "x_force")

    def __init__(self, h: float, eps: float, alpha: float):
        a = alpha * h / eps
        self.alpha = alpha
        self.r = math.exp(-a)
        self.one_minus_r = -math.expm1(-a)
        self.eps_alpha = eps / alpha
        self.x_force = h - (eps / alpha) * self.one_minus_r

    @classmethod
    def rows(cls, advances, shape) -> "_Advance":
        """The step of a many-row state of ``shape`` whose row j steps as
        ``advances[j]``; its constants are ``_row_constant``s."""
        out = cls.__new__(cls)
        for name in cls.CONSTANTS:
            setattr(out, name, _row_constant([getattr(a, name) for a in advances], shape))
        return out

    def __call__(self, X, Y, F, tmp):
        F /= self.alpha
        np.multiply(Y, self.eps_alpha, out=tmp)
        tmp *= self.one_minus_r
        X += tmp
        np.multiply(F, self.x_force, out=tmp)
        X += tmp
        Y *= self.r
        np.multiply(F, self.one_minus_r, out=tmp)
        Y += tmp


def _row_constant(values, shape) -> np.ndarray:
    """Per-row floats ``values`` as the factor that scales each row of a
    many-row array of ``shape`` (rows first) by its own value: a 0-d array
    where every row has the same value, else a contiguous array of
    ``shape`` holding each row's value over its row.

    Either way NumPy runs the multiply on its path for operands of one
    shape.  A (rows, 1, ...) factor would take its broadcasting path
    instead, which cost 2.1 us against 1.0 us for the full factor at
    4 x 512 doubles, and 14.4 us against 8.8 us at 4 x 4096 (a 2-vCPU Xeon
    VM).  A 0-d factor also beats a Python float: 0.83 against 0.96 us at
    4 x 512.
    """
    if all(v == values[0] for v in values):
        return np.array(values[0])
    return np.repeat(np.array(values, dtype=float), math.prod(shape[1:])).reshape(shape)


def step(ens: ParticleEnsemble, model: NoiseModel, drv: DriverState,
         pot: PotentialSpec, sch: EpsScheme, alpha: float, rng):
    """Advance the ensemble by one step; returns (ensemble, driver, report).

    The driver must sit on the ensemble's fast clock (fast_time = time/eps);
    it is advanced by h/eps after the forcing has been evaluated at the
    left endpoint.
    """
    eps = ens.eps
    expected = ens.time / eps
    if abs(drv.fast_time - expected) > 1e-9 * (1.0 + abs(expected)):
        raise UsageError(
            f"driver fast_time {drv.fast_time:g} is not the ensemble clock {expected:g}"
        )
    inv_sqrt_eps = 1.0 / math.sqrt(eps)
    bar, spread = _forcing(model, ens.positions, drv.xi, inv_sqrt_eps)
    F = _total_force(pot, ens.positions, spread)
    X2, Y2 = ens.positions.copy(), ens.velocities.copy()
    _Advance(sch.h, eps, alpha)(X2, Y2, F, np.empty_like(X2))
    z = rng.standard_normal(drv.xi.shape)
    xi2 = advance_xi(drv.xi, model, sch.h / eps, z)
    out = ParticleEnsemble(positions=X2, velocities=Y2, time=ens.time + sch.h, eps=eps)
    out.check_finite()
    drv2 = DriverState(xi=xi2, fast_time=drv.fast_time + sch.h / eps)
    report = StepReport(
        time=out.time,
        forcing_norm=float(np.linalg.norm(inv_sqrt_eps * bar)),
        max_speed=float(np.max(np.linalg.norm(Y2, axis=-1))),
        energy_proxy=float(np.mean(np.sum(Y2 * Y2, axis=-1)) * eps),
    )
    return out, drv2, report


def _check_step_count(T: float, h: float) -> float:
    """T / h, where it is at most ``MAX_STEPS``; raises ``UsageError``
    where it is more, or not finite."""
    steps = T / h
    if not steps <= MAX_STEPS:
        raise UsageError(f"T / h = {T!r} / {h!r} is {steps:.3g} steps; at most "
                         f"{MAX_STEPS} are allowed")
    return steps


def _n_steps(T: float, h: float) -> int:
    n = int(round(_check_step_count(T, h)))
    if abs(n * h - T) > 1e-9 * T:
        n = math.ceil(T / h - 1e-12)
    return max(n, 1)


def _check_finite(message, ids, eps, *state):
    """Raise ``NumericError(message)`` naming ``eps`` and the first replica
    of ``ids`` (the first axis of each state array) with a non-finite value."""
    finite = np.logical_and.reduce([np.isfinite(a).all(axis=(1, 2)) for a in state])
    if not finite.all():
        raise NumericError(message, replica=ids[int(np.argmin(finite))], eps=eps)


def run_eps_sweep(runs, model: NoiseModel, pot: PotentialSpec, init: InitialLaw,
                  replica_ids, stream_paths, *, batch_size: int | None = None,
                  recorder=None):
    """Replica sweep of the second-order system over a stack of rows,
    advanced in lock-step by the exponential scheme.

    Row j is the run ``runs[j]`` drawn on ``stream_paths[j]`` and stepped
    by its ``eps_step``; the rows differ only by eps and h0, and each gives
    ``replica_ids`` the bits that ``run_eps_replicas`` gives them on that
    row alone.  Each stream path is a tuple prefix (purpose code plus
    optional indices) under which the replicas draw by blocks, in the
    order that ``rng.sweep_draws`` carries out: its starts are the
    positions (s, N, d) and then the driver values (s,) + driver shape,
    and its per-step normals are driver-shaped.  So ``replica_ids`` must be
    whole blocks, consecutive from a multiple of the block size, and only
    the sample's last block may be short.  The replicas are advanced
    ``batch_size`` at a time (a multiple of the block size), all of them in
    one batch when it is ``None``; the results do not depend on the batch.

    The rows share one step loop on a (rows, B, N, d) state, ordered by
    descending step count, so the rows still running are a prefix: each
    row's step constants scale its own slab (``_row_constant``), and a row
    that has taken its last step leaves the prefix and is not touched
    again.  The state of all rows is held at once, so a batch holds rows
    times the memory of one row.

    ``recorder`` follows one row, so it needs ``runs`` of length one.  It
    is called as ``recorder(replica_ids_batch, k, time, X, Y, xi,
    forcing)`` once per step k = 0..n-1, after the step's force is
    evaluated and before the advance, and once more at k = n after the
    last step.  X, Y and ``xi`` (shape (B,) + driver shape) are the state
    at that time, and ``forcing`` (B, d) is the unscaled law-averaged
    forcing that drives step k (``_forcing``), ``None`` at k = n, which
    drives nothing.  The arrays are updated in place afterwards, so a
    recorder copies whatever it keeps.

    Returns terminal positions and velocities, each of shape
    (rows, R, N, d), rows in the order of ``runs``.  A non-finite state
    raises ``NumericError`` naming the eps of the first such row and its
    first non-finite replica.
    """
    runs, paths = list(runs), list(stream_paths)
    if not runs or len(runs) != len(paths):
        raise UsageError(f"a sweep needs one stream path per run, got {len(runs)} runs "
                         f"and {len(paths)} paths")
    base = runs[0]
    if any(replace(rc, eps=base.eps, h0=base.h0) != base for rc in runs):
        raise UsageError("the runs of a sweep may differ only by eps and h0")
    if recorder is not None and len(runs) > 1:
        raise UsageError(f"a recorder follows one row; the sweep has {len(runs)}")
    replica_ids = list(replica_ids)
    block = _rng.block_size(paths[0][0])
    if batch_size is not None and batch_size % block:
        raise UsageError(f"batch_size {batch_size} is not a multiple of the "
                         f"{block}-replica stream block")
    counts = [_n_steps(rc.T, rc.eps_step) for rc in runs]
    order = sorted(range(len(runs)), key=lambda j: -counts[j])
    at = np.argsort(order)  # row j of ``runs`` is row at[j] of the stack
    n = [counts[j] for j in order]
    h = runs[order[0]].eps_step
    advances = [_Advance(runs[j].eps_step, runs[j].eps, base.alpha) for j in order]
    scales = [1.0 / math.sqrt(runs[j].eps) for j in order]
    drives = [driver_step(model, runs[j].eps_step / runs[j].eps) for j in order]

    def prefix(a, X, Y, F, tmp, xi):
        """The first a rows of the state, and their step constants."""
        state = X[:a], Y[:a], F[:a], tmp[:a], xi[:a]
        bar_shape = X.shape[1:2] + X.shape[3:]
        return state, (_Advance.rows(advances[:a], state[0].shape),
                       _row_constant(scales[:a], (a,) + bar_shape),
                       _row_constant([r for r, _ in drives[:a]], state[4].shape),
                       _row_constant([c for _, c in drives[:a]], state[4].shape))

    Y0 = init.velocities(base.N, base.d)
    out_pos = np.empty((len(runs), len(replica_ids), base.N, base.d))
    out_vel = np.empty_like(out_pos)
    batch_size = batch_size or max(1, len(replica_ids))
    for start in range(0, len(replica_ids), batch_size):
        ids = replica_ids[start : start + batch_size]
        X, xi, normals = _rng.sweep_draws(
            base.seed, [paths[j] for j in order], ids, n, model.driver_shape,
            lambda gen, s: init.draw_positions(base.N, base.d, gen, reps=s),
            lambda gen, s: stationary_xi(model, gen, reps=s))
        Y = np.broadcast_to(Y0, X.shape).copy()
        F, tmp = np.empty_like(X), np.empty_like(X)
        a = len(n)
        state, consts = prefix(a, X, Y, F, tmp, xi)
        if recorder is not None:
            seen = X[0], Y[0], xi[0]
        t = 0.0
        try:
            for k, z in enumerate(normals):
                if k == n[a - 1]:
                    while n[a - 1] == k:
                        a -= 1
                    state, consts = prefix(a, X, Y, F, tmp, xi)
                Xa, Ya, Fa, tmpa, xia = state
                advance, scale, decay, kick = consts
                bar, spread = _forcing(model, Xa, xia, scale)
                _total_force(pot, Xa, spread, Fa, tmpa)
                if recorder is not None:
                    recorder(ids, k, t, *seen, bar[0])
                advance(Xa, Ya, Fa, tmpa)
                xia *= decay
                z *= kick
                xia += z
                t += h
            if recorder is not None:
                recorder(ids, n[0], t, *seen, None)
        except NumericError as err:
            for j, rc in enumerate(runs):
                _check_finite(str(err), ids, rc.eps, X[at[j]], Y[at[j]])
            raise
        for j, rc in enumerate(runs):
            _check_finite("replica sweep produced non-finite state", ids, rc.eps,
                          X[at[j]], Y[at[j]])
        out_pos[:, start : start + len(ids)] = X[at]
        out_vel[:, start : start + len(ids)] = Y[at]
    return out_pos, out_vel


def run_eps_replicas(cfg: RunConfig, model: NoiseModel, pot: PotentialSpec,
                     sch_kind: str, init: InitialLaw, replica_ids,
                     stream_path, *, batch_size: int | None = None, recorder=None):
    """``run_eps_sweep`` over the one row ``cfg`` on ``stream_path``;
    returns its terminal positions and velocities, each of shape (R, N, d).
    ``sch_kind`` must be "exponential", the sweep's scheme."""
    EpsScheme(sch_kind, cfg.eps_step)
    pos, vel = run_eps_sweep([cfg], model, pot, init, replica_ids, [stream_path],
                             batch_size=batch_size, recorder=recorder)
    return pos[0], vel[0]


def paired_scheme_gap(cfg: RunConfig, model: NoiseModel, pot: PotentialSpec,
                      *, h0_coarse: float = 0.05, h0_fine: float = 0.01,
                      init: InitialLaw | None = None):
    """Exponential vs Euler terminal ensembles on one shared driver path.

    The exponential half is replica 0 of ``run_eps_replicas``
    on the path ``(PAIRED,)``, one replica per stream, at step
    h0_coarse * eps (so h0_coarse <= 0.2); its recorder keeps the initial
    state and each step's driver value.  The explicit Euler half takes
    h0_coarse/h0_fine substeps of length h inside each of those steps,
    re-evaluating the drift but holding the forcing value; it needs
    h < 2*eps/alpha.  This isolates the integrator difference from
    forcing-resolution noise, which is the point of the cross-check.

    Returns (exponential ensemble, euler ensemble, rms position gap).
    """
    ratio = h0_coarse / h0_fine
    if abs(ratio - round(ratio)) > 1e-9:
        raise UsageError("h0_coarse must be an integer multiple of h0_fine")
    ratio = int(round(ratio))
    coarse = replace(cfg, h0=h0_coarse)
    h = coarse.eps_step / ratio
    if h >= 2.0 * cfg.eps / cfg.alpha:
        raise UsageError(
            f"euler step h={h:g} violates h < 2*eps/alpha = {2.0 * cfg.eps / cfg.alpha:g}")
    h_eps = h / cfg.eps
    start, drivers = [], []

    def record(ids, k, t, X, Y, xi, forcing):
        if k == 0:
            start.extend((X[0].copy(), Y[0].copy()))
        drivers.append(xi[0].copy())

    (Xe,), (Ye,) = run_eps_replicas(coarse, model, pot, "exponential",
                                    init or InitialLaw(), [0], (_rng.PAIRED,),
                                    recorder=record)
    del drivers[-1]  # the driver after the last step drives nothing
    Xu, Yu = start
    F, tmp = np.empty_like(Xu), np.empty_like(Xu)
    inv_sqrt_eps = 1.0 / math.sqrt(cfg.eps)
    for xi in drivers:
        _, spread = _forcing(model, Xu, xi, inv_sqrt_eps)
        for _ in range(ratio):
            _total_force(pot, Xu, spread, F, tmp)
            # X += h Y, then Y += (h/eps) (F - alpha Y), on the old Y
            np.multiply(Yu, h, out=tmp)
            Xu += tmp
            np.multiply(Yu, -cfg.alpha, out=tmp)
            tmp += F
            tmp *= h_eps
            Yu += tmp
    t_end = len(drivers) * coarse.eps_step
    ens_e = ParticleEnsemble(positions=Xe, velocities=Ye, time=t_end, eps=cfg.eps)
    ens_u = ParticleEnsemble(positions=Xu, velocities=Yu, time=t_end, eps=cfg.eps)
    gap = float(np.sqrt(np.mean(np.sum((Xe - Xu) ** 2, axis=-1))))
    return ens_e, ens_u, gap
