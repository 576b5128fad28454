"""Integration of the N-particle second-order system with fast forcing.

The system integrated here is, per particle i with common law-averaged
forcing,

    eps * x_i'' = -alpha * x_i' - grad_v(x_i, mu_hat)
                  + eps^{-1/2} * eta_bar(s, mu_hat),

where mu_hat is the ensemble's empirical measure and eta_bar(s, mu_hat) is
the mixing field averaged over mu_hat (``noise.averaged_forcing_xi``): one
shared draw evaluated under the fast clock s = t/eps.

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

Randomness comes from counter-based streams, one per block of replicas;
the replica sweep (`run_eps_replicas`) draws them in the order that
``rng.block_draws`` carries out and advances many replicas in lock-step,
whatever the batch.  It integrates exactly the ``cfg.N`` particles it is
handed: how many particles a sample needs is decided by the caller
(``harness``), not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng as _rng
from .core import ParticleEnsemble, PotentialSpec, RunConfig, grad_v_batch
from .errors import NumericError, UsageError
from .noise import (DriverState, NoiseModel, advance_xi, averaged_forcing_xi,
                    stationary_xi)

__all__ = [
    "EpsScheme",
    "InitialLaw",
    "StepReport",
    "paired_scheme_gap",
    "run_eps_replicas",
    "step",
]


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


def _total_force(model, pot, X, xi, inv_sqrt_eps, out=None, tmp=None):
    """F_i = -grad_v(X_i, mu_hat) + eps^{-1/2} * law-averaged field.

    The forcing part is computed once and shared by every particle of a
    replica.  Returns (force, scaled_forcing) with the latter kept for the
    step report; the force is written to ``out`` when given.
    """
    grad = grad_v_batch(pot, X, out=out, tmp=tmp)
    bar = averaged_forcing_xi(model, xi, X)  # (..., d)
    scaled = inv_sqrt_eps * bar
    return np.subtract(scaled[..., None, :], grad, out=grad), scaled


class _Advance:
    """One exponential step on arrays, in place; leading batch axes broadcast.

    The step constants are computed once.  Each call overwrites X, Y, the
    force F and the scratch buffer ``tmp`` (all of one shape), with the
    floating-point operations in the order of the closed forms in the
    module docstring, so the results do not depend on buffering.
    """

    def __init__(self, h: float, eps: float, alpha: float):
        a = alpha * h / eps
        self.alpha = alpha
        self.r = math.exp(-a)
        self.one_minus_r = -math.expm1(-a)
        self.eps_alpha = eps / alpha
        self.x_force = h - (eps / alpha) * self.one_minus_r

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
    F, scaled = _total_force(model, pot, ens.positions, drv.xi, inv_sqrt_eps)
    X2, Y2 = ens.positions.copy(), ens.velocities.copy()
    _Advance(sch.h, eps, alpha)(X2, Y2, F, np.empty_like(X2))
    z = rng.standard_normal(drv.xi.shape)
    xi2 = advance_xi(drv.xi, model, sch.h / eps, z)
    out = ParticleEnsemble(positions=X2, velocities=Y2, time=ens.time + sch.h, eps=eps)
    out.check_finite()
    drv2 = DriverState(xi=xi2, fast_time=drv.fast_time + sch.h / eps)
    report = StepReport(
        time=out.time,
        forcing_norm=float(np.linalg.norm(scaled)),
        max_speed=float(np.max(np.linalg.norm(Y2, axis=-1))),
        energy_proxy=float(np.mean(np.sum(Y2 * Y2, axis=-1)) * eps),
    )
    return out, drv2, report


def _n_steps(T: float, h: float) -> int:
    n = int(round(T / h))
    if abs(n * h - T) > 1e-9 * T:
        n = math.ceil(T / h - 1e-12)
    return max(n, 1)


def _check_finite(message, ids, eps, *state):
    """Raise ``NumericError(message)`` naming ``eps`` and the first replica
    of ``ids`` (the first axis of each state array) with a non-finite value."""
    finite = np.logical_and.reduce([np.isfinite(a).all(axis=(1, 2)) for a in state])
    if not finite.all():
        raise NumericError(message, replica=ids[int(np.argmin(finite))], eps=eps)


def run_eps_replicas(cfg: RunConfig, model: NoiseModel, pot: PotentialSpec,
                     sch_kind: str, init: InitialLaw, replica_ids,
                     stream_path, *, batch_size: int | None = None, recorder=None):
    """Replica sweep of the second-order system, advanced in lock-step by
    the exponential scheme (``sch_kind`` "exponential", its only value).

    ``stream_path`` is a tuple prefix (purpose code plus optional indices)
    under which the replicas draw by blocks, in the order that
    ``rng.block_draws`` carries out: its starts are the positions
    (s, N, d) and then the driver values (s,) + driver shape, and its
    per-step normals are driver-shaped.  So ``replica_ids`` must be whole
    blocks, consecutive from a multiple of the block size, and only the
    sample's last block may be short.  The replicas are advanced
    ``batch_size`` at a time (a multiple of the block size), all of them
    in one batch when it is ``None``; the results do not depend on the
    batch.  ``recorder``, when given, is called as
    ``recorder(replica_ids_batch, step_index, time, X, Y, xi)`` after the
    initial state and after every step, with ``xi`` the driver values at
    that time (shape (B,) + driver shape); X, Y and xi are updated in place
    afterwards, so a recorder copies whatever it keeps.

    Returns terminal positions and velocities, each of shape (R, N, d).
    """
    replica_ids = list(replica_ids)
    block = _rng.block_size(stream_path[0])
    if batch_size is not None and batch_size % block:
        raise UsageError(f"batch_size {batch_size} is not a multiple of the "
                         f"{block}-replica stream block")
    sch = EpsScheme(sch_kind, cfg.eps_step)
    n = _n_steps(cfg.T, sch.h)
    delta_s = sch.h / cfg.eps
    inv_sqrt_eps = 1.0 / math.sqrt(cfg.eps)
    advance = _Advance(sch.h, cfg.eps, cfg.alpha)
    Y0 = init.velocities(cfg.N, cfg.d)
    out_pos = np.empty((len(replica_ids), cfg.N, cfg.d))
    out_vel = np.empty_like(out_pos)
    batch_size = batch_size or max(1, len(replica_ids))
    for start in range(0, len(replica_ids), batch_size):
        ids = replica_ids[start : start + batch_size]
        X, xi, steps = _rng.block_draws(
            cfg.seed, stream_path, ids, n, model.driver_shape,
            lambda gen, s: init.draw_positions(cfg.N, cfg.d, gen, reps=s),
            lambda gen, s: stationary_xi(model, gen, reps=s))
        Y = np.broadcast_to(Y0, X.shape).copy()
        F, tmp = np.empty_like(X), np.empty_like(X)
        t = 0.0
        if recorder is not None:
            recorder(ids, 0, t, X, Y, xi)
        try:
            for k, z in enumerate(steps):
                _total_force(model, pot, X, xi, inv_sqrt_eps, F, tmp)
                advance(X, Y, F, tmp)
                advance_xi(xi, model, delta_s, z, out=xi)
                t += sch.h
                if recorder is not None:
                    recorder(ids, k + 1, t, X, Y, xi)
        except NumericError as err:
            _check_finite(str(err), ids, cfg.eps, X, Y)
            raise
        _check_finite("replica sweep produced non-finite state", ids, cfg.eps, X, Y)
        out_pos[start : start + len(ids)] = X
        out_vel[start : start + len(ids)] = Y
    return out_pos, out_vel


def paired_scheme_gap(cfg: RunConfig, model: NoiseModel, pot: PotentialSpec,
                      *, h0_coarse: float = 0.05, h0_fine: float = 0.01,
                      init: InitialLaw | None = None, seed_index: int = 0):
    """Exponential vs Euler terminal ensembles on one shared driver path.

    The exponential half is replica ``seed_index`` of ``run_eps_replicas``
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

    def record(ids, k, t, X, Y, xi):
        if k == 0:
            start.extend((X[0].copy(), Y[0].copy()))
        drivers.append(xi[0].copy())

    (Xe,), (Ye,) = run_eps_replicas(coarse, model, pot, "exponential",
                                    init or InitialLaw(), [seed_index], (_rng.PAIRED,),
                                    recorder=record)
    del drivers[-1]  # the driver after the last step drives nothing
    Xu, Yu = start
    F, tmp = np.empty_like(Xu), np.empty_like(Xu)
    inv_sqrt_eps = 1.0 / math.sqrt(cfg.eps)
    for xi in drivers:
        bar_u = inv_sqrt_eps * averaged_forcing_xi(model, xi, Xu)
        for _ in range(ratio):
            grad_v_batch(pot, Xu, out=F, tmp=tmp)
            np.subtract(bar_u[..., None, :], F, out=F)
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
