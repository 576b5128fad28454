"""Integration of the N-particle second-order system with fast forcing.

The system integrated here is, per particle i with common law-averaged
forcing,

    eps * x_i'' = -alpha * x_i' - grad_v(x_i, mu_hat)
                  + eps^{-1/2} * eta_bar(s, mu_hat),

where mu_hat is the ensemble's empirical measure and eta_bar(s, mu_hat) is
the mixing field averaged over mu_hat (``noise.averaged_forcing_xi``): one
shared draw evaluated under the fast clock s = t/eps.

Two schemes are provided.  The exponential scheme discretizes the
variation-of-constants form of the velocity equation: with the total force
F frozen at the left endpoint of the step and r = exp(-alpha*h/eps),

    Y <- Y*r + (F/alpha)*(1 - r)
    X <- X + (eps/alpha)*Y_old*(1 - r) + (F/alpha)*(h - (eps/alpha)*(1 - r)),

which is exact for constant F and unconditionally stable; with zero force
it reproduces the homogeneous relaxation to machine precision for any h.
The explicit Euler scheme is the cross-check; it additionally requires
h < 2*eps/alpha for stability of the velocity relaxation.

Step-size law: accuracy (not stability) ties the step to the fast scale,
h = h0 * eps with h0 <= 0.2, because the frozen forcing must resolve the
driver's oscillation.  The exponential scheme is therefore the default.

Per-replica randomness comes from counter-based streams; the replica sweep
(`run_eps_replicas`) pre-draws each replica's normals in a fixed order and
advances many replicas in lock-step, which is bit-identical to stepping the
replicas one at a time.
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
    "build_scheme",
    "paired_scheme_gap",
    "run_eps_replicas",
    "step",
]


@dataclass(frozen=True)
class EpsScheme:
    """Scheme kind and slow-time step for the second-order system."""

    kind: str  # exponential | euler
    h: float

    def __post_init__(self):
        if self.kind not in ("exponential", "euler"):
            raise UsageError(f"unknown scheme kind: {self.kind!r}")
        if self.h <= 0.0:
            raise UsageError("step must be > 0")

    def validate(self, eps: float, alpha: float):
        # Stability constraint of the explicit velocity update.  The
        # exponential scheme is unconditionally stable; its accuracy cap
        # (h <= 0.2 * eps) is enforced where runs are configured, so that
        # exactness checks may use arbitrary steps.
        if self.kind == "euler" and self.h >= 2.0 * eps / alpha:
            raise UsageError(
                f"euler step h={self.h:g} violates h < 2*eps/alpha = {2.0 * eps / alpha:g}"
            )


def build_scheme(cfg: RunConfig, kind: str) -> EpsScheme:
    """Scheme with the configured step law h = h0 * eps."""
    sch = EpsScheme(kind=kind, h=cfg.eps_step)
    sch.validate(cfg.eps, cfg.alpha)
    return sch


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

    def draw_positions(self, n: int, d: int, rng) -> np.ndarray:
        # The normal draw is always consumed so stream alignment does not
        # depend on position_std.
        z = rng.standard_normal((n, d))
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
    """One scheme step on arrays, in place; leading batch axes broadcast.

    The step constants are computed once.  Each call overwrites X, Y, the
    force F and the scratch buffer ``tmp`` (all of one shape), with the
    floating-point operations in the order of the closed forms in the
    module docstring, so the results do not depend on buffering.
    """

    def __init__(self, kind: str, h: float, eps: float, alpha: float):
        self.kind, self.h, self.alpha = kind, h, alpha
        if kind == "exponential":
            a = alpha * h / eps
            self.r = math.exp(-a)
            self.one_minus_r = -math.expm1(-a)
            self.eps_alpha = eps / alpha
            self.x_force = h - (eps / alpha) * self.one_minus_r
        else:
            self.h_eps = h / eps

    def __call__(self, X, Y, F, tmp):
        if self.kind == "exponential":
            F /= self.alpha
            np.multiply(Y, self.eps_alpha, out=tmp)
            tmp *= self.one_minus_r
            X += tmp
            np.multiply(F, self.x_force, out=tmp)
            X += tmp
            Y *= self.r
            np.multiply(F, self.one_minus_r, out=tmp)
            Y += tmp
        else:
            np.multiply(Y, self.h, out=tmp)
            X += tmp
            np.multiply(Y, -self.alpha, out=tmp)
            tmp += F
            tmp *= self.h_eps
            Y += tmp


def step(ens: ParticleEnsemble, model: NoiseModel, drv: DriverState,
         pot: PotentialSpec, sch: EpsScheme, alpha: float, rng):
    """Advance the ensemble by one step; returns (ensemble, driver, report).

    The driver must sit on the ensemble's fast clock (fast_time = time/eps);
    it is advanced by h/eps after the forcing has been evaluated at the
    left endpoint.
    """
    if ens.is_limit_mode:
        raise UsageError("step requires a second-order ensemble (with velocities)")
    eps = ens.eps
    sch.validate(eps, alpha)
    expected = ens.time / eps
    if abs(drv.fast_time - expected) > 1e-9 * (1.0 + abs(expected)):
        raise UsageError(
            f"driver fast_time {drv.fast_time:g} is not the ensemble clock {expected:g}"
        )
    inv_sqrt_eps = 1.0 / math.sqrt(eps)
    F, scaled = _total_force(model, pot, ens.positions, drv.xi, inv_sqrt_eps)
    X2, Y2 = ens.positions.copy(), ens.velocities.copy()
    _Advance(sch.kind, sch.h, eps, alpha)(X2, Y2, F, np.empty_like(X2))
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


def _particle_local(model: NoiseModel, pot: PotentialSpec, recorder) -> bool:
    """Whether each particle's path depends on no other particle's.

    A quadratic potential has no mean-field term and scalar-ou forcing is
    the driver value itself, so particles share only the driver path.  A
    recorder may look at every particle, so it turns the test off.
    """
    return pot.kind == "quadratic" and model.kind == "scalar-ou" and recorder is None


def run_eps_replicas(cfg: RunConfig, model: NoiseModel, pot: PotentialSpec,
                     sch_kind: str, init: InitialLaw, replica_ids,
                     stream_path, *, batch_size: int = 64, recorder=None,
                     keep: int | None = None):
    """Replica sweep of the second-order system, advanced in fixed batches.

    ``stream_path`` is a tuple prefix (purpose code plus optional indices);
    replica r draws from ``stream(seed, *stream_path, r)``.  Results are
    bit-identical to running replicas one at a time through ``step``,
    because every replica's normals are pre-drawn from its own stream in
    the order ``step`` consumes them (positions, driver start, then one
    driver draw per step).  ``recorder``, when given, is called as
    ``recorder(replica_ids_batch, step_index, time, X, Y, xi)`` after the
    initial state and after every step, with ``xi`` the driver values at
    that time (shape (B,) + driver shape); X, Y and xi are updated in place
    afterwards, so a recorder copies whatever it keeps.

    ``keep`` is the number of leading particles per replica the caller
    needs.  When the dynamics are particle-local (quadratic potential,
    scalar-ou noise, no recorder) only those are integrated, from the same
    draws, so they are bit-identical to the leading particles of a full
    run.  Otherwise all N are integrated and the caller slices.

    Returns terminal positions and velocities, each of shape (R, M, d),
    with M = ``keep`` on the particle-local path and N otherwise.
    """
    if keep is not None and not 1 <= keep <= cfg.N:
        raise UsageError(f"keep must lie in [1, N={cfg.N}], got {keep}")
    replica_ids = list(replica_ids)
    M = keep if keep is not None and _particle_local(model, pot, recorder) else cfg.N
    sch = build_scheme(cfg, sch_kind)
    n = _n_steps(cfg.T, sch.h)
    delta_s = sch.h / cfg.eps
    inv_sqrt_eps = 1.0 / math.sqrt(cfg.eps)
    advance = _Advance(sch.kind, sch.h, cfg.eps, cfg.alpha)
    ds = model.driver_shape
    Y0 = init.velocities(cfg.N, cfg.d)[:M]
    out_pos = np.empty((len(replica_ids), M, cfg.d))
    out_vel = np.empty_like(out_pos)
    for start in range(0, len(replica_ids), batch_size):
        ids = replica_ids[start : start + batch_size]
        B = len(ids)
        X = np.empty((B, M, cfg.d))
        xi = np.empty((B,) + ds)
        Z = np.empty((B, n) + ds)
        for j, r in enumerate(ids):
            gen = _rng.stream(cfg.seed, *stream_path, r)
            X[j] = init.draw_positions(cfg.N, cfg.d, gen)[:M]
            xi[j] = stationary_xi(model, gen)
            Z[j] = gen.standard_normal((n,) + ds)
        Y = np.broadcast_to(Y0, X.shape).copy()
        F, tmp = np.empty_like(X), np.empty_like(X)
        t = 0.0
        if recorder is not None:
            recorder(ids, 0, t, X, Y, xi)
        try:
            for k in range(n):
                _total_force(model, pot, X, xi, inv_sqrt_eps, F, tmp)
                advance(X, Y, F, tmp)
                advance_xi(xi, model, delta_s, Z[:, k], out=xi)
                t += sch.h
                if recorder is not None:
                    recorder(ids, k + 1, t, X, Y, xi)
        except NumericError as err:
            _check_finite(str(err), ids, cfg.eps, X, Y)
            raise
        _check_finite("replica sweep produced non-finite state", ids, cfg.eps, X, Y)
        out_pos[start : start + B] = X
        out_vel[start : start + B] = Y
    return out_pos, out_vel


def paired_scheme_gap(cfg: RunConfig, model: NoiseModel, pot: PotentialSpec,
                      *, h0_coarse: float = 0.05, h0_fine: float = 0.01,
                      init: InitialLaw | None = None, seed_index: int = 0):
    """Exponential vs Euler terminal ensembles on one shared driver path.

    The exponential half is replica ``seed_index`` of ``run_eps_replicas``
    on the path ``(PAIRED,)`` at step h0_coarse * eps (so h0_coarse <= 0.2);
    its recorder keeps the initial state and each step's driver value.  The
    Euler half takes h0_coarse/h0_fine substeps inside each of those steps,
    re-evaluating the drift but holding the forcing value.  This isolates
    the integrator difference from forcing-resolution noise, which is the
    point of the cross-check.

    Returns (exponential ensemble, euler ensemble, rms position gap).
    """
    ratio = h0_coarse / h0_fine
    if abs(ratio - round(ratio)) > 1e-9:
        raise UsageError("h0_coarse must be an integer multiple of h0_fine")
    ratio = int(round(ratio))
    coarse = replace(cfg, h0=h0_coarse)
    adv_u = _Advance("euler", coarse.eps_step / ratio, cfg.eps, cfg.alpha)
    EpsScheme("euler", adv_u.h).validate(cfg.eps, cfg.alpha)
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
            adv_u(Xu, Yu, F, tmp)
    t_end = len(drivers) * coarse.eps_step
    ens_e = ParticleEnsemble(positions=Xe, velocities=Ye, time=t_end, eps=cfg.eps)
    ens_u = ParticleEnsemble(positions=Xu, velocities=Yu, time=t_end, eps=cfg.eps)
    gap = float(np.sqrt(np.mean(np.sum((Xe - Xu) ** 2, axis=-1))))
    return ens_e, ens_u, gap
