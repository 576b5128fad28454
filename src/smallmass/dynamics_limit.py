"""The limiting distribution-dependent SDE and its particle discretization.

The zero-mass limit of the fast-forced system is the first-order equation

    dx = -(1/alpha) * grad_v(x, mu_t) dt + sqrt(D_eff) dB,

simulated as an N-particle Euler-Maruyama system with synchronous
mean-field coupling (the law in the drift is the same-step empirical
measure).  ``D_eff`` is the per-unit-time covariance of the limit noise;
the division by alpha is already absorbed into it.

Two sources for D_eff are supported besides an explicit matrix (the
mode names are resolved in ``harness.build_mode_diffusions``):

* ``paper`` mode divides the stationary forcing covariance by the product
  of alpha^2 and the envelope decay rate at lag zero:
  D_eff = Sigma / (alpha^2 * beta);
* ``green-kubo`` mode uses the measured effective diffusion of the
  integrated forcing: D_eff = G / alpha^2 with
  G = 2 * integral of the stationary forcing autocovariance.

For an exponentially correlated driver the two differ by a factor of two;
the convergence study reports the transport distance under both so the
normalization is settled by measurement rather than by assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .core import ParticleEnsemble, PotentialSpec, RunConfig, grad_v_batch
from .dynamics_eps import InitialLaw, _check_finite, _n_steps
from .errors import NumericError, UsageError

__all__ = [
    "DiffusionSpec",
    "LimitScheme",
    "default_limit_scheme",
    "run_limit_replicas",
    "step_em",
]

_SYM_TOL = 1e-12
_EIG_CLAMP = -1e-12


@dataclass(frozen=True)
class DiffusionSpec:
    """Limit-noise covariance per unit time, with its provenance mode."""

    mode: str  # paper | green-kubo | explicit
    matrix: np.ndarray  # (d, d), symmetric PSD

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise UsageError(f"diffusion matrix must be square, got {m.shape}")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.T)) > _SYM_TOL * scale:
            raise UsageError("diffusion matrix is not symmetric")
        m = 0.5 * (m + m.T)
        w, v = np.linalg.eigh(m)
        if np.min(w) < _EIG_CLAMP * scale:
            raise UsageError(f"diffusion matrix has negative eigenvalue {np.min(w):g}")
        w = np.clip(w, 0.0, None)
        # The reconstruction rounds its two triangles differently.
        mat, root = (v * w) @ v.T, (v * np.sqrt(w)) @ v.T
        object.__setattr__(self, "matrix", 0.5 * (mat + mat.T))
        object.__setattr__(self, "_sqrt", 0.5 * (root + root.T))

    @property
    def sqrt(self) -> np.ndarray:
        """Symmetric square root S with S @ S.T = matrix."""
        return self._sqrt


@dataclass(frozen=True)
class LimitScheme:
    """Euler-Maruyama step for the limit equation."""

    h: float

    def __post_init__(self):
        if self.h <= 0.0:
            raise UsageError("step must be > 0")

    def validate(self, alpha: float, pot: PotentialSpec):
        cap = _step_cap(alpha, pot)
        if self.h > cap * (1.0 + 1e-12):
            raise UsageError(
                f"limit step h={self.h:g} exceeds 0.01*alpha/stiffness = {cap:g}"
            )


def _step_cap(alpha: float, pot: PotentialSpec) -> float:
    """The largest admissible limit step."""
    return 0.01 * alpha / max(pot.stiffness, 1e-300)


def default_limit_scheme(cfg: RunConfig, pot: PotentialSpec) -> LimitScheme:
    """Largest admissible step that divides the horizon evenly."""
    n = max(1, math.ceil(cfg.T / _step_cap(cfg.alpha, pot) - 1e-12))
    return LimitScheme(h=cfg.T / n)


def step_em(ens: ParticleEnsemble, pot: PotentialSpec, diff: DiffusionSpec,
            sch: LimitScheme, alpha: float, rng) -> ParticleEnsemble:
    """One Euler-Maruyama step of the interacting particle system."""
    if not ens.is_limit_mode:
        raise UsageError("step_em requires a limit-mode ensemble (no velocities)")
    X = ens.positions
    grad = grad_v_batch(pot, X)
    Z = rng.standard_normal(X.shape)
    X2 = X - (sch.h / alpha) * grad + math.sqrt(sch.h) * Z @ diff.sqrt.T
    out = ParticleEnsemble(positions=X2, velocities=None, time=ens.time + sch.h, eps=None)
    out.check_finite()
    return out


# Normals drawn per generator call in the limit pre-draw, to bound the
# transient (steps, N, d) block when only a few particles are kept.
_DRAW_CHUNK = 1 << 16


def run_limit_replicas(cfg: RunConfig, pot: PotentialSpec, diff: DiffusionSpec,
                       init: InitialLaw, replica_ids, stream_path,
                       sch: LimitScheme | None = None, *, keep: int | None = None,
                       recorder=None) -> np.ndarray:
    """Terminal positions over independent replicas, stepped in lock-step.

    Replica r draws from ``stream(seed, *stream_path, r)`` its positions
    and then one (N, d) normal block per step, the order ``step_em``
    consumes it, so every replica is bit-identical to stepping it alone.
    The step count follows the eps system's rule: when ``h`` does not
    divide ``T`` the last step ends past ``T``, never before it.
    ``recorder``, when given, is called as ``recorder(replica_ids, step_index,
    time, X)`` after the initial state and after every step; X is updated
    in place afterwards.

    ``keep`` is the number of leading particles per replica the caller
    needs.  Under a quadratic potential without a recorder the particles do
    not interact, so only those are integrated and only their normals are
    stored.  Otherwise all N are integrated and the caller slices.  Returns
    shape (R, M, d) with M the number integrated.
    """
    if keep is not None and not 1 <= keep <= cfg.N:
        raise UsageError(f"keep must lie in [1, N={cfg.N}], got {keep}")
    replica_ids = list(replica_ids)
    sch = sch or default_limit_scheme(cfg, pot)
    sch.validate(cfg.alpha, pot)
    N, d = cfg.N, cfg.d
    M = N
    if keep is not None and pot.kind == "quadratic" and recorder is None:
        # For d > 1 a one-row block would take BLAS's vector-matrix path,
        # which rounds differently from the matrix path of the full run.
        M = min(N, max(keep, 2 if d > 1 else 1))
    n = _n_steps(cfg.T, sch.h)
    chunk = max(1, _DRAW_CHUNK // (N * d))
    X = np.empty((len(replica_ids), M, d))
    Z = np.empty((n,) + X.shape)
    for j, r in enumerate(replica_ids):
        gen = _rng.stream(cfg.seed, *stream_path, r)
        X[j] = init.draw_positions(N, d, gen)[:M]
        for k in range(0, n, chunk):
            Z[k : k + chunk, j] = gen.standard_normal((min(chunk, n - k), N, d))[:, :M]
    Z *= math.sqrt(sch.h)
    ST = diff.sqrt.T
    G, tmp = np.empty_like(X), np.empty_like(X)
    t = 0.0
    if recorder is not None:
        recorder(replica_ids, 0, t, X)
    try:
        for k in range(n):
            grad_v_batch(pot, X, out=G, tmp=tmp)
            G *= sch.h / cfg.alpha
            X -= G
            X += np.matmul(Z[k], ST, out=tmp)
            t += sch.h
            if recorder is not None:
                recorder(replica_ids, k + 1, t, X)
    except NumericError as err:
        _check_finite(str(err), replica_ids, None, X)
        raise
    _check_finite("limit replica sweep produced non-finite state", replica_ids, None, X)
    return X
