"""The limiting distribution-dependent SDE and its particle discretization.

The zero-mass limit of the fast-forced system is the first-order equation

    dx = -(1/alpha) * grad_v(x, mu_t) dt + sqrt(D_eff) dB,

simulated as an N-particle Euler-Maruyama system with synchronous
mean-field coupling (the law in the drift is the same-step empirical
measure).  ``D_eff`` is the per-unit-time covariance of the limit noise;
the division by alpha is already absorbed into it.

The limit modes (``paper``, ``green-kubo``, ``explicit``) are the
normalizations of D_eff that the convergence study compares; each mode's
formula lives in the docstring of ``Config.diffusion``, the one place a
mode name becomes a ``DiffusionSpec``.

The kernel integrates exactly the ``cfg.N`` particles it is handed; how
many a sample needs is decided by the caller (``harness``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .core import PotentialSpec, RunConfig, grad_v_batch
from .dynamics_eps import InitialLaw, _check_finite, _n_steps
from .errors import NumericError, UsageError

__all__ = [
    "DiffusionSpec",
    "LimitScheme",
    "default_limit_scheme",
    "run_limit_replicas",
]

_SYM_TOL = 1e-12
_EIG_CLAMP = -1e-12


@dataclass(frozen=True)
class DiffusionSpec:
    """Limit-noise covariance per unit time."""

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


def run_limit_replicas(cfg: RunConfig, pot: PotentialSpec, diff: DiffusionSpec,
                       init: InitialLaw, replica_ids, stream_path,
                       sch: LimitScheme | None = None, *, recorder=None) -> np.ndarray:
    """Terminal positions over independent replicas, stepped in lock-step.

    The replicas draw by blocks under ``stream_path``, in the order that
    ``rng.block_draws`` carries out: its one start is the positions
    (s, N, d), and its per-step normals are (N, d)-shaped.  So
    ``replica_ids`` must be whole blocks, and every replica gets the same
    bits whatever other blocks share the call.
    The step count follows the eps system's rule: when ``h`` does not
    divide ``T`` the last step ends past ``T``, never before it.
    ``recorder``, when given, is called as ``recorder(replica_ids, step_index,
    time, X)`` after the initial state and after every step; X is updated
    in place afterwards.  Returns shape (R, N, d).
    """
    replica_ids = list(replica_ids)
    sch = sch or default_limit_scheme(cfg, pot)
    sch.validate(cfg.alpha, pot)
    N, d = cfg.N, cfg.d
    X, steps = _rng.block_draws(cfg.seed, stream_path, replica_ids,
                                _n_steps(cfg.T, sch.h), (N, d),
                                lambda gen, s: init.draw_positions(N, d, gen, reps=s))
    root_h = math.sqrt(sch.h)
    ST = diff.sqrt.T
    G, tmp = np.empty_like(X), np.empty_like(X)
    t = 0.0
    if recorder is not None:
        recorder(replica_ids, 0, t, X)
    try:
        for k, z in enumerate(steps):
            grad_v_batch(pot, X, out=G, tmp=tmp)
            G *= sch.h / cfg.alpha
            X -= G
            z *= root_h
            X += np.matmul(z, ST, out=tmp)
            t += sch.h
            if recorder is not None:
                recorder(replica_ids, k + 1, t, X)
    except NumericError as err:
        _check_finite(str(err), replica_ids, None, X)
        raise
    _check_finite("limit replica sweep produced non-finite state", replica_ids, None, X)
    return X
