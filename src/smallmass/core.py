"""Domain types shared by every module.

Points are plain 1-d numpy arrays.  An empirical measure is a uniformly
weighted finite point set standing in for a probability law; a particle
ensemble carries the positions and velocities of the interacting
particles of the second-order system together with the clock and the
mass parameter.  The potential specification bundles the distribution
dependent drift with its declared Lipschitz constant.

All types are immutable values; the operations are pure functions and safe
to call from any number of concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.array_utils import normalize_axis_index

from .errors import NumericError, UsageError

__all__ = [
    "EmpiricalMeasure",
    "ParticleEnsemble",
    "PotentialSpec",
    "RunConfig",
    "grad_v_batch",
    "pairwise_mean",
]


def pairwise_mean(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Mean over ``axis`` using a balanced pairwise fold.

    The summation order is a fixed function of the axis length, so the
    result is bit-identical however the surrounding computation is batched
    or scheduled.  Each round adds the second half of the m live rows onto
    the first, and an odd m carries its last row over: rows i and
    i + m // 2 meet, and the carried row takes index m // 2.

    The rounds slice ``axis`` where it lies, so each add reads and writes
    the other axes in their own contiguous order; moved to the front, the
    axis would leave a strided inner loop of the last axis's length (d = 2
    on a (replicas, N, d) fold).
    """
    a = np.asarray(values, dtype=float)
    axis = normalize_axis_index(axis, a.ndim)
    n = a.shape[axis]
    if n == 0:
        raise UsageError("cannot average an empty axis")
    lead = (slice(None),) * axis
    while (m := a.shape[axis]) > 1:
        half = m // 2
        folded = a[lead + (slice(0, half),)] + a[lead + (slice(half, 2 * half),)]
        a = (np.concatenate((folded, a[lead + (slice(2 * half, m),)]), axis=axis)
             if m % 2 else folded)
    return a[lead + (0,)] / n


def _per_particle(v: np.ndarray, n: int) -> np.ndarray:
    """A per-set value ``v`` (..., d) laid out over the n particles of its
    set, (..., n, d).

    For n > 1 it is a contiguous copy (``np.repeat``), so that an
    elementwise op against an (..., n, d) array reads two arrays of one
    layout: against a stride-0 broadcast of ``v`` the op runs an inner loop
    of length d, which took 13.2 us against 4.0 us for the repeat and the
    op at (64, 32, 2) on a 2-vCPU Xeon VM.  ``np.tile`` is slower than the
    broadcast at d = 1.
    At n = 1 there is nothing to spread, and ``v`` is only reshaped.
    """
    return np.repeat(v[..., None, :], n, axis=-2) if n > 1 else v[..., None, :]


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Uniformly weighted point set on R^d (weights 1/n implied)."""

    points: np.ndarray  # (n, d)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise UsageError(
                f"an empirical measure needs an (n, d) array with n >= 1, got {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise UsageError("measure contains non-finite points")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_points(cls, pts) -> "EmpiricalMeasure":
        return cls(np.atleast_2d(np.asarray(pts, dtype=float)))

    def mean(self) -> np.ndarray:
        """Coordinate-wise arithmetic mean of the points (pairwise fold)."""
        return pairwise_mean(self.points, axis=0)


@dataclass(frozen=True, eq=False)
class ParticleEnsemble:
    """Positions, velocities, clock and mass parameter of the second-order
    particle system."""

    positions: np.ndarray  # (N, d)
    velocities: np.ndarray  # (N, d)
    time: float
    eps: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[0] < 1:
            raise UsageError(f"positions must be (N, d) with N >= 1, got {pos.shape}")
        object.__setattr__(self, "positions", pos)
        vel = np.asarray(self.velocities, dtype=float)
        if vel.shape != pos.shape:
            raise UsageError(
                f"velocities shape {vel.shape} does not match positions {pos.shape}"
            )
        object.__setattr__(self, "velocities", vel)
        if self.eps is None or not 0.0 < self.eps <= 1.0:
            raise UsageError("ensembles need eps in (0, 1]")
        if self.time < 0.0:
            raise UsageError("time must be nonnegative")

    def check_finite(self, **ctx):
        if not (np.all(np.isfinite(self.positions)) and np.all(np.isfinite(self.velocities))):
            raise NumericError("ensemble state is non-finite", **ctx)


@dataclass(frozen=True)
class PotentialSpec:
    """Distribution-dependent drift gradient with a declared Lipschitz bound.

    Built-in kinds:

    * ``quadratic``: grad = lam * x (no measure dependence),
    * ``curie-weiss``: grad = lam * x + kappa * (x - mean(mu)),

    both with declared constant ``lam + 2 * |kappa|``, which dominates the
    true joint Lipschitz constant in (x, mu) under the quadratic transport
    metric.  ``custom`` delegates to a user gradient.
    """

    kind: str
    lam: float = 0.0
    kappa: float = 0.0
    lipschitz_bound: float = field(default=0.0)
    grad: Callable[[np.ndarray, EmpiricalMeasure], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in ("quadratic", "curie-weiss", "custom"):
            raise UsageError(f"unknown potential kind: {self.kind!r}")
        if self.lam < 0.0:
            raise UsageError("confinement strength must be >= 0")
        if self.kind == "quadratic" and self.kappa != 0.0:
            raise UsageError("quadratic potential has no coupling term")
        if self.kind == "custom" and self.grad is None:
            raise UsageError("custom potential needs a gradient callable")
        if self.kind != "custom":
            object.__setattr__(
                self, "lipschitz_bound", self.lam + 2.0 * abs(self.kappa)
            )
        if self.lipschitz_bound <= 0.0:
            raise UsageError("declared Lipschitz bound must be > 0")

    @classmethod
    def quadratic(cls, lam: float) -> "PotentialSpec":
        return cls(kind="quadratic", lam=lam)

    @classmethod
    def curie_weiss(cls, lam: float, kappa: float) -> "PotentialSpec":
        return cls(kind="curie-weiss", lam=lam, kappa=kappa)

    @classmethod
    def custom(cls, grad, lipschitz_bound: float) -> "PotentialSpec":
        return cls(kind="custom", grad=grad, lipschitz_bound=lipschitz_bound)

    @property
    def stiffness(self) -> float:
        """Largest linear drift rate, used for limit step-size control:
        ``lam + |kappa|`` for a builtin kind, the declared Lipschitz bound
        for a custom one, whose drift the toolkit cannot inspect."""
        return self.lipschitz_bound if self.kind == "custom" else self.lam + abs(self.kappa)


def grad_v_batch(p: PotentialSpec, xs: np.ndarray, out: np.ndarray | None = None,
                 tmp: np.ndarray | None = None) -> np.ndarray:
    """The drift gradient at the rows of ``xs``; the drift of both integrators.

    Each (n, d) set along the last two axes of ``xs`` is its own measure,
    averaged over the particle axis with the deterministic pairwise fold;
    leading axes are batch axes.  The result is written to ``out`` when
    given, with ``tmp`` as scratch (both shaped like ``xs``).  A custom
    gradient is called once per row, with its set's ``EmpiricalMeasure``,
    and raises ``NumericError`` on a non-finite ``xs``.

    The curie-weiss mean is folded in place along the particle axis and
    spread over the particles as a contiguous copy (``_per_particle``)
    before the subtract, so no pass runs a strided inner loop of length d;
    the bits are those of the broadcast ``xs - mean[..., None, :]``.
    """
    xs = np.asarray(xs, dtype=float)
    if p.kind == "custom":
        if not np.isfinite(xs).all():
            raise NumericError("custom potential evaluated at a non-finite state")
        rows = []
        for s in xs.reshape((-1,) + xs.shape[-2:]):
            ms = EmpiricalMeasure(s)
            rows.extend(p.grad(x, ms) for x in s)
        if out is None:
            out = np.empty_like(xs)
        out[...] = np.stack(rows).reshape(xs.shape)
        return out
    out = np.multiply(xs, p.lam, out=out)
    if p.kind == "curie-weiss":
        mean = _per_particle(pairwise_mean(xs, axis=-2), xs.shape[-2])
        tmp = np.subtract(xs, mean, out=tmp)
        tmp *= p.kappa
        out += tmp
    return out


# alpha and the noise's sigma enter squared (D_eff, the forcing variance),
# so each stops short of where its square would pass the float range, 1.8e308.
_ROOT_MAX = 1e154


@dataclass(frozen=True)
class RunConfig:
    """Scalar parameters of one simulation run."""

    d: int
    N: int
    eps: float
    alpha: float
    T: float
    h0: float
    seed: int
    replica_count: int = 1
    samples_per_replica: int = 1

    def __post_init__(self):
        if self.d < 1 or self.N < 1:
            raise UsageError("d and N must be >= 1")
        if not 0.0 < self.eps <= 1.0:
            raise UsageError("eps must lie in (0, 1]")
        if not 0.0 < self.alpha <= _ROOT_MAX:
            raise UsageError(f"friction alpha must lie in (0, {_ROOT_MAX:g}], got {self.alpha!r}")
        if self.T <= 0.0:
            raise UsageError("horizon T must be > 0")
        if not 0.0 < self.h0 <= 0.2:
            raise UsageError("h0 must lie in (0, 0.2]")
        if self.replica_count < 1 or self.samples_per_replica < 1:
            raise UsageError("replica_count and samples_per_replica must be >= 1")

    @property
    def eps_step(self) -> float:
        """Slow-time step of the second-order system: h0 * eps."""
        return self.h0 * self.eps
