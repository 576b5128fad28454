"""Domain types shared by every module.

Points are plain 1-d numpy arrays.  An empirical measure is a uniformly
weighted finite point set standing in for a probability law; a particle
ensemble carries the positions (and, for the second-order system, the
velocities) of the interacting particles together with the clock and the
mass parameter.  The potential specification bundles the distribution
dependent drift with its declared Lipschitz constant so that the declared
constant can be checked empirically.

All types are immutable values; the operations are pure functions and safe
to call from any number of concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericError, UsageError

__all__ = [
    "EmpiricalMeasure",
    "ParticleEnsemble",
    "PotentialSpec",
    "RunConfig",
    "as_point",
    "empirical_mean",
    "grad_v",
    "grad_v_batch",
    "pairwise_mean",
    "probe_lipschitz",
]


def as_point(x) -> np.ndarray:
    """Coerce ``x`` to a finite 1-d float array."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise UsageError(f"a point must be one-dimensional, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise UsageError("point has non-finite coordinates")
    return p


def pairwise_mean(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Mean over ``axis`` using a balanced pairwise fold.

    The summation order is a fixed function of the axis length, so the
    result is bit-identical however the surrounding computation is batched
    or scheduled.
    """
    a = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    n = a.shape[0]
    if n == 0:
        raise UsageError("cannot average an empty axis")
    total = _pairwise_sum(a)
    return total / n


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    if n == 1:
        return a[0]
    half = n // 2
    folded = a[:half] + a[half : 2 * half]
    if n % 2:
        folded = np.concatenate([folded, a[2 * half :]], axis=0)
    return _pairwise_sum(folded)


@dataclass(frozen=True)
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

    @classmethod
    def point_mass(cls, x) -> "EmpiricalMeasure":
        """The Dirac mass at ``x`` as a singleton point set."""
        return cls(as_point(x)[None, :])

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def mean(self) -> np.ndarray:
        return empirical_mean(self)


def empirical_mean(m: EmpiricalMeasure) -> np.ndarray:
    """Coordinate-wise arithmetic mean of the measure's points."""
    if m.n < 1:
        raise UsageError("empty measure")
    return pairwise_mean(m.points, axis=0)


@dataclass(frozen=True)
class ParticleEnsemble:
    """Positions, velocities, clock and mass parameter of the particle system.

    Limit-mode ensembles carry no velocities and no mass parameter
    (``velocities is None`` and ``eps is None``).
    """

    positions: np.ndarray  # (N, d)
    velocities: np.ndarray | None  # (N, d) or None in limit mode
    time: float
    eps: float | None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[0] < 1:
            raise UsageError(f"positions must be (N, d) with N >= 1, got {pos.shape}")
        object.__setattr__(self, "positions", pos)
        if self.velocities is not None:
            vel = np.asarray(self.velocities, dtype=float)
            if vel.shape != pos.shape:
                raise UsageError(
                    f"velocities shape {vel.shape} does not match positions {pos.shape}"
                )
            object.__setattr__(self, "velocities", vel)
            if self.eps is None or not 0.0 < self.eps <= 1.0:
                raise UsageError("second-order ensembles need eps in (0, 1]")
        elif self.eps is not None:
            raise UsageError("limit-mode ensembles must not carry eps")
        if self.time < 0.0:
            raise UsageError("time must be nonnegative")

    @property
    def is_limit_mode(self) -> bool:
        return self.velocities is None

    def check_finite(self, **ctx):
        if not np.all(np.isfinite(self.positions)) or (
            self.velocities is not None and not np.all(np.isfinite(self.velocities))
        ):
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


def grad_v(p: PotentialSpec, x, m: EmpiricalMeasure) -> np.ndarray:
    """Evaluate the drift gradient at a single point under the measure ``m``."""
    xv = as_point(x)
    if xv.shape[0] != m.d:
        raise UsageError(f"dimension mismatch: point d={xv.shape[0]}, measure d={m.d}")
    out = grad_v_batch(p, xv[None, :], m)[0]
    if not np.all(np.isfinite(out)):
        raise NumericError("potential gradient is non-finite")
    return out


def grad_v_batch(p: PotentialSpec, xs: np.ndarray, m: EmpiricalMeasure | None = None,
                 out: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """Vectorized ``grad_v`` over rows of ``xs``; the drift of both integrators.

    With a measure ``m`` it applies to every row, and ``xs`` may carry
    leading batch axes.  With ``m=None`` each (n, d) set along the last
    two axes of ``xs`` is its own measure, averaged over the particle axis
    with the deterministic pairwise fold.  The result is written to ``out``
    when given, with ``tmp`` as scratch (both shaped like ``xs``).  A custom
    gradient is called once per row and raises ``NumericError`` on a
    non-finite ``xs``.
    """
    xs = np.asarray(xs, dtype=float)
    if m is not None and xs.shape[-1] != m.d:
        raise UsageError(f"dimension mismatch: points d={xs.shape[-1]}, measure d={m.d}")
    if p.kind == "custom":
        if not np.isfinite(xs).all():
            raise NumericError("custom potential evaluated at a non-finite state")
        if m is not None:
            rows = [p.grad(x, m) for x in xs.reshape(-1, m.d)]
        else:
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
        mean = pairwise_mean(xs, axis=-2)[..., None, :] if m is None else empirical_mean(m)
        tmp = np.subtract(xs, mean, out=tmp)
        tmp *= p.kappa
        out += tmp
    return out


def probe_lipschitz(p: PotentialSpec, sampler, trials: int) -> float:
    """Empirical check of the declared W2-Lipschitz bound.

    ``sampler`` is a callable returning a pair ``((x, mu), (y, nu))`` per
    call; measures must be small enough (n <= 64) for the exact assignment
    solver.  Returns the max over non-degenerate trials of

        ||grad(x, mu) - grad(y, nu)|| / (||x - y|| + W2(mu, nu)).

    Degenerate pairs (zero denominator) are skipped; if every trial is
    degenerate the probe has learned nothing and that is a usage error.
    """
    from .transport import w2_assignment, w2_1d

    if trials < 1:
        raise UsageError("need at least one trial")
    worst = None
    for _ in range(trials):
        (x, mu), (y, nu) = sampler()
        x, y = as_point(x), as_point(y)
        if mu.n > 64 or nu.n > 64:
            raise UsageError("probe measures must have n <= 64 for the exact solver")
        if mu.d == 1:
            w2 = w2_1d(mu.points[:, 0], nu.points[:, 0]).value
        else:
            w2 = w2_assignment(mu.points, nu.points).value
        denom = float(np.linalg.norm(x - y)) + w2
        if denom < 1e-14:
            continue
        num = float(np.linalg.norm(grad_v(p, x, mu) - grad_v(p, y, nu)))
        ratio = num / denom
        worst = ratio if worst is None else max(worst, ratio)
    if worst is None:
        raise UsageError("all sampled pairs were degenerate")
    return worst


def default_pair_sampler(d: int, seed: int, max_points: int = 16):
    """Gaussian pair sampler for ``probe_lipschitz`` (equal-size measures)."""
    from . import rng as _rng

    gen = _rng.stream(seed, _rng.PROBE)

    def sample():
        n = int(gen.integers(1, max_points + 1))
        x = gen.standard_normal(d)
        y = gen.standard_normal(d)
        mu = EmpiricalMeasure(gen.standard_normal((n, d)))
        nu = EmpiricalMeasure(gen.standard_normal((n, d)))
        return (x, mu), (y, nu)

    return sample


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
        if self.alpha <= 0.0:
            raise UsageError("friction alpha must be > 0")
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
