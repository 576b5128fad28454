"""Stationary time-mixing random fields.

The fast forcing is a stationary random field eta(s, x) driven by an
exactly updatable Gauss-Markov process: each driver component relaxes at
rate ``gamma`` (fast-time units) toward mean zero with stationary standard
deviation ``sigma``.  The declared mixing envelope is exp(-gamma * s); the
true strong-mixing coefficient of the driver is dominated by a constant
multiple of it, and the envelope choice is recorded in every emitted
report.

Three concrete field shapes are provided:

* ``scalar-ou``      eta(s, x) = xi(s), one independent driver component
                     per space dimension, no x dependence;
* ``separable``      eta(s, x) = xi(s) * g(x) with a bounded smooth scalar
                     profile g;
* ``fourier-field``  eta(s, x)_i = sum_k xi_{i,k}(s) (a_k cos(w_k . x)
                     + b_k sin(w_k . x)) with independent per-dimension,
                     per-mode drivers.

Every particle feels the same forcing, the field averaged over the law.
For all three shapes that average is linear in the driver, so it is
computed without forming the field at each point: the x-dependent factor
(1, g, or the Fourier basis a_k cos(w_k . x) + b_k sin(w_k . x)) is
averaged over the points first (``_factor_mean``) and then contracted
with the driver (``_contract_forcing``), so a caller whose points are
frozen takes the mean once.
The Fourier basis is evaluated in its phase-shift form
R_k cos(w_k . x - phi_k), R_k = hypot(a_k, b_k) and phi_k = arctan2(b_k,
a_k), one cosine per point and mode, laid out mode-major (K, n, ...) so
that every pass over it streams contiguous memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import EmpiricalMeasure, pairwise_mean
from .errors import UsageError

__all__ = [
    "DriverState",
    "NoiseModel",
    "advance_xi",
    "averaged_forcing_xi",
    "driver_step",
    "eval_field_points",
    "forcing_variance",
    "stationary_xi",
]

# Named separable profiles, so configurations stay serializable and worker
# processes can rebuild models without shipping code objects around.
_PROFILES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "one": lambda x: np.ones(x.shape[:-1]),
    "cos-sum": lambda x: np.cos(np.sum(x, axis=-1)),
    "clip-linear": lambda x: np.clip(x[..., 0], -1.0, 1.0),
    "gauss": lambda x: np.exp(-0.5 * np.sum(x * x, axis=-1)),
}


@dataclass(frozen=True)
class NoiseModel:
    """Parameters of one stationary mixing field."""

    kind: str
    d: int
    gamma: float
    sigma: float
    g_name: str | None = None
    omegas: np.ndarray | None = None  # (K, d)
    a: np.ndarray | None = None  # (K,)
    b: np.ndarray | None = None  # (K,)

    def __post_init__(self):
        if self.kind not in ("scalar-ou", "separable", "fourier-field"):
            raise UsageError(f"unknown noise kind: {self.kind!r}")
        if self.d < 1:
            raise UsageError("dimension must be >= 1")
        if self.gamma <= 0.0:
            raise UsageError("mixing rate gamma must be > 0")
        if self.sigma < 0.0:
            raise UsageError("driver amplitude sigma must be >= 0")
        if self.kind == "separable" and self.g_name not in _PROFILES:
            raise UsageError(f"unknown separable profile {self.g_name!r}")
        if self.kind == "fourier-field":
            if self.omegas is None or self.a is None or self.b is None:
                raise UsageError("fourier-field needs omegas, a and b")
            om = np.atleast_2d(np.asarray(self.omegas, dtype=float))
            a = np.atleast_1d(np.asarray(self.a, dtype=float))
            b = np.atleast_1d(np.asarray(self.b, dtype=float))
            if om.shape[1] != self.d or a.shape != b.shape or a.shape[0] != om.shape[0]:
                raise UsageError("fourier-field needs omegas (K, d) and a, b of length K")
            object.__setattr__(self, "omegas", om)
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
            # a cos t + b sin t = R cos(t - phi), set once per model.
            object.__setattr__(self, "_amp", np.hypot(a, b))
            object.__setattr__(self, "_phi", np.arctan2(b, a))

    @classmethod
    def scalar_ou(cls, d: int, gamma: float, sigma: float):
        return cls(kind="scalar-ou", d=d, gamma=gamma, sigma=sigma)

    @classmethod
    def separable(cls, d, gamma, sigma, g_name):
        return cls(kind="separable", d=d, gamma=gamma, sigma=sigma, g_name=g_name)

    @classmethod
    def fourier_field(cls, d, gamma, sigma, omegas, a, b):
        return cls(kind="fourier-field", d=d, gamma=gamma, sigma=sigma,
                   omegas=omegas, a=a, b=b)

    @property
    def g(self) -> Callable[[np.ndarray], np.ndarray]:
        """The separable profile named by ``g_name``."""
        return _PROFILES[self.g_name]

    @property
    def driver_shape(self) -> tuple[int, ...]:
        if self.kind == "fourier-field":
            return (self.d, self.omegas.shape[0])
        return (self.d,)


@dataclass(frozen=True, eq=False)
class DriverState:
    """Current driver values and the fast clock."""

    xi: np.ndarray
    fast_time: float

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        if self.fast_time < 0.0:
            raise UsageError("fast time must be nonnegative")


def stationary_xi(model: NoiseModel, rng, reps: int | None = None) -> np.ndarray:
    """One stationary driver draw, or ``reps`` of them in one
    ``(reps,) + driver_shape`` draw."""
    shape = model.driver_shape if reps is None else (reps,) + model.driver_shape
    return model.sigma * rng.standard_normal(shape)


def driver_step(model: NoiseModel, delta_s: float) -> tuple[float, float]:
    """The exact driver update over fast lag ``delta_s`` as the pair
    (r, c) of xi <- r * xi + c * z, z standard normal: r = exp(-gamma *
    delta_s) and c = sigma * sqrt(1 - r^2)."""
    r = math.exp(-model.gamma * delta_s)
    return r, model.sigma * math.sqrt(max(0.0, 1.0 - r * r))


def advance_xi(xi: np.ndarray, model: NoiseModel, delta_s: float, z: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Exact update of the Gauss-Markov driver over fast lag ``delta_s``
    (``driver_step``).

    ``z`` holds the standard normals of the step, one per entry of ``xi``,
    which may carry leading batch axes.  The result is written to ``out``
    when given, which may be ``xi`` itself.
    """
    r, c = driver_step(model, delta_s)
    out = np.multiply(xi, r, out=out)
    out += c * z
    return out


def eval_field_points(model: NoiseModel, xi: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Field values at ``points`` (..., n, d) for driver values ``xi``.

    Leading batch axes of ``xi`` broadcast against those of ``points``.
    The law-averaged forcing never forms the per-point field (see
    ``averaged_forcing_xi``).
    """
    if model.kind == "scalar-ou":
        return np.broadcast_to(
            xi[..., None, :], points.shape[:-2] + (points.shape[-2], model.d)
        )
    if model.kind == "separable":
        gvals = model.g(points)  # (..., n)
        return xi[..., None, :] * gvals[..., :, None]
    basis = np.moveaxis(_fourier_basis(model, points), (0, 1), (-1, -2))  # (..., n, K)
    return np.einsum("...nk,...dk->...nd", basis, xi)


def _fourier_basis(model: NoiseModel, points: np.ndarray) -> np.ndarray:
    """a_k cos(w_k . x) + b_k sin(w_k . x) at ``points`` (..., n, d), mode-major.

    Each mode is taken in its phase-shift form R_k cos(w_k . x - phi_k),
    with R_k = hypot(a_k, b_k) and phi_k = arctan2(b_k, a_k) set once per
    model: one cosine per point and mode.  The phases come from one
    stacked ``points @ omegas.T`` matmul, one product per batch entry, so
    an entry's bits do not depend on its batch (one product over every
    row would not keep that: at one point per entry, a 1-row product and
    a row of a longer one can differ in the last bit).  The shift writes
    them once into a contiguous buffer of shape (K, n, ...): the mode
    first, then the point, then the batch axes of ``points``.  The cosine,
    the scaling and the fold over the points (``axis=1``) then stream
    contiguous memory instead of an innermost axis of length K.
    """
    phase = points @ model.omegas.T  # (..., n, K)
    nd = phase.ndim
    phase = phase.transpose((nd - 1, nd - 2) + tuple(range(nd - 2)))  # (K, n, ...) view
    col = (-1,) + (1,) * (nd - 1)
    basis = np.subtract(phase, model._phi.reshape(col), out=np.empty(phase.shape))
    np.cos(basis, out=basis)
    basis *= model._amp.reshape(col)
    return basis


def _factor_mean(model: NoiseModel, points: np.ndarray):
    """Mean over ``points`` (..., n, d) of the field's x-dependent factor,
    by the pairwise fold: ``None`` for scalar-ou (the factor is 1), shape
    (...) for separable, and for fourier-field (K, ...), the
    ``_fourier_basis`` buffer folded over its point axis."""
    if model.kind == "scalar-ou":
        return None
    if model.kind == "separable":
        return pairwise_mean(model.g(points), axis=-1)
    return pairwise_mean(_fourier_basis(model, points), axis=1)


def _contract_forcing(model: NoiseModel, xi: np.ndarray, gbar) -> np.ndarray:
    """The law-averaged forcing of driver ``xi`` under the factor mean
    ``gbar``; batch axes broadcast.  For fourier-field, sum_k xi[..., :, k]
    * gbar[k] in a fixed order, elementwise, so the result of one replica
    does not depend on how many are batched with it."""
    if model.kind == "scalar-ou":
        # x-independent field: the law average is the driver value itself.
        return xi
    if model.kind == "separable":
        return xi * gbar[..., None]
    out = xi[..., 0] * gbar[0][..., None]
    for k in range(1, gbar.shape[0]):
        out += xi[..., k] * gbar[k][..., None]
    return out


def averaged_forcing_xi(model: NoiseModel, xi: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Mean of the field over ``points`` (..., n, d); batch axes broadcast.

    This realizes the law-averaged forcing applied identically to every
    particle: the common-noise reading of the fluctuating term, with the
    expectation over the state taken as the empirical average over the
    ensemble sharing one driver path.

    The average is linear in the driver, so the x-dependent factor is
    averaged over the points (``_factor_mean``) and then contracted with
    ``xi`` (``_contract_forcing``).  The per-point field, of shape
    (..., n, d), is never formed.
    """
    return _contract_forcing(model, xi, _factor_mean(model, points))


def forcing_variance(model: NoiseModel, m: EmpiricalMeasure | None = None) -> float:
    """Stationary variance of each component of the law-averaged forcing.

    Closed-form for every kind.  The average is linear in iid N(0, sigma^2)
    driver components, so its components are independent with one common
    variance, and its covariance is that variance times the d x d
    identity: sigma^2 for scalar-ou, sigma^2 * gbar^2 for separable (gbar
    the mean of g over ``m``), and sigma^2 * sum_k gbar_k^2 for
    fourier-field (gbar_k the mean of the k-th basis function
    a_k cos(w_k . x) + b_k sin(w_k . x) over ``m``).
    """
    s2 = model.sigma**2
    if model.kind == "scalar-ou":
        return s2
    if m is None:
        raise UsageError(f"{model.kind} needs a measure for the forcing variance")
    gbar = _factor_mean(model, m.points)
    if model.kind == "separable":
        return s2 * float(gbar)**2
    return s2 * float(np.sum(gbar * gbar))
