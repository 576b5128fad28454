"""smallmass: the zero-mass limit of distribution-dependent Langevin
dynamics under fast stationary mixing forcing.

The package simulates the second-order N-particle system with its
law-averaged fast forcing, simulates the limiting distribution-dependent
SDE under pluggable diffusion normalizations, and quantifies the
convergence in distribution through exact and sliced Wasserstein-2
distances plus moment, decay and increment diagnostics.
"""

from ._version import __version__
from .core import EmpiricalMeasure, ParticleEnsemble, PotentialSpec, RunConfig
from .dynamics_eps import EpsScheme, InitialLaw, StepReport, step
from .dynamics_limit import DiffusionSpec, LimitScheme
from .errors import ConfigError, NumericError, UsageError
from .noise import DriverState, NoiseModel, forcing_variance
from .transport import W2Result, w2_1d, w2_assignment, w2_auto, w2_sliced

__all__ = [
    "ConfigError",
    "DiffusionSpec",
    "DriverState",
    "EmpiricalMeasure",
    "EpsScheme",
    "InitialLaw",
    "LimitScheme",
    "NoiseModel",
    "NumericError",
    "ParticleEnsemble",
    "PotentialSpec",
    "RunConfig",
    "StepReport",
    "UsageError",
    "W2Result",
    "__version__",
    "forcing_variance",
    "step",
    "w2_1d",
    "w2_assignment",
    "w2_auto",
    "w2_sliced",
]
