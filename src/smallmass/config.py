"""Experiment configuration: a flat JSON document with dotted keys.

The on-disk format is a single JSON object whose keys are dotted section
paths (``run.alpha``, ``noise.gamma``, ...) and whose values are scalars or
small arrays.  The format is diff-friendly and trivially parseable from
any language.  The key registry below is closed: unrecognized keys are a
hard error rather than silently tolerated typos, and parse -> serialize ->
parse is the identity on every recognized key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .core import PotentialSpec, RunConfig
from .diagnostics import BM_PROXY_MIN_PATHS, GK_MAX_DT, GK_MIN_HORIZON
from .dynamics_eps import InitialLaw
from .dynamics_limit import LimitScheme
from .errors import ConfigError, UsageError
from .noise import NoiseModel

__all__ = ["Config", "load_config", "parse_config", "serialize_config"]

_REQ = object()

# Replica counts index counter-based streams (one stream per replica, or
# per block of replicas), so they share the stream index bound; every other
# count stays within a C int.
_REPLICA_KEYS = ("run.replicas", "limit.replicas", "gk.reps", "diag.reps",
                 "diag.moment_reps")
_STREAMS_MAX = _rng._IDX_MAX + 1
_COUNT_MAX = 2**31 - 1


class _LongLiteral:
    """A JSON integer literal past ``int``'s digit limit; no key accepts it."""

    def __init__(self, text):
        self.digits = len(text.lstrip("-"))

    def __repr__(self):
        return f"an integer literal of {self.digits} digits"


def _json_int(text):
    try:
        return int(text)
    except ValueError:  # past sys.get_int_max_str_digits()
        return _LongLiteral(text)


def _number(x, key):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {x!r}")
    try:
        value = float(x)
    except OverflowError:  # an integer past the float range
        value = math.inf
    if not math.isfinite(value):  # JSON admits NaN, Infinity and 1e309
        raise ConfigError(f"{key}: expected a finite number, got {x!r}")
    return value


def _integer(x, key):
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"{key}: expected an integer, got {x!r}")
    return int(x)


def _boolean(x, key):
    if not isinstance(x, bool):
        raise ConfigError(f"{key}: expected true/false, got {x!r}")
    return x


def _string(x, key):
    if not isinstance(x, str):
        raise ConfigError(f"{key}: expected a string, got {x!r}")
    return x


def _float_list(x, key):
    if not isinstance(x, list) or not x:
        raise ConfigError(f"{key}: expected a nonempty array of numbers")
    return [_number(v, key) for v in x]


def _string_list(x, key):
    if not isinstance(x, list) or not x:
        raise ConfigError(f"{key}: expected a nonempty array of strings")
    return [_string(v, key) for v in x]


def _matrix(x, key):
    if not isinstance(x, list) or not all(isinstance(row, list) for row in x):
        raise ConfigError(f"{key}: expected an array of arrays")
    return [[_number(v, key) for v in row] for row in x]


# key -> (parser, default); default _REQ means the key must be present.
_REGISTRY = {
    "run.d": (_integer, _REQ),
    "run.N": (_integer, _REQ),
    "run.T": (_number, _REQ),
    "run.alpha": (_number, _REQ),
    "run.seed": (_integer, _REQ),
    "run.h0": (_number, _REQ),
    "run.eps_grid": (_float_list, _REQ),
    "run.replicas": (_integer, _REQ),
    "run.samples_per_replica": (_integer, _REQ),
    "run.scheme": (_string, "exponential"),
    "run.self_test": (_boolean, False),
    "potential.kind": (_string, _REQ),
    "potential.lambda": (_number, _REQ),
    "potential.kappa": (_number, _REQ),
    "noise.kind": (_string, _REQ),
    "noise.gamma": (_number, _REQ),
    "noise.sigma": (_number, _REQ),
    "noise.clip": (_boolean, False),
    "noise.g": (_string, None),
    "noise.omegas": (_matrix, None),
    "noise.a": (_float_list, None),
    "noise.b": (_float_list, None),
    "limit.modes": (_string_list, _REQ),
    "limit.h": (_number, None),
    "limit.replicas": (_integer, None),
    "limit.samples_per_replica": (_integer, None),
    "limit.explicit_matrix": (_matrix, None),
    "output.dir": (_string, _REQ),
    "output.dump_trajectories": (_boolean, False),
    "init.position_mean": (_number, 0.0),
    "init.position_std": (_number, 1.0),
    "init.velocity": (_number, 0.0),
    "gk.horizon_fast": (_number, None),
    "gk.reps": (_integer, 256),
    "gk.dt": (_number, None),
    "diag.reps": (_integer, 512),
    "diag.moment_reps": (_integer, 256),
    "diag.N": (_integer, 8),
    "diag.grid_points": (_integer, 48),
    "diag.lag_lo": (_number, 0.01),
    "diag.lag_hi": (_number, 1.0),
}

_MODES = ("paper", "green-kubo", "explicit")
# The noise keys each noise kind reads; a key of another kind is rejected.
_NOISE_KIND_KEYS = {"scalar-ou": (), "separable": ("noise.g",),
                    "fourier-field": ("noise.omegas", "noise.a", "noise.b")}


@dataclass(frozen=True)
class Config:
    """Validated view over the flat document."""

    values: dict

    # -- typed views -------------------------------------------------------

    @property
    def eps_grid(self) -> list[float]:
        return list(self.values["run.eps_grid"])

    @property
    def seed(self) -> int:
        return self.values["run.seed"]

    @property
    def modes(self) -> list[str]:
        return list(self.values["limit.modes"])

    def run_config(self, eps: float) -> RunConfig:
        v = self.values
        return RunConfig(d=v["run.d"], N=v["run.N"], eps=eps, alpha=v["run.alpha"],
                         T=v["run.T"], h0=v["run.h0"], seed=v["run.seed"],
                         replica_count=v["run.replicas"],
                         samples_per_replica=v["run.samples_per_replica"])

    def potential(self) -> PotentialSpec:
        v = self.values
        kind = v["potential.kind"]
        if kind not in ("quadratic", "curie-weiss"):
            raise ConfigError(f"potential.kind: unsupported kind {kind!r} in configuration")
        try:
            return PotentialSpec(kind, v["potential.lambda"], v["potential.kappa"])
        except UsageError as err:  # a zero Lipschitz bound
            raise ConfigError(f"potential.lambda, potential.kappa: {err}") from None

    def noise_model(self) -> NoiseModel:
        v = self.values
        kind = v["noise.kind"]
        common = dict(d=v["run.d"], gamma=v["noise.gamma"], sigma=v["noise.sigma"],
                      clip=v["noise.clip"])
        if kind == "scalar-ou":
            return NoiseModel.scalar_ou(**common)
        if kind not in _NOISE_KIND_KEYS:
            raise ConfigError(f"noise.kind: unknown kind {kind!r}")
        if kind == "separable" and v["noise.g"] is None:
            raise ConfigError("noise.g is required for separable noise")
        if kind == "fourier-field" and None in (v["noise.omegas"], v["noise.a"], v["noise.b"]):
            raise ConfigError("fourier-field noise needs noise.omegas, noise.a, noise.b")
        try:
            if kind == "separable":
                return NoiseModel.separable(g_name=v["noise.g"], **common)
            return NoiseModel.fourier_field(
                omegas=np.asarray(v["noise.omegas"]), a=np.asarray(v["noise.a"]),
                b=np.asarray(v["noise.b"]), **common)
        except ValueError as err:  # a UsageError, or numpy refusing a ragged noise.omegas
            raise ConfigError(f"{', '.join(_NOISE_KIND_KEYS[kind])}: {err}") from None

    def init_law(self) -> InitialLaw:
        v = self.values
        return InitialLaw(position_mean=v["init.position_mean"],
                          position_std=v["init.position_std"],
                          velocity=v["init.velocity"])

    def gk_horizon(self) -> float:
        h = self.values["gk.horizon_fast"]
        return h if h is not None else 50.0 / self.values["noise.gamma"]

    def particle_local(self, system: str) -> bool:
        """Whether one particle's law in ``system`` ("eps" or "limit") does
        not depend on ``run.N``.

        In "limit" a quadratic potential has no mean-field term; in "eps"
        the forcing must also be scalar-ou, the driver itself rather than a
        field averaged over the ensemble.
        """
        v = self.values
        return v["potential.kind"] == "quadratic" and (
            system == "limit" or v["noise.kind"] == "scalar-ou")

    def limit_pooling(self) -> tuple[int, int]:
        """(replicas, samples per replica) for the limit-law sample; where
        the limit run keeps ``run.N`` (particles interact) the samples per
        replica are capped at ``run.N``."""
        v = self.values
        reps = v["limit.replicas"] or v["run.replicas"]
        spr = v["limit.samples_per_replica"] or v["run.samples_per_replica"]
        return reps, spr if self.particle_local("limit") else min(spr, v["run.N"])


def parse_config(doc) -> Config:
    """Validate a flat document (dict or JSON text) against the registry."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc, parse_int=_json_int)
        except ValueError as err:
            raise ConfigError(f"invalid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object of dotted keys")
    unknown = sorted(set(doc) - set(_REGISTRY))
    if unknown:
        raise ConfigError(f"unrecognized configuration keys: {', '.join(unknown)}")
    values = {}
    for key, (parse, default) in _REGISTRY.items():
        if key in doc:
            values[key] = parse(doc[key], key)
        elif default is _REQ:
            raise ConfigError(f"missing required configuration key: {key}")
        else:
            values[key] = default
    _cross_validate(values)
    return Config(values=values)


def _cross_validate(v):
    if not 0 <= v["run.seed"] < 2**64:
        raise ConfigError(f"run.seed must lie in [0, 2**64), got {v['run.seed']}")
    for key, (parse, _) in _REGISTRY.items():
        if parse is _integer and key != "run.seed" and v[key] is not None:
            top = _STREAMS_MAX if key in _REPLICA_KEYS else _COUNT_MAX
            if v[key] > top:
                raise ConfigError(f"{key} must be <= {top}, got {v[key]}")
    grid = v["run.eps_grid"]
    if len(grid) > _STREAMS_MAX:
        raise ConfigError(f"run.eps_grid may hold at most {_STREAMS_MAX} values, one "
                          f"stream index each; got {len(grid)}")
    if any(e2 >= e1 for e1, e2 in zip(grid, grid[1:])):
        raise ConfigError("run.eps_grid must be strictly decreasing")
    if any(not 0.0 < e <= 1.0 for e in grid):
        raise ConfigError("run.eps_grid entries must lie in (0, 1]")
    if not 0.0 < v["run.h0"] <= 0.2:
        raise ConfigError("run.h0 must lie in (0, 0.2]")
    if v["run.scheme"] not in ("exponential", "euler"):
        raise ConfigError(f"run.scheme: unknown scheme {v['run.scheme']!r}")
    bad = [m for m in v["limit.modes"] if m not in _MODES]
    if bad:
        raise ConfigError(f"limit.modes: unknown modes {bad}")
    if len(set(v["limit.modes"])) < len(v["limit.modes"]):
        raise ConfigError(f"limit.modes: {v['limit.modes']} repeats a mode; each run of "
                          "a mode overwrites the W2 column of the one before")
    if "green-kubo" in v["limit.modes"] and "explicit" in v["limit.modes"]:
        raise ConfigError("limit.modes: green-kubo and explicit both report in the "
                          "w2_gk_mode column, so one would overwrite the other; "
                          "configure one of them")
    if "explicit" in v["limit.modes"] and v["limit.explicit_matrix"] is None:
        raise ConfigError("limit.explicit_matrix is required for the explicit mode")
    mat, d = v["limit.explicit_matrix"], v["run.d"]
    if mat is not None and (len(mat) != d or any(len(row) != d for row in mat)):
        raise ConfigError(f"limit.explicit_matrix must be a run.d x run.d = {d} x {d} "
                          f"matrix, got rows of lengths {[len(row) for row in mat]}")
    for key in ("noise.gamma", "run.alpha", "run.T"):
        if v[key] <= 0.0:
            raise ConfigError(f"{key} must be > 0")
    for key in ("noise.sigma", "potential.lambda", "init.position_std"):
        if v[key] < 0.0:
            raise ConfigError(f"{key} must be >= 0, got {v[key]!r}")
    if v["potential.kind"] == "quadratic" and v["potential.kappa"] != 0.0:
        raise ConfigError("potential.kappa must be 0 under potential.kind quadratic, "
                          "which has no coupling term")
    horizon = v["gk.horizon_fast"]
    if horizon is not None and horizon < GK_MIN_HORIZON / v["noise.gamma"]:
        raise ConfigError(f"gk.horizon_fast must be >= {GK_MIN_HORIZON:g}/noise.gamma = "
                          f"{GK_MIN_HORIZON / v['noise.gamma']:g}, got {horizon!r}")
    if v["diag.grid_points"] < 2:
        raise ConfigError(f"diag.grid_points must be >= 2, got {v['diag.grid_points']}")
    for key in ("run.d", "run.N", "run.replicas", "run.samples_per_replica", "diag.N"):
        if v[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {v[key]}")
    if v["run.samples_per_replica"] > v["run.N"]:
        raise ConfigError("run.samples_per_replica cannot exceed run.N")
    for key in ("limit.replicas", "limit.samples_per_replica"):
        if v[key] is not None and v[key] < 1:
            raise ConfigError(f"{key} must be >= 1 (omit it to use the run.* value)")
    dt = v["gk.dt"]
    if dt is not None and not 0.0 < dt * v["noise.gamma"] <= GK_MAX_DT:
        raise ConfigError(f"gk.dt must be > 0 and <= {GK_MAX_DT:g}/noise.gamma = "
                          f"{GK_MAX_DT / v['noise.gamma']:g}, got {dt!r}")
    if v["gk.reps"] < 2:
        raise ConfigError("gk.reps must be >= 2: the confidence halfwidth needs two replicas")
    if v["diag.moment_reps"] < 2:
        raise ConfigError("diag.moment_reps must be >= 2: the confidence halfwidth needs "
                          "two replicas")
    if v["diag.reps"] < BM_PROXY_MIN_PATHS:
        raise ConfigError(f"diag.reps must be >= {BM_PROXY_MIN_PATHS}: the Brownian-motion "
                          "proxy needs that many independent u paths")
    if not 0.0 < v["diag.lag_lo"] <= v["diag.lag_hi"]:
        raise ConfigError("diag.lag_lo must satisfy 0 < diag.lag_lo <= diag.lag_hi, got "
                          f"{v['diag.lag_lo']!r} and {v['diag.lag_hi']!r}")
    # The objects are built last, so that each single-key check above keeps
    # its own message, and a missing key is named before a foreign one.
    cfg = Config(values=v)
    cfg.noise_model()
    pot = cfg.potential()
    kind = v["noise.kind"]
    for other, keys in _NOISE_KIND_KEYS.items():
        for key in keys:
            if other != kind and v[key] is not None:
                raise ConfigError(f"{key} is a {other} key; noise.kind {kind} does not "
                                  "read it")
    if v["limit.h"] is not None:
        try:
            LimitScheme(v["limit.h"]).validate(v["run.alpha"], pot)
        except UsageError as err:
            raise ConfigError(f"limit.h: {err}") from None


def serialize_config(cfg: Config) -> str:
    """Canonical JSON text; stable key order, exact value round-trip."""
    doc = {}
    for key in sorted(_REGISTRY):
        val = cfg.values[key]
        if val is None:
            continue
        doc[key] = val
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_config(path) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read configuration file {path}: {err}") from None
    return parse_config(text)
