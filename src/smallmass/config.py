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
from dataclasses import dataclass

import numpy as np

from .core import PotentialSpec, RunConfig
from .diagnostics import BM_PROXY_MIN_PATHS
from .dynamics_eps import InitialLaw
from .errors import ConfigError
from .noise import NoiseModel

__all__ = ["Config", "load_config", "parse_config", "serialize_config"]

_REQ = object()


def _number(x, key):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {x!r}")
    return float(x)


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


@dataclass(frozen=True)
class Config:
    """Validated view over the flat document."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

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
        if kind == "quadratic":
            return PotentialSpec.quadratic(v["potential.lambda"])
        if kind == "curie-weiss":
            return PotentialSpec.curie_weiss(v["potential.lambda"], v["potential.kappa"])
        raise ConfigError(f"potential.kind: unsupported kind {kind!r} in configuration")

    def noise_model(self) -> NoiseModel:
        v = self.values
        kind = v["noise.kind"]
        common = dict(d=v["run.d"], gamma=v["noise.gamma"], sigma=v["noise.sigma"],
                      clip=v["noise.clip"])
        if kind == "scalar-ou":
            return NoiseModel.scalar_ou(**common)
        if kind == "separable":
            if v["noise.g"] is None:
                raise ConfigError("noise.g is required for separable noise")
            return NoiseModel.separable(g_name=v["noise.g"], **common)
        if kind == "fourier-field":
            if v["noise.omegas"] is None or v["noise.a"] is None or v["noise.b"] is None:
                raise ConfigError("fourier-field noise needs noise.omegas, noise.a, noise.b")
            return NoiseModel.fourier_field(
                omegas=np.asarray(v["noise.omegas"]), a=np.asarray(v["noise.a"]),
                b=np.asarray(v["noise.b"]), **common)
        raise ConfigError(f"noise.kind: unknown kind {kind!r}")

    def init_law(self) -> InitialLaw:
        v = self.values
        return InitialLaw(position_mean=v["init.position_mean"],
                          position_std=v["init.position_std"],
                          velocity=v["init.velocity"])

    def gk_horizon(self) -> float:
        h = self.values["gk.horizon_fast"]
        return h if h is not None else 50.0 / self.values["noise.gamma"]

    def limit_pooling(self) -> tuple[int, int]:
        """(replicas, samples per replica) for the limit-law sample; the
        samples per replica are capped at ``run.N``."""
        v = self.values
        reps = v["limit.replicas"] or v["run.replicas"]
        spr = v["limit.samples_per_replica"] or v["run.samples_per_replica"]
        return reps, min(spr, v["run.N"])


def parse_config(doc) -> Config:
    """Validate a flat document (dict or JSON text) against the registry."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as err:
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
    grid = v["run.eps_grid"]
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
    if v["noise.gamma"] <= 0.0:
        raise ConfigError("noise.gamma must be > 0")
    if v["run.alpha"] <= 0.0:
        raise ConfigError("run.alpha must be > 0")
    for key in ("run.d", "run.N", "run.replicas", "run.samples_per_replica", "diag.N"):
        if v[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {v[key]}")
    if v["run.samples_per_replica"] > v["run.N"]:
        raise ConfigError("run.samples_per_replica cannot exceed run.N")
    for key in ("limit.replicas", "limit.samples_per_replica"):
        if v[key] is not None and v[key] < 1:
            raise ConfigError(f"{key} must be >= 1 (omit it to use the run.* value)")
    if v["gk.dt"] is not None and v["gk.dt"] <= 0.0:
        raise ConfigError("gk.dt must be > 0")
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
