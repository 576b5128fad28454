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

from . import rng as _rng
from .core import EmpiricalMeasure, PotentialSpec, RunConfig
from .diagnostics import BM_PROXY_MIN_PATHS, GK_MAX_DT, GK_MIN_HORIZON
from .dynamics_eps import InitialLaw
from .dynamics_limit import DiffusionSpec, LimitScheme
from .errors import ConfigError, UsageError
from .noise import NoiseModel, sigma_matrix

__all__ = ["Config", "load_config", "parse_config", "serialize_config"]

_REQ = object()

# Replica counts and the eps grid index counter-based streams (one stream
# per eps value, and per replica or block of replicas), so they share the
# stream index bound; every other count stays within a C int.
_STREAMS_MAX = _rng._IDX_MAX + 1
_COUNT_MAX = 2**31 - 1
# The W2 column each limit mode reports in; two configured modes may not
# share one, since each would overwrite the other's value.
MODE_COLUMN = {"paper": "w2_paper_mode", "green-kubo": "w2_gk_mode",
               "explicit": "w2_gk_mode"}
# The noise keys each noise kind reads; a key of another kind is rejected.
_NOISE_KIND_KEYS = {"scalar-ou": (), "separable": ("noise.g",),
                    "fourier-field": ("noise.omegas", "noise.a", "noise.b")}


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


# Each registry row holds a parser ``parse(x, key)``, built by one of the
# factories below, that returns the value of ``key`` or raises a
# ``ConfigError`` naming it: its type and its range in one place.


def _in_range(value, key, lo, hi, open_lo):
    if lo < value <= hi or (value == lo and not open_lo):
        return value
    right = ")" if hi == math.inf else "]"
    raise ConfigError(f"{key} must lie in {'(' if open_lo else '['}{lo}, {hi}{right}, "
                      f"got {value!r}")


def _number(lo=-math.inf, hi=math.inf, open_lo=False):
    def parse(x, key):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ConfigError(f"{key}: expected a number, got {x!r}")
        try:
            value = float(x)
        except OverflowError:  # an integer past the float range
            value = math.inf
        if not math.isfinite(value):  # JSON admits NaN, Infinity and 1e309
            raise ConfigError(f"{key}: expected a finite number, got {x!r}")
        return _in_range(value, key, lo, hi, open_lo)
    return parse


def _integer(lo, hi=_COUNT_MAX):
    def parse(x, key):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ConfigError(f"{key}: expected an integer, got {x!r}")
        return _in_range(int(x), key, lo, hi, False)
    return parse


def _boolean(x, key):
    if not isinstance(x, bool):
        raise ConfigError(f"{key}: expected true/false, got {x!r}")
    return x


def _string(x, key):
    if not isinstance(x, str):
        raise ConfigError(f"{key}: expected a string, got {x!r}")
    return x


def _choice(*names):
    def parse(x, key):
        if _string(x, key) not in names:
            raise ConfigError(f"{key} must be one of {', '.join(names)}, got {x!r}")
        return x
    return parse


def _list(item, max_len=_COUNT_MAX):
    def parse(x, key):
        if not isinstance(x, list) or not x:
            raise ConfigError(f"{key}: expected a nonempty array, got {x!r}")
        if len(x) > max_len:
            raise ConfigError(f"{key} may hold at most {max_len} values, got {len(x)}")
        return [item(v, key) for v in x]
    return parse


def _eps_grid(x, key):
    grid = _list(_number(0.0, 1.0, open_lo=True), _STREAMS_MAX)(x, key)
    if any(e2 >= e1 for e1, e2 in zip(grid, grid[1:])):
        raise ConfigError(f"{key} must be strictly decreasing")
    return grid


def _modes(x, key):
    modes = _list(_choice(*MODE_COLUMN))(x, key)
    seen = {}
    for mode in modes:
        col = MODE_COLUMN[mode]
        if seen.get(col) == mode:
            raise ConfigError(f"{key}: {modes} repeats a mode; each run of a mode "
                              "overwrites the W2 column of the one before")
        if col in seen:
            raise ConfigError(f"{key}: {seen[col]} and {mode} both report in the {col} "
                              "column, so one would overwrite the other; configure "
                              "one of them")
        seen[col] = mode
    return modes


_matrix = _list(_list(_number()))
_positive = _number(0.0, open_lo=True)
_nonnegative = _number(0.0)

# key -> (parser, default); default _REQ means the key must be present.
_REGISTRY = {
    "run.d": (_integer(1), _REQ),
    "run.N": (_integer(1), _REQ),
    "run.T": (_positive, _REQ),
    "run.alpha": (_positive, _REQ),
    "run.seed": (_integer(0, 2**64 - 1), _REQ),
    "run.h0": (_number(0.0, 0.2, open_lo=True), _REQ),
    "run.eps_grid": (_eps_grid, _REQ),
    "run.replicas": (_integer(1, _STREAMS_MAX), _REQ),
    "run.samples_per_replica": (_integer(1), _REQ),
    "run.self_test": (_boolean, False),
    "potential.kind": (_choice("quadratic", "curie-weiss"), _REQ),
    "potential.lambda": (_nonnegative, _REQ),
    "potential.kappa": (_number(), _REQ),
    "noise.kind": (_choice(*_NOISE_KIND_KEYS), _REQ),
    "noise.gamma": (_positive, _REQ),
    "noise.sigma": (_nonnegative, _REQ),
    "noise.clip": (_boolean, False),
    "noise.g": (_string, None),
    "noise.omegas": (_matrix, None),
    "noise.a": (_list(_number()), None),
    "noise.b": (_list(_number()), None),
    "limit.modes": (_modes, _REQ),
    "limit.h": (_positive, None),
    "limit.replicas": (_integer(1, _STREAMS_MAX), None),
    "limit.samples_per_replica": (_integer(1), None),
    "limit.explicit_matrix": (_matrix, None),
    "output.dir": (_string, _REQ),
    "output.dump_trajectories": (_boolean, False),
    "init.position_mean": (_number(), 0.0),
    "init.position_std": (_nonnegative, 1.0),
    "init.velocity": (_number(), 0.0),
    "gk.horizon_fast": (_number(), None),
    "gk.reps": (_integer(2, _STREAMS_MAX), 256),
    "gk.dt": (_positive, None),
    "diag.reps": (_integer(BM_PROXY_MIN_PATHS, _STREAMS_MAX), 512),
    "diag.moment_reps": (_integer(2, _STREAMS_MAX), 256),
    "diag.N": (_integer(1), 8),
    "diag.grid_points": (_integer(2), 48),
    "diag.lag_lo": (_positive, 0.01),
    "diag.lag_hi": (_number(), 1.0),
}


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
                         T=v["run.T"], h0=v["run.h0"], seed=v["run.seed"])

    def potential(self) -> PotentialSpec:
        v = self.values
        try:
            return PotentialSpec(v["potential.kind"], v["potential.lambda"],
                                 v["potential.kappa"])
        except UsageError as err:  # a zero Lipschitz bound
            raise ConfigError(f"potential.lambda, potential.kappa: {err}") from None

    def noise_model(self) -> NoiseModel:
        """The noise model; a key its kind needs but lacks, or a bad value,
        is named by the kind's keys."""
        v = self.values
        kind = v["noise.kind"]
        try:
            return NoiseModel(kind, d=v["run.d"], gamma=v["noise.gamma"],
                              sigma=v["noise.sigma"], clip=v["noise.clip"],
                              g_name=v["noise.g"], omegas=v["noise.omegas"],
                              a=v["noise.a"], b=v["noise.b"])
        except ValueError as err:  # a UsageError, or numpy refusing a ragged noise.omegas
            raise ConfigError(f"{', '.join(_NOISE_KIND_KEYS[kind])}: {err}") from None

    def reference_measure(self) -> EmpiricalMeasure:
        """Frozen measure for law-dependent noise metadata (the initial law)."""
        gen = _rng.stream(self.seed, _rng.DIRECT, 1)
        pts = self.init_law().draw_positions(1024, self.values["run.d"], gen)
        return EmpiricalMeasure(pts)

    def diffusion(self, mode: str) -> DiffusionSpec:
        """D_eff of one limit mode; the one place a mode name becomes a matrix.

        paper: Sigma / (alpha^2 * gamma), the stationary forcing covariance
        Sigma at ``reference_measure()`` over the envelope decay rate gamma;
        green-kubo: G / alpha^2 with G = 2 * Sigma / gamma, the Green-Kubo
        integral of the forcing autocovariance, exact for the OU driver of
        every noise kind (``diagnostics.green_kubo`` measures G on its own),
        so twice paper's; explicit: ``limit.explicit_matrix`` as is.  The
        convergence study reports W2 under each configured mode, so the
        normalization is settled by measurement rather than by assumption.
        """
        if mode == "explicit":
            return DiffusionSpec(self.values["limit.explicit_matrix"])
        model = self.noise_model()
        matrix = sigma_matrix(model, self.reference_measure()) / (
            self.values["run.alpha"]**2 * model.gamma)
        return DiffusionSpec(2.0 * matrix if mode == "green-kubo" else matrix)

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
    """The rules that join keys; each key's own range is its registry row's."""
    mat, d = v["limit.explicit_matrix"], v["run.d"]
    if (mat is None) == ("explicit" in v["limit.modes"]):
        raise ConfigError("limit.explicit_matrix must be set exactly when limit.modes "
                          "holds explicit, the one mode that reads it; limit.modes is "
                          f"{v['limit.modes']}")
    if mat is not None and (len(mat) != d or any(len(row) != d for row in mat)):
        raise ConfigError(f"limit.explicit_matrix must be a run.d x run.d = {d} x {d} "
                          f"matrix, got rows of lengths {[len(row) for row in mat]}")
    horizon = v["gk.horizon_fast"]
    if horizon is not None and horizon < GK_MIN_HORIZON / v["noise.gamma"]:
        raise ConfigError(f"gk.horizon_fast must be >= {GK_MIN_HORIZON:g}/noise.gamma = "
                          f"{GK_MIN_HORIZON / v['noise.gamma']:g}, got {horizon!r}")
    if v["run.samples_per_replica"] > v["run.N"]:
        raise ConfigError("run.samples_per_replica cannot exceed run.N")
    dt = v["gk.dt"]
    if dt is not None and dt * v["noise.gamma"] > GK_MAX_DT:
        raise ConfigError(f"gk.dt must be > 0 and <= {GK_MAX_DT:g}/noise.gamma = "
                          f"{GK_MAX_DT / v['noise.gamma']:g}, got {dt!r}")
    if v["diag.lag_lo"] > v["diag.lag_hi"]:
        raise ConfigError("diag.lag_lo must satisfy 0 < diag.lag_lo <= diag.lag_hi, got "
                          f"{v['diag.lag_lo']!r} and {v['diag.lag_hi']!r}")
    # The objects are built last, so that a missing key is named before a
    # foreign one.
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
    if mat is not None:
        try:
            cfg.diffusion("explicit")
        except UsageError as err:  # not symmetric, or not positive semidefinite
            raise ConfigError(f"limit.explicit_matrix: {err}") from None


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
