"""Instruments that the benchmark installs into smallmass from outside.

Nothing under ``src/`` knows about them.  Modules of the package import
names directly (``from .dynamics_eps import run_eps_replicas``), so a
wrapper on the defining module alone would miss most callers: every
wrapper is installed at each ``smallmass.*`` module attribute that holds
the original object, which is the name each caller looks up.

Two kinds of instrument exist:

* counters, cheap enough for the timed (untraced) runs: process-pool
  constructions and submissions, and the first call into a simulation
  layer, which ends the set-up interval;
* spans, for the traced run only: name, start, end and parent span, kept
  in flat arrays in memory and written out when the run ends.  Work counts
  (particle-steps, forcing points, transport sample sizes, kept samples)
  are computed at the same boundaries from the call's arguments and result
  shapes, so every ratio is measured where the work happens.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import Counter


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _steps(T, h):
    # The integrators' step law: the horizon divided by the step, rounded.
    return max(1, round(T / h))


class Instruments:
    """Patches installed into the loaded ``smallmass`` modules.

    ``restore()`` puts every original back, so tests can install and
    remove the instruments within one process.  Times are read from the
    system-wide monotonic clock, so a parent process can compare them with
    its own stamps.
    """

    def __init__(self):
        self.counts = Counter()
        self.first_call_at = None
        self.missing = []
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patched = []

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, module_name, attr, make_wrapper):
        """Wrap ``module_name.attr`` at every smallmass name bound to it."""
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module else None
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "smallmass" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- counters ----------------------------------------------------------

    def count_calls(self, owner, attr, key):
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self._set(owner, attr, wrapper)

    def count_pools(self):
        """Count process pools started and work items handed to them."""
        from concurrent.futures import ProcessPoolExecutor

        self.count_calls(ProcessPoolExecutor, "__init__", "harness.pools_started")
        self.count_calls(ProcessPoolExecutor, "submit", "harness.batches")

    def stamp_first_call(self, module_name, attrs):
        """Record the clock at the first call of any of ``attrs``."""

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if self.first_call_at is None:
                    self.first_call_at = time.monotonic()
                return original(*args, **kwargs)

            return wrapper

        for attr in attrs:
            self._replace_everywhere(module_name, attr, make)

    # -- spans -------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def spanned(self, name, fn, work=None):
        """``fn`` recording one span per call; ``work`` adds work counts."""
        nid = self._name_id(name)
        stack, clock, counts = self._stack, time.monotonic, self.counts
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if work is not None:
                work(counts, args, kwargs, result)
            return result

        return wrapper

    def trace(self, name, module_name, attr, work=None):
        self._replace_everywhere(module_name, attr,
                                 lambda fn: self.spanned(name, fn, work))

    def dump(self) -> dict:
        return {"names": self.names, "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start": self.span_start.tolist(), "end": self.span_end.tolist(),
                "counts": dict(self.counts), "missing": self.missing}


# -- work counts at the wrapped boundaries -----------------------------------


def _eps_work(counts, args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "cfg")
    R, N = result[0].shape[:2]
    counts["dynamics_eps.particles"] += R * N
    counts["dynamics_eps.particle_steps"] += R * N * _steps(cfg.T, cfg.eps_step)


def _pooled_kept(counts, args, kwargs, result):
    counts["dynamics_eps.kept"] += result.shape[0]


def _moment_kept(counts, args, kwargs, result):
    # Every particle of every replica enters the moment estimates.
    counts["dynamics_eps.kept"] += result.n_replicas * result.n_particles


def _limit_work(counts, args, kwargs, result):
    from smallmass.dynamics_limit import default_limit_scheme

    cfg, pot = _arg(args, kwargs, 0, "cfg"), _arg(args, kwargs, 1, "pot")
    sch = _arg(args, kwargs, 6, "sch") or default_limit_scheme(cfg, pot)
    R, N = result.shape[:2]
    counts["dynamics_limit.particle_steps"] += R * N * _steps(cfg.T, sch.h)


def _forcing_work(counts, args, kwargs, result):
    import numpy as np

    model = _arg(args, kwargs, 0, "model")
    if model.kind == "scalar-ou":
        return  # the x-independent field: the driver value is the average
    xi = _arg(args, kwargs, 1, "xi")
    points = _arg(args, kwargs, 2, "points")
    # Driver batch axes broadcast against point batch axes; the field is
    # averaged over the last point axis once per broadcast batch entry.
    batch = np.broadcast_shapes(xi.shape[: xi.ndim - len(model.driver_shape)],
                                points.shape[:-2])
    counts["noise.forcing_points"] += math.prod(batch) * points.shape[-2]


def _w2_work(counts, args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    counts["transport.points"] += len(a) + len(b)


def _normals_work(counts, args, kwargs, result):
    counts["rng.normals"] += getattr(result, "size", 1)


# (span name, defining module, attribute, work count)
SPANS = (
    ("harness.run_convergence", "smallmass.harness", "run_convergence", None),
    ("harness.eps_phase", "smallmass.harness", "pool_eps_samples", _pooled_kept),
    ("harness.limit_phase", "smallmass.harness", "pool_limit_samples", None),
    ("harness.diffusion", "smallmass.harness", "build_mode_diffusions", None),
    ("harness.bootstrap", "smallmass.harness", "_block_bootstrap_ci", None),
    ("config.load", "smallmass.config", "load_config", None),
    ("dynamics_eps.run_eps_replicas", "smallmass.dynamics_eps", "run_eps_replicas",
     _eps_work),
    ("dynamics_limit.run_limit_replicas", "smallmass.dynamics_limit",
     "run_limit_replicas", _limit_work),
    ("noise.forcing", "smallmass.noise", "averaged_forcing_xi", _forcing_work),
    ("noise.driver", "smallmass.noise", "advance_xi", None),
    ("core.pairwise_mean", "smallmass.core", "pairwise_mean", None),
    ("transport.w2", "smallmass.transport", "w2_auto", _w2_work),
    ("diagnostics.green_kubo", "smallmass.diagnostics", "green_kubo", None),
    ("diagnostics.moment_table", "smallmass.diagnostics", "moment_table", _moment_kept),
    ("diagnostics.uv_check", "smallmass.diagnostics", "uv_check", None),
)


def install_spans(inst: Instruments):
    """Install every span of ``SPANS`` plus the rng and ensemble counters."""
    import numpy as np

    import smallmass.harness  # noqa: F401  (loads every module wrapped below)
    from smallmass.core import ParticleEnsemble

    for name, module_name, attr, work in SPANS:
        inst.trace(name, module_name, attr, work)
    inst.count_calls(ParticleEnsemble, "__post_init__", "core.ensembles_built")

    class CountingGenerator(np.random.Generator):
        """The same bit stream, with each normal draw recorded as a span."""

        standard_normal = inst.spanned("rng.draw", np.random.Generator.standard_normal,
                                       _normals_work)

    def counting_stream(original):
        spanned = inst.spanned("rng.stream", original)

        @functools.wraps(original)
        def stream(*args, **kwargs):
            return CountingGenerator(spanned(*args, **kwargs).bit_generator)

        return stream

    inst._replace_everywhere("smallmass.rng", "stream", counting_stream)


def layer_metrics(trace: dict) -> dict:
    """Per-layer busy time, self time, calls and work counts of one run.

    A span's self time is its duration minus the durations of its direct
    children; spans nest on one thread, so children never overlap.
    """
    names = trace["names"]
    dur = [e - s for s, e in zip(trace["start"], trace["end"])]
    child = [0.0] * len(dur)
    for i, p in enumerate(trace["parent"]):
        if p >= 0:
            child[p] += dur[i]
    busy, self_s, calls = Counter(), Counter(), Counter()
    boot_calls = 0
    for i, (nid, p) in enumerate(zip(trace["name"], trace["parent"])):
        nm = names[nid]
        busy[nm] += dur[i]
        self_s[nm] += dur[i] - child[i]
        calls[nm] += 1
        if nm == "transport.w2" and p >= 0 and names[trace["name"][p]] == "harness.bootstrap":
            boot_calls += 1
    c = Counter(trace["counts"])

    def ratio(a, b):
        return a / b if b else 0.0

    converge = busy["harness.run_convergence"]
    eps_phase, limit_phase = busy["harness.eps_phase"], busy["harness.limit_phase"]
    eps_busy = busy["dynamics_eps.run_eps_replicas"]
    limit_busy = busy["dynamics_limit.run_limit_replicas"]
    return {
        "harness.converge_s": converge,
        "harness.eps_phase_s": eps_phase,
        "harness.limit_phase_s": limit_phase,
        "harness.diffusion_s": busy["harness.diffusion"],
        "harness.parallel_share": ratio(eps_phase + limit_phase, converge),
        "config.load_s": busy["config.load"],
        "dynamics_eps.busy_s": eps_busy,
        "dynamics_eps.self_s": self_s["dynamics_eps.run_eps_replicas"],
        "dynamics_eps.particle_steps": c["dynamics_eps.particle_steps"],
        "dynamics_eps.particle_steps_per_s": ratio(c["dynamics_eps.particle_steps"], eps_busy),
        "dynamics_eps.particles": c["dynamics_eps.particles"],
        "dynamics_eps.kept": c["dynamics_eps.kept"],
        "dynamics_eps.kept_ratio": ratio(c["dynamics_eps.kept"], c["dynamics_eps.particles"]),
        "noise.forcing_calls": calls["noise.forcing"],
        "noise.forcing_s": busy["noise.forcing"],
        "noise.forcing_points": c["noise.forcing_points"],
        "noise.driver_s": busy["noise.driver"],
        "core.pairwise_mean_s": busy["core.pairwise_mean"],
        "core.ensembles_built": c["core.ensembles_built"],
        "rng.streams": calls["rng.stream"],
        "rng.normals": c["rng.normals"],
        "rng.draw_s": busy["rng.stream"] + busy["rng.draw"],
        "dynamics_limit.busy_s": limit_busy,
        "dynamics_limit.particle_steps": c["dynamics_limit.particle_steps"],
        "dynamics_limit.particle_steps_per_s": ratio(c["dynamics_limit.particle_steps"],
                                                     limit_busy),
        "transport.calls": calls["transport.w2"],
        "transport.busy_s": busy["transport.w2"],
        "transport.points": c["transport.points"],
        "transport.bootstrap_calls": boot_calls,
        "transport.bootstrap_share": ratio(boot_calls, calls["transport.w2"]),
        "diagnostics.green_kubo_s": busy["diagnostics.green_kubo"],
        "diagnostics.moment_table_s": busy["diagnostics.moment_table"],
        "diagnostics.uv_check_s": busy["diagnostics.uv_check"],
    }
