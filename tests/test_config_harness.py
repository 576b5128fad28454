import csv
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from smallmass import harness
from smallmass import rng as _rng
from smallmass.cli import main as cli_main
from smallmass.config import _REGISTRY, load_config, parse_config, serialize_config
from smallmass.diagnostics import green_kubo
from smallmass.dynamics_eps import paired_scheme_gap
from smallmass.dynamics_limit import DiffusionSpec, LimitScheme, run_limit_replicas
from smallmass.errors import ConfigError, UsageError
from smallmass.noise import NoiseModel
from smallmass.harness import (CONVERGE_COLUMNS, build_mode_diffusions, load_sample_file,
                               pool_eps_samples, run_convergence, run_diagnose,
                               run_estimate_gk, run_simulate_eps, run_simulate_limit,
                               worker_count)
from smallmass.transport import w2_1d, w2_auto

from conftest import write_config

NAN, INF = float("nan"), float("inf")


def _done(value) -> Future:
    """A future that already holds ``value``."""
    future = Future()
    future.set_result(value)
    return future


class RawJson(str):
    """A value written into the config's JSON text as is, unquoted."""
FOURIER = {"noise.omegas": [[1.0, 0.0], [0.0, 1.0]], "noise.a": [1.0, 0.5],
           "noise.b": [0.0, 0.5]}
FOURIER_MISSING = r"^noise\.omegas, noise\.a, noise\.b: fourier-field needs omegas, a and b$"
# The tiny config of the CI packaging job.
TINY = {
    "run.d": 1, "run.N": 4, "run.T": 0.2, "run.alpha": 1.0, "run.seed": 7, "run.h0": 0.05,
    "run.eps_grid": [0.2, 0.1], "run.replicas": 8, "run.samples_per_replica": 1,
    "potential.kind": "quadratic", "potential.lambda": 1.0, "potential.kappa": 0.0,
    "noise.kind": "scalar-ou", "noise.gamma": 2.0, "noise.sigma": 1.0,
    "limit.modes": ["paper", "green-kubo"], "gk.reps": 8, "gk.horizon_fast": 10.0,
    "output.dir": "out",
}
# The interacting path: curie-weiss drift, law-dependent fourier-field
# forcing, d = 2, 130 replicas: two whole stream blocks and a short one.
COUPLED = dict(FOURIER, **{
    "run.d": 2, "run.N": 8, "run.replicas": 130, "run.samples_per_replica": 1,
    "potential.kind": "curie-weiss", "potential.kappa": 0.5,
    "noise.kind": "fourier-field", "gk.reps": 8, "gk.horizon_fast": 10.0,
})
# The coupled config of the CI packaging job.
CI_COUPLED = dict(TINY, **dict(COUPLED, **{"run.N": 4}))


class TestConfig:
    def test_round_trip_identity(self, small_config_dict):
        cfg = parse_config(small_config_dict)
        again = parse_config(serialize_config(cfg))
        assert again.values == cfg.values

    def test_unknown_key_is_hard_error(self, small_config_dict):
        doc = dict(small_config_dict, **{"run.alhpa": 1.0})
        with pytest.raises(ConfigError, match="run.alhpa"):
            parse_config(doc)

    def test_missing_required_key_named(self, small_config_dict):
        doc = dict(small_config_dict)
        del doc["noise.gamma"]
        with pytest.raises(ConfigError, match="noise.gamma"):
            parse_config(doc)

    def test_eps_grid_must_decrease(self, small_config_dict):
        doc = dict(small_config_dict, **{"run.eps_grid": [0.1, 0.2]})
        with pytest.raises(ConfigError, match="decreasing"):
            parse_config(doc)

    def test_sampling_cannot_exceed_particles(self, small_config_dict):
        doc = dict(small_config_dict, **{"run.samples_per_replica": 99})
        with pytest.raises(ConfigError, match="samples_per_replica"):
            parse_config(doc)

    def test_output_format_key_is_gone(self, small_config_dict):
        # nothing ever wrote anything but CSV, nothing ran but the
        # exponential scheme, a truncated driver is no longer the OU process
        # that D_eff assumes, no config set a D_eff matrix by hand, a
        # Green-Kubo step or a moment grid, so none of these keys is accepted
        for key, value in (("output.format", "csv"), ("run.scheme", "exponential"),
                           ("noise.clip", False), ("limit.explicit_matrix", [[1.0]]),
                           ("gk.dt", 0.025), ("diag.grid_points", 48)):
            doc = dict(small_config_dict, **{key: value})
            with pytest.raises(ConfigError, match=f"unrecognized.*{key}"):
                parse_config(doc)

    @pytest.mark.parametrize("key", sorted(_REGISTRY))
    def test_wrong_json_type_names_the_key(self, small_config_dict, key):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            parse_config(dict(small_config_dict, **{key: {}}))

    @pytest.mark.parametrize("modes, reason", [
        (["paper", "explicit"],
         "^limit.modes must be one of paper, green-kubo, got 'explicit'"),
        (["paper", "green-kubo", "paper"], "repeats a mode"),
    ])
    def test_modes_sharing_a_column_are_rejected(self, small_config_dict, modes, reason):
        doc = dict(small_config_dict, **{"limit.modes": modes})
        with pytest.raises(ConfigError, match=reason):
            parse_config(doc)

    @pytest.mark.parametrize("key, value", [
        ("diag.lag_lo", 0.0), ("diag.lag_lo", 2.0),
        ("limit.replicas", 0), ("limit.replicas", -1),
        ("limit.samples_per_replica", 0), ("limit.samples_per_replica", -2),
        ("gk.reps", 1), ("run.alpha", 0.0), ("run.alpha", 1.1e154), ("run.alpha", 1e300),
        ("run.replicas", 0), ("run.replicas", -1), ("run.samples_per_replica", 0),
        ("run.N", 0), ("run.d", 0), ("diag.N", 0), ("diag.moment_reps", 1),
        ("diag.reps", 99), ("run.T", 0), ("noise.sigma", -1), ("noise.sigma", 1.1e154),
        ("noise.sigma", 1e300), ("potential.lambda", -1),
        ("potential.kappa", 0.5), ("limit.h", 0), ("limit.h", -0.01), ("limit.h", 0.5),
        ("init.position_std", -1), ("gk.horizon_fast", 1.0),
        ("run.T", NAN), ("run.alpha", INF), ("noise.gamma", NAN), ("noise.sigma", NAN),
        ("potential.lambda", NAN), ("gk.horizon_fast", NAN), ("limit.h", NAN),
        ("init.position_mean", INF), ("init.position_mean", -INF), ("diag.lag_hi", INF),
        ("noise.omegas", [[NAN]]), ("run.eps_grid", [0.2, NAN]),
        pytest.param("run.T", 10**400, id="run.T-int-past-float-range"),
        ("noise.g", "gauss"), ("noise.omegas", [[1.0]]), ("noise.a", [1.0]),
        ("noise.b", [1.0]), ("noise.kind", "pink"), ("potential.kind", "double-well"),
        pytest.param("run.N", RawJson("9" * 5001), id="run.N-5001-digit-literal"),
        pytest.param("run.T", RawJson("-" + "9" * 5001), id="run.T-5001-digit-literal"),
        pytest.param("run.N", 10**30, id="run.N-10**30"), ("run.d", 2**31),
        ("limit.samples_per_replica", 2**31),
        ("run.seed", -1), pytest.param("run.seed", 2**64, id="run.seed-2**64"),
        pytest.param("run.seed", 2**70, id="run.seed-2**70"),
        ("run.replicas", 70000), ("run.replicas", 65537), ("limit.replicas", 65537),
        ("gk.reps", 65537), ("diag.reps", 65537), ("diag.moment_reps", 65537),
        pytest.param("run.eps_grid", [1.0 - i / 70000 for i in range(65537)],
                     id="run.eps_grid-65537-values"),
    ])
    def test_out_of_range_values_are_rejected(self, small_config_dict, key, value):
        # diag.lag_lo 2.0 lies above the default diag.lag_hi of 1.0; the small
        # config's quadratic potential has no coupling, so any potential.kappa
        # but 0 is dropped, and with lambda 1 the limit step cap is 0.01; its
        # scalar-ou noise reads none of noise.g, noise.omegas, noise.a, noise.b.
        # Replica counts and the eps grid index streams, so they stop at 65536;
        # run.alpha and noise.sigma are squared, so they stop at 1e154.
        doc = dict(small_config_dict, **{key: value})
        if isinstance(value, RawJson):  # a literal Python's json cannot write
            doc = json.dumps(dict(doc, **{key: None})).replace(
                f'"{key}": null', f'"{key}": {value}')
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            parse_config(doc)

    @pytest.mark.parametrize("extra, message", [
        ({"run.T": 1e308}, r"run\.T / \(run\.h0 \* eps\) = 1e\+308 / \(0\.05 \* 0\.1\) is "
                           r"inf steps at the smallest eps of run\.eps_grid"),
        ({"run.T": 1e300}, r"run\.T / \(run\.h0 \* eps\) = 1e\+300 / \(0\.05 \* 0\.1\) is "
                           r"2e\+302 steps at the smallest eps of run\.eps_grid"),
        ({"run.T": 1e7, "limit.h": 0.001},
         r"run\.T / limit\.h = 10000000\.0 / 0\.001 is 1e\+10 limit steps"),
        ({"run.T": 1e6, "potential.lambda": 100.0},
         r"run\.T / \(0\.01 \* run\.alpha / stiffness\) = 1000000\.0 / 0\.0001 is "
         r"1e\+10 limit steps"),
    ], ids=["run.T-1e308", "run.T-1e300", "limit.h", "default-limit-step"])
    def test_step_count_past_a_c_int_fails_when_read(self, tmp_path, capsys, extra,
                                                     message):
        # On the CI tiny config run.T 1e308 ended in an OverflowError from
        # int(T / h) and 1e300 ran without end; the 2e9 eps steps of the last
        # two pass, their limit runs do not.
        doc = dict(TINY, **extra)
        message += rf"; at most {2**31 - 1} are allowed"
        with pytest.raises(ConfigError, match=f"^{message}"):
            parse_config(doc)
        path = write_config(tmp_path, doc)
        for command, output in (("converge", "converge.csv"), ("diagnose", "diagnose.csv")):
            out = tmp_path / command
            assert cli_main([command, str(path), "--out", str(out)]) == 1
            assert re.match(f"error: {message}", capsys.readouterr().err)
            assert not (out / output).exists()

    def test_step_count_bound_is_inclusive(self):
        # h = 0.125 * 0.5 and T / h are exact; a nearly flat potential takes
        # the limit runs' default step far above the eps step
        top = 2**31 - 1
        doc = dict(TINY, **{"run.h0": 0.125, "run.eps_grid": [0.5], "run.T": top * 0.0625,
                            "potential.lambda": 1e-6})
        assert parse_config(doc).values["run.T"] == top * 0.0625
        with pytest.raises(ConfigError, match=r"is 2\.15e\+09 steps"):
            parse_config(dict(doc, **{"run.T": (top + 1) * 0.0625}))

    def test_range_bounds_are_inclusive(self, small_config_dict):
        doc = dict(small_config_dict, **{"run.seed": 2**64 - 1, "run.replicas": 65536,
                                         "gk.reps": 65536, "run.N": 2**31 - 1})
        assert parse_config(doc).values["run.replicas"] == 65536
        # Every other registry bound at its edge: the upper ones, the lower
        # ones, and a zero potential.lambda where kappa keeps the Lipschitz
        # bound above 0.
        top = 2**31 - 1
        for edges in (
            {"run.h0": 0.2, "run.eps_grid": [1.0 - i / 70000 for i in range(65536)],
             "limit.replicas": 65536, "diag.reps": 65536, "diag.moment_reps": 65536,
             "run.N": top, "run.samples_per_replica": top,
             "limit.samples_per_replica": top, "diag.N": top, "run.alpha": 1e154,
             "noise.sigma": 1e154},
            {"run.seed": 0, "run.N": 1, "run.samples_per_replica": 1, "run.replicas": 1,
             "limit.replicas": 1, "limit.samples_per_replica": 1, "diag.N": 1,
             "gk.reps": 2, "diag.moment_reps": 2,
             "diag.reps": 100, "noise.sigma": 0.0, "init.position_std": 0.0,
             "diag.lag_lo": 1.0},
            {"potential.kind": "curie-weiss", "potential.lambda": 0.0,
             "potential.kappa": 0.5},
        ):
            values = parse_config(dict(small_config_dict, **edges)).values
            assert {key: values[key] for key in edges} == edges

    @pytest.mark.parametrize("extra, reason", [
        ({"noise.kind": "separable", "noise.g": "nope"},
         r"noise\.g: unknown separable profile"),
        (dict(FOURIER, **{"noise.kind": "fourier-field", "noise.a": [1.0]}),
         r"noise\.omegas, noise\.a, noise\.b: .*length K"),
        (dict(FOURIER, **{"noise.kind": "fourier-field",
                          "noise.omegas": [[1.0, 0.0], [1.0]]}),
         r"noise\.omegas, noise\.a, noise\.b: .*inhomogeneous"),
        ({"noise.kind": "separable", "noise.g": "gauss", "noise.a": [1.0]},
         r"noise\.a is a fourier-field key; noise\.kind separable"),
        (dict(FOURIER, **{"noise.kind": "fourier-field", "noise.g": "gauss"}),
         r"noise\.g is a separable key; noise\.kind fourier-field"),
        ({"potential.lambda": 0.0}, r"potential\.lambda.*Lipschitz bound"),
    ], ids=["profile", "fourier-shape", "ragged-omegas", "a-under-separable",
            "g-under-fourier", "zero-bound"])
    def test_noise_and_potential_are_checked_at_parse(self, small_config_dict, extra,
                                                      reason):
        doc = dict(small_config_dict, **{"run.d": 2}, **extra)
        with pytest.raises(ConfigError, match=reason):
            parse_config(doc)

    @pytest.mark.parametrize("extra, kind", [
        ({"noise.g": "gauss"}, "separable"),
        (FOURIER, "fourier-field"),
    ])
    def test_noise_model_from_config(self, small_config_dict, extra, kind):
        doc = dict(small_config_dict, **{"run.d": 2, "noise.kind": kind}, **extra)
        model = parse_config(doc).noise_model()
        assert (model.kind, model.d, model.gamma, model.sigma) == (kind, 2, 2.0, 1.0)
        if kind == "fourier-field":
            assert np.array_equal(model.omegas, np.array(FOURIER["noise.omegas"]))
            assert np.array_equal(model.b, np.array(FOURIER["noise.b"]))

    @pytest.mark.parametrize("kind, missing, reason", [
        ("separable", "noise.g", r"^noise\.g: unknown separable profile None$"),
        ("fourier-field", "noise.omegas", FOURIER_MISSING),
        ("fourier-field", "noise.a", FOURIER_MISSING),
        ("fourier-field", "noise.b", FOURIER_MISSING),
    ], ids=["separable-noise.g", "fourier-field-noise.omegas", "fourier-field-noise.a",
            "fourier-field-noise.b"])
    def test_noise_model_missing_key(self, small_config_dict, kind, missing, reason):
        doc = dict(small_config_dict, **{"run.d": 2, "noise.kind": kind,
                                         "noise.g": "gauss"}, **FOURIER)
        del doc[missing]
        with pytest.raises(ConfigError, match=reason):
            parse_config(doc).noise_model()

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ConfigError, match="nope.json"):
            load_config(tmp_path / "nope.json")


class TestConvergenceHarness:
    def test_row_count_and_metadata(self, small_config_dict, tmp_path):
        cfg = parse_config(small_config_dict)
        report = run_convergence(cfg)
        assert len(report.rows) == len(cfg.eps_grid)
        assert [r["eps"] for r in report.rows] == cfg.eps_grid
        for r in report.rows:
            assert r["w2_gk_mode"] >= 0.0 and r["w2_paper_mode"] >= 0.0
        path = tmp_path / "converge.csv"
        report.write_csv(path)
        text = path.read_text()
        head, body = text.split("eps,", 1)
        assert "# config.run.seed = 7" in head
        assert "# config.noise.gamma = 2.0" in head
        assert "# smallmass.version" in head
        # header remainder plus one line per eps row
        assert body.count("\n") == len(cfg.eps_grid) + 1

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.delenv("SMALLMASS_WORKERS", raising=False)
        assert worker_count() >= 1
        monkeypatch.setenv("SMALLMASS_WORKERS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("SMALLMASS_WORKERS", "zero")
        with pytest.raises(Exception):
            worker_count()

    @pytest.mark.parametrize("workers, reps", [(1, 150), (2, 150), (3, 150), (4, 130),
                                               (16, 300)])
    def test_pooled_runs_one_contiguous_batch_per_worker(self, monkeypatch, workers, reps):
        # Batches are cut on the 64-replica stream blocks: one per worker,
        # at most one per block, whose block counts differ by at most one;
        # only the last batch ends in a short block.
        class InlinePool:
            def __init__(self, max_workers):
                pass

            def submit(self, fn, item):
                return _done(fn(item))

            def shutdown(self, cancel_futures=False):
                pass

        calls = []

        def run(ids):
            calls.append(ids)
            return np.repeat(np.asarray(ids, dtype=float), 2)[:, None]

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setenv("SMALLMASS_WORKERS", str(workers))
        out = harness._pooled(SimpleNamespace(reps=reps, run=run))
        n_blocks = math.ceil(reps / 64)
        assert len(calls) == min(workers, n_blocks)
        assert [r for ids in calls for r in ids] == list(range(reps))
        assert all(ids[0] % 64 == 0 for ids in calls)
        blocks = [math.ceil(len(ids) / 64) for ids in calls]
        assert sum(blocks) == n_blocks and max(blocks) - min(blocks) <= 1
        assert np.array_equal(out[:, 0], np.repeat(np.arange(reps), 2))

    def test_worker_split_does_not_change_bytes(self, small_config_dict,
                                                tmp_path, monkeypatch):
        # 150 and 130 replicas are three stream blocks, the last one short.
        # At 2 and 3 workers each pooled phase runs two or three batches in
        # the command's one process pool, at 1 worker one batch inline; the
        # pool starts are counted.  The simulate input runs simulate-eps and
        # simulate-limit, one pool each, and compares their samples and
        # trajectory dumps.
        starts = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(1)
                super().__init__(*args, **kwargs)

        def converge(cfg, out):
            return [run_convergence(cfg).write_csv(out / "converge.csv")]

        def simulate(cfg, out):
            run_simulate_eps(cfg, str(out))
            run_simulate_limit(cfg, str(out))
            return [out / f"{kind}_{system}.csv" for kind in ("samples", "trajectory")
                    for system in ("eps", "limit")]

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        reps150 = dict(small_config_dict, **{"run.replicas": 150})
        for name, doc, command, pools in (
                ("scalar-ou", reps150, converge, 1),
                ("self-test", dict(reps150, **{"run.self_test": True}), converge, 1),
                ("coupled", dict(small_config_dict, **COUPLED), converge, 1),
                ("simulate", dict(reps150, **{"limit.replicas": 150,
                                              "output.dump_trajectories": True}),
                 simulate, 2)):
            texts = {}
            for w in ("1", "2", "3"):
                monkeypatch.setenv("SMALLMASS_WORKERS", w)
                starts.clear()
                out = tmp_path / f"{name}_{w}"
                out.mkdir()
                texts[w] = [p.read_text() for p in command(parse_config(doc), out)]
                assert len(starts) == (0 if w == "1" else pools), (name, w, len(starts))
            assert texts["1"] == texts["2"] == texts["3"], name

    def test_every_row_is_submitted_before_the_first_score(self, small_config_dict,
                                                           monkeypatch):
        # A stand-in pool runs each batch when it is submitted and logs its
        # stream path; scoring logs "w2".  Every eps row must be handed out
        # before the parent scores the first one.  150 replicas are three
        # stream blocks, so each row is two batches at 2 workers.
        log = []

        class LoggingPool:
            def __init__(self, max_workers):
                pass

            def submit(self, fn, item):
                sample, ids = item
                log.append(sample.path)
                return _done(fn(item))

            def shutdown(self, cancel_futures=False):
                pass

        def logging_w2(*args, **kwargs):
            log.append("w2")
            return w2_auto(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", LoggingPool)
        monkeypatch.setattr(harness, "w2_auto", logging_w2)
        monkeypatch.setenv("SMALLMASS_WORKERS", "2")
        cfg = parse_config(dict(small_config_dict, **{"run.replicas": 150}))
        run_convergence(cfg)
        first_score = log.index("w2")
        rows = [(_rng.EPS_RUN, i) for i in range(len(cfg.eps_grid))]
        assert [p for p in log[:first_score] if p in rows] == [r for r in rows for _ in "ab"]

    def test_no_worker_outlives_a_failing_row(self, small_config_dict, monkeypatch):
        def failing_w2(*args, **kwargs):
            raise RuntimeError("scoring failed")

        monkeypatch.setattr(harness, "w2_auto", failing_w2)
        monkeypatch.setenv("SMALLMASS_WORKERS", "2")
        with pytest.raises(RuntimeError, match="scoring failed"):
            run_convergence(parse_config(small_config_dict))
        assert multiprocessing.active_children() == []

    def test_deterministic_limit_agrees_as_eps_shrinks(self, small_config_dict):
        # silent forcing and a point initial law make both laws point
        # masses; the W2 rows are then the deterministic flow gap, which
        # shrinks with the relaxation layer
        doc = dict(small_config_dict, **{
            "noise.sigma": 0.0, "run.T": 5.0, "run.eps_grid": [0.1, 0.025],
            "run.N": 4, "run.replicas": 4, "run.samples_per_replica": 1,
            "init.position_mean": 1.0, "init.position_std": 0.0,
        })
        cfg = parse_config(doc)
        rows = run_convergence(cfg).rows
        w2 = [r["w2_gk_mode"] for r in rows]
        assert w2[1] < w2[0]
        assert w2[1] < 0.02

    def test_self_test_mode_sits_on_sampling_floor(self, small_config_dict):
        # identical generators on both sides: the measured W2 is the
        # finite-sample floor, independently estimated here by fresh
        # same-law sample pairs
        doc = dict(small_config_dict, **{
            "run.self_test": True, "run.replicas": 200,
            "run.samples_per_replica": 1, "run.eps_grid": [0.1],
            "limit.replicas": 200, "limit.samples_per_replica": 1,
        })
        cfg = parse_config(doc)
        report = run_convergence(cfg)
        row = report.rows[0]
        from smallmass.harness import build_mode_diffusions, pool_limit_samples

        diffs = build_mode_diffusions(cfg)
        floors = []
        gen = np.random.default_rng(123)
        base = pool_limit_samples(cfg, diffs["paper"])[:, 0]
        for _ in range(4):
            other = gen.normal(base.mean(), base.std(), size=base.size)
            fresh = gen.normal(base.mean(), base.std(), size=base.size)
            floors.append(w2_1d(other, fresh).value)
        floor = float(np.mean(floors))
        assert abs(row["w2_paper_mode"] - floor) <= 2.0 * (row["ci_halfwidth"]
                                                           + np.std(floors))


    def test_self_test_sample_uses_the_limit_step(self, small_config_dict, monkeypatch):
        # quadratic potential: the 2 samples per replica are a run at N = 2;
        # row 1 of the self-test is the first mode's limit law on its own
        # stream, at limit.h
        rows = []

        def keep_row(*args):
            rows.append(pool_eps_samples(*args))
            return rows[-1]

        monkeypatch.setattr(harness, "pool_eps_samples", keep_row)
        doc = dict(small_config_dict, **{"run.self_test": True, "limit.h": 0.003})
        cfg = parse_config(doc)
        run_convergence(cfg)
        diff = build_mode_diffusions(cfg)[cfg.modes[0]]
        ref = run_limit_replicas(replace(cfg.run_config(0.2), N=2), cfg.potential(), diff,
                                 cfg.init_law(), range(24), (_rng.SELF_TEST, 1),
                                 sch=LimitScheme(0.003))
        assert len(rows) == 2 and np.array_equal(rows[1], ref.reshape(-1, 1))

    def test_particle_local_samples_do_not_depend_on_run_n(self, small_config_dict,
                                                           monkeypatch):
        # quadratic potential, scalar-ou noise: one particle's law does not
        # depend on N, so the samples are bit-identical at run.N = 2 and 64,
        # also where the limit sample keeps more particles than run.N = 2
        monkeypatch.setenv("SMALLMASS_WORKERS", "1")
        for extra, limit_size in (({}, 48), ({"limit.samples_per_replica": 8}, 192)):
            samples = []
            for n in (2, 64):
                cfg = parse_config(dict(small_config_dict, **extra, **{"run.N": n}))
                diff = build_mode_diffusions(cfg)["paper"]
                samples.append((harness.pool_eps_samples(cfg, 1),
                                harness.pool_limit_samples(cfg, diff)))
            for (a, b), size in zip(zip(*samples), (48, limit_size)):
                assert a.shape == (size, 1) and np.array_equal(a, b), extra

    @pytest.mark.parametrize("extra", [{}, dict(COUPLED, **{"run.replicas": 8}),
                                       {"noise.kind": "separable", "noise.g": "gauss"}],
                             ids=["scalar-ou", "fourier-field", "separable"])
    def test_green_kubo_header_is_twice_paper(self, small_config_dict, extra, tmp_path):
        cfg = parse_config(dict(small_config_dict, **extra))
        run_convergence(cfg).write_csv(tmp_path / "converge.csv")
        meta = dict(line[2:].split(" = ", 1)
                    for line in (tmp_path / "converge.csv").read_text().splitlines()
                    if line.startswith("# "))
        paper = np.array(json.loads(meta["diffusion.paper.D_eff"]))
        gk = np.array(json.loads(meta["diffusion.green-kubo.D_eff"]))
        assert np.any(paper != 0.0) and np.array_equal(gk, 2.0 * paper)

    def test_matrix_metadata_stays_on_comment_lines(self, small_config_dict, tmp_path):
        doc = dict(small_config_dict, **{
            "run.d": 2, "run.N": 4, "run.eps_grid": [0.2], "run.replicas": 8,
            "run.samples_per_replica": 1, "limit.replicas": 8,
            "limit.samples_per_replica": 1,
        })
        cfg = parse_config(doc)
        run_convergence(cfg).write_csv(tmp_path / "converge.csv")
        run_simulate_limit(cfg, str(tmp_path))
        diffs = build_mode_diffusions(cfg)
        for name, header, keys in (
                ("converge.csv", ",".join(CONVERGE_COLUMNS),
                 {f"diffusion.{m}.D_eff": m for m in diffs}),
                ("samples_limit.csv", "sample,x_1,x_2", {"limit.D_eff": "paper"})):
            lines = (tmp_path / name).read_text().splitlines()
            at = lines.index(header)
            assert all(line.startswith("# ") for line in lines[:at])
            meta = dict(line[2:].split(" = ", 1) for line in lines[:at])
            for key, mode in keys.items():
                assert json.loads(meta[key]) == (diffs[mode].d_eff * np.eye(2)).tolist()


class TestOtherEntryPoints:
    def test_estimate_gk(self, small_config_dict):
        cfg = parse_config(small_config_dict)
        gk = run_estimate_gk(cfg)
        assert gk.G.shape == (1, 1)
        assert gk.G[0, 0] == pytest.approx(1.0, abs=0.35)

    def test_default_gk_grid_is_green_kubos(self, small_config_dict):
        # a config without gk.horizon_fast runs green_kubo's own default
        # horizon, 50 driver correlation times, in its steps of 0.05
        model = NoiseModel.scalar_ou(1, gamma=4.0, sigma=1.0)
        want = green_kubo(model, reps=2, seed=7)
        assert want.horizon_fast == 12.5
        doc = dict(small_config_dict, **{"noise.gamma": 4.0, "gk.reps": 2})
        del doc["gk.horizon_fast"]
        got = run_estimate_gk(parse_config(doc))
        assert (got.horizon_fast, got.truncation_lag) == (12.5, want.truncation_lag)
        assert np.array_equal(got.G, want.G)

    def test_diagnose_rows(self, small_config_dict):
        doc = dict(small_config_dict, **{
            "diag.reps": 128, "diag.moment_reps": 64, "diag.N": 2,
            "run.eps_grid": [0.1], "diag.lag_hi": 0.2,
        })
        cfg = parse_config(doc)
        rows, meta = run_diagnose(cfg)
        modules = {r[0] for r in rows}
        assert {"moment_table", "uv", "bm_proxy", "green_kubo"} <= modules
        assert "config.run.seed" in meta

    def test_diagnose_csv_rows_have_five_fields(self, small_config_dict, tmp_path):
        doc = dict(small_config_dict, **{
            "run.d": 2, "diag.reps": 128, "diag.moment_reps": 16, "diag.N": 2,
            "run.eps_grid": [0.1], "diag.lag_hi": 0.2,
        })
        cfg_path = write_config(tmp_path, doc)
        assert cli_main(["diagnose", str(cfg_path), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "diagnose.csv", newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert rows[0] == ["module", "eps", "stat", "value", "ci"]
        assert all(len(row) == 5 for row in rows)
        assert {"G[0,0]", "G[0,1]", "G[1,0]", "G[1,1]"} <= {row[2] for row in rows}

    @pytest.mark.parametrize("extra, message", [
        ({"run.T": 0.01, "run.eps_grid": [0.2]}, "at least 2 steps"),
        ({"diag.lag_lo": 0.8, "diag.lag_hi": 0.9}, "no admissible lags"),
        # the lag 2621.44 is 262144 steps at eps 0.2: 512 u rings of
        # 262144 + CHUNK + 1 = 262177 rows hold 1.34e8 values, just past the cap
        ({"run.T": 3000.0, "diag.lag_hi": 3000.0},
         rf"uv_check's u buffer, 262177 steps of 512 replicas in d = 1, holds 1\.34e\+08 "
         rf"values; at most {2**27} are allowed: lower diag\.lag_hi or diag\.reps"),
        # 2e308 eps steps, rejected when the config is read
        ({"run.T": 1e308}, r"run\.T / \(run\.h0 \* eps\) = 1e\+308"),
    ], ids=["one-step", "lag-ladder", "u-paths", "run.T-1e308"])
    def test_short_uv_horizon_fails_before_simulating(self, small_config_dict, tmp_path,
                                                       capsys, monkeypatch, extra, message):
        # every row's horizon is checked before any row simulates
        def no_simulation(*args, **kwargs):
            raise AssertionError("a moment table ran before the horizon was checked")

        monkeypatch.setattr(harness, "moment_table", no_simulation)
        doc = dict(small_config_dict, **extra)
        with pytest.raises(UsageError, match=message):
            run_diagnose(parse_config(doc))
        out = tmp_path / "out"
        assert cli_main(["diagnose", str(write_config(tmp_path, doc)), "--out",
                         str(out)]) == 1
        assert re.search(message, capsys.readouterr().err)
        assert not (out / "diagnose.csv").exists()

    def test_silent_field_writes_an_undefined_ratio(self, tmp_path, capsys):
        # At noise.sigma 0 every u increment is 0, so is the median of the
        # increment ratios, and diagnose ended in a ZeroDivisionError and a
        # traceback at max / median.  The row is NaN, as for a degenerate
        # bm_proxy.
        out = tmp_path / "out"
        path = write_config(tmp_path, dict(TINY, **{"noise.sigma": 0.0}))
        assert cli_main(["diagnose", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        with open(out / "diagnose.csv", newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        ratios = [row[3] for row in rows if row[2] == "u_inc_ratio_max_over_median"]
        assert ratios == ["nan", "nan"]
        assert all(float(row[3]) == 0.0 for row in rows if row[2].startswith("u_inc_ratio["))

    @pytest.mark.parametrize("key, command, output", [
        ("run.alpha", "converge", "converge.csv"), ("run.alpha", "diagnose", "diagnose.csv"),
        ("noise.sigma", "converge", "converge.csv"),
    ])
    def test_a_square_past_the_float_range_exits_1(self, tmp_path, capsys, key, command,
                                                   output):
        # On the CI tiny config these ended in an OverflowError and a
        # traceback: run.alpha**2 in Config.diffusion and in _UvStream, and
        # noise.sigma**2 in the forcing variance.
        out = tmp_path / "out"
        path = write_config(tmp_path, dict(TINY, **{key: 1e300}))
        assert cli_main([command, str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {key} must lie in " + (
            "(0.0, 1e+154], got 1e+300\n" if key == "run.alpha" else
            "[0.0, 1e+154], got 1e+300\n")
        assert not (out / output).exists()

    @pytest.mark.parametrize("command, output", [("converge", "converge.csv"),
                                                 ("simulate-limit", "samples_limit.csv")],
                             ids=["converge", "simulate-limit"])
    def test_an_infinite_d_eff_exits_1_naming_its_keys(self, tmp_path, capsys, command,
                                                       output):
        # sigma^2 / (alpha^2 * gamma) = 1e308 / (1e-4 * 2) overflows to inf.
        out = tmp_path / "out"
        path = write_config(tmp_path, dict(TINY, **{"noise.sigma": 1e154, "run.alpha": 0.01}))
        assert cli_main([command, str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: noise.sigma, run.alpha, noise.gamma: the paper mode's D_eff must be "
            "finite and >= 0, got inf\n")
        assert not (out / output).exists()

    @pytest.mark.parametrize("extra, command, output, message", [
        ({"init.position_std": 1e300}, "converge", "converge.csv",
         r"a W2 value or its bootstrap halfwidth is not finite \[eps=0\.2\]"),
        ({"init.position_std": 1e300}, "diagnose", "diagnose.csv",
         r"a moment_table sup or halfwidth is not finite \[eps=0\.2\]"),
        ({"noise.sigma": 1e154}, "estimate-gk", "gk.csv",
         r"green_kubo's G or its halfwidth is not finite"),
        ({"noise.sigma": 1e154}, "diagnose", "diagnose.csv",
         r"a moment_table sup or halfwidth is not finite \[eps=0\.2\]"),
        ({"run.alpha": 1e100}, "diagnose", "diagnose.csv",
         r"a uv_check statistic is not finite \[eps=0\.2\]"),
    ], ids=["converge-W2", "diagnose-moments", "estimate-gk-G", "diagnose-sigma",
            "diagnose-uv"])
    def test_non_finite_results_exit_2(self, tmp_path, capsys, extra, command, output,
                                       message):
        # On the CI tiny config converge wrote W2 = inf with a NaN halfwidth
        # (and picked selected_mode from a tie of infs), estimate-gk wrote
        # G = nan and diagnose non-finite moments, all with exit 0; at
        # run.alpha 1e100 the fourth powers of the u increments underflow to
        # 0, and diagnose ended in a ZeroDivisionError and a traceback.
        out = tmp_path / "out"
        path = write_config(tmp_path, dict(TINY, **extra))
        with np.errstate(all="ignore"):  # the overflow is the point
            assert cli_main([command, str(path), "--out", str(out)]) == 2
        assert re.fullmatch(f"numeric failure: {message}\n", capsys.readouterr().err)
        assert not (out / output).exists()

    @pytest.mark.parametrize("key, value, message", [
        ("gk.horizon_fast", 1e13, rf"gk\.horizon_fast / \(0\.05/noise\.gamma\) = "
                                  rf"10000000000000\.0 / 0\.025 is a grid of 4e\+14 steps; "
                                  rf"at most {2**31 - 1}"),
        ("gk.horizon_fast", 5e7, rf"gk\.reps = 8 paths of 2000000000 steps in d = 1 hold "
                                 rf"1\.6e\+10 values; at most {2**27} are allowed"),
    ], ids=["gk.horizon_fast-1e13", "gk.horizon_fast-5e7-values"])
    def test_huge_gk_grid_fails_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                  key, value, message):
        # On the CI tiny config this grid of 4e14 steps asked numpy for
        # 22.7 PiB, and the 8 paths of 2e9 steps (under the step cap) for
        # 119 GiB; diagnose got there only after simulating every moment
        # table.
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the Green-Kubo grid was checked")

        monkeypatch.setattr(harness, "moment_table", no_simulation)
        doc = dict(TINY, **{key: value})
        with pytest.raises(ConfigError, match=f"^{message}"):
            parse_config(doc)
        path = write_config(tmp_path, doc)
        for command, output in (("estimate-gk", "gk.csv"), ("diagnose", "diagnose.csv")):
            out = tmp_path / command
            assert cli_main([command, str(path), "--out", str(out)]) == 1
            assert re.match(f"error: {message}", capsys.readouterr().err)
            assert not (out / output).exists()

    def test_trajectory_dumps_end_on_the_sample_step_grid(self, small_config_dict, tmp_path):
        # h = 0.05 * 0.03 does not divide T = 5, and neither does limit.h;
        # the d = 2 limit sample takes a D_eff no config mode gives; at
        # run.N = 5 the dumps run the samples' N = 2.
        # At 70 replicas the dumps run replica 0's whole 64-replica stream
        # block and end on its first row, the pooled sample's replica 0.
        for d, n, reps, diff in ((1, 2, 1, None), (1, 2, 70, None), (1, 5, 1, None),
                                 (2, 5, 1, DiffusionSpec(0.6))):
            doc = dict(small_config_dict, **{
                "output.dump_trajectories": True, "run.N": n, "run.replicas": reps,
                "run.samples_per_replica": 2, "run.eps_grid": [0.03], "run.T": 5.0,
                "limit.h": 0.003, "limit.replicas": reps, "run.d": d,
                "limit.modes": ["paper"],
            })
            cfg = parse_config(doc)
            out = tmp_path / f"d{d}_n{n}_r{reps}"
            out.mkdir()
            run_simulate_eps(cfg, str(out))
            if diff is None:
                run_simulate_limit(cfg, str(out))
            else:
                harness._write_samples(cfg, str(out), harness._limit_sample(
                    cfg, diff, (_rng.LIMIT_RUN, 0), *cfg.limit_pooling()), {})
            for kind in ("eps", "limit"):
                sample = load_sample_file(out / f"samples_{kind}.csv")
                traj = load_sample_file(out / f"trajectory_{kind}.csv")
                assert len(sample) == 2 * reps
                assert np.array_equal(traj[-2:, 2:2 + d], sample[:2]), (d, n, reps, kind)
                assert traj[-1, 0] >= 5.0 - 1e-9

    def test_one_replica_streams_keep_their_bytes(self, benchmark_config_path, tmp_path):
        # Green-Kubo and the scheme cross-check keep one replica per stream,
        # so blocking the other samples moves none of their bytes: the
        # values below are those of the per-replica streams.  Criterion 2's
        # estimate sits at its shipped seed with a 7% spread against a 5%
        # window, so it must not be re-rolled.  G and ci_fro are those of
        # the overlap-save lag sums, within 1e-15 relative of a whole-path
        # FFT's; the truncation lags are the same.
        gk = green_kubo(NoiseModel.scalar_ou(1, gamma=2.0, sigma=1.0), horizon_fast=25.0,
                        reps=64, seed=1)
        assert (gk.G[0, 0], gk.ci_fro, gk.truncation_lag) == (
            1.006072531086764, 0.12421769854317848, 1.8250000000000002)
        cfg = load_config(benchmark_config_path)
        with open(harness.COMMANDS["estimate-gk"](cfg, str(tmp_path))) as fh:
            lines = fh.read().splitlines()
        assert lines[-2:] == ["i,j,G", "0,0,2.010958414217177"]
        assert "# gk.ci_fro = 0.13929106352728371" in lines
        assert "# gk.truncation_lag = 5.1000000000000005" in lines
        gaps = [paired_scheme_gap(cfg.run_config(eps), cfg.noise_model(), cfg.potential(),
                                  init=cfg.init_law())[2] for eps in cfg.eps_grid]
        assert gaps == [0.00016499536670069854, 0.00140534645193302,
                        0.0006977461151073646, 0.00012249170673226883]

    @pytest.mark.parametrize("extra, pinned", [
        (COUPLED, ["# gk.ci_fro = 0.27265191654733223", "# gk.truncation_lag = 1.8",
                   "i,j,G", "0,0,0.41452572318589109", "0,1,0", "1,0,0",
                   "1,1,0.48567673139686296"]),
        ({"run.d": 2, "noise.kind": "separable", "noise.g": "gauss", "gk.reps": 8,
          "gk.horizon_fast": 10.0},
         ["# gk.ci_fro = 0.075924599738773982", "# gk.truncation_lag = 1.0250000000000001",
          "i,j,G", "0,0,0.12048624736376914", "0,1,0", "1,0,0",
          "1,1,0.18142273154277189"]),
    ], ids=["fourier-field", "separable"])
    def test_law_dependent_green_kubo_keeps_its_bytes(self, small_config_dict, tmp_path,
                                                      extra, pinned):
        # One factor mean of the frozen measure serves every step's driver.
        # The diagonal and ci_fro bytes are those of the overlap-save lag
        # sums, within 1e-15 relative of a whole-path FFT's; the truncation
        # lags are the same.  The components are independent, so G is
        # diagonal: the off-diagonal rows are exact zeros, and ci_fro is the
        # halfwidth of the diagonal alone.
        cfg = parse_config(dict(small_config_dict, **extra))
        with open(harness.COMMANDS["estimate-gk"](cfg, str(tmp_path))) as fh:
            lines = fh.read().splitlines()
        assert [line for line in lines
                if line.startswith("# gk.") or not line.startswith("#")] == pinned

    def test_simulate_limit_builds_only_the_first_mode(self, small_config_dict, tmp_path,
                                                       monkeypatch):
        # Neither command runs the Green-Kubo estimate: green-kubo is closed-form.
        def no_gk(cfg):
            raise AssertionError("the Green-Kubo estimate ran")

        monkeypatch.setattr(harness, "run_estimate_gk", no_gk)
        cfg = parse_config(dict(small_config_dict, **{"limit.modes": ["paper", "green-kubo"]}))
        run_simulate_limit(cfg, str(tmp_path))
        assert "# limit.mode = paper\n" in (tmp_path / "samples_limit.csv").read_text()
        cfg = parse_config(dict(small_config_dict, **{"limit.modes": ["green-kubo", "paper"]}))
        run_simulate_limit(cfg, str(tmp_path))
        assert "# limit.mode = green-kubo\n" in (tmp_path / "samples_limit.csv").read_text()
        run_convergence(cfg)

    def test_load_sample_file(self, tmp_path):
        p = tmp_path / "samples.csv"
        p.write_text("# meta = 1\nsample,x_1\n0,1.5\n1,-2.0\n")
        arr = load_sample_file(p)
        assert arr == pytest.approx(np.array([[1.5], [-2.0]]))
        with pytest.raises(Exception, match="missing.csv"):
            load_sample_file(tmp_path / "missing.csv")

    @pytest.mark.parametrize("text, lineno", [
        ("sample,x_1\nstray text\n0,1\n1,2\n", 3),
        ("x_1\n1\nsample,x_1\n2\n", 4),
        ("sample,x_1\n0,1\n1,oops\n", 4),
    ], ids=["second-header", "header-after-data", "text-in-data"])
    def test_only_the_first_line_may_be_a_header(self, tmp_path, capsys, text, lineno):
        # a stray line after the header was taken as the header, and the
        # index column then read as a coordinate: [[0, 1], [1, 2]]
        p = tmp_path / "samples.csv"
        p.write_text("# meta = 1\n" + text)
        with pytest.raises(UsageError) as err:
            load_sample_file(p)
        assert str(err.value).startswith(f"non-numeric row in {p}, line {lineno}: ")
        assert cli_main(["w2", str(p), str(p)]) == 1
        assert f"error: non-numeric row in {p}, line {lineno}" in capsys.readouterr().err


class TestCli:
    def _run(self, *args, env=None):
        full_env = dict(os.environ)
        if env:
            full_env.update(env)
        return subprocess.run([sys.executable, "-m", "smallmass.cli", *args],
                              capture_output=True, text=True, env=full_env)

    def test_w2_identical_files(self, tmp_path):
        p = tmp_path / "a.csv"
        np.savetxt(p, np.random.default_rng(0).standard_normal((40, 1)),
                   delimiter=",")
        r = self._run("w2", str(p), str(p))
        assert r.returncode == 0
        assert float(r.stdout.strip()) == 0.0

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_w2_rejects_non_finite_samples(self, tmp_path, capsys, bad, d):
        good = tmp_path / "good.csv"
        np.savetxt(good, np.random.default_rng(0).standard_normal((5, d)), delimiter=",")
        lines = good.read_text().splitlines()
        lines[2] = ",".join([bad] * d)
        broken = tmp_path / "broken.csv"
        broken.write_text("# comment\n" + "\n".join(lines) + "\n")
        for argv in (["w2", str(good), str(broken)], ["w2", str(broken), str(good)]):
            assert cli_main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"non-finite value in {broken}, line 4" in captured.err

    def test_w2_past_the_float_range_exits_2(self, tmp_path, capsys):
        # the sorted gap 2e300 squares past the float range; W2 printed inf
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("1e300\n-1e300\n")
        b.write_text("-1e300\n-1e300\n")
        with np.errstate(over="ignore"):
            assert cli_main(["w2", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"numeric failure: W2 (quantile-1d) of {a} and {b} is not "
                                "finite\n")

    def test_w2_ragged_rows_exit_1(self, tmp_path, capsys):
        # numpy refused the ragged rows before they were checked, a traceback
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("1,2\n3\n")
        b.write_text("1\n2\n")
        assert cli_main(["w2", str(a), str(b)]) == 1
        assert capsys.readouterr().err == f"error: ragged rows in {a}\n"

    def test_w2_reads_2d_sample_files(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
        np.savetxt(tmp_path / "a.csv", a, delimiter=",")
        np.savetxt(tmp_path / "b.csv", b, delimiter=",")
        assert cli_main(["w2", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 0
        assert float(capsys.readouterr().out) == w2_auto(a, b).value

    def test_w2_keeps_a_first_coordinate_that_counts_up(self, tmp_path, capsys):
        # only a column headed "sample" is an index; this x_1 reads 0, 1, 2
        a = np.array([[0.0, 0.5], [1.0, -1.5], [2.0, 2.0]])
        b = np.random.default_rng(2).standard_normal((3, 2))
        (tmp_path / "a.csv").write_text("x_1,x_2\n" + "\n".join(
            ",".join(map(repr, row)) for row in a.tolist()) + "\n")
        np.savetxt(tmp_path / "b.csv", b, delimiter=",", header="x_1,x_2", comments="")
        assert np.array_equal(load_sample_file(tmp_path / "a.csv"), a)
        assert cli_main(["w2", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 0
        assert float(capsys.readouterr().out) == w2_auto(a, b).value

    @pytest.mark.parametrize("command", ["converge", "simulate-eps"])
    def test_out_naming_a_file_exits_1(self, small_config_dict, tmp_path, capsys, command):
        # os.makedirs raised FileExistsError, a traceback
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        path = write_config(tmp_path, small_config_dict)
        assert cli_main([command, str(path), "--out", str(taken)]) == 1
        assert f"error: cannot create output directory {taken}: " in capsys.readouterr().err
        assert taken.read_text() == "kept\n"

    def test_converge_needs_two_replicas(self, small_config_dict, tmp_path, capsys,
                                         monkeypatch):
        # a block bootstrap over one replica block cannot vary, so its
        # halfwidth read 0; the run stops before any sample is simulated
        def no_samples(samples):
            raise AssertionError("simulated")

        monkeypatch.setattr(harness, "_Pool", no_samples)
        doc = dict(small_config_dict, **{"run.replicas": 1})
        out = tmp_path / "out"
        assert cli_main(["converge", str(write_config(tmp_path, doc)), "--out",
                         str(out)]) == 1
        assert "run.replicas >= 2" in capsys.readouterr().err
        assert not (out / "converge.csv").exists()

    def test_missing_config_exit_code(self):
        r = self._run("converge", "definitely_not_here.json")
        assert r.returncode == 1
        assert "definitely_not_here.json" in r.stderr

    def test_unknown_subcommand(self):
        r = self._run("frobnicate")
        assert r.returncode == 1

    def test_converge_and_friends(self, small_config_dict, tmp_path):
        doc = dict(small_config_dict, **{
            "diag.reps": 128, "diag.moment_reps": 64, "diag.N": 2,
            "run.eps_grid": [0.2, 0.1], "diag.lag_hi": 0.2,
        })
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "results"
        for cmd, fname in (("converge", "converge.csv"),
                           ("estimate-gk", "gk.csv"),
                           ("simulate-eps", "samples_eps.csv"),
                           ("simulate-limit", "samples_limit.csv"),
                           ("diagnose", "diagnose.csv")):
            r = self._run(cmd, str(cfg_path), "--out", str(out))
            assert r.returncode == 0, f"{cmd}: {r.stderr}"
            assert (out / fname).exists()
        header = (out / "converge.csv").read_text().splitlines()
        data = [l for l in header if not l.startswith("#")]
        assert data[0].startswith("eps,")
        assert len(data) == 3

    def test_diagnose_leaves_numpy_ma_unimported(self, tmp_path):
        # np.median imported numpy.ma (1.3 MB of RSS and about 12 ms) for
        # the median of seven increment ratios; a fresh interpreter shows it
        path = write_config(tmp_path, TINY)
        code = ("import sys; from smallmass.config import load_config; "
                "from smallmass.harness import run_diagnose; "
                "run_diagnose(load_config(sys.argv[1])); print('numpy.ma' in sys.modules)")
        r = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                           text=True)
        assert (r.returncode, r.stdout, r.stderr) == (0, "False\n", "")

    def test_trajectory_dump(self, small_config_dict, tmp_path):
        doc = dict(small_config_dict, **{
            "output.dump_trajectories": True,
            "run.N": 3, "run.replicas": 2, "run.samples_per_replica": 1,
            "run.eps_grid": [0.2], "run.T": 0.2,
        })
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "dump"
        assert self._run("simulate-eps", str(cfg_path), "--out", str(out)).returncode == 0
        lines = [l for l in (out / "trajectory_eps.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "t,i,x_1,y_1"
        n_steps = round(0.2 / (0.05 * 0.2))
        # quadratic potential, scalar-ou noise: the dump runs the sample's
        # N = samples_per_replica = 1, not run.N = 3
        assert len(lines) == 1 + 1 * (n_steps + 1)
        assert self._run("simulate-limit", str(cfg_path), "--out", str(out)).returncode == 0
        lim = [l for l in (out / "trajectory_limit.csv").read_text().splitlines()
               if not l.startswith("#")]
        assert lim[0] == "t,i,x_1"


class TestWorkerCount:
    def test_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.delenv("SMALLMASS_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert worker_count() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert worker_count() == 64


class TestModeSelection:
    @pytest.mark.parametrize("modes", [["paper", "green-kubo"], ["green-kubo", "paper"]],
                             ids=["paper", "green-kubo"])
    def test_exact_tie_selects_paper(self, small_config_dict, modes):
        # silent forcing and a point initial law: both limit laws are the
        # same point mass, so the two W2 columns are exactly equal
        doc = dict(small_config_dict, **{
            "noise.sigma": 0.0, "init.position_mean": 1.0, "init.position_std": 0.0,
            "limit.modes": modes,
        })
        report = run_convergence(parse_config(doc))
        terminal = report.rows[-1]
        assert terminal["w2_paper_mode"] == terminal["w2_gk_mode"]
        assert report.selected_mode == "paper"

    def test_mode_order_does_not_change_the_verdict(self, small_config_dict):
        # silent forcing gives both modes the zero D_eff: on one shared limit
        # stream the two samples are the same, whatever the order of
        # limit.modes
        reports = [run_convergence(parse_config(dict(small_config_dict, **{
            "noise.sigma": 0.0, "limit.modes": modes})))
            for modes in (["paper", "green-kubo"], ["green-kubo", "paper"])]
        for report in reports:
            assert all(r["w2_paper_mode"] == r["w2_gk_mode"] for r in report.rows)
            assert report.selected_mode == "paper"
        assert reports[0].rows == reports[1].rows

    def test_green_kubo_mode_reports_in_the_gk_column(self, small_config_dict):
        from smallmass.harness import pool_eps_samples, pool_limit_samples
        from smallmass.transport import w2_auto

        doc = dict(small_config_dict, **{"limit.modes": ["green-kubo", "paper"]})
        cfg = parse_config(doc)
        report = run_convergence(cfg)
        diff = build_mode_diffusions(cfg)["green-kubo"]
        limit = pool_limit_samples(cfg, diff)
        for eps_index, row in enumerate(report.rows):
            sample = pool_eps_samples(cfg, eps_index)
            assert row["w2_gk_mode"] == w2_auto(sample, limit, seed=cfg.seed).value
            assert np.isfinite(row["w2_paper_mode"])
        terminal = report.rows[-1]
        w2 = {"paper": terminal["w2_paper_mode"], "green-kubo": terminal["w2_gk_mode"]}
        assert w2["paper"] != w2["green-kubo"]
        assert report.selected_mode == min(w2, key=w2.get)

    @pytest.mark.parametrize("terminal, decided, selected", [
        ({"paper": 1.96, "green-kubo": 0.0}, False, "green-kubo"),  # lo is exactly 0
        ({"paper": 0.0, "green-kubo": 1.96}, False, "paper"),  # hi is exactly 0
        ({"paper": 2.0, "green-kubo": 0.0}, True, "green-kubo"),
        ({"paper": 0.0, "green-kubo": 2.0}, True, "paper"),
    ])
    @pytest.mark.parametrize("order", [("paper", "green-kubo"), ("green-kubo", "paper")])
    def test_gap_interval_decides_only_where_it_excludes_zero(self, terminal, decided,
                                                               selected, order):
        # paired bootstrap gaps 0, 1, 2: a standard deviation of exactly 1,
        # so the interval is the terminal gap plus or minus 1.96
        rows = {"paper": [1.0, 2.0, 3.0], "green-kubo": [1.0, 1.0, 1.0]}
        meta = harness._mode_verdict({m: terminal[m] for m in order},
                                     np.array([rows[m] for m in order]))
        gap = terminal["paper"] - terminal["green-kubo"]
        assert json.loads(meta["selected_mode_gap_ci"]) == [gap - 1.96, gap + 1.96]
        assert meta["selected_mode_decided"] == json.dumps(decided)
        assert meta["selected_mode_note"].startswith("undecided") is not decided
        assert meta["selected_mode"] == selected

    @pytest.mark.parametrize("doc, decided", [(TINY, True), (CI_COUPLED, False)],
                             ids=["tiny", "coupled"])
    def test_converge_writes_the_mode_verdict(self, tmp_path, doc, decided):
        # the CI tiny config separates the modes; on the CI coupled config
        # their terminal W2 values differ by far less than the bootstrap
        # spread, and the verdict says so
        report = run_convergence(parse_config(doc))
        head = dict(line[2:].split(" = ", 1) for line in
                    report.write_csv(tmp_path / "converge.csv").read_text().splitlines()
                    if line.startswith("# selected_mode"))
        terminal = report.rows[-1]
        w2 = {"paper": terminal["w2_paper_mode"], "green-kubo": terminal["w2_gk_mode"]}
        assert head["selected_mode"] == min(w2, key=w2.get)
        lo, hi = json.loads(head["selected_mode_gap_ci"])
        assert lo < w2["paper"] - w2["green-kubo"] < hi
        assert (lo > 0 or hi < 0) is decided
        assert head["selected_mode_decided"] == json.dumps(decided)
        assert head["selected_mode_note"].startswith("undecided") is not decided

    def test_one_mode_writes_no_gap(self, small_config_dict):
        report = run_convergence(parse_config(dict(small_config_dict,
                                                   **{"limit.modes": ["green-kubo"]})))
        meta = report.metadata
        assert report.selected_mode == "green-kubo"
        assert "selected_mode_gap_ci" not in meta and "selected_mode_decided" not in meta
        assert meta["selected_mode_note"] == ("the only configured mode; no normalization "
                                              "is compared")
