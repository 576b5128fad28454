import csv
import json
import math
import multiprocessing
import os
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
from smallmass.dynamics_limit import LimitScheme, run_limit_replicas
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
# The interacting path: curie-weiss drift, law-dependent fourier-field
# forcing, d = 2, 130 replicas: two whole stream blocks and a short one.
COUPLED = dict(FOURIER, **{
    "run.d": 2, "run.N": 8, "run.replicas": 130, "run.samples_per_replica": 1,
    "potential.kind": "curie-weiss", "potential.kappa": 0.5,
    "noise.kind": "fourier-field", "gk.reps": 8, "gk.horizon_fast": 10.0,
})


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
        # nothing ever wrote anything but CSV, and nothing ran but the
        # exponential scheme, so neither key is accepted any longer
        for key, value in (("output.format", "csv"), ("run.scheme", "exponential")):
            doc = dict(small_config_dict, **{key: value})
            with pytest.raises(ConfigError, match=f"unrecognized.*{key}"):
                parse_config(doc)

    @pytest.mark.parametrize("key", sorted(_REGISTRY))
    def test_wrong_json_type_names_the_key(self, small_config_dict, key):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            parse_config(dict(small_config_dict, **{key: {}}))

    @pytest.mark.parametrize("modes, reason", [
        (["green-kubo", "explicit"], "green-kubo and explicit.*w2_gk_mode"),
        (["paper", "green-kubo", "paper"], "repeats a mode"),
    ])
    def test_modes_sharing_a_column_are_rejected(self, small_config_dict, modes, reason):
        doc = dict(small_config_dict, **{"limit.modes": modes,
                                         "limit.explicit_matrix": [[1.0]]})
        with pytest.raises(ConfigError, match=reason):
            parse_config(doc)

    @pytest.mark.parametrize("key, value", [
        ("diag.lag_lo", 0.0), ("diag.lag_lo", 2.0),
        ("limit.replicas", 0), ("limit.replicas", -1),
        ("limit.samples_per_replica", 0), ("limit.samples_per_replica", -2),
        ("gk.dt", 0.0), ("gk.dt", -0.1), ("gk.reps", 1), ("run.alpha", 0.0),
        ("run.replicas", 0), ("run.replicas", -1), ("run.samples_per_replica", 0),
        ("run.N", 0), ("run.d", 0), ("diag.N", 0), ("diag.moment_reps", 1),
        ("diag.reps", 99), ("run.T", 0), ("noise.sigma", -1), ("potential.lambda", -1),
        ("potential.kappa", 0.5), ("limit.h", 0), ("limit.h", -0.01), ("limit.h", 0.5),
        ("init.position_std", -1), ("gk.horizon_fast", 1.0), ("diag.grid_points", 0),
        ("diag.grid_points", 1),
        ("run.T", NAN), ("run.alpha", INF), ("noise.gamma", NAN), ("noise.sigma", NAN),
        ("potential.lambda", NAN), ("gk.horizon_fast", NAN), ("limit.h", NAN),
        ("init.position_mean", INF), ("init.position_mean", -INF), ("diag.lag_hi", INF),
        ("limit.explicit_matrix", [[NAN]]), ("run.eps_grid", [0.2, NAN]),
        pytest.param("run.T", 10**400, id="run.T-int-past-float-range"),
        ("noise.g", "gauss"), ("noise.omegas", [[1.0]]), ("noise.a", [1.0]),
        ("noise.b", [1.0]), ("noise.kind", "pink"), ("potential.kind", "double-well"),
        pytest.param("run.N", RawJson("9" * 5001), id="run.N-5001-digit-literal"),
        pytest.param("run.T", RawJson("-" + "9" * 5001), id="run.T-5001-digit-literal"),
        pytest.param("run.N", 10**30, id="run.N-10**30"), ("run.d", 2**31),
        ("diag.grid_points", 2**31), ("limit.samples_per_replica", 2**31),
        ("run.seed", -1), pytest.param("run.seed", 2**64, id="run.seed-2**64"),
        pytest.param("run.seed", 2**70, id="run.seed-2**70"),
        ("run.replicas", 70000), ("run.replicas", 65537), ("limit.replicas", 65537),
        ("gk.reps", 65537), ("diag.reps", 65537), ("diag.moment_reps", 65537),
        pytest.param("run.eps_grid", [1.0 - i / 70000 for i in range(65537)],
                     id="run.eps_grid-65537-values"),
        ("gk.dt", 100.0), ("gk.dt", 30.0), ("gk.dt", 12.0), ("gk.dt", 0.5),
    ])
    def test_out_of_range_values_are_rejected(self, small_config_dict, key, value):
        # diag.lag_lo 2.0 lies above the default diag.lag_hi of 1.0; the small
        # config's quadratic potential has no coupling, so any potential.kappa
        # but 0 is dropped, and with lambda 1 the limit step cap is 0.01; its
        # scalar-ou noise reads none of noise.g, noise.omegas, noise.a, noise.b.
        # Replica counts and the eps grid index streams, so they stop at 65536.
        # gk.dt stops at 0.1/noise.gamma = 0.05.
        doc = dict(small_config_dict, **{key: value})
        if isinstance(value, RawJson):  # a literal Python's json cannot write
            doc = json.dumps(dict(doc, **{key: None})).replace(
                f'"{key}": null', f'"{key}": {value}')
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            parse_config(doc)

    def test_range_bounds_are_inclusive(self, small_config_dict):
        doc = dict(small_config_dict, **{"run.seed": 2**64 - 1, "run.replicas": 65536,
                                         "gk.reps": 65536, "run.N": 2**31 - 1,
                                         "gk.dt": 0.05})
        assert parse_config(doc).values["run.replicas"] == 65536
        # Every other registry bound at its edge: the upper ones, the lower
        # ones, and a zero potential.lambda where kappa keeps the Lipschitz
        # bound above 0.
        top = 2**31 - 1
        for edges in (
            {"run.h0": 0.2, "run.eps_grid": [1.0 - i / 70000 for i in range(65536)],
             "limit.replicas": 65536, "diag.reps": 65536, "diag.moment_reps": 65536,
             "run.N": top, "run.samples_per_replica": top,
             "limit.samples_per_replica": top, "diag.N": top, "diag.grid_points": top},
            {"run.seed": 0, "run.N": 1, "run.samples_per_replica": 1, "run.replicas": 1,
             "limit.replicas": 1, "limit.samples_per_replica": 1, "diag.N": 1,
             "diag.grid_points": 2, "gk.reps": 2, "diag.moment_reps": 2,
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
                assert json.loads(meta[key]) == diffs[mode].matrix.tolist()


class TestOtherEntryPoints:
    def test_estimate_gk(self, small_config_dict):
        cfg = parse_config(small_config_dict)
        gk = run_estimate_gk(cfg)
        assert gk.G.shape == (1, 1)
        assert gk.G[0, 0] == pytest.approx(1.0, abs=0.35)

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
    ], ids=["one-step", "lag-ladder"])
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
        assert message in capsys.readouterr().err
        assert not (out / "diagnose.csv").exists()

    def test_trajectory_dumps_end_on_the_sample_step_grid(self, small_config_dict, tmp_path):
        # h = 0.05 * 0.03 does not divide T = 5, and neither does limit.h;
        # the d = 2 matrix is non-diagonal, so a rebuilt spec would re-round
        # its square root; at run.N = 5 the dumps run the samples' N = 2.
        # At 70 replicas the dumps run replica 0's whole 64-replica stream
        # block and end on its first row, the pooled sample's replica 0.
        for d, n, reps, extra in ((1, 2, 1, {"limit.modes": ["paper"]}),
                                  (1, 2, 70, {"limit.modes": ["paper"]}),
                                  (1, 5, 1, {"limit.modes": ["paper"]}),
                                  (2, 5, 1, {"limit.modes": ["explicit"],
                                             "limit.explicit_matrix": [[1.0, 0.3],
                                                                       [0.3, 0.6]]})):
            doc = dict(small_config_dict, **{
                "output.dump_trajectories": True, "run.N": n, "run.replicas": reps,
                "run.samples_per_replica": 2, "run.eps_grid": [0.03], "run.T": 5.0,
                "limit.h": 0.003, "limit.replicas": reps, "run.d": d,
            }, **extra)
            cfg = parse_config(doc)
            out = tmp_path / f"d{d}_n{n}_r{reps}"
            out.mkdir()
            run_simulate_eps(cfg, str(out))
            run_simulate_limit(cfg, str(out))
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
        # window, so it must not be re-rolled.
        gk = green_kubo(NoiseModel.scalar_ou(1, gamma=2.0, sigma=1.0), horizon_fast=25.0,
                        reps=64, seed=1)
        assert (gk.G[0, 0], gk.ci_fro, gk.truncation_lag) == (
            1.0060725310867638, 0.12421769854317848, 1.8250000000000002)
        cfg = load_config(benchmark_config_path)
        with open(harness.COMMANDS["estimate-gk"](cfg, str(tmp_path))) as fh:
            lines = fh.read().splitlines()
        assert lines[-2:] == ["i,j,G", "0,0,2.010958414217177"]
        assert "# gk.ci_fro = 0.13929106352728374" in lines
        assert "# gk.truncation_lag = 5.1000000000000005" in lines
        gaps = [paired_scheme_gap(cfg.run_config(eps), cfg.noise_model(), cfg.potential(),
                                  init=cfg.init_law())[2] for eps in cfg.eps_grid]
        assert gaps == [0.00016499536670069854, 0.00140534645193302,
                        0.0006977461151073646, 0.00012249170673226883]

    @pytest.mark.parametrize("extra, pinned", [
        (COUPLED, ["# gk.ci_fro = 0.36049300996359829", "# gk.truncation_lag = 1.8",
                   "i,j,G", "0,0,0.41452572318589115", "0,1,-0.005516227573870245",
                   "1,0,-0.005516227573870245", "1,1,0.4856767313968629"]),
        ({"run.d": 2, "noise.kind": "separable", "noise.g": "gauss", "gk.reps": 8,
          "gk.horizon_fast": 10.0},
         ["# gk.ci_fro = 0.10101253149672162", "# gk.truncation_lag = 1.0250000000000001",
          "i,j,G", "0,0,0.12048624736376914", "0,1,0.013963953813132188",
          "1,0,0.013963953813132188", "1,1,0.18142273154277183"]),
    ], ids=["fourier-field", "separable"])
    def test_law_dependent_green_kubo_keeps_its_bytes(self, small_config_dict, tmp_path,
                                                      extra, pinned):
        # One factor mean of the frozen measure serves every step's driver;
        # the pinned bytes are those of a mean taken at each step.
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

    @pytest.mark.parametrize("dt", [100.0, 30.0, 12.0])
    def test_gk_step_past_its_bound_exits_1(self, small_config_dict, tmp_path, capsys, dt):
        # at gamma 6 and horizon 50, gk.dt 100 overflowed the FFT size and
        # 30 and 12 wrote G = 0
        doc = dict(small_config_dict, **{"noise.gamma": 6.0, "gk.horizon_fast": 50.0,
                                         "gk.dt": dt})
        out = tmp_path / "out"
        assert cli_main(["estimate-gk", str(write_config(tmp_path, doc)), "--out",
                         str(out)]) == 1
        assert "gk.dt must be > 0 and <= 0.1/noise.gamma" in capsys.readouterr().err
        assert not (out / "gk.csv").exists()

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


class TestExplicitMatrixShape:
    @pytest.mark.parametrize("matrix", [[[1.0]], [[1.0, 0.0], [0.0]]],
                             ids=["wrong-size", "ragged"])
    def test_rejected_with_the_key_and_run_d(self, small_config_dict, matrix):
        doc = dict(small_config_dict, **{
            "run.d": 2, "limit.modes": ["explicit", "paper"],
            "limit.explicit_matrix": matrix,
        })
        with pytest.raises(ConfigError, match=r"limit\.explicit_matrix.*run\.d.*2 x 2"):
            parse_config(doc)


BAD_MATRICES = pytest.mark.parametrize("matrix", [[[1.0, 0.5], [0.0, 1.0]],
                                                  [[1.0, 0.0], [0.0, -1.0]]],
                                       ids=["not-symmetric", "indefinite"])


class TestExplicitMatrixIsPsd:
    # Only converge and simulate-limit sample the limit law, so the explicit
    # D_eff is checked when the config is read or the other commands would
    # run with a bad matrix and exit 0.
    @staticmethod
    def _doc(small_config_dict, matrix):
        return dict(small_config_dict, **{"run.d": 2, "limit.modes": ["paper", "explicit"],
                                          "limit.explicit_matrix": matrix})

    @BAD_MATRICES
    def test_rejected_when_read(self, small_config_dict, matrix):
        with pytest.raises(ConfigError, match=r"^limit\.explicit_matrix: "):
            parse_config(self._doc(small_config_dict, matrix))

    @BAD_MATRICES
    @pytest.mark.parametrize("command, output", [("estimate-gk", "gk.csv"),
                                                 ("simulate-eps", "samples_eps.csv")])
    def test_every_command_exits_1(self, small_config_dict, tmp_path, capsys, matrix,
                                   command, output):
        out = tmp_path / "out"
        path = write_config(tmp_path, self._doc(small_config_dict, matrix))
        assert cli_main([command, str(path), "--out", str(out)]) == 1
        assert "error: limit.explicit_matrix: " in capsys.readouterr().err
        assert not (out / output).exists()


class TestExplicitMatrixIsReadByExplicitAlone:
    # The explicit mode is the one reader of limit.explicit_matrix, so the
    # matrix is an error without it, as a noise key of another noise kind
    # is, whether or not it is a valid D_eff.
    UNREAD = r"^limit\.explicit_matrix must be set exactly when limit\.modes holds explicit"

    @pytest.mark.parametrize("matrix", [[[1.0]], [[-1.0]]], ids=["valid", "indefinite"])
    @pytest.mark.parametrize("modes", [["paper", "green-kubo"], ["green-kubo"]])
    def test_unread_matrix_is_rejected(self, small_config_dict, matrix, modes):
        doc = dict(small_config_dict, **{"limit.modes": modes,
                                         "limit.explicit_matrix": matrix})
        with pytest.raises(ConfigError, match=self.UNREAD):
            parse_config(doc)

    def test_explicit_mode_needs_the_matrix(self, small_config_dict):
        doc = dict(small_config_dict, **{"limit.modes": ["paper", "explicit"]})
        with pytest.raises(ConfigError, match=self.UNREAD):
            parse_config(doc)

    def test_bad_matrix_under_explicit_is_rejected(self, small_config_dict):
        doc = dict(small_config_dict, **{"limit.modes": ["paper", "explicit"],
                                         "limit.explicit_matrix": [[-1.0]]})
        with pytest.raises(ConfigError, match=r"^limit\.explicit_matrix: .*negative"):
            parse_config(doc)

    def test_converge_exits_1_naming_the_key(self, small_config_dict, tmp_path, capsys):
        doc = dict(small_config_dict, **{"limit.explicit_matrix": [[1.0]]})
        out = tmp_path / "out"
        assert cli_main(["converge", str(write_config(tmp_path, doc)), "--out",
                         str(out)]) == 1
        assert "error: limit.explicit_matrix must be set" in capsys.readouterr().err
        assert not out.exists()


class TestWorkerCount:
    def test_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.delenv("SMALLMASS_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert worker_count() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert worker_count() == 64


class TestModeSelection:
    @pytest.mark.parametrize("modes, extra", [
        (["explicit", "paper"], {"limit.explicit_matrix": [[0.0]]}),
        (["green-kubo", "paper"], {}),
    ], ids=["explicit", "green-kubo"])
    def test_exact_tie_selects_paper(self, small_config_dict, modes, extra):
        # silent forcing and a point initial law: both limit laws are the
        # same point mass, so the two W2 columns are exactly equal
        doc = dict(small_config_dict, **{
            "noise.sigma": 0.0, "init.position_mean": 1.0, "init.position_std": 0.0,
            "limit.modes": modes,
        }, **extra)
        report = run_convergence(parse_config(doc))
        terminal = report.rows[-1]
        assert terminal["w2_paper_mode"] == terminal["w2_gk_mode"]
        assert report.selected_mode == "paper"

    def test_mode_order_does_not_change_the_verdict(self, small_config_dict):
        # explicit [[0.5]] equals the paper D_eff (sigma^2 / (alpha^2 gamma)):
        # on one shared limit stream the two samples are the same, whatever
        # the order of limit.modes
        reports = [run_convergence(parse_config(dict(small_config_dict, **{
            "limit.modes": modes, "limit.explicit_matrix": [[0.5]]})))
            for modes in (["paper", "explicit"], ["explicit", "paper"])]
        for report in reports:
            assert all(r["w2_paper_mode"] == r["w2_gk_mode"] for r in report.rows)
            assert report.selected_mode == "paper"
        assert reports[0].rows == reports[1].rows

    def test_explicit_mode_reports_in_the_gk_column(self, small_config_dict):
        from smallmass.harness import pool_eps_samples, pool_limit_samples
        from smallmass.transport import w2_auto

        doc = dict(small_config_dict, **{
            "limit.modes": ["explicit", "paper"], "limit.explicit_matrix": [[0.7]],
        })
        cfg = parse_config(doc)
        report = run_convergence(cfg)
        diff = build_mode_diffusions(cfg)["explicit"]
        limit = pool_limit_samples(cfg, diff)
        for eps_index, row in enumerate(report.rows):
            sample = pool_eps_samples(cfg, eps_index)
            assert row["w2_gk_mode"] == w2_auto(sample, limit, seed=cfg.seed).value
            assert np.isfinite(row["w2_paper_mode"])
        terminal = report.rows[-1]
        w2 = {"paper": terminal["w2_paper_mode"], "explicit": terminal["w2_gk_mode"]}
        assert w2["paper"] != w2["explicit"]
        assert report.selected_mode == min(w2, key=w2.get)
