import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from smallmass import harness
from smallmass import rng as _rng
from smallmass.cli import main as cli_main
from smallmass.config import load_config, parse_config, serialize_config
from smallmass.dynamics_limit import DiffusionSpec, LimitScheme, run_limit_replicas
from smallmass.errors import ConfigError
from smallmass.harness import (CONVERGE_COLUMNS, _pool_self_test_samples,
                               build_mode_diffusions, load_sample_file,
                               run_convergence, run_diagnose, run_estimate_gk,
                               run_simulate_eps, run_simulate_limit, worker_count)
from smallmass.transport import w2_1d

from conftest import write_config

NAN, INF = float("nan"), float("inf")
FOURIER = {"noise.omegas": [[1.0, 0.0], [0.0, 1.0]], "noise.a": [1.0, 0.5],
           "noise.b": [0.0, 0.5]}
# The interacting path: curie-weiss drift, law-dependent fourier-field
# forcing, d = 2; 72 replicas make two batches, so two workers share them.
COUPLED = dict(FOURIER, **{
    "run.d": 2, "run.N": 8, "run.replicas": 72, "run.samples_per_replica": 1,
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
        # nothing ever wrote anything but CSV, so the key is no longer accepted
        doc = dict(small_config_dict, **{"output.format": "csv"})
        with pytest.raises(ConfigError, match="unrecognized.*output.format"):
            parse_config(doc)

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
    ])
    def test_out_of_range_values_are_rejected(self, small_config_dict, key, value):
        # diag.lag_lo 2.0 lies above the default diag.lag_hi of 1.0; the small
        # config's quadratic potential has no coupling, so any potential.kappa
        # but 0 is dropped, and with lambda 1 the limit step cap is 0.01; its
        # scalar-ou noise reads none of noise.g, noise.omegas, noise.a, noise.b
        doc = dict(small_config_dict, **{key: value})
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            parse_config(doc)

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
        ("separable", "noise.g", "noise.g is required"),
        ("fourier-field", "noise.omegas", "needs noise.omegas, noise.a, noise.b"),
        ("fourier-field", "noise.a", "needs noise.omegas, noise.a, noise.b"),
        ("fourier-field", "noise.b", "needs noise.omegas, noise.a, noise.b"),
    ])
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

    def test_worker_split_does_not_change_bytes(self, small_config_dict,
                                                tmp_path, monkeypatch):
        # 72 replicas make two batches per pooled phase; a single batch runs
        # inline whatever the worker count, so the pool starts are counted.
        starts = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        for name, doc in (("scalar-ou", dict(small_config_dict, **{"run.replicas": 72})),
                          ("coupled", dict(small_config_dict, **COUPLED))):
            texts = {}
            for w in ("1", "2"):
                monkeypatch.setenv("SMALLMASS_WORKERS", w)
                starts.clear()
                cfg = parse_config(doc)
                report = run_convergence(cfg)
                path = tmp_path / f"converge_{name}_{w}.csv"
                report.write_csv(path)
                texts[w] = path.read_text()
                assert (len(starts) > 0) == (w == "2"), (name, w, len(starts))
            assert texts["1"] == texts["2"], name

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


    def test_self_test_sample_uses_the_limit_step(self, small_config_dict):
        doc = dict(small_config_dict, **{"run.self_test": True, "limit.h": 0.003})
        cfg = parse_config(doc)
        diff = DiffusionSpec("paper", np.array([[0.5]]))
        got = _pool_self_test_samples(cfg, 1, diff)
        ref = run_limit_replicas(cfg.run_config(0.2), cfg.potential(), diff, cfg.init_law(),
                                 range(24), (_rng.SELF_TEST, 1), sch=LimitScheme(0.003))
        assert np.array_equal(got, ref[:, :2].reshape(-1, 1))

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

    def test_trajectory_dumps_end_on_the_sample_step_grid(self, small_config_dict, tmp_path):
        # h = 0.05 * 0.03 does not divide T = 5, and neither does limit.h;
        # the d = 2 matrix is non-diagonal, so a rebuilt spec would re-round
        # its square root
        for d, extra in ((1, {"limit.modes": ["paper"]}),
                         (2, {"limit.modes": ["explicit"],
                              "limit.explicit_matrix": [[1.0, 0.3], [0.3, 0.6]]})):
            doc = dict(small_config_dict, **{
                "output.dump_trajectories": True, "run.N": 2, "run.replicas": 1,
                "run.samples_per_replica": 2, "run.eps_grid": [0.03], "run.T": 5.0,
                "limit.h": 0.003, "limit.replicas": 1, "run.d": d,
            }, **extra)
            cfg = parse_config(doc)
            out = tmp_path / f"d{d}"
            out.mkdir()
            run_simulate_eps(cfg, str(out))
            run_simulate_limit(cfg, str(out))
            for kind in ("eps", "limit"):
                sample = load_sample_file(out / f"samples_{kind}.csv")
                traj = load_sample_file(out / f"trajectory_{kind}.csv")
                assert np.array_equal(traj[-2:, 2:2 + d], sample), (d, kind)
                assert traj[-1, 0] >= 5.0 - 1e-9

    def test_simulate_limit_builds_only_the_first_mode(self, small_config_dict, tmp_path,
                                                       monkeypatch):
        def no_gk(cfg):
            raise AssertionError("simulate-limit ran the Green-Kubo estimate")

        monkeypatch.setattr(harness, "run_estimate_gk", no_gk)
        cfg = parse_config(dict(small_config_dict, **{"limit.modes": ["paper", "green-kubo"]}))
        run_simulate_limit(cfg, str(tmp_path))
        assert "# limit.mode = paper\n" in (tmp_path / "samples_limit.csv").read_text()

    def test_load_sample_file(self, tmp_path):
        p = tmp_path / "samples.csv"
        p.write_text("# meta = 1\nsample,x_1\n0,1.5\n1,-2.0\n")
        arr = load_sample_file(p)
        assert arr == pytest.approx(np.array([[1.5], [-2.0]]))
        with pytest.raises(Exception, match="missing.csv"):
            load_sample_file(tmp_path / "missing.csv")


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
        assert len(lines) == 1 + 3 * (n_steps + 1)
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
        for eps_index, (eps, row) in enumerate(zip(cfg.eps_grid, report.rows)):
            sample = pool_eps_samples(cfg, eps, eps_index)
            assert row["w2_gk_mode"] == w2_auto(sample, limit, seed=cfg.seed).value
            assert np.isfinite(row["w2_paper_mode"])
        terminal = report.rows[-1]
        w2 = {"paper": terminal["w2_paper_mode"], "explicit": terminal["w2_gk_mode"]}
        assert w2["paper"] != w2["explicit"]
        assert report.selected_mode == min(w2, key=w2.get)
