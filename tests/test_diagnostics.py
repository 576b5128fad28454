import math

import numpy as np
import pytest

from smallmass import rng as _rng
from smallmass.core import EmpiricalMeasure, ParticleEnsemble, PotentialSpec, RunConfig
from smallmass.diagnostics import (_u_paths_ensemble, _u_paths_scalar, bm_proxy,
                                   dyadic_lags, green_kubo, moment_table, uv_check)
from smallmass.dynamics_eps import EpsScheme, InitialLaw, _n_steps, step
from smallmass.errors import UsageError
from smallmass.noise import (DriverState, NoiseModel, advance_xi, averaged_forcing_xi,
                             stationary_xi)

FREE_POT = PotentialSpec.quadratic(1e-12)  # effectively potential-free


class TestGreenKubo:
    def test_zero_field(self):
        model = NoiseModel.scalar_ou(1, gamma=2.0, sigma=0.0)
        gk = green_kubo(model, horizon_fast=25.0, reps=8, seed=0)
        assert gk.G == pytest.approx(np.zeros((1, 1)), abs=1e-12)

    def test_scalar_ou_analytic_value(self):
        # 2 * integral of exp(-gamma*tau) * sigma^2 = 2*sigma^2/gamma = 1
        model = NoiseModel.scalar_ou(1, gamma=2.0, sigma=1.0)
        gk = green_kubo(model, horizon_fast=25.0, reps=64, seed=1)
        assert gk.G[0, 0] == pytest.approx(1.0, rel=0.05)
        assert gk.reps == 64

    def test_vanishing_averaged_forcing(self):
        model = NoiseModel.separable(1, gamma=2.0, sigma=1.0, g_name="clip-linear")
        m = EmpiricalMeasure.from_points([[-0.5], [0.5]])
        gk = green_kubo(model, m_source=m, horizon_fast=25.0, reps=16, seed=0)
        assert abs(gk.G[0, 0]) <= max(gk.ci_fro, 1e-12)

    def test_horizon_guard(self):
        model = NoiseModel.scalar_ou(1, gamma=2.0, sigma=1.0)
        with pytest.raises(UsageError, match="horizon"):
            green_kubo(model, horizon_fast=5.0, reps=4, seed=0)
        with pytest.raises(UsageError, match="measure"):
            green_kubo(NoiseModel.separable(1, gamma=2.0, sigma=1.0, g_name="one"),
                       horizon_fast=25.0, reps=4, seed=0)

    def test_invariant_under_horizon_doubling(self):
        model = NoiseModel.scalar_ou(1, gamma=2.0, sigma=1.0)
        a = green_kubo(model, horizon_fast=25.0, reps=64, seed=3)
        b = green_kubo(model, horizon_fast=50.0, reps=64, seed=3)
        assert abs(a.G[0, 0] - b.G[0, 0]) <= a.ci_fro + b.ci_fro


class TestUvCheck:
    def test_silent_noise_all_zero(self):
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=0.0)
        cfg = RunConfig(d=1, N=2, eps=0.1, alpha=1.0, T=2.0, h0=0.05, seed=0)
        uv = uv_check(cfg, model, reps=128)
        assert uv.v_msq == 0.0
        assert all(r == 0.0 for r in uv.u_increment_ratios.values())
        assert uv.bm_stats["degenerate"]

    def test_v_msq_matches_stationary_value(self):
        # Var(v) = eps * sigma^2 / (alpha^3 (alpha + gamma)) for the OU driver
        model = NoiseModel.scalar_ou(1, gamma=6.0, sigma=1.0)
        cfg = RunConfig(d=1, N=2, eps=0.05, alpha=1.0, T=5.0, h0=0.05, seed=3)
        uv = uv_check(cfg, model, reps=768)
        assert uv.v_msq == pytest.approx(0.05 / 7.0, rel=0.1)

    def test_quadrature_step_halving(self):
        model = NoiseModel.scalar_ou(1, gamma=6.0, sigma=1.0)
        vals = []
        for h0 in (0.05, 0.025):
            cfg = RunConfig(d=1, N=2, eps=0.05, alpha=1.0, T=5.0, h0=h0, seed=5)
            vals.append(uv_check(cfg, model, reps=1024).v_msq)
        assert abs(vals[1] - vals[0]) <= 0.05 * vals[0]

    def test_ensemble_path_agrees_with_standalone_for_flat_profile(self):
        # separable noise with g == 1 equals the x-independent field, so the
        # ensemble-riding and standalone quadratures estimate the same value
        # (different stream consumption, so agreement is statistical)
        cfg = RunConfig(d=1, N=4, eps=0.1, alpha=1.0, T=2.0, h0=0.05, seed=6)
        flat = NoiseModel.separable(1, gamma=2.0, sigma=1.0, g_name="one")
        scalar = NoiseModel.scalar_ou(1, gamma=2.0, sigma=1.0)
        uv_flat = uv_check(cfg, flat, reps=128, pot=PotentialSpec.quadratic(1.0))
        uv_scal = uv_check(cfg, scalar, reps=128)
        assert uv_flat.v_msq == pytest.approx(uv_scal.v_msq, rel=0.15)
        assert uv_flat.v_msq == pytest.approx(0.1 / 3.0, rel=0.15)

    @staticmethod
    def _reference_paths(cfg, model, pot, reps, n, eps_index):
        """u/v paths stepping one replica at a time through ``step``."""
        h = cfg.eps_step
        sch = EpsScheme("exponential", h)
        cu = h / (cfg.alpha * math.sqrt(cfg.eps))
        a = cfg.alpha * h / cfg.eps
        r_fac = math.exp(-a)
        cv = math.sqrt(cfg.eps) * (-math.expm1(-a)) / cfg.alpha**2
        init = InitialLaw()
        u = np.zeros((reps, n + 1, cfg.d))
        n_late_from = n // 2
        v_late = np.zeros((reps, n - n_late_from, cfg.d))
        for rix in range(reps):
            gen = _rng.stream(cfg.seed, _rng.UV_RUN, eps_index, rix)
            X = init.draw_positions(cfg.N, cfg.d, gen)
            ens = ParticleEnsemble(X, init.velocities(cfg.N, cfg.d), 0.0, cfg.eps)
            drv = DriverState(xi=stationary_xi(model, gen), fast_time=0.0)
            v = np.zeros(cfg.d)
            for k in range(n):
                eta = averaged_forcing_xi(model, drv.xi, ens.positions)
                u[rix, k + 1] = u[rix, k] + cu * eta
                v = v * r_fac + cv * eta
                if k >= n_late_from:
                    v_late[rix, k - n_late_from] = v
                ens, drv, _ = step(ens, model, drv, pot, sch, cfg.alpha, gen)
        return u, v_late

    @pytest.mark.parametrize("model, pot", [
        (NoiseModel.separable(1, gamma=2.0, sigma=1.0, g_name="gauss"),
         PotentialSpec.quadratic(1.0)),
        (NoiseModel.fourier_field(2, gamma=2.0, sigma=1.0,
                                  omegas=[[1.0, 0.0], [0.0, 1.0], [0.7, -0.4]],
                                  a=[1.0, 0.5, 0.3], b=[0.2, 0.4, 0.6]),
         PotentialSpec.curie_weiss(1.0, 0.5)),
    ], ids=["separable-d1", "fourier-field-curie-weiss-d2"])
    def test_ensemble_paths_equal_the_per_replica_reference(self, model, pot):
        # 70 replicas: one full kernel batch of 64 and a partial one
        cfg = RunConfig(d=model.d, N=4, eps=0.1, alpha=1.0, T=0.2, h0=0.05, seed=13)
        n = _n_steps(cfg.T, cfg.eps_step)
        u, v_late = _u_paths_ensemble(cfg, model, 70, n, 2, None, pot)
        u_ref, v_ref = self._reference_paths(cfg, model, pot, 70, n, 2)
        assert np.array_equal(u, u_ref)
        assert np.array_equal(v_late, v_ref)

    def test_custom_potential_matches_its_builtin_twin(self):
        cfg = RunConfig(d=1, N=4, eps=0.1, alpha=1.0, T=0.5, h0=0.05, seed=0)
        model = NoiseModel.separable(1, gamma=2.0, sigma=1.0, g_name="gauss")
        custom = PotentialSpec.custom(lambda x, m: 1.0 * x, 1.0)
        assert (uv_check(cfg, model, reps=128, pot=custom)
                == uv_check(cfg, model, reps=128, pot=PotentialSpec.quadratic(1.0)))

    def test_dyadic_ladder(self):
        assert dyadic_lags(0.01, 1.0) == pytest.approx(
            [0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64])

    @pytest.mark.parametrize("lo", [0.0, -0.01])
    def test_dyadic_ladder_needs_a_positive_start(self, lo):
        # doubling a start of 0 never reaches hi
        with pytest.raises(UsageError, match="lo > 0"):
            dyadic_lags(lo, 1.0)


class TestMomentTable:
    def test_null_dynamics(self):
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=0.0)
        cfg = RunConfig(d=1, N=2, eps=0.1, alpha=1.0, T=1.0, h0=0.05, seed=0)
        init = InitialLaw(position_mean=0.0, position_std=0.0, velocity=0.0)
        mt = moment_table(cfg, model, FREE_POT, reps=16, init=init)
        for key, val in mt.sup.items():
            assert val == 0.0

    def test_pure_velocity_decay(self):
        # sigma = 0, fixed y0: sup E||sqrt(eps) Y||^2 = eps*y0^2 at t = 0
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=0.0)
        cfg = RunConfig(d=1, N=2, eps=0.2, alpha=1.0, T=1.0, h0=0.05, seed=0)
        init = InitialLaw(position_mean=0.0, position_std=0.0, velocity=2.0)
        mt = moment_table(cfg, model, FREE_POT, reps=8, init=init)
        assert mt.sup["sy2"] == pytest.approx(0.2 * 4.0, rel=1e-9)
        assert mt.grid_times[0] == 0.0

    def test_amplitude_scaling_on_free_potential(self):
        # doubling sigma quadruples the noise-dominated second moments
        cfg = RunConfig(d=1, N=2, eps=0.1, alpha=1.0, T=2.0, h0=0.05, seed=8)
        init = InitialLaw(position_mean=0.0, position_std=0.0)
        vals = {}
        for sigma in (1.0, 2.0):
            model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=sigma)
            mt = moment_table(cfg, model, FREE_POT, reps=512, init=init)
            vals[sigma] = mt.sup["sy2"]
        assert 3.0 < vals[2.0] / vals[1.0] < 5.0

    @pytest.mark.parametrize("grid_points", [0, 1])
    def test_grid_needs_two_points(self, grid_points):
        # fewer points would still record t = 0 and t = T, not the grid asked for
        cfg = RunConfig(d=1, N=2, eps=0.1, alpha=1.0, T=1.0, h0=0.05, seed=0)
        with pytest.raises(UsageError, match="grid_points"):
            moment_table(cfg, NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0), FREE_POT,
                         reps=2, grid_points=grid_points)


class TestBmProxy:
    def test_brownian_calibration(self):
        rng = np.random.default_rng(0)
        reps, n, rate, dt = 400, 80, 2.0, 0.1
        incs = rng.standard_normal((reps, n)) * math.sqrt(rate * dt)
        paths = np.concatenate([np.zeros((reps, 1)), incs.cumsum(axis=1)], axis=1)
        times = np.arange(n + 1) * dt
        stats = bm_proxy(paths, times)
        assert stats["variance_slope"] == pytest.approx(rate, rel=0.1)
        assert abs(stats["lag1_increment_corr"]) < 3.0 / math.sqrt(reps)
        assert abs(stats["excess_kurtosis"]) < 0.2
        assert not stats["degenerate"]

    def test_degenerate_paths_flagged(self):
        stats = bm_proxy(np.zeros((150, 30)), np.linspace(0, 1, 30))
        assert stats["degenerate"]
        assert stats["variance_slope"] == 0.0
        assert math.isnan(stats["lag1_increment_corr"])

    def test_requires_enough_paths(self):
        with pytest.raises(UsageError):
            bm_proxy(np.zeros((50, 30)), np.linspace(0, 1, 30))


class TestDriverPaths:
    """The scalar u/v paths and the Green-Kubo forcing path step one shared
    driver loop; both equal a per-step reference that pre-draws each
    replica's start and normals and then advances all replicas together."""

    @staticmethod
    def _reference_drivers(model, seed, path, reps, n, delta_s):
        gens = [_rng.stream(seed, *path, r) for r in range(reps)]
        xi = np.stack([stationary_xi(model, g) for g in gens])
        Z = np.stack([g.standard_normal((n,) + model.driver_shape) for g in gens])
        out = []
        for k in range(n):
            out.append(xi)
            xi = advance_xi(xi, model, delta_s, Z[:, k])
        return out

    @staticmethod
    def _captured_forcing(monkeypatch):
        # green_kubo transforms its sampled forcing path exactly once
        seen = []
        rfft = np.fft.rfft

        def spy(a, *args, **kwargs):
            seen.append(np.array(a))
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", spy)
        return seen

    @pytest.mark.parametrize("clip", [False, True])
    def test_scalar_paths_equal_the_reference(self, clip):
        model = NoiseModel.scalar_ou(2, gamma=3.0, sigma=1.5, clip=clip)
        cfg = RunConfig(d=2, N=4, eps=0.1, alpha=1.3, T=0.3, h0=0.05, seed=11)
        n = _n_steps(cfg.T, cfg.eps_step)
        u, v_late = _u_paths_scalar(cfg, model, 70, n, 3)
        h = cfg.eps_step
        a = cfg.alpha * h / cfg.eps
        cu = h / (cfg.alpha * math.sqrt(cfg.eps))
        r_fac = math.exp(-a)
        cv = math.sqrt(cfg.eps) * (-math.expm1(-a)) / cfg.alpha**2
        u_ref = np.zeros((70, n + 1, 2))
        v = np.zeros((70, 2))
        v_ref = np.zeros((70, n - n // 2, 2))
        drivers = self._reference_drivers(model, cfg.seed, (_rng.UV_RUN, 3), 70, n,
                                          cfg.eps_step / cfg.eps)
        for k, xi in enumerate(drivers):
            u_ref[:, k + 1] = u_ref[:, k] + cu * xi
            v = v * r_fac + cv * xi
            if k >= n // 2:
                v_ref[:, k - n // 2] = v
        assert np.array_equal(u, u_ref)
        assert np.array_equal(v_late, v_ref)

    def test_scalar_green_kubo_path_equals_the_reference(self, monkeypatch):
        model = NoiseModel.scalar_ou(2, gamma=2.0, sigma=1.0)
        seen = self._captured_forcing(monkeypatch)
        green_kubo(model, horizon_fast=10.0, reps=9, seed=5)
        ref = self._reference_drivers(model, 5, (_rng.GK_RUN,), 9, 400, 0.025)
        assert len(seen) == 1
        assert np.array_equal(seen[0], np.stack(ref, axis=1))

    def test_fourier_green_kubo_path_equals_the_reference(self, monkeypatch):
        model = NoiseModel.fourier_field(2, gamma=2.0, sigma=1.0,
                                         omegas=[[1.0, 0.0], [0.0, 1.0], [0.7, -0.4]],
                                         a=[1.0, 0.5, 0.3], b=[0.2, 0.4, 0.6])
        m = EmpiricalMeasure(np.random.default_rng(0).standard_normal((16, 2)))
        seen = self._captured_forcing(monkeypatch)
        green_kubo(model, m_source=m, horizon_fast=10.0, reps=9, seed=5)
        ref = self._reference_drivers(model, 5, (_rng.GK_RUN,), 9, 400, 0.025)
        eta = np.stack([averaged_forcing_xi(model, xi, m.points) for xi in ref], axis=1)
        assert len(seen) == 1
        assert np.array_equal(seen[0], eta)
