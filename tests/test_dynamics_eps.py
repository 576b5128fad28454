import math

import numpy as np
import pytest

from smallmass import rng as _rng
from smallmass.core import ParticleEnsemble, PotentialSpec, RunConfig
from smallmass.dynamics_eps import (EpsScheme, InitialLaw, build_scheme,
                                    paired_scheme_gap, run_eps_replicas,
                                    simulate_eps, step, _total_force)
from smallmass.errors import NumericError, UsageError
from smallmass.noise import DriverState, NoiseModel

ZERO_POT = PotentialSpec.custom(lambda x, m: np.zeros_like(x), 1.0)
SILENT = NoiseModel.scalar_ou(1, gamma=1.0, sigma=0.0)


def _free_run(eps, h, n_steps, alpha, x0, y0):
    """Drive the exponential scheme with zero force from (x0, y0)."""
    ens = ParticleEnsemble(np.array([[x0]]), np.array([[y0]]), 0.0, eps)
    drv = DriverState(np.zeros(1), 0.0)
    sch = EpsScheme("exponential", h)
    gen = _rng.stream(0, _rng.DIRECT, 2)
    for _ in range(n_steps):
        ens, drv, _ = step(ens, SILENT, drv, ZERO_POT, sch, alpha, gen)
    return ens


class TestExponentialExactness:
    @pytest.mark.parametrize("eps", [1.0, 0.01])
    @pytest.mark.parametrize("h", [0.37, 2.5])
    def test_homogeneous_relaxation_exact(self, eps, h):
        # with zero force the scheme reproduces the closed-form relaxation
        # y0*exp(-alpha*t/eps) and x0 + (eps/alpha)*y0*(1 - exp(-alpha*t/eps))
        alpha, x0, y0, n = 1.3, 0.7, 2.0, 25
        ens = _free_run(eps, h, n, alpha, x0, y0)
        t = n * h
        y_exact = y0 * math.exp(-alpha * t / eps)
        x_exact = x0 + (eps / alpha) * y0 * (1.0 - math.exp(-alpha * t / eps))
        assert abs(ens.positions[0, 0] - x_exact) <= 1e-12 * abs(x_exact)
        if y_exact != 0.0:
            assert abs(ens.velocities[0, 0] - y_exact) <= 1e-12 * max(abs(y_exact), 1e-300)

    def test_constant_force_fixed_point(self):
        # y = c/alpha is the equilibrium of the velocity equation
        c, alpha, eps = 0.8, 2.0, 0.3
        pot = PotentialSpec.custom(lambda x, m: np.full_like(x, -c), 1.0)
        ens = ParticleEnsemble(np.array([[0.0]]), np.array([[c / alpha]]), 0.0, eps)
        drv = DriverState(np.zeros(1), 0.0)
        sch = EpsScheme("exponential", 0.05)
        gen = _rng.stream(0, _rng.DIRECT, 3)
        for _ in range(40):
            ens, drv, _ = step(ens, SILENT, drv, pot, sch, alpha, gen)
        assert ens.velocities[0, 0] == pytest.approx(c / alpha, rel=1e-12)


class TestDampedOscillatorBenchmark:
    @staticmethod
    def _exact(t):
        # closed form of x'' = -x' - x, x(0)=1, x'(0)=0
        w = math.sqrt(3.0) / 2.0
        return math.exp(-t / 2.0) * (math.cos(w * t) + math.sin(w * t) / (2.0 * w))

    def test_first_order_accuracy(self):
        init = InitialLaw(position_mean=1.0, position_std=0.0, velocity=0.0)
        errs = {}
        for h0 in (0.04, 0.02):
            cfg = RunConfig(d=1, N=1, eps=1.0, alpha=1.0, T=4.0, h0=h0, seed=0)
            ens, _ = simulate_eps(cfg, SILENT, PotentialSpec.quadratic(1.0),
                                  "exponential", init)
            errs[h0] = abs(ens.positions[0, 0] - self._exact(4.0))
        assert errs[0.04] < 0.05
        assert errs[0.02] < 0.7 * errs[0.04]


class TestDeterminism:
    def test_identical_runs(self):
        cfg = RunConfig(d=2, N=8, eps=0.1, alpha=1.0, T=0.5, h0=0.05, seed=5)
        model = NoiseModel.scalar_ou(2, gamma=1.0, sigma=1.0)
        pot = PotentialSpec.curie_weiss(1.0, 0.2)
        a, _ = simulate_eps(cfg, model, pot)
        b, _ = simulate_eps(cfg, model, pot)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)

    def test_noise_free_single_particle_repeatable(self):
        cfg = RunConfig(d=1, N=1, eps=0.2, alpha=1.0, T=1.0, h0=0.05, seed=9)
        init = InitialLaw(position_mean=1.0, position_std=0.0)
        outs = [simulate_eps(cfg, SILENT, PotentialSpec.quadratic(1.0),
                             init=init)[0].positions for _ in range(3)]
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[1], outs[2])

    def test_batched_matches_sequential_bitwise(self):
        cfg = RunConfig(d=1, N=16, eps=0.1, alpha=1.3, T=1.0, h0=0.05, seed=99)
        model = NoiseModel.scalar_ou(1, gamma=2.0, sigma=0.7)
        pot = PotentialSpec.curie_weiss(1.0, 0.4)
        init = InitialLaw()
        ens, _ = simulate_eps(cfg, model, pot, "exponential", init,
                              rng=_rng.stream(99, _rng.EPS_RUN, 5, 3))
        pos, _ = run_eps_replicas(cfg, model, pot, "exponential", init, [3],
                                  (_rng.EPS_RUN, 5))
        assert np.array_equal(ens.positions, pos[0])

    def test_batch_size_does_not_change_results(self):
        cfg = RunConfig(d=1, N=8, eps=0.1, alpha=1.0, T=0.5, h0=0.05, seed=31)
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0)
        pot = PotentialSpec.quadratic(1.0)
        init = InitialLaw()
        a, _ = run_eps_replicas(cfg, model, pot, "exponential", init, range(7),
                                (_rng.EPS_RUN, 4), batch_size=2)
        b, _ = run_eps_replicas(cfg, model, pot, "exponential", init, range(7),
                                (_rng.EPS_RUN, 4), batch_size=7)
        assert np.array_equal(a, b)


class TestStepContracts:
    def test_common_forcing_across_particles(self):
        # the fast-forcing contribution is one shared vector per step even
        # when the field itself varies in space
        model = NoiseModel.separable(1, gamma=1.0, sigma=1.0, g_name="gauss")
        X = np.linspace(-2, 2, 9).reshape(-1, 1)
        xi = np.array([1.3])
        pot = PotentialSpec.quadratic(1.0)
        F, scaled = _total_force(model, pot, X, xi, inv_sqrt_eps=2.0)
        forcing_part = F + pot.lam * X
        assert np.allclose(forcing_part, forcing_part[0], atol=0, rtol=0)
        assert forcing_part[0] == pytest.approx(scaled)

    def test_euler_stability_guard(self):
        cfg = RunConfig(d=1, N=2, eps=0.1, alpha=1.0, T=1.0, h0=0.05, seed=0)
        sch = EpsScheme("euler", h=0.3)  # violates h < 2*eps/alpha = 0.2
        with pytest.raises(UsageError, match="euler"):
            sch.validate(cfg.eps, cfg.alpha)

    def test_driver_clock_mismatch_rejected(self):
        ens = ParticleEnsemble(np.zeros((1, 1)), np.zeros((1, 1)), 1.0, 0.1)
        drv = DriverState(np.zeros(1), fast_time=3.0)  # should be 10.0
        sch = EpsScheme("exponential", 0.01)
        with pytest.raises(UsageError, match="fast_time"):
            step(ens, SILENT, drv, ZERO_POT, sch, 1.0, _rng.stream(0, _rng.DIRECT))

    def test_numeric_error_carries_step_index(self):
        exploding = PotentialSpec.custom(
            lambda x, m: np.full_like(x, np.inf), 1.0)
        cfg = RunConfig(d=1, N=1, eps=0.5, alpha=1.0, T=1.0, h0=0.1, seed=0)
        with pytest.raises(NumericError, match="step=0"):
            simulate_eps(cfg, SILENT, exploding)

    def test_step_report_fields(self):
        cfg = RunConfig(d=1, N=4, eps=0.2, alpha=1.0, T=0.2, h0=0.05, seed=1)
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0)
        ens, reports = simulate_eps(cfg, model, PotentialSpec.quadratic(1.0))
        assert len(reports) == 20
        times = [r.time for r in reports]
        assert times == sorted(times)
        for r in reports:
            assert np.isfinite([r.forcing_norm, r.max_speed, r.energy_proxy]).all()
            assert r.energy_proxy >= 0.0

    def test_build_scheme_uses_step_law(self):
        cfg = RunConfig(d=1, N=1, eps=0.05, alpha=1.0, T=1.0, h0=0.1, seed=0)
        assert build_scheme(cfg, "exponential").h == pytest.approx(0.005)


class TestEnergyIntegralProxy:
    def test_scaled_kinetic_time_integral_bounded_over_eps(self):
        # alpha * sqrt(eps) * integral of E||Y||^2 stays of one size across
        # the eps grid (the quantity controlled by the kinetic-energy bound)
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0)
        pot = PotentialSpec.quadratic(1.0)
        totals = {}
        for eps in (0.2, 0.05):
            cfg = RunConfig(d=1, N=8, eps=eps, alpha=1.0, T=2.0, h0=0.05, seed=13)
            acc = 0.0
            reps = 24
            for r in range(reps):
                _, reports = simulate_eps(cfg, model, pot, rng=_rng.stream(13, _rng.EPS_RUN, 9, r))
                acc += sum(rep.energy_proxy for rep in reports) * cfg.eps_step / eps
            totals[eps] = cfg.alpha * math.sqrt(eps) * acc / reps
        ratio = totals[0.2] / totals[0.05]
        assert 1.0 / 3.0 < ratio < 3.0


class TestSchemeCrossCheck:
    def test_paired_gap_small_on_quadratic_benchmark(self):
        cfg = RunConfig(d=1, N=64, eps=0.05, alpha=1.0, T=5.0, h0=0.05, seed=11)
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0)
        _, _, gap = paired_scheme_gap(cfg, model, PotentialSpec.quadratic(1.0))
        assert gap < 1e-2

    def test_custom_potential_matches_its_builtin_twin(self):
        cfg = RunConfig(d=2, N=5, eps=0.1, alpha=1.0, T=0.5, h0=0.05, seed=12)
        model = NoiseModel.separable(2, gamma=1.0, sigma=1.0, g_name="gauss")
        lam = 0.8
        custom = PotentialSpec.custom(lambda x, m: lam * x, lam)
        e_c, u_c, gap_c = paired_scheme_gap(cfg, model, custom)
        e_q, u_q, gap_q = paired_scheme_gap(cfg, model, PotentialSpec.quadratic(lam))
        assert gap_c == gap_q
        assert np.array_equal(e_c.positions, e_q.positions)
        assert np.array_equal(u_c.positions, u_q.positions)

    def test_non_integer_ratio_rejected(self):
        cfg = RunConfig(d=1, N=4, eps=0.1, alpha=1.0, T=1.0, h0=0.05, seed=0)
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0)
        with pytest.raises(UsageError):
            paired_scheme_gap(cfg, model, PotentialSpec.quadratic(1.0),
                              h0_coarse=0.05, h0_fine=0.03)


class TestKeptParticles:
    """``keep`` integrates only the leading particles when they do not interact."""

    @staticmethod
    def _sweep(cfg, model, pot, kind, **kw):
        return run_eps_replicas(cfg, model, pot, kind, InitialLaw(velocity=0.3), range(5),
                                (_rng.EPS_RUN, 2), batch_size=3, keep_velocities=True, **kw)

    @pytest.mark.parametrize("kind", ["exponential", "euler"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("clip", [False, True])
    def test_kept_block_is_the_full_run_sliced(self, kind, d, clip):
        cfg = RunConfig(d=d, N=6, eps=0.1, alpha=1.2, T=0.4, h0=0.05, seed=17)
        model = NoiseModel.scalar_ou(d, gamma=1.5, sigma=0.8, clip=clip)
        pot = PotentialSpec.quadratic(0.7)
        full_x, full_y = self._sweep(cfg, model, pot, kind)
        for k in (1, 4):
            x, y = self._sweep(cfg, model, pot, kind, keep=k)
            assert x.shape == y.shape == (5, k, d)
            assert np.array_equal(x, full_x[:, :k])
            assert np.array_equal(y, full_y[:, :k])

    @pytest.mark.parametrize("model, pot", [
        (NoiseModel.scalar_ou(2, gamma=1.0, sigma=1.0), PotentialSpec.curie_weiss(1.0, 0.5)),
        (NoiseModel.fourier_field(2, gamma=1.0, sigma=1.0, omegas=[[1.0, 0.0], [0.0, 1.0]],
                                  a=[1.0, 0.5], b=[0.0, 0.5]), PotentialSpec.quadratic(1.0)),
        (NoiseModel.separable(2, gamma=1.0, sigma=1.0, g_name="gauss"),
         PotentialSpec.quadratic(1.0)),
    ], ids=["curie-weiss", "fourier-field", "separable"])
    def test_interacting_dynamics_integrate_all_particles(self, model, pot):
        cfg = RunConfig(d=2, N=6, eps=0.1, alpha=1.0, T=0.2, h0=0.05, seed=3)
        full_x, _ = self._sweep(cfg, model, pot, "exponential")
        x, _ = self._sweep(cfg, model, pot, "exponential", keep=2)
        assert x.shape == (5, 6, 2)
        assert np.array_equal(x, full_x)

    def test_recorder_sees_every_particle(self):
        cfg = RunConfig(d=1, N=6, eps=0.1, alpha=1.0, T=0.1, h0=0.05, seed=3)
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0)
        shapes = set()
        x, _ = run_eps_replicas(cfg, model, PotentialSpec.quadratic(1.0), "exponential",
                                InitialLaw(), range(2), (_rng.EPS_RUN, 0), keep=1,
                                recorder=lambda ids, k, t, X, Y, xi: shapes.add(X.shape))
        assert shapes == {(2, 6, 1)} and x.shape == (2, 6, 1)

    def test_keep_out_of_range_rejected(self):
        cfg = RunConfig(d=1, N=4, eps=0.1, alpha=1.0, T=0.1, h0=0.05, seed=0)
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0)
        for keep in (0, 5):
            with pytest.raises(UsageError, match="keep"):
                run_eps_replicas(cfg, model, PotentialSpec.quadratic(1.0), "exponential",
                                 InitialLaw(), range(2), (_rng.EPS_RUN, 0), keep=keep)
