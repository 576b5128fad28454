import math

import numpy as np
import pytest

from smallmass import rng as _rng
from smallmass.config import load_config
from smallmass.core import ParticleEnsemble, PotentialSpec, RunConfig, grad_v_batch
from smallmass.dynamics_eps import (EpsScheme, InitialLaw, build_scheme, _Advance, _n_steps,
                                    paired_scheme_gap, run_eps_replicas, step,
                                    _total_force)
from smallmass.errors import NumericError, UsageError
from smallmass.noise import (DriverState, NoiseModel, advance_xi, averaged_forcing_xi,
                             stationary_xi)

ZERO_POT = PotentialSpec.custom(lambda x, m: np.zeros_like(x), 1.0)
SILENT = NoiseModel.scalar_ou(1, gamma=1.0, sigma=0.0)


def _step_loop(cfg, model, pot, init, gen):
    """One replica to the horizon through ``step``; returns (ensemble, reports).

    Draws from ``gen`` in the kernel's order: positions, driver start, then
    one driver draw per step.
    """
    ens = ParticleEnsemble(init.draw_positions(cfg.N, cfg.d, gen),
                           init.velocities(cfg.N, cfg.d), 0.0, cfg.eps)
    drv = DriverState(stationary_xi(model, gen), 0.0)
    sch = build_scheme(cfg, "exponential")
    reports = []
    for _ in range(_n_steps(cfg.T, sch.h)):
        ens, drv, rep = step(ens, model, drv, pot, sch, cfg.alpha, gen)
        reports.append(rep)
    return ens, reports


def _kernel(cfg, model, pot, init=InitialLaw()):
    """Replica 0 on the stream path (EPS_RUN, 0); returns (positions, velocities)."""
    X, Y = run_eps_replicas(cfg, model, pot, "exponential", init, [0], (_rng.EPS_RUN, 0))
    return X[0], Y[0]


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
            X, _ = _kernel(cfg, SILENT, PotentialSpec.quadratic(1.0), init)
            errs[h0] = abs(X[0, 0] - self._exact(4.0))
        assert errs[0.04] < 0.05
        assert errs[0.02] < 0.7 * errs[0.04]


class TestDeterminism:
    def test_identical_runs(self):
        cfg = RunConfig(d=2, N=8, eps=0.1, alpha=1.0, T=0.5, h0=0.05, seed=5)
        model = NoiseModel.scalar_ou(2, gamma=1.0, sigma=1.0)
        pot = PotentialSpec.curie_weiss(1.0, 0.2)
        a, b = _kernel(cfg, model, pot), _kernel(cfg, model, pot)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_noise_free_single_particle_repeatable(self):
        cfg = RunConfig(d=1, N=1, eps=0.2, alpha=1.0, T=1.0, h0=0.05, seed=9)
        init = InitialLaw(position_mean=1.0, position_std=0.0)
        outs = [_kernel(cfg, SILENT, PotentialSpec.quadratic(1.0), init)[0]
                for _ in range(3)]
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[1], outs[2])

    def test_batched_matches_sequential_bitwise(self):
        cfg = RunConfig(d=1, N=16, eps=0.1, alpha=1.3, T=1.0, h0=0.05, seed=99)
        model = NoiseModel.scalar_ou(1, gamma=2.0, sigma=0.7)
        pot = PotentialSpec.curie_weiss(1.0, 0.4)
        init = InitialLaw()
        ens, _ = _step_loop(cfg, model, pot, init, _rng.stream(99, _rng.EPS_RUN, 5, 3))
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

    def test_exploding_custom_potential_raises_numeric_error(self):
        # the first step sends the state to -inf; the next drift evaluation
        # refuses it
        exploding = PotentialSpec.custom(
            lambda x, m: np.full_like(x, np.inf), 1.0)
        cfg = RunConfig(d=1, N=1, eps=0.5, alpha=1.0, T=1.0, h0=0.1, seed=0)
        with pytest.raises(NumericError, match=r"non-finite.*eps=0\.5, replica=0"):
            _kernel(cfg, SILENT, exploding)

    def test_non_finite_state_names_the_replica_and_eps(self):
        class OneBadReplica(InitialLaw):
            calls = 0

            def draw_positions(self, n, d, rng):
                x = super().draw_positions(n, d, rng)
                if self.calls == 1:
                    x[0] = np.inf
                self.calls += 1
                return x

        cfg = RunConfig(d=1, N=4, eps=0.5, alpha=1.0, T=0.1, h0=0.05, seed=0)
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0)
        with pytest.raises(NumericError, match=r"eps=0\.5, replica=8") as err, \
                np.errstate(invalid="ignore"):
            run_eps_replicas(cfg, model, PotentialSpec.quadratic(1.0), "exponential",
                             OneBadReplica(), [7, 8, 9], (_rng.EPS_RUN, 0))
        assert err.value.replica == 8 and err.value.eps == 0.5

    def test_step_report_fields(self):
        cfg = RunConfig(d=1, N=4, eps=0.2, alpha=1.0, T=0.2, h0=0.05, seed=1)
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0)
        ens, reports = _step_loop(cfg, model, PotentialSpec.quadratic(1.0), InitialLaw(),
                                  _rng.stream(1, _rng.EPS_RUN, 0, 0))
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
                _, reports = _step_loop(cfg, model, pot, InitialLaw(),
                                        _rng.stream(13, _rng.EPS_RUN, 9, r))
                acc += sum(rep.energy_proxy for rep in reports) * cfg.eps_step / eps
            totals[eps] = cfg.alpha * math.sqrt(eps) * acc / reps
        ratio = totals[0.2] / totals[0.05]
        assert 1.0 / 3.0 < ratio < 3.0


def _paired_reference(cfg, model, pot, h0_coarse=0.05, h0_fine=0.01, init=InitialLaw(),
                     seed_index=0):
    """The cross-check written out on its own frozen-forcing loop: one
    stream, the exponential step at h0_coarse * eps, and h0_coarse/h0_fine
    Euler substeps holding each coarse step's forcing."""
    ratio = int(round(h0_coarse / h0_fine))
    h_c = h0_coarse * cfg.eps
    h_f = h_c / ratio
    n_c = _n_steps(cfg.T, h_c)
    gen = _rng.stream(cfg.seed, _rng.PAIRED, seed_index)
    X0 = init.draw_positions(cfg.N, cfg.d, gen)
    Y0 = init.velocities(cfg.N, cfg.d)
    xi = stationary_xi(model, gen)
    Z = gen.standard_normal((n_c,) + model.driver_shape)
    inv_sqrt_eps = 1.0 / math.sqrt(cfg.eps)
    Xe, Ye = X0.copy(), Y0.copy()
    Xu, Yu = X0.copy(), Y0.copy()
    F, tmp = np.empty_like(X0), np.empty_like(X0)
    adv_e = _Advance("exponential", h_c, cfg.eps, cfg.alpha)
    adv_u = _Advance("euler", h_f, cfg.eps, cfg.alpha)
    for k in range(n_c):
        _total_force(model, pot, Xe, xi, inv_sqrt_eps, F, tmp)
        adv_e(Xe, Ye, F, tmp)
        bar_u = inv_sqrt_eps * averaged_forcing_xi(model, xi, Xu)
        for _ in range(ratio):
            grad_v_batch(pot, Xu, out=F, tmp=tmp)
            np.subtract(bar_u[..., None, :], F, out=F)
            adv_u(Xu, Yu, F, tmp)
        xi = advance_xi(xi, model, h0_coarse, Z[k])
    gap = float(np.sqrt(np.mean(np.sum((Xe - Xu) ** 2, axis=-1))))
    return (Xe, Ye), (Xu, Yu), gap


class TestSchemeCrossCheck:
    @staticmethod
    def _assert_matches_reference(cfg, model, pot, init):
        ens_e, ens_u, gap = paired_scheme_gap(cfg, model, pot, init=init)
        (Xe, Ye), (Xu, Yu), ref_gap = _paired_reference(cfg, model, pot, init=init)
        assert gap == ref_gap
        assert np.array_equal(ens_e.positions, Xe) and np.array_equal(ens_e.velocities, Ye)
        assert np.array_equal(ens_u.positions, Xu) and np.array_equal(ens_u.velocities, Yu)

    @pytest.mark.parametrize("eps_index", range(4))
    def test_benchmark_matches_frozen_forcing_reference(self, benchmark_config_path,
                                                       eps_index):
        cfg = load_config(benchmark_config_path)
        rc = cfg.run_config(cfg.eps_grid[eps_index])
        self._assert_matches_reference(rc, cfg.noise_model(), cfg.potential(),
                                       cfg.init_law())

    def test_coupled_matches_frozen_forcing_reference(self):
        cfg = RunConfig(d=2, N=6, eps=0.1, alpha=1.0, T=1.0, h0=0.05, seed=8)
        model = NoiseModel.fourier_field(2, gamma=1.0, sigma=1.0,
                                         omegas=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                                         a=[1.0, 0.5, 0.5], b=[0.0, 0.5, 0.5])
        self._assert_matches_reference(cfg, model, PotentialSpec.curie_weiss(1.0, 0.5),
                                       InitialLaw(velocity=0.3))

    def test_coarse_step_past_the_step_law_cap_rejected(self):
        cfg = RunConfig(d=1, N=4, eps=0.1, alpha=1.0, T=1.0, h0=0.05, seed=0)
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0)
        with pytest.raises(UsageError, match="h0"):
            paired_scheme_gap(cfg, model, PotentialSpec.quadratic(1.0),
                              h0_coarse=0.25, h0_fine=0.05)

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
                                (_rng.EPS_RUN, 2), batch_size=3, **kw)

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


class TestCustomPotentialInKernel:
    """A custom potential runs through the kernel with the builtin arithmetic."""

    @pytest.mark.parametrize("model", [
        NoiseModel.scalar_ou(2, gamma=1.0, sigma=1.0),
        NoiseModel.fourier_field(2, gamma=1.0, sigma=1.0, omegas=[[1.0, 0.0], [0.0, 1.0]],
                                 a=[1.0, 0.5], b=[0.0, 0.5]),
    ], ids=["scalar-ou", "fourier-field"])
    def test_custom_curie_weiss_matches_builtin_and_step_loop(self, model):
        cfg = RunConfig(d=2, N=5, eps=0.1, alpha=1.0, T=0.2, h0=0.05, seed=23)
        lam, kappa = 1.0, 0.5
        builtin = PotentialSpec.curie_weiss(lam, kappa)
        custom = PotentialSpec.custom(lambda x, m: lam * x + kappa * (x - m.mean()),
                                      builtin.lipschitz_bound)
        init, path = InitialLaw(velocity=0.3), (_rng.EPS_RUN, 6)
        X, Y = run_eps_replicas(cfg, model, custom, "exponential", init, range(7), path,
                                batch_size=3)
        Xb, Yb = run_eps_replicas(cfg, model, builtin, "exponential", init, range(7), path,
                                  batch_size=3)
        assert np.array_equal(X, Xb) and np.array_equal(Y, Yb)
        for r in (0, 4, 6):
            ens, _ = _step_loop(cfg, model, custom, init, _rng.stream(cfg.seed, *path, r))
            assert np.array_equal(ens.positions, X[r])
            assert np.array_equal(ens.velocities, Y[r])
