import math

import numpy as np
import pytest

from smallmass import rng as _rng
from smallmass.core import ParticleEnsemble, PotentialSpec, RunConfig
from smallmass.dynamics_eps import InitialLaw, _n_steps
from smallmass import harness
from smallmass.config import parse_config
from smallmass.diagnostics import GkEstimate
from smallmass.dynamics_limit import (DiffusionSpec, LimitScheme, default_limit_scheme,
                                      run_limit_replicas, step_em)
from smallmass.errors import NumericError, UsageError
from smallmass.harness import build_mode_diffusions

ZERO_POT = PotentialSpec.custom(lambda x, m: np.zeros_like(x), 1.0)


class TestBuildDiffusion:
    def test_paper_mode_scalar_ou(self, small_config_dict):
        # Sigma = sigma^2 = 1, beta = gamma = 2, alpha = 1 -> D = 1/2
        doc = dict(small_config_dict, **{"limit.modes": ["paper"]})
        diff = build_mode_diffusions(parse_config(doc))["paper"]
        assert diff.matrix[0, 0] == pytest.approx(0.5)
        assert diff.mode == "paper"

    def test_green_kubo_mode_uses_estimate(self, small_config_dict, monkeypatch):
        monkeypatch.setattr(harness, "run_estimate_gk",
                            lambda cfg: GkEstimate(G=np.array([[1.0]]), horizon_fast=1.0,
                                                   truncation_lag=1.0, reps=2, ci_fro=0.0))
        doc = dict(small_config_dict, **{"run.alpha": 2.0, "limit.modes": ["green-kubo"]})
        diff = build_mode_diffusions(parse_config(doc))["green-kubo"]
        assert diff.matrix[0, 0] == pytest.approx(0.25)

    def test_explicit_zero_matrix(self, small_config_dict):
        doc = dict(small_config_dict, **{
            "run.d": 2, "limit.modes": ["explicit"],
            "limit.explicit_matrix": [[0.0, 0.0], [0.0, 0.0]]})
        diff = build_mode_diffusions(parse_config(doc))["explicit"]
        assert np.array_equal(diff.matrix, np.zeros((2, 2)))
        assert np.array_equal(diff.sqrt, np.zeros((2, 2)))

    def test_rejects_asymmetric_and_indefinite(self):
        with pytest.raises(UsageError, match="symmetric"):
            DiffusionSpec("explicit", np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(UsageError, match="negative"):
            DiffusionSpec("explicit", np.diag([1.0, -0.5]))

    def test_sqrt_of_diagonal(self):
        diff = DiffusionSpec("explicit", np.diag([4.0, 9.0]))
        assert diff.sqrt == pytest.approx(np.diag([2.0, 3.0]))

    def test_sqrt_reconstruction_random_psd(self):
        rng = np.random.default_rng(0)
        for d in range(1, 9):
            a = rng.standard_normal((d, d))
            m = a @ a.T
            diff = DiffusionSpec("explicit", m)
            assert np.max(np.abs(diff.sqrt @ diff.sqrt.T - m)) <= 1e-10

    def test_reconstruction_is_exactly_symmetric(self):
        # green-kubo off-diagonals once differed in the last bit
        m = np.array([[0.7, -0.07561688556334193], [-0.07561688556334193, 0.4]])
        diff = DiffusionSpec("green-kubo", m)
        assert np.array_equal(diff.matrix, diff.matrix.T)
        assert np.array_equal(diff.sqrt, diff.sqrt.T)

    def test_one_dimensional_value_is_kept_bitwise(self):
        for x in (0.5, 1.0 / 3.0, 0.07561688556334193, 2.0**-30):
            diff = DiffusionSpec("explicit", [[x]])
            assert diff.matrix[0, 0] == x
            assert diff.sqrt[0, 0] == math.sqrt(x)


class TestStepEm:
    def test_identity_with_zero_drift_and_diffusion(self):
        ens = ParticleEnsemble(np.array([[1.0], [2.0]]), None, 0.0, None)
        diff = DiffusionSpec("explicit", np.zeros((1, 1)))
        out = step_em(ens, ZERO_POT, diff, LimitScheme(0.001), 1.0,
                      _rng.stream(0, _rng.DIRECT))
        assert np.array_equal(out.positions, ens.positions)
        assert out.time == pytest.approx(0.001)

    def test_requires_limit_mode(self):
        ens = ParticleEnsemble(np.zeros((1, 1)), np.zeros((1, 1)), 0.0, 0.5)
        diff = DiffusionSpec("explicit", np.zeros((1, 1)))
        with pytest.raises(UsageError):
            step_em(ens, ZERO_POT, diff, LimitScheme(0.001), 1.0,
                    _rng.stream(0, _rng.DIRECT))

    def test_stationary_variance_of_linear_sde(self):
        # dx = -x dt + sqrt(2) dB has stationary variance D*alpha/(2*lam) = 1
        pot = PotentialSpec.quadratic(1.0)
        diff = DiffusionSpec("explicit", np.array([[2.0]]))
        cfg = RunConfig(d=1, N=1000, eps=0.5, alpha=1.0, T=8.0, h0=0.05, seed=0)
        # one replica per call keeps the pre-drawn normals small
        samples = [run_limit_replicas(cfg, pot, diff, InitialLaw(), [rep],
                                      (_rng.LIMIT_RUN, 3))[0, :, 0] for rep in range(16)]
        var = np.concatenate(samples).var()
        assert var == pytest.approx(1.0, rel=0.1)


class TestSimulateLimit:
    def test_zero_diffusion_exponential_decay(self):
        pot = PotentialSpec.quadratic(1.0)
        diff = DiffusionSpec("explicit", np.zeros((1, 1)))
        cfg = RunConfig(d=1, N=1, eps=0.5, alpha=1.0, T=5.0, h0=0.05, seed=0)
        init = InitialLaw(position_mean=1.0, position_std=0.0)
        X = run_limit_replicas(cfg, pot, diff, init, [0], (_rng.LIMIT_RUN, 0))
        assert X[0, 0, 0] == pytest.approx(math.exp(-5.0), rel=0.05)

    def test_same_seed_identical(self):
        pot = PotentialSpec.quadratic(1.0)
        diff = DiffusionSpec("explicit", np.array([[1.0]]))
        cfg = RunConfig(d=1, N=32, eps=0.5, alpha=1.0, T=1.0, h0=0.05, seed=21)
        a, b = (run_limit_replicas(cfg, pot, diff, InitialLaw(), [0], (_rng.LIMIT_RUN, 0))
                for _ in range(2))
        assert np.array_equal(a, b)

    def test_curie_weiss_mean_decay_independent_of_coupling(self):
        # the ensemble mean follows d(mean)/dt = -(lam/alpha)*mean, kappa-free
        cfg = RunConfig(d=1, N=400, eps=0.5, alpha=2.0, T=2.0, h0=0.05, seed=4)
        init = InitialLaw(position_mean=1.0, position_std=0.3)
        diff = DiffusionSpec("explicit", np.array([[0.05]]))
        expected = math.exp(-cfg.T * 1.0 / cfg.alpha)
        for kappa in (0.0, 2.0):
            pot = PotentialSpec.curie_weiss(1.0, kappa)
            X = run_limit_replicas(cfg, pot, diff, init, [0], (_rng.LIMIT_RUN, 7))
            assert X.mean() == pytest.approx(expected, abs=0.05)

    def test_two_clusters_attract_under_positive_coupling(self):
        # zero diffusion makes the contraction deterministic and monotone
        pot = PotentialSpec.curie_weiss(0.0 + 1e-12, 3.0)
        diff = DiffusionSpec("explicit", np.zeros((1, 1)))
        pos = np.concatenate([np.full((20, 1), -1.0), np.full((20, 1), 1.0)])
        ens = ParticleEnsemble(pos, None, 0.0, None)
        sch = default_limit_scheme(
            RunConfig(d=1, N=40, eps=0.5, alpha=1.0, T=1.0, h0=0.05, seed=0), pot)
        gen = _rng.stream(0, _rng.DIRECT)
        spreads = [ens.positions.std()]
        for _ in range(200):
            ens = step_em(ens, pot, diff, sch, 1.0, gen)
            spreads.append(ens.positions.std())
        assert all(b < a for a, b in zip(spreads, spreads[1:]))

    def test_custom_twin_gets_the_builtin_step_and_cap(self):
        # a custom potential's declared bound sets its step; before, its
        # stiffness was 0 and the default step was the whole horizon
        cfg = RunConfig(d=1, N=1, eps=0.5, alpha=1.0, T=5.0, h0=0.05, seed=0)
        builtin = PotentialSpec.quadratic(3.0)
        custom = PotentialSpec.custom(lambda x, m: 3.0 * x, 3.0)
        assert default_limit_scheme(cfg, custom) == default_limit_scheme(cfg, builtin)
        assert default_limit_scheme(cfg, custom).h == pytest.approx(0.01 / 3.0, rel=1e-3)
        for pot in (builtin, custom):
            with pytest.raises(UsageError, match="limit step"):
                LimitScheme(5.0).validate(cfg.alpha, pot)

    def test_step_cap_enforced(self):
        pot = PotentialSpec.quadratic(10.0)
        with pytest.raises(UsageError, match="limit step"):
            LimitScheme(0.1).validate(1.0, pot)
        sch = default_limit_scheme(
            RunConfig(d=1, N=1, eps=0.5, alpha=1.0, T=1.0, h0=0.05, seed=0), pot)
        assert sch.h <= 0.001 * (1.0 + 1e-12)


class TestLimitReplicaSweep:
    """The lock-step kernel against a per-replica loop of ``step_em``."""

    @staticmethod
    def _reference(cfg, pot, diff, init, ids, path, sch):
        out = []
        for r in ids:
            gen = _rng.stream(cfg.seed, *path, r)
            ens = ParticleEnsemble(init.draw_positions(cfg.N, cfg.d, gen), None, 0.0, None)
            for _ in range(_n_steps(cfg.T, sch.h)):
                ens = step_em(ens, pot, diff, sch, cfg.alpha, gen)
            out.append(ens.positions)
        return np.stack(out)

    @pytest.mark.parametrize("d, keep", [(1, 3), (1, 1), (2, 1), (2, 3)])
    def test_quadratic_kept_particles_match_sequential(self, d, keep):
        cfg = RunConfig(d=d, N=8, eps=0.5, alpha=1.0, T=0.3, h0=0.05, seed=11)
        pot = PotentialSpec.quadratic(1.0)
        diff = DiffusionSpec("explicit", np.array([[0.7, 0.2], [0.2, 0.5]])[:d, :d])
        init, ids, path = InitialLaw(position_std=0.5), [4, 0, 9], (_rng.LIMIT_RUN, 1)
        sch = default_limit_scheme(cfg, pot)
        ref = self._reference(cfg, pot, diff, init, ids, path, sch)
        got = run_limit_replicas(cfg, pot, diff, init, ids, path, sch, keep=keep)
        assert got.shape[1] < cfg.N
        assert np.array_equal(got[:, :keep], ref[:, :keep])

    def test_curie_weiss_matches_sequential(self):
        cfg = RunConfig(d=2, N=6, eps=0.5, alpha=1.0, T=0.2, h0=0.05, seed=5)
        pot = PotentialSpec.curie_weiss(1.0, 0.5)
        diff = DiffusionSpec("explicit", np.array([[1.0, -0.3], [-0.3, 0.8]]))
        init, ids, path = InitialLaw(), range(3), (_rng.SELF_TEST, 2)
        sch = LimitScheme(0.003)  # does not divide T
        ref = self._reference(cfg, pot, diff, init, ids, path, sch)
        got = run_limit_replicas(cfg, pot, diff, init, ids, path, sch, keep=2)
        assert got.shape == (3, 6, 2)
        assert np.array_equal(got, ref)

    def test_custom_curie_weiss_matches_builtin_and_step_loop(self):
        cfg = RunConfig(d=2, N=6, eps=0.5, alpha=1.0, T=0.2, h0=0.05, seed=5)
        lam, kappa = 1.0, 0.5
        builtin = PotentialSpec.curie_weiss(lam, kappa)
        custom = PotentialSpec.custom(lambda x, m: lam * x + kappa * (x - m.mean()),
                                      builtin.lipschitz_bound)
        diff = DiffusionSpec("explicit", np.array([[1.0, -0.3], [-0.3, 0.8]]))
        init, ids, path = InitialLaw(), range(3), (_rng.LIMIT_RUN, 4)
        # The custom twin's step follows its declared bound, lam + 2|kappa|,
        # which is stricter than the builtin's lam + |kappa| and valid for both.
        sch = default_limit_scheme(cfg, custom)
        got = run_limit_replicas(cfg, custom, diff, init, ids, path, sch)
        assert np.array_equal(got, run_limit_replicas(cfg, builtin, diff, init, ids, path, sch))
        assert np.array_equal(got, self._reference(cfg, custom, diff, init, ids, path, sch))

    def test_non_dividing_step_reaches_the_horizon(self):
        # round(T/h) gave 149 steps, ending at t = 0.9983 before the horizon;
        # the eps system's rule rounds up to 150.
        cfg = RunConfig(d=1, N=2, eps=0.5, alpha=1.0, T=1.0, h0=0.05, seed=3)
        times = []
        run_limit_replicas(cfg, PotentialSpec.quadratic(1.0),
                           DiffusionSpec("explicit", np.array([[1.0]])), InitialLaw(),
                           [0], (_rng.LIMIT_RUN, 0), LimitScheme(0.0067),
                           recorder=lambda ids, k, t, X: times.append((k, t)))
        k, t = times[-1]
        assert k == 150 and t >= cfg.T

    def test_exploding_custom_potential_names_the_replica(self):
        # the first step sends the state to -inf; the next drift evaluation
        # refuses it, and the kernel names the replica
        exploding = PotentialSpec.custom(lambda x, m: np.full_like(x, np.inf), 1.0)
        cfg = RunConfig(d=1, N=1, eps=0.5, alpha=1.0, T=1.0, h0=0.05, seed=0)
        with pytest.raises(NumericError, match=r"custom potential.*non-finite.*replica=3"):
            run_limit_replicas(cfg, exploding, DiffusionSpec("explicit", np.array([[1.0]])),
                               InitialLaw(), [3], (_rng.LIMIT_RUN, 0))

    def test_non_finite_state_names_the_replica(self):
        class OneBadReplica:
            calls = 0

            def draw_positions(self, n, d, rng):
                x = InitialLaw().draw_positions(n, d, rng)
                if self.calls == 1:
                    x[0] = np.inf
                self.calls += 1
                return x

        cfg = RunConfig(d=1, N=4, eps=0.5, alpha=1.0, T=0.1, h0=0.05, seed=0)
        with pytest.raises(NumericError, match="replica=8") as err, \
                np.errstate(invalid="ignore"):
            run_limit_replicas(cfg, PotentialSpec.quadratic(1.0),
                               DiffusionSpec("explicit", np.array([[1.0]])),
                               OneBadReplica(), [7, 8, 9], (_rng.LIMIT_RUN, 0))
        assert err.value.replica == 8
