import math

import numpy as np
import pytest

from smallmass import rng as _rng
from smallmass.core import PotentialSpec, RunConfig, grad_v_batch
from smallmass.dynamics_eps import InitialLaw, _n_steps, run_eps_replicas
from smallmass import harness
from smallmass.config import parse_config
from smallmass.dynamics_limit import (DiffusionSpec, LimitScheme, default_limit_scheme,
                                      run_limit_replicas)
from smallmass.errors import NumericError, UsageError
from smallmass.harness import build_mode_diffusions
from smallmass.noise import NoiseModel

from conftest import replica_replays, traced_peak_above

ZERO_POT = PotentialSpec.custom(lambda x, m: np.zeros_like(x), 1.0)


def step_em(X, pot, diff, sch, alpha, rng):
    """One Euler-Maruyama step of the positions ``X`` (N, d) of one
    replica: the reference the lock-step kernel is checked against."""
    grad = grad_v_batch(pot, X)
    Z = rng.standard_normal(X.shape)
    X2 = X - (sch.h / alpha) * grad + math.sqrt(sch.h) * Z @ diff.sqrt.T
    if not np.all(np.isfinite(X2)):
        raise NumericError("step_em state is non-finite")
    return X2


class TestBuildDiffusion:
    def test_paper_mode_scalar_ou(self, small_config_dict):
        # Sigma = sigma^2 = 1, beta = gamma = 2, alpha = 1 -> D = 1/2
        doc = dict(small_config_dict, **{"limit.modes": ["paper"]})
        diff = build_mode_diffusions(parse_config(doc))["paper"]
        assert diff.matrix[0, 0] == pytest.approx(0.5)

    def test_green_kubo_mode_is_twice_paper(self, small_config_dict, monkeypatch):
        # G = 2 * sigma^2 / gamma = 1, alpha = 2 -> D = 1/4, in closed form
        def no_gk(cfg):
            raise AssertionError("the green-kubo mode ran the Green-Kubo estimate")

        monkeypatch.setattr(harness, "run_estimate_gk", no_gk)
        doc = dict(small_config_dict, **{"run.alpha": 2.0,
                                         "limit.modes": ["green-kubo", "paper"]})
        diffs = build_mode_diffusions(parse_config(doc))
        assert diffs["green-kubo"].matrix[0, 0] == 0.25
        assert diffs["paper"].matrix[0, 0] == 0.125

    def test_explicit_zero_matrix(self, small_config_dict):
        doc = dict(small_config_dict, **{
            "run.d": 2, "limit.modes": ["explicit"],
            "limit.explicit_matrix": [[0.0, 0.0], [0.0, 0.0]]})
        diff = build_mode_diffusions(parse_config(doc))["explicit"]
        assert np.array_equal(diff.matrix, np.zeros((2, 2)))
        assert np.array_equal(diff.sqrt, np.zeros((2, 2)))

    def test_rejects_asymmetric_and_indefinite(self):
        with pytest.raises(UsageError, match="symmetric"):
            DiffusionSpec(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(UsageError, match="negative"):
            DiffusionSpec(np.diag([1.0, -0.5]))

    def test_sqrt_of_diagonal(self):
        diff = DiffusionSpec(np.diag([4.0, 9.0]))
        assert diff.sqrt == pytest.approx(np.diag([2.0, 3.0]))

    def test_sqrt_reconstruction_random_psd(self):
        rng = np.random.default_rng(0)
        for d in range(1, 9):
            a = rng.standard_normal((d, d))
            m = a @ a.T
            diff = DiffusionSpec(m)
            assert np.max(np.abs(diff.sqrt @ diff.sqrt.T - m)) <= 1e-10

    def test_reconstruction_is_exactly_symmetric(self):
        # green-kubo off-diagonals once differed in the last bit
        m = np.array([[0.7, -0.07561688556334193], [-0.07561688556334193, 0.4]])
        diff = DiffusionSpec(m)
        assert np.array_equal(diff.matrix, diff.matrix.T)
        assert np.array_equal(diff.sqrt, diff.sqrt.T)

    def test_one_dimensional_value_is_kept_bitwise(self):
        for x in (0.5, 1.0 / 3.0, 0.07561688556334193, 2.0**-30):
            diff = DiffusionSpec([[x]])
            assert diff.matrix[0, 0] == x
            assert diff.sqrt[0, 0] == math.sqrt(x)


class TestStepEm:
    def test_identity_with_zero_drift_and_diffusion(self):
        X = np.array([[1.0], [2.0]])
        diff = DiffusionSpec(np.zeros((1, 1)))
        out = step_em(X, ZERO_POT, diff, LimitScheme(0.001), 1.0,
                      _rng.stream(0, _rng.DIRECT))
        assert np.array_equal(out, X)

    def test_stationary_variance_of_linear_sde(self):
        # dx = -x dt + sqrt(2) dB has stationary variance D*alpha/(2*lam) = 1
        pot = PotentialSpec.quadratic(1.0)
        diff = DiffusionSpec(np.array([[2.0]]))
        cfg = RunConfig(d=1, N=1000, eps=0.5, alpha=1.0, T=8.0, h0=0.05, seed=0)
        samples = run_limit_replicas(cfg, pot, diff, InitialLaw(), range(16),
                                     (_rng.LIMIT_RUN, 3))
        var = samples.var()
        assert var == pytest.approx(1.0, rel=0.1)


class TestSimulateLimit:
    def test_zero_diffusion_exponential_decay(self):
        pot = PotentialSpec.quadratic(1.0)
        diff = DiffusionSpec(np.zeros((1, 1)))
        cfg = RunConfig(d=1, N=1, eps=0.5, alpha=1.0, T=5.0, h0=0.05, seed=0)
        init = InitialLaw(position_mean=1.0, position_std=0.0)
        X = run_limit_replicas(cfg, pot, diff, init, [0], (_rng.LIMIT_RUN, 0))
        assert X[0, 0, 0] == pytest.approx(math.exp(-5.0), rel=0.05)

    def test_same_seed_identical(self):
        pot = PotentialSpec.quadratic(1.0)
        diff = DiffusionSpec(np.array([[1.0]]))
        cfg = RunConfig(d=1, N=32, eps=0.5, alpha=1.0, T=1.0, h0=0.05, seed=21)
        a, b = (run_limit_replicas(cfg, pot, diff, InitialLaw(), [0], (_rng.LIMIT_RUN, 0))
                for _ in range(2))
        assert np.array_equal(a, b)

    def test_curie_weiss_mean_decay_independent_of_coupling(self):
        # the ensemble mean follows d(mean)/dt = -(lam/alpha)*mean, kappa-free
        cfg = RunConfig(d=1, N=400, eps=0.5, alpha=2.0, T=2.0, h0=0.05, seed=4)
        init = InitialLaw(position_mean=1.0, position_std=0.3)
        diff = DiffusionSpec(np.array([[0.05]]))
        expected = math.exp(-cfg.T * 1.0 / cfg.alpha)
        for kappa in (0.0, 2.0):
            pot = PotentialSpec.curie_weiss(1.0, kappa)
            X = run_limit_replicas(cfg, pot, diff, init, [0], (_rng.LIMIT_RUN, 7))
            assert X.mean() == pytest.approx(expected, abs=0.05)

    def test_two_clusters_attract_under_positive_coupling(self):
        # zero diffusion makes the contraction deterministic and monotone
        pot = PotentialSpec.curie_weiss(0.0 + 1e-12, 3.0)
        diff = DiffusionSpec(np.zeros((1, 1)))
        pos = np.concatenate([np.full((20, 1), -1.0), np.full((20, 1), 1.0)])
        sch = default_limit_scheme(
            RunConfig(d=1, N=40, eps=0.5, alpha=1.0, T=1.0, h0=0.05, seed=0), pot)
        gen = _rng.stream(0, _rng.DIRECT)
        spreads = [pos.std()]
        for _ in range(200):
            pos = step_em(pos, pot, diff, sch, 1.0, gen)
            spreads.append(pos.std())
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
    def _reference(cfg, pot, diff, init, reps, path, sch, gens=None):
        """Replicas 0..reps-1 one at a time through ``step_em``, each on its
        block's draws taken whole up front (or on ``gens``)."""
        n = _n_steps(cfg.T, sch.h)
        gens = gens or replica_replays(cfg.seed, path, reps, n, positions=(cfg.N, cfg.d),
                                       step=(cfg.N, cfg.d))
        out = []
        for gen in gens:
            X = init.draw_positions(cfg.N, cfg.d, gen)
            for _ in range(n):
                X = step_em(X, pot, diff, sch, cfg.alpha, gen)
            out.append(X)
        return np.stack(out)

    @pytest.mark.parametrize("d, keep", [(1, 3), (1, 1), (2, 1), (2, 3)])
    def test_quadratic_kept_particles_match_sequential(self, d, keep):
        # A kept-particle sample is a run at N = keep; at N = 1 in d = 2 the
        # one-row blocks of the kernel and of step_em round alike.  Two
        # stream blocks, 64 and 6 replicas.
        cfg = RunConfig(d=d, N=keep, eps=0.5, alpha=1.0, T=0.3, h0=0.05, seed=11)
        pot = PotentialSpec.quadratic(1.0)
        diff = DiffusionSpec(np.array([[0.7, 0.2], [0.2, 0.5]])[:d, :d])
        init, path = InitialLaw(position_std=0.5), (_rng.LIMIT_RUN, 1)
        sch = default_limit_scheme(cfg, pot)
        ref = self._reference(cfg, pot, diff, init, 70, path, sch)
        got = run_limit_replicas(cfg, pot, diff, init, range(70), path, sch)
        assert got.shape == (70, keep, d)
        assert np.array_equal(got, ref)

    def test_block_of_one_is_the_replica_stream(self):
        # a lone replica is a block of one: it draws from (path, 0) what the
        # per-replica contract drew
        cfg = RunConfig(d=2, N=3, eps=0.5, alpha=1.0, T=0.2, h0=0.05, seed=11)
        pot = PotentialSpec.curie_weiss(1.0, 0.5)
        diff = DiffusionSpec(np.array([[0.7, 0.2], [0.2, 0.5]]))
        path, sch = (_rng.LIMIT_RUN, 1), default_limit_scheme(cfg, pot)
        ref = self._reference(cfg, pot, diff, InitialLaw(), 1, path, sch,
                              gens=[_rng.stream(cfg.seed, *path, 0)])
        assert np.array_equal(run_limit_replicas(cfg, pot, diff, InitialLaw(), [0], path, sch),
                              ref)

    def test_no_replicas_give_empty_positions(self):
        # an empty replica list draws nothing, in both kernels
        cfg = RunConfig(d=2, N=3, eps=0.5, alpha=1.0, T=0.2, h0=0.05, seed=11)
        pot = PotentialSpec.curie_weiss(1.0, 0.5)
        X = run_limit_replicas(cfg, pot, DiffusionSpec(np.eye(2)), InitialLaw(),
                               [], (_rng.LIMIT_RUN, 1))
        assert X.shape == (0, 3, 2)
        model = NoiseModel.fourier_field(2, 1.0, 1.0, [[1.0, 0.0]], [1.0], [0.5])
        X, Y = run_eps_replicas(cfg, model, pot, "exponential", InitialLaw(), [],
                                (_rng.EPS_RUN, 1))
        assert X.shape == Y.shape == (0, 3, 2)

    def test_curie_weiss_matches_sequential(self):
        cfg = RunConfig(d=2, N=6, eps=0.5, alpha=1.0, T=0.2, h0=0.05, seed=5)
        pot = PotentialSpec.curie_weiss(1.0, 0.5)
        diff = DiffusionSpec(np.array([[1.0, -0.3], [-0.3, 0.8]]))
        init, path = InitialLaw(), (_rng.SELF_TEST, 2)
        sch = LimitScheme(0.003)  # does not divide T
        ref = self._reference(cfg, pot, diff, init, 70, path, sch)
        got = run_limit_replicas(cfg, pot, diff, init, range(70), path, sch)
        assert got.shape == (70, 6, 2)
        assert np.array_equal(got, ref)

    def test_custom_curie_weiss_matches_builtin_and_step_loop(self):
        cfg = RunConfig(d=2, N=6, eps=0.5, alpha=1.0, T=0.2, h0=0.05, seed=5)
        lam, kappa = 1.0, 0.5
        builtin = PotentialSpec.curie_weiss(lam, kappa)
        custom = PotentialSpec.custom(lambda x, m: lam * x + kappa * (x - m.mean()),
                                      builtin.lipschitz_bound)
        diff = DiffusionSpec(np.array([[1.0, -0.3], [-0.3, 0.8]]))
        init, ids, path = InitialLaw(), range(70), (_rng.LIMIT_RUN, 4)
        # The custom twin's step follows its declared bound, lam + 2|kappa|,
        # which is stricter than the builtin's lam + |kappa| and valid for both.
        sch = default_limit_scheme(cfg, custom)
        got = run_limit_replicas(cfg, custom, diff, init, ids, path, sch)
        assert np.array_equal(got, run_limit_replicas(cfg, builtin, diff, init, ids, path, sch))
        assert np.array_equal(got, self._reference(cfg, custom, diff, init, 70, path, sch))

    @pytest.mark.parametrize("budget", [None, 8500], ids=["default", "small-windows"])
    def test_split_calls_match_one_call(self, budget, monkeypatch):
        # The stacked d = 2 matmul with a non-diagonal root must round every
        # replica alike whatever the replica count.  150 replicas are three
        # stream blocks, the last one short; the small budget gives windows
        # of 4, 11, 8, 5 and 30 steps over the 30-step run at 150, 64, 86,
        # 128 and 22 replicas.
        if budget is not None:
            monkeypatch.setattr(_rng, "DRAW_BUDGET", budget)
        cfg = RunConfig(d=2, N=6, eps=0.5, alpha=1.0, T=0.2, h0=0.05, seed=8)
        pot = PotentialSpec.curie_weiss(1.0, 0.5)
        diff = DiffusionSpec(np.array([[1.0, 0.3], [0.3, 0.6]]))
        init, path = InitialLaw(), (_rng.LIMIT_RUN, 0)
        whole = run_limit_replicas(cfg, pot, diff, init, range(150), path)
        for cut in (64, 128):
            parts = [run_limit_replicas(cfg, pot, diff, init, ids, path)
                     for ids in (range(cut), range(cut, 150))]
            assert np.array_equal(whole, np.concatenate(parts))

    def test_normals_memory_is_bounded(self):
        # A full pre-draw of 750 steps of (64, 32, 2) normals is 24.6 MB;
        # windows hold at most rng.DRAW_BUDGET doubles (2 MB).
        cfg = RunConfig(d=2, N=32, eps=0.5, alpha=1.0, T=5.0, h0=0.05, seed=2)
        pot = PotentialSpec.curie_weiss(1.0, 0.5)
        assert _n_steps(cfg.T, default_limit_scheme(cfg, pot).h) == 750
        extra = traced_peak_above(lambda: run_limit_replicas(
            cfg, pot, DiffusionSpec(np.eye(2)), InitialLaw(), range(64),
            (_rng.LIMIT_RUN, 0)))
        assert extra < 4 * 2**20

    def test_non_dividing_step_reaches_the_horizon(self):
        # round(T/h) gave 149 steps, ending at t = 0.9983 before the horizon;
        # the eps system's rule rounds up to 150.
        cfg = RunConfig(d=1, N=2, eps=0.5, alpha=1.0, T=1.0, h0=0.05, seed=3)
        times = []
        run_limit_replicas(cfg, PotentialSpec.quadratic(1.0),
                           DiffusionSpec(np.array([[1.0]])), InitialLaw(),
                           [0], (_rng.LIMIT_RUN, 0), LimitScheme(0.0067),
                           recorder=lambda ids, k, t, X: times.append((k, t)))
        k, t = times[-1]
        assert k == 150 and t >= cfg.T

    def test_exploding_custom_potential_names_the_replica(self):
        # the first step sends the state to -inf; the next drift evaluation
        # refuses it, and the kernel names the replica
        exploding = PotentialSpec.custom(lambda x, m: np.full_like(x, np.inf), 1.0)
        cfg = RunConfig(d=1, N=1, eps=0.5, alpha=1.0, T=1.0, h0=0.05, seed=0)
        with pytest.raises(NumericError, match=r"custom potential.*non-finite.*replica=64"):
            run_limit_replicas(cfg, exploding, DiffusionSpec(np.array([[1.0]])),
                               InitialLaw(), range(64, 68), (_rng.LIMIT_RUN, 0))

    def test_non_finite_state_names_the_replica(self):
        class OneBadReplica:
            calls = 0

            def draw_positions(self, n, d, rng, reps=None):
                # the second block's third replica, 66, starts at infinity
                x = InitialLaw().draw_positions(n, d, rng, reps)
                if self.calls == 1:
                    x[2, 0] = np.inf
                self.calls += 1
                return x

        cfg = RunConfig(d=1, N=4, eps=0.5, alpha=1.0, T=0.1, h0=0.05, seed=0)
        with pytest.raises(NumericError, match="replica=66") as err, \
                np.errstate(invalid="ignore"):
            run_limit_replicas(cfg, PotentialSpec.quadratic(1.0),
                               DiffusionSpec(np.array([[1.0]])),
                               OneBadReplica(), range(130), (_rng.LIMIT_RUN, 0))
        assert err.value.replica == 66
