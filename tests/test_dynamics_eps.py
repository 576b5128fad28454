import inspect
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from smallmass import rng as _rng
from smallmass.config import load_config, parse_config
from smallmass.core import (ParticleEnsemble, PotentialSpec, RunConfig, grad_v_batch,
                            pairwise_mean)
from smallmass.dynamics_eps import (EpsScheme, InitialLaw, _Advance, _forcing, _n_steps,
                                    paired_scheme_gap, run_eps_replicas, run_eps_sweep,
                                    step, _total_force)
from smallmass.dynamics_limit import DiffusionSpec, run_limit_replicas
from smallmass.errors import NumericError, UsageError
from smallmass.harness import build_mode_diffusions, pool_eps_samples, pool_limit_samples
from smallmass.noise import (DriverState, NoiseModel, advance_xi, averaged_forcing_xi,
                             stationary_xi)

from conftest import replica_replays, traced_peak_above

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
    sch = EpsScheme("exponential", cfg.eps_step)
    reports = []
    for _ in range(_n_steps(cfg.T, sch.h)):
        ens, drv, rep = step(ens, model, drv, pot, sch, cfg.alpha, gen)
        reports.append(rep)
    return ens, reports


def _replays(cfg, model, path, reps):
    """Each replica's draws under the block contract, for ``_step_loop``."""
    return replica_replays(cfg.seed, path, reps, _n_steps(cfg.T, cfg.eps_step),
                           positions=(cfg.N, cfg.d), driver=model.driver_shape,
                           step=model.driver_shape)


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
        # two stream blocks, 64 and 6 replicas, in one lock-step batch
        cfg = RunConfig(d=1, N=16, eps=0.1, alpha=1.3, T=1.0, h0=0.05, seed=99)
        model = NoiseModel.scalar_ou(1, gamma=2.0, sigma=0.7)
        pot = PotentialSpec.curie_weiss(1.0, 0.4)
        init, path = InitialLaw(), (_rng.EPS_RUN, 5)
        pos, _ = run_eps_replicas(cfg, model, pot, "exponential", init, range(70), path)
        replays = _replays(cfg, model, path, 70)
        for r in (3, 66):
            ens, _ = _step_loop(cfg, model, pot, init, replays[r])
            assert np.array_equal(ens.positions, pos[r])

    def test_block_of_one_is_the_replica_stream(self):
        # a lone replica is a block of one: its stream (path, r) draws what
        # the per-replica contract drew, on a blocked and a one-replica path
        cfg = RunConfig(d=2, N=3, eps=0.1, alpha=1.3, T=0.5, h0=0.05, seed=99)
        model = NoiseModel.scalar_ou(2, gamma=2.0, sigma=0.7)
        pot = PotentialSpec.curie_weiss(1.0, 0.4)
        for path, r in (((_rng.EPS_RUN, 5), 0), ((_rng.PAIRED,), 3)):
            pos, vel = run_eps_replicas(cfg, model, pot, "exponential", InitialLaw(), [r],
                                        path)
            ens, _ = _step_loop(cfg, model, pot, InitialLaw(),
                                _rng.stream(cfg.seed, *path, r))
            assert np.array_equal(ens.positions, pos[0])
            assert np.array_equal(ens.velocities, vel[0])

    def test_batch_size_does_not_change_results(self):
        # three stream blocks, the last one short, in batches of one, two
        # and three blocks
        cfg = RunConfig(d=1, N=8, eps=0.1, alpha=1.0, T=0.5, h0=0.05, seed=31)
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0)
        pot = PotentialSpec.quadratic(1.0)
        init = InitialLaw()
        a, _ = run_eps_replicas(cfg, model, pot, "exponential", init, range(150),
                                (_rng.EPS_RUN, 4), batch_size=64)
        for batch in (128, None):
            b, _ = run_eps_replicas(cfg, model, pot, "exponential", init, range(150),
                                    (_rng.EPS_RUN, 4), batch_size=batch)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("batch", [1, 63, 100])
    def test_batch_off_the_block_is_rejected(self, batch):
        cfg = RunConfig(d=1, N=2, eps=0.1, alpha=1.0, T=0.5, h0=0.05, seed=31)
        with pytest.raises(UsageError, match="not a multiple of the 64-replica"):
            run_eps_replicas(cfg, SILENT, PotentialSpec.quadratic(1.0), "exponential",
                             InitialLaw(), range(150), (_rng.EPS_RUN, 4), batch_size=batch)


class TestBatchesAndWindows:
    """The bits depend on neither the batch size nor the draw window."""

    @staticmethod
    def _reference(cfg, model, pot, init, reps, path):
        """Each replica alone, its block's n driver slabs drawn in one call
        up front; returns the (X, Y, xi) after each step, keyed (replica, k)."""
        sch = EpsScheme("exponential", cfg.eps_step)
        n = _n_steps(cfg.T, sch.h)
        advance = _Advance(sch.h, cfg.eps, cfg.alpha)
        states = {}
        for r, gen in enumerate(_replays(cfg, model, path, reps)):
            X = init.draw_positions(cfg.N, cfg.d, gen)[None]
            Y = init.velocities(cfg.N, cfg.d)[None]
            xi = stationary_xi(model, gen)[None]
            states[r, 0] = X[0].copy(), Y[0].copy(), xi[0].copy()
            for k in range(n):
                F = _total_force(pot, X, _forcing(model, X, xi, 1.0 / math.sqrt(cfg.eps))[1])
                advance(X, Y, F, np.empty_like(X))
                z = gen.standard_normal(model.driver_shape)
                xi = advance_xi(xi, model, sch.h / cfg.eps, z[None])
                states[r, k + 1] = X[0].copy(), Y[0].copy(), xi[0].copy()
        return states

    def test_batches_and_windows_match_a_full_predraw(self, monkeypatch):
        cfg = RunConfig(d=2, N=5, eps=0.1, alpha=1.0, T=0.205, h0=0.05, seed=41)
        model = NoiseModel.fourier_field(2, gamma=1.0, sigma=1.0,
                                         omegas=[[1.0, 0.0], [0.0, 1.0]],
                                         a=[1.0, 0.5], b=[0.0, 0.5])
        pot = PotentialSpec.curie_weiss(1.0, 0.5)
        init, reps, path = InitialLaw(velocity=0.3), 150, (_rng.EPS_RUN, 3)
        n = _n_steps(cfg.T, cfg.eps_step)
        # Windows of 8, 4 and 3 steps at batches of 64, 128 and 150 replicas
        # (driver shape (2, 2)); none of them divides the 41 steps.
        monkeypatch.setattr(_rng, "DRAW_BUDGET", 2048)
        assert n == 41
        ref = self._reference(cfg, model, pot, init, reps, path)
        for batch in (64, 128, None):
            states = {}

            def record(rows, k, t, X, Y, xi, forcing):
                for j, r in enumerate(rows):
                    states[r, k] = X[j].copy(), Y[j].copy(), xi[j].copy()

            X, Y = run_eps_replicas(cfg, model, pot, "exponential", init, range(reps), path,
                                    batch_size=batch, recorder=record)
            assert states.keys() == ref.keys()
            for key, want in ref.items():
                assert all(np.array_equal(a, b) for a, b in zip(states[key], want)), \
                    (batch, key)
            for r in range(reps):
                assert np.array_equal(X[r], ref[r, n][0]) and np.array_equal(Y[r], ref[r, n][1])

    def test_normals_memory_is_bounded(self):
        # One batch of 512 replicas over 4000 steps: a full pre-draw of the
        # driver normals is 16 MB; windows hold at most rng.DRAW_BUDGET
        # doubles (512 KiB).
        cfg = RunConfig(d=1, N=1, eps=0.025, alpha=1.0, T=5.0, h0=0.05, seed=7)
        assert _n_steps(cfg.T, cfg.eps_step) == 4000
        extra = traced_peak_above(lambda: run_eps_replicas(
            cfg, NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0), PotentialSpec.quadratic(1.0),
            "exponential", InitialLaw(), range(512), (_rng.EPS_RUN, 0), batch_size=512))
        assert extra < 1.5 * 2**20

    def test_one_generator_per_block(self):
        # A batch of 512 replicas holds one generator per 64-replica stream
        # block, ceil(512 / 64) = 8, not one per replica.  Measured as the
        # traced bytes still held, mid-run, from the line of ``rng.stream``
        # that builds the generator: 4.0 kB here, 258 kB with one generator
        # per replica.
        lines, first = inspect.getsourcelines(_rng.stream)
        line = first + next(i for i, s in enumerate(lines) if "Generator(" in s)
        where = tracemalloc.Filter(True, inspect.getsourcefile(_rng), lineno=line)
        opened, held = [], []
        stream = _rng.stream

        def counted(*args):
            opened.append(args)
            return stream(*args)

        def record(ids, k, t, X, Y, xi, forcing):
            if k == 1:
                snap = tracemalloc.take_snapshot().filter_traces([where])
                held.append(sum(st.size for st in snap.statistics("lineno")))

        cfg = RunConfig(d=1, N=1, eps=0.025, alpha=1.0, T=0.25, h0=0.05, seed=7)
        tracemalloc.start()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_rng, "stream", counted)
                run_eps_replicas(cfg, NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0),
                                 PotentialSpec.quadratic(1.0), "exponential", InitialLaw(),
                                 range(512), (_rng.EPS_RUN, 0), batch_size=512,
                                 recorder=record)
        finally:
            tracemalloc.stop()
        assert len(opened) == math.ceil(512 / 64) == 8
        assert 0 < held[0] <= 8 * 2048


SWEEP_GRID = [0.2, 0.07, 0.03]
SWEEP_CASES = [
    (NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0), PotentialSpec.quadratic(1.0), 1),
    (NoiseModel.separable(2, gamma=1.0, sigma=1.0, g_name="gauss"),
     PotentialSpec.curie_weiss(1.0, 0.5), 5),
    (NoiseModel.fourier_field(2, gamma=1.0, sigma=1.0, omegas=[[1.0, 0.0], [0.0, 1.0]],
                              a=[1.0, 0.5], b=[0.0, 0.5]),
     PotentialSpec.curie_weiss(1.0, 0.5), 4),
]
SWEEP_IDS = ["scalar-ou-N1", "separable-d2-N5", "fourier-field-d2-N4"]


def _sweep_runs(model, N, grid=SWEEP_GRID):
    return [RunConfig(d=model.d, N=N, eps=eps, alpha=1.2, T=0.2, h0=0.05, seed=19)
            for eps in grid]


class TestSweep:
    """A sweep of several rows gives each row the bits of that row run alone."""

    @pytest.mark.parametrize("budget", [None, 2048], ids=["one-window", "small-windows"])
    @pytest.mark.parametrize("batch", [64, None])
    @pytest.mark.parametrize("model, pot, N", SWEEP_CASES, ids=SWEEP_IDS)
    def test_each_row_has_the_bits_of_the_row_alone(self, model, pot, N, batch, budget,
                                                    monkeypatch):
        # 20, 58 and 134 steps, so the rows leave the stack at different
        # steps, partway through a normal window; 150 replicas end in a
        # short block.  At the small budget the windows are a few steps
        # wide and widen as the rows retire.
        if budget is not None:
            monkeypatch.setattr(_rng, "DRAW_BUDGET", budget)
        runs = _sweep_runs(model, N)
        assert [_n_steps(rc.T, rc.eps_step) for rc in runs] == [20, 58, 134]
        init, paths = InitialLaw(velocity=0.3), [(_rng.EPS_RUN, i) for i in range(3)]
        X, Y = run_eps_sweep(runs, model, pot, init, range(150), paths, batch_size=batch)
        assert X.shape == Y.shape == (3, 150, N, model.d)
        for rc, path, Xr, Yr in zip(runs, paths, X, Y):
            Xa, Ya = run_eps_replicas(rc, model, pot, "exponential", init, range(150),
                                      path, batch_size=batch)
            assert Xr.tobytes() == Xa.tobytes() and Yr.tobytes() == Ya.tobytes(), rc.eps
            # and the bits of the one-step reference, replica by replica
            replays = _replays(rc, model, path, 150)
            for r in (0, 149):
                ens, _ = _step_loop(rc, model, pot, init, replays[r])
                assert np.array_equal(ens.positions, Xr[r])
                assert np.array_equal(ens.velocities, Yr[r])

    @pytest.mark.parametrize("model, pot, N", SWEEP_CASES, ids=SWEEP_IDS)
    def test_dropping_a_row_moves_no_other_row(self, model, pot, N):
        init = InitialLaw()
        paths = [(_rng.EPS_RUN, i) for i in range(3)]
        X, Y = run_eps_sweep(_sweep_runs(model, N), model, pot, init, range(150), paths,
                             batch_size=64)
        for keep in ([0, 2], [1, 2], [0, 1], [2]):
            runs = _sweep_runs(model, N, [SWEEP_GRID[i] for i in keep])
            Xk, Yk = run_eps_sweep(runs, model, pot, init, range(150),
                                   [paths[i] for i in keep], batch_size=64)
            assert Xk.tobytes() == X[keep].tobytes() and Yk.tobytes() == Y[keep].tobytes()

    def test_rows_in_any_order(self):
        # the stack runs in descending step count; the result follows the
        # order of the runs
        model, pot, N = SWEEP_CASES[0]
        runs, paths = _sweep_runs(model, N), [(_rng.EPS_RUN, i) for i in range(3)]
        X, _ = run_eps_sweep(runs, model, pot, InitialLaw(), range(70), paths)
        Xr, _ = run_eps_sweep(runs[::-1], model, pot, InitialLaw(), range(70), paths[::-1])
        assert Xr.tobytes() == X[::-1].tobytes()

    def test_non_finite_row_names_its_eps_and_replica(self):
        # Replica 66 of the eps = 0.07 row starts at infinity: the error
        # names that row's eps and replica, not the row of the stack, and
        # the rows around it are finite.
        model, pot, N = SWEEP_CASES[1]
        runs = _sweep_runs(model, N)
        # the SFC64 state of that row's second block before its first draw
        bad = _rng.stream(runs[0].seed, _rng.EPS_RUN, 1, 1).bit_generator.state["state"]

        class OneBadRow(InitialLaw):
            def draw_positions(self, n, d, rng, reps=None):
                hit = np.array_equal(rng.bit_generator.state["state"]["state"], bad["state"])
                x = super().draw_positions(n, d, rng, reps)
                if hit:
                    x[2, 0, 0] = np.inf
                return x

        with pytest.raises(NumericError, match=r"eps=0\.07, replica=66") as err, \
                np.errstate(invalid="ignore", over="ignore"):
            run_eps_sweep(runs, model, pot, OneBadRow(), range(130),
                          [(_rng.EPS_RUN, i) for i in range(3)])
        assert err.value.replica == 66 and err.value.eps == 0.07

    def test_recorder_needs_one_row(self):
        model, pot, N = SWEEP_CASES[0]
        with pytest.raises(UsageError, match="a recorder follows one row; the sweep has 3"):
            run_eps_sweep(_sweep_runs(model, N), model, pot, InitialLaw(), range(8),
                          [(_rng.EPS_RUN, i) for i in range(3)], recorder=lambda *args: None)

    @pytest.mark.parametrize("change", [{"N": 2}, {"alpha": 1.0}, {"T": 0.3}, {"seed": 2}])
    def test_rows_differ_only_by_eps_and_step(self, change):
        model, pot, N = SWEEP_CASES[0]
        runs = _sweep_runs(model, N)
        runs[1] = replace(runs[1], **change)
        with pytest.raises(UsageError, match="differ only by eps and h0"):
            run_eps_sweep(runs, model, pot, InitialLaw(), range(8),
                          [(_rng.EPS_RUN, i) for i in range(3)])

    def test_one_stream_path_per_run(self):
        model, pot, N = SWEEP_CASES[0]
        with pytest.raises(UsageError, match="one stream path per run"):
            run_eps_sweep(_sweep_runs(model, N), model, pot, InitialLaw(), range(8),
                          [(_rng.EPS_RUN, 0)])


class TestStepContracts:
    def test_common_forcing_across_particles(self):
        # the fast-forcing contribution is one shared vector per step even
        # when the field itself varies in space
        model = NoiseModel.separable(1, gamma=1.0, sigma=1.0, g_name="gauss")
        X = np.linspace(-2, 2, 9).reshape(-1, 1)
        xi = np.array([1.3])
        pot = PotentialSpec.quadratic(1.0)
        bar, spread = _forcing(model, X, xi, inv_sqrt_eps=2.0)
        forcing_part = _total_force(pot, X, spread) + pot.lam * X
        assert np.allclose(forcing_part, forcing_part[0], atol=0, rtol=0)
        assert forcing_part[0] == pytest.approx(2.0 * bar)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("N", [1, 2, 5, 32])
    def test_force_has_the_bits_of_the_broadcast(self, d, N):
        # the curie-weiss mean and the shared forcing are spread over the
        # particles as contiguous copies; the bits must be those of the
        # stride-0 broadcast, for (B, N, d) and (rows, B, N, d) positions,
        # contiguous or a strided view
        gen = np.random.default_rng(10 * d + N)
        pot = PotentialSpec.curie_weiss(0.7, 0.5)
        model = NoiseModel.fourier_field(d, gamma=1.0, sigma=1.0,
                                         omegas=gen.standard_normal((3, d)),
                                         a=gen.standard_normal(3), b=gen.standard_normal(3))
        for lead in ((6,), (2, 6)):
            base = gen.standard_normal(lead + (2 * N, d + 1))
            xi = gen.standard_normal(lead + model.driver_shape)
            for xs in (base[..., :N, :d].copy(), base[..., ::2, 1:]):
                mean = pairwise_mean(xs, axis=-2)
                grad = xs * pot.lam + (xs - mean[..., None, :]) * pot.kappa
                bar = averaged_forcing_xi(model, xi, xs)
                force = (2.0 * bar)[..., None, :] - grad
                got = grad_v_batch(pot, xs)
                assert got.shape == grad.shape and got.tobytes() == grad.tobytes()
                got_bar, spread = _forcing(model, xs, xi, 2.0)
                got = _total_force(pot, xs, spread, np.empty(xs.shape), np.empty(xs.shape))
                assert got.shape == force.shape and got.tobytes() == force.tobytes()
                assert got_bar.tobytes() == bar.tobytes()

    @pytest.mark.parametrize("model, N", [
        (NoiseModel.fourier_field(2, gamma=1.0, sigma=1.0, omegas=[[1.0, 0.0], [0.0, 1.0]],
                                  a=[1.0, 0.5], b=[0.0, 0.5]), 32),
        (NoiseModel.separable(2, gamma=1.0, sigma=1.0, g_name="gauss"), 5),
        (NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0), 1),
    ], ids=["fourier-field-d2-N32", "separable-d2-N5", "scalar-ou-d1-N1"])
    def test_recorder_gets_each_steps_forcing(self, model, N):
        # The recorder is handed the law-averaged forcing of the state it
        # sees, at every step of both batches, and None after the last.
        cfg = RunConfig(d=model.d, N=N, eps=0.1, alpha=1.0, T=0.1, h0=0.05, seed=5)
        n = _n_steps(cfg.T, cfg.eps_step)
        seen = []

        def record(ids, k, t, X, Y, xi, forcing):
            if forcing is None:
                seen.append((k, None))
            else:
                want = averaged_forcing_xi(model, xi, X)
                seen.append((k, forcing.shape == want.shape
                             and forcing.tobytes() == want.tobytes()))

        run_eps_replicas(cfg, model, PotentialSpec.curie_weiss(1.0, 0.5), "exponential",
                         InitialLaw(), range(70), (_rng.EPS_RUN, 0), batch_size=64,
                         recorder=record)
        per_batch = [(k, True) for k in range(n)] + [(n, None)]
        assert n == 20 and seen == 2 * per_batch

    def test_euler_stability_guard(self):
        # h0_fine = 0.1 at alpha = 25 gives the cross-check's Euler substep
        # h = 0.1 eps, past its stability bound 2 eps / alpha = 0.08 eps
        cfg = RunConfig(d=1, N=2, eps=0.1, alpha=25.0, T=1.0, h0=0.05, seed=0)
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0)
        with pytest.raises(UsageError, match="euler step"):
            paired_scheme_gap(cfg, model, PotentialSpec.quadratic(1.0),
                              h0_coarse=0.1, h0_fine=0.1)

    @pytest.mark.parametrize("T, steps", [(1e308, "inf"), (1e300, r"2e\+302")],
                             ids=["1e308", "1e300"])
    def test_step_count_past_a_c_int_is_a_usage_error(self, T, steps):
        # int(T / h) raised OverflowError at 1e308; 1e300 ran without end
        cfg = RunConfig(d=1, N=2, eps=0.1, alpha=1.0, T=T, h0=0.05, seed=0)
        with pytest.raises(UsageError, match=rf"is {steps} steps; at most {2**31 - 1} are"):
            run_eps_replicas(cfg, SILENT, ZERO_POT, "exponential", InitialLaw(), range(2),
                             (_rng.EPS_RUN, 0))

    def test_only_the_exponential_scheme_is_built(self):
        with pytest.raises(UsageError, match="unknown scheme kind"):
            EpsScheme("euler", 0.01)

    def test_the_replica_kernel_rejects_another_scheme(self):
        cfg = RunConfig(d=1, N=2, eps=0.1, alpha=1.0, T=0.5, h0=0.05, seed=0)
        with pytest.raises(UsageError, match="unknown scheme kind: 'euler'"):
            run_eps_replicas(cfg, SILENT, ZERO_POT, "euler", InitialLaw(), range(2),
                             (_rng.EPS_RUN, 0))

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

            def draw_positions(self, n, d, rng, reps=None):
                # the second block's third replica, 66, starts at infinity
                x = super().draw_positions(n, d, rng, reps)
                if self.calls == 1:
                    x[2, 0] = np.inf
                self.calls += 1
                return x

        cfg = RunConfig(d=1, N=4, eps=0.5, alpha=1.0, T=0.1, h0=0.05, seed=0)
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0)
        with pytest.raises(NumericError, match=r"eps=0\.5, replica=66") as err, \
                np.errstate(invalid="ignore"):
            run_eps_replicas(cfg, model, PotentialSpec.quadratic(1.0), "exponential",
                             OneBadReplica(), range(130), (_rng.EPS_RUN, 0))
        assert err.value.replica == 66 and err.value.eps == 0.5

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

    def test_eps_scheme_uses_step_law(self):
        cfg = RunConfig(d=1, N=1, eps=0.05, alpha=1.0, T=1.0, h0=0.1, seed=0)
        assert EpsScheme("exponential", cfg.eps_step).h == pytest.approx(0.005)


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
    adv_e = _Advance(h_c, cfg.eps, cfg.alpha)
    for k in range(n_c):
        _total_force(pot, Xe, _forcing(model, Xe, xi, inv_sqrt_eps)[1], F, tmp)
        adv_e(Xe, Ye, F, tmp)
        bar_u = inv_sqrt_eps * averaged_forcing_xi(model, xi, Xu)
        for _ in range(ratio):
            grad_v_batch(pot, Xu, out=F, tmp=tmp)
            np.subtract(bar_u[..., None, :], F, out=F)
            np.multiply(Yu, h_f, out=tmp)
            Xu += tmp
            np.multiply(Yu, -cfg.alpha, out=tmp)
            tmp += F
            tmp *= h_f / cfg.eps
            Yu += tmp
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
    """The harness's kept-particle rule: a pooled sample of k particles per
    replica is a whole kernel run at N = k where particles do not interact,
    and the leading k particles of a run at ``run.N`` where they do."""

    @staticmethod
    def _config(d, k, **extra):
        return parse_config({
            "run.d": d, "run.N": 6, "run.T": 0.4, "run.alpha": 1.2, "run.seed": 17,
            "run.h0": 0.05, "run.eps_grid": [0.1], "run.replicas": 5,
            "run.samples_per_replica": k, "potential.kind": "quadratic",
            "potential.lambda": 0.7, "potential.kappa": 0.0, "noise.kind": "scalar-ou",
            "noise.gamma": 1.5, "noise.sigma": 0.8, "limit.modes": ["paper"],
            "init.velocity": 0.3, "output.dir": "out", **extra})

    @staticmethod
    def _kernel(cfg, N, kind="exponential"):
        X, _ = run_eps_replicas(replace(cfg.run_config(0.1), N=N), cfg.noise_model(),
                                cfg.potential(), kind, cfg.init_law(),
                                range(5), (_rng.EPS_RUN, 0))
        return X

    # The scheme the harness's pooled sample must match.
    @pytest.mark.parametrize("kind", ["exponential"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_kept_block_is_the_full_run_sliced(self, kind, d, monkeypatch):
        # The "full run" of a particle-local sample is the run at N = k, so
        # the worker's slice keeps all of it.
        monkeypatch.setenv("SMALLMASS_WORKERS", "1")
        for k in (1, 4):
            cfg = self._config(d, k)
            want = self._kernel(cfg, k, kind)
            assert want.shape == (5, k, d)
            assert np.array_equal(pool_eps_samples(cfg, 0), want.reshape(-1, d))

    @pytest.mark.parametrize("extra", [
        {"potential.kind": "curie-weiss", "potential.kappa": 0.5},
        {"noise.kind": "fourier-field", "noise.omegas": [[1.0, 0.0], [0.0, 1.0]],
         "noise.a": [1.0, 0.5], "noise.b": [0.0, 0.5]},
        {"noise.kind": "separable", "noise.g": "gauss"},
    ], ids=["curie-weiss", "fourier-field", "separable"])
    def test_interacting_dynamics_integrate_all_particles(self, extra, monkeypatch):
        # The limit particles interact only through a mean-field potential,
        # so under fourier-field or separable forcing the limit sample is
        # still a run at N = k.
        monkeypatch.setenv("SMALLMASS_WORKERS", "1")
        cfg = self._config(2, 2, **extra)
        assert np.array_equal(pool_eps_samples(cfg, 0),
                              self._kernel(cfg, 6)[:, :2].reshape(-1, 2))
        diff = DiffusionSpec(1.0)
        limit_n = 6 if extra.get("potential.kind") == "curie-weiss" else 2
        lim = run_limit_replicas(replace(cfg.run_config(0.1), N=limit_n), cfg.potential(),
                                 diff, cfg.init_law(), range(5), (_rng.LIMIT_RUN, 0))
        assert np.array_equal(pool_limit_samples(cfg, diff), lim[:, :2].reshape(-1, 2))

    def test_recorder_sees_every_particle(self):
        # The kernel integrates exactly the N particles it is handed, on a
        # particle-local config too.
        cfg = RunConfig(d=1, N=6, eps=0.1, alpha=1.0, T=0.1, h0=0.05, seed=3)
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0)
        shapes = set()
        x, _ = run_eps_replicas(cfg, model, PotentialSpec.quadratic(1.0), "exponential",
                                InitialLaw(), range(2), (_rng.EPS_RUN, 0),
                                recorder=lambda ids, k, t, X, *rest: shapes.add(X.shape))
        assert shapes == {(2, 6, 1)} and x.shape == (2, 6, 1)


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
        X, Y = run_eps_replicas(cfg, model, custom, "exponential", init, range(70), path,
                                batch_size=64)
        Xb, Yb = run_eps_replicas(cfg, model, builtin, "exponential", init, range(70), path,
                                  batch_size=64)
        assert np.array_equal(X, Xb) and np.array_equal(Y, Yb)
        replays = _replays(cfg, model, path, 70)
        for r in (0, 4, 66):
            ens, _ = _step_loop(cfg, model, custom, init, replays[r])
            assert np.array_equal(ens.positions, X[r])
            assert np.array_equal(ens.velocities, Y[r])


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: all particles of a replica share one driver, so the eps "
    "system carries common noise where the McKean-Vlasov limit has independent "
    "noise per particle; measured eps variance 1.02 against limit 0.43"))
def test_interacting_terminal_variance_matches_the_limit(monkeypatch):
    # Curie-weiss with kappa = 2: the one-particle law of the eps system
    # must approach the green-kubo limit law as eps shrinks.  Stationary
    # variances: 1/3 for independent noise per particle, 1 for common noise.
    monkeypatch.setenv("SMALLMASS_WORKERS", "1")
    cfg = parse_config({
        "run.d": 1, "run.N": 8, "run.T": 2.0, "run.alpha": 1.0, "run.seed": 11,
        "run.h0": 0.05, "run.eps_grid": [0.1], "run.replicas": 256,
        "run.samples_per_replica": 8, "potential.kind": "curie-weiss",
        "potential.lambda": 1.0, "potential.kappa": 2.0, "noise.kind": "scalar-ou",
        "noise.gamma": 1.0, "noise.sigma": 1.0, "limit.modes": ["green-kubo"],
        "output.dir": "out"})
    diff = build_mode_diffusions(cfg)["green-kubo"]
    eps_var = float(np.var(pool_eps_samples(cfg, 0)))
    limit_var = float(np.var(pool_limit_samples(cfg, diff)))
    assert abs(eps_var - limit_var) <= 0.25 * limit_var
