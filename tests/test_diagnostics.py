import math
import sys
import tracemalloc

import numpy as np
import pytest

from smallmass import diagnostics, noise
from smallmass import rng as _rng
from smallmass.core import EmpiricalMeasure, ParticleEnsemble, PotentialSpec, RunConfig
from smallmass.diagnostics import (CHUNK, _uv_ensemble, _uv_scalar, _UvStream, bm_proxy,
                                   dyadic_lags, green_kubo, moment_table, uv_check)
from smallmass.dynamics_eps import EpsScheme, InitialLaw, _n_steps, step
from smallmass.errors import NumericError, UsageError
from smallmass.noise import (DriverState, NoiseModel, _contract_forcing, _factor_mean,
                             advance_xi, averaged_forcing_xi, stationary_xi)

from conftest import BLOCK, replica_replays

FREE_POT = PotentialSpec.quadratic(1e-12)  # effectively potential-free
FOURIER_D2 = NoiseModel.fourier_field(2, gamma=2.0, sigma=1.0,
                                      omegas=[[1.0, 0.0], [0.0, 1.0], [0.7, -0.4]],
                                      a=[1.0, 0.5, 0.3], b=[0.2, 0.4, 0.6])
FOURIER_D3 = NoiseModel.fourier_field(3, gamma=2.0, sigma=1.0,
                                      omegas=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.5],
                                              [0.3, 0.0, 1.0]],
                                      a=[1.0, 0.5, 0.4], b=[0.2, 0.5, 0.3])


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class _StepwisePaths:
    """The u/v recorder writing each step straight into whole replica-major
    paths, with its coefficients computed here: the reference for the
    streamed ``_UvStream``."""

    def __init__(self, cfg, d, reps, n):
        h = cfg.eps_step
        a = cfg.alpha * h / cfg.eps
        self.cu = h / (cfg.alpha * math.sqrt(cfg.eps))
        self.r_fac = math.exp(-a)
        self.cv = math.sqrt(cfg.eps) * (-math.expm1(-a)) / cfg.alpha**2
        self.n_late_from = n // 2
        self.u = np.zeros((reps, n + 1, d))
        self.v = np.zeros((reps, d))
        self.v_late = np.zeros((reps, n - self.n_late_from, d))

    def add(self, rows, k, eta):
        self.u[rows, k + 1] = self.u[rows, k] + self.cu * eta
        v = self.v[rows] * self.r_fac + self.cv * eta
        self.v[rows] = v
        if k >= self.n_late_from:
            self.v_late[rows, k - self.n_late_from] = v


def _reference_drivers(model, seed, path, reps, n, delta_s, size=BLOCK):
    """Driver values at steps 0..n-1: each stream block of ``size`` replicas
    draws its starts and then its step-major normals whole, up front, and
    all replicas are advanced together."""
    ds = model.driver_shape
    gens = replica_replays(seed, path, reps, n, driver=ds, step=ds, size=size)
    xi = np.stack([stationary_xi(model, g) for g in gens])
    Z = np.stack([[g.standard_normal(ds) for _ in range(n)] for g in gens])
    out = []
    for k in range(n):
        out.append(xi)
        xi = advance_xi(xi, model, delta_s, Z[:, k])
    return out


def _scalar_reference_paths(cfg, model, reps, n, eps_index):
    """Standalone-driver u/v paths, recorded step by step."""
    paths = _StepwisePaths(cfg, model.d, reps, n)
    drivers = _reference_drivers(model, cfg.seed, (_rng.UV_RUN, eps_index), reps, n,
                                 cfg.eps_step / cfg.eps)
    for k, xi in enumerate(drivers):
        paths.add(slice(None), k, xi)
    return paths.u, paths.v_late


def _ensemble_reference_paths(cfg, model, pot, reps, n, eps_index):
    """u/v paths stepping one replica at a time through ``step``."""
    sch = EpsScheme("exponential", cfg.eps_step)
    init = InitialLaw()
    paths = _StepwisePaths(cfg, cfg.d, reps, n)
    ds = model.driver_shape
    gens = replica_replays(cfg.seed, (_rng.UV_RUN, eps_index), reps, n,
                           positions=(cfg.N, cfg.d), driver=ds, step=ds)
    for rix, gen in enumerate(gens):
        X = init.draw_positions(cfg.N, cfg.d, gen)
        ens = ParticleEnsemble(X, init.velocities(cfg.N, cfg.d), 0.0, cfg.eps)
        drv = DriverState(xi=stationary_xi(model, gen), fast_time=0.0)
        for k in range(n):
            paths.add(rix, k, averaged_forcing_xi(model, drv.xi, ens.positions))
            ens, drv, _ = step(ens, model, drv, pot, sch, cfg.alpha, gen)
    return paths.u, paths.v_late


def _reference_report(u, v_late, lags, h, n):
    """uv_check's statistics of given replica-major paths, each formed in a
    fresh array from the whole paths laid out time-major."""
    u, v_late = (np.ascontiguousarray(x.swapaxes(0, 1)) for x in (u, v_late))
    per_rep = np.sum(v_late * v_late, axis=-1).mean(axis=0)
    v_msq = float(per_rep.mean())
    v_ci = float(1.96 * per_rep.std(ddof=1) / math.sqrt(len(per_rep)))
    ratios = {}
    for m in (max(1, int(round(lag / h))) for lag in lags):
        if m <= n:
            du = u[m:] - u[:-m]
            ratios[m * h] = float(np.mean(np.square(np.sum(du * du, axis=-1)))) / (m * h)
    every = max(1, n // 50)
    stats = bm_proxy(u[::every].swapaxes(0, 1), np.arange(0, n + 1, every) * h)
    return v_msq, v_ci, ratios, stats


def _assert_report_matches(uv, want):
    """A report against ``_reference_report``: every value bit for bit but
    the increment ratios, whose sums the stream adds in another order."""
    v_msq, v_ci, ratios, stats = want
    assert (uv.v_msq, uv.v_msq_ci, uv.bm_stats) == (v_msq, v_ci, stats)
    assert list(uv.u_increment_ratios) == list(ratios)
    assert list(uv.u_increment_ratios.values()) == pytest.approx(list(ratios.values()),
                                                                 rel=1e-12, abs=0.0)


def _assert_stream_matches(stream, u, v_late):
    """A stream's state against whole replica-major reference paths: the
    Brownian-proxy grid, the running v and the late ||v||^2 sums (added in
    step order) bit for bit, the per-replica increment sums to rounding."""
    assert _same_bits(stream.grid, np.ascontiguousarray(u[:, ::stream.every]))
    assert _same_bits(stream.v, v_late[:, -1])
    v_sq = np.zeros(u.shape[0])
    for row in np.sum(v_late * v_late, axis=-1).T:
        v_sq += row
    assert _same_bits(stream.v_sq, v_sq)
    for i, m in enumerate(stream.steps):
        du = u[:, m:] - u[:, :-m]
        want = np.sum(np.square(np.sum(du * du, axis=-1)), axis=1)
        np.testing.assert_allclose(stream.inc4[i], want, rtol=1e-12, atol=0.0)


def _whole_path_green_kubo(model, m_source, horizon_fast, reps, seed):
    """green_kubo's (G, ci_fro, truncation_lag) from each replica's whole
    forcing path, formed from the reference drivers, by one FFT per
    component padded to a power of two at least 2n long: the reference for
    the overlap-save lag sums."""
    _, dt, n, max_lag, _ = diagnostics._gk_grid(model.gamma, horizon_fast, reps, model.d)
    points = m_source.points if m_source is not None else None
    drivers = _reference_drivers(model, seed, (_rng.GK_RUN,), reps, n, dt, size=1)
    eta = np.stack([averaged_forcing_xi(model, xi, points) for xi in drivers], axis=1)
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    F = np.fft.rfft(eta, n=nfft, axis=1)
    full = np.fft.irfft(F * np.conj(F), n=nfft, axis=1)
    cov = full[:, :max_lag + 1] / (n - np.arange(max_lag + 1))[:, None]
    cbar = cov.mean(axis=0)
    mean = cbar.mean(axis=1)
    tail = mean[int(2 * max_lag / 3):]
    below = np.nonzero(np.abs(mean[1:]) < float(tail.std(ddof=1)))[0]
    cut = int(below[0]) + 1 if below.size else max_lag
    G = 2.0 * np.trapezoid(cbar[:cut + 1], dx=dt, axis=0)
    per_rep = 2.0 * np.trapezoid(cov[:, :cut + 1], dx=dt, axis=1)
    ci_fro = float(1.96 * np.sqrt(np.sum(per_rep.var(axis=0, ddof=1)) / reps))
    return np.diag(G), ci_fro, float(cut * dt)


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

    @pytest.mark.parametrize("horizon", [1e13, 1e308])
    def test_grid_size_guard(self, horizon):
        # the grid is rejected before its arrays are asked for, also where
        # horizon / dt overflows to inf
        model = NoiseModel.scalar_ou(1, gamma=2.0, sigma=1.0)
        with pytest.raises(UsageError, match=f"steps; at most {2**31 - 1}"):
            green_kubo(model, horizon_fast=horizon, reps=4, seed=0)

    def test_overflowing_forcing_raises(self):
        # the lag products of a forcing of scale 1e154 pass the float range;
        # G came back NaN
        model = NoiseModel.scalar_ou(1, gamma=2.0, sigma=1e154)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="green_kubo's G"):
            green_kubo(model, horizon_fast=25.0, reps=4, seed=0)

    def test_needs_two_replicas(self):
        # one replica gives ci_fro = nan
        with pytest.raises(UsageError, match="reps >= 2"):
            green_kubo(NoiseModel.scalar_ou(1, gamma=2.0, sigma=1.0), horizon_fast=25.0,
                       reps=1, seed=0)

    def test_invariant_under_horizon_doubling(self):
        model = NoiseModel.scalar_ou(1, gamma=2.0, sigma=1.0)
        a = green_kubo(model, horizon_fast=25.0, reps=64, seed=3)
        b = green_kubo(model, horizon_fast=50.0, reps=64, seed=3)
        assert abs(a.G[0, 0] - b.G[0, 0]) <= a.ci_fro + b.ci_fro

    @pytest.mark.parametrize("model, m_source", [
        (NoiseModel.scalar_ou(1, gamma=2.0, sigma=1.0), None),
        (FOURIER_D2, EmpiricalMeasure(np.random.default_rng(2).standard_normal((16, 2)))),
        (FOURIER_D3, EmpiricalMeasure(np.random.default_rng(3).standard_normal((16, 3)))),
    ], ids=["scalar-ou-d1", "fourier-field-d2", "fourier-field-d3"])
    @pytest.mark.parametrize("horizon, n, S", [(12.0, 480, 256), (None, 1000, 512),
                                               (10.0, 400, 256)],
                             ids=["n=3B", "default", "shortest"])
    def test_equals_the_whole_path_fft(self, model, m_source, horizon, n, S):
        # At gamma = 2 the windows hold S steps behind max_lag = n // 5: 480
        # steps are three whole segments of B = S - max_lag = 160 new steps;
        # the default grid and the shortest horizon, 20 / gamma, end in a
        # part-filled segment (B = 312 and 176).
        assert diagnostics._gk_grid(model.gamma, horizon, 16, model.d)[2:] == (n, n // 5, S)
        gk = green_kubo(model, m_source, horizon_fast=horizon, reps=16, seed=3)
        G, ci_fro, truncation_lag = _whole_path_green_kubo(model, m_source, horizon, 16, 3)
        np.testing.assert_allclose(gk.G, G, rtol=1e-12, atol=0.0)
        assert gk.ci_fro == pytest.approx(ci_fro, rel=1e-12, abs=0.0)
        assert gk.truncation_lag == truncation_lag

    @pytest.mark.parametrize("d", [1, 8])
    def test_memory_is_below_the_whole_path_and_its_fft(self, d):
        # On the default grid (n = 1000, a window of 512 steps) at 256
        # replicas, what green_kubo holds beyond its driver's own draws is
        # less than the whole forcing path and its FFT padded to 2048 steps,
        # per component.  At d = 8, lag sums over every pair of components
        # would hold 72 MiB, past this bound of 48 MiB.  An untraced first
        # call builds the state that numpy sets up lazily.
        model = NoiseModel.scalar_ou(d, gamma=2.0, sigma=1.0)
        reps, n, nfft = 256, 1000, 2048
        green_kubo(model, reps=4, seed=0)
        tracemalloc.start()
        try:
            for _ in diagnostics._driver_paths(model, 0, (_rng.GK_RUN,), reps, n, 0.025):
                pass
            driver = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            green_kubo(model, reps=reps, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - driver < d * (reps * n * 8 + reps * (nfft // 2 + 1) * 16)


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

    @pytest.mark.parametrize("model, pot", [
        (NoiseModel.separable(1, gamma=2.0, sigma=1.0, g_name="gauss"),
         PotentialSpec.quadratic(1.0)),
        (FOURIER_D2, PotentialSpec.curie_weiss(1.0, 0.5)),
    ], ids=["separable-d1", "fourier-field-curie-weiss-d2"])
    def test_ensemble_paths_equal_the_per_replica_reference(self, model, pot):
        cfg = RunConfig(d=model.d, N=4, eps=0.1, alpha=1.0, T=0.2, h0=0.05, seed=13)
        n = _n_steps(cfg.T, cfg.eps_step)
        stream = _uv_ensemble(cfg, model, 70, n, [1, 3, n], 2, None, pot)
        _assert_stream_matches(stream, *_ensemble_reference_paths(cfg, model, pot, 70, n, 2))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_scalar_report_equals_the_reference(self, d):
        model = NoiseModel.scalar_ou(d, gamma=3.0, sigma=1.5)
        cfg = RunConfig(d=d, N=4, eps=0.1, alpha=1.3, T=0.3, h0=0.05, seed=11)
        n = _n_steps(cfg.T, cfg.eps_step)
        lags = dyadic_lags()
        uv = uv_check(cfg, model, reps=100, lags=lags, eps_index=1)
        want = _reference_report(*_scalar_reference_paths(cfg, model, 100, n, 1), lags,
                                 cfg.eps_step, n)
        _assert_report_matches(uv, want)

    @pytest.mark.parametrize("model, pot", [
        (NoiseModel.separable(1, gamma=2.0, sigma=1.0, g_name="gauss"),
         PotentialSpec.quadratic(1.0)),
        (FOURIER_D2, PotentialSpec.curie_weiss(1.0, 0.5)),
        (FOURIER_D3, PotentialSpec.quadratic(1.0)),
    ], ids=["separable-d1", "fourier-field-d2", "fourier-field-d3"])
    def test_ensemble_report_equals_the_reference(self, model, pot):
        cfg = RunConfig(d=model.d, N=4, eps=0.1, alpha=1.0, T=0.2, h0=0.05, seed=13)
        n = _n_steps(cfg.T, cfg.eps_step)
        lags = dyadic_lags()
        uv = uv_check(cfg, model, reps=100, lags=lags, pot=pot, eps_index=2)
        want = _reference_report(*_ensemble_reference_paths(cfg, model, pot, 100, n, 2),
                                 lags, cfg.eps_step, n)
        _assert_report_matches(uv, want)

    def test_one_forcing_evaluation_per_step(self, monkeypatch):
        # The stream takes each step's forcing from the kernel's recorder,
        # so a law-dependent field is averaged once per step, not once for
        # the force and again for u and v.  Every smallmass module that
        # holds the function by name counts.
        calls = [0]
        original = noise.averaged_forcing_xi

        def counted(*args):
            calls[0] += 1
            return original(*args)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("smallmass")
                    and getattr(mod, "averaged_forcing_xi", None) is original):
                monkeypatch.setattr(mod, "averaged_forcing_xi", counted)
        cfg = RunConfig(d=2, N=4, eps=0.1, alpha=1.0, T=0.2, h0=0.05, seed=13)
        uv_check(cfg, FOURIER_D2, reps=100, pot=PotentialSpec.curie_weiss(1.0, 0.5))
        assert calls[0] == _n_steps(cfg.T, cfg.eps_step) == 40

    def test_custom_potential_matches_its_builtin_twin(self):
        cfg = RunConfig(d=1, N=4, eps=0.1, alpha=1.0, T=0.5, h0=0.05, seed=0)
        model = NoiseModel.separable(1, gamma=2.0, sigma=1.0, g_name="gauss")
        custom = PotentialSpec.custom(lambda x, m: 1.0 * x, 1.0)
        assert (uv_check(cfg, model, reps=128, pot=custom)
                == uv_check(cfg, model, reps=128, pot=PotentialSpec.quadratic(1.0)))

    @staticmethod
    def _no_simulation(*args, **kwargs):
        raise AssertionError("the paths were simulated before the arguments were checked")

    @pytest.mark.parametrize("model", [NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0),
                                       FOURIER_D2], ids=["scalar", "ensemble"])
    def test_bad_arguments_fail_before_the_simulation(self, model, monkeypatch):
        monkeypatch.setattr(diagnostics, "_uv_scalar", self._no_simulation)
        monkeypatch.setattr(diagnostics, "_uv_ensemble", self._no_simulation)
        cfg = RunConfig(d=model.d, N=2, eps=0.1, alpha=1.0, T=0.2, h0=0.05, seed=0)
        with pytest.raises(UsageError, match="reps >= 100"):
            uv_check(cfg, model, reps=50)
        # the 0.2 horizon has 40 steps, the lag 1.0 needs 200
        with pytest.raises(UsageError, match="no admissible lags"):
            uv_check(cfg, model, reps=100, lags=[1.0])
        # one step gives each path a single increment, too few for bm_proxy
        one_step = RunConfig(d=model.d, N=2, eps=0.2, alpha=1.0, T=0.01, h0=0.05, seed=0)
        assert _n_steps(one_step.T, one_step.eps_step) == 1
        with pytest.raises(UsageError, match="at least 2 steps"):
            uv_check(one_step, model, reps=100)

    def test_memory_does_not_grow_with_the_horizon(self):
        # The stream holds the longest lag (32 steps) plus a chunk of u, and
        # at 1024 replicas the kernel's window of normals is 64 steps deep,
        # full at both horizons: the traced peak stays where it is when the
        # horizon is quadrupled, below the whole u path of the longer run.
        # An untraced first call builds the state that numpy sets up lazily.
        model = NoiseModel.scalar_ou(1, gamma=2.0, sigma=1.0)
        lags, peaks = dyadic_lags(0.01, 0.16), []
        cfgs = [RunConfig(d=1, N=2, eps=0.1, alpha=1.0, T=T, h0=0.05, seed=0)
                for T in (2.0, 8.0)]
        uv_check(cfgs[0], model, reps=1024, lags=lags)
        for cfg in cfgs:
            tracemalloc.start()
            try:
                uv_check(cfg, model, reps=1024, lags=lags)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        short, long = peaks
        assert abs(long - short) < 0.2 * short
        assert max(short, long) < (_n_steps(8.0, 0.005) + 1) * 1024 * 1 * 8

    @pytest.mark.parametrize("T, steps", [(1e308, "inf"), (1e300, r"2e\+302")],
                             ids=["1e308", "1e300"])
    def test_step_count_past_a_c_int_is_a_usage_error(self, T, steps):
        # int(T / h) raised OverflowError at 1e308
        cfg = RunConfig(d=1, N=2, eps=0.1, alpha=1.0, T=T, h0=0.05, seed=0)
        with pytest.raises(UsageError, match=rf"is {steps} steps; at most {2**31 - 1} are"):
            uv_check(cfg, NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0), reps=128)

    def test_dyadic_ladder(self):
        assert dyadic_lags(0.01, 1.0) == pytest.approx(
            [0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64])

    @pytest.mark.parametrize("lo", [0.0, -0.01])
    def test_dyadic_ladder_needs_a_positive_start(self, lo):
        # doubling a start of 0 never reaches hi
        with pytest.raises(UsageError, match="lo > 0"):
            dyadic_lags(lo, 1.0)

    @pytest.mark.parametrize("eps, h0, steps", [(1.0, 0.2, [1, 2, 3]),
                                                (0.5, 0.1, [1, 2, 3, 6, 13])])
    def test_lag_steps_are_distinct(self, eps, h0, steps):
        # where h exceeds the shorter lags they round to one step count
        # ([1, 1, 1, 1, 1, 2, 3] at h = 0.2), which the stream summed again
        # for each duplicate
        cfg = RunConfig(d=1, N=2, eps=eps, alpha=1.0, T=1.0, h0=h0, seed=3)
        assert diagnostics._uv_steps(cfg, dyadic_lags(), 128)[1] == steps

    def test_lag_step_ratios_keep_their_values(self):
        # pinned at the values read when each duplicate step was summed again
        cfg = RunConfig(d=1, N=2, eps=1.0, alpha=1.0, T=1.0, h0=0.2, seed=3)
        pinned = [(NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0),
                   [0.01728513882044132, 0.11094742726204841, 0.31798061104744657]),
                  (NoiseModel.separable(1, 1.0, 1.0, "gauss"),
                   [0.009318906530491493, 0.05877466251125914, 0.1709749780304234])]
        for model, ratios in pinned:
            got = uv_check(cfg, model, reps=128).u_increment_ratios
            assert got == dict(zip([0.2, 0.4, 0.6000000000000001], ratios))


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

    @pytest.mark.parametrize("d", [1, 2])
    def test_batches_leave_the_table_alone(self, d):
        # each batch writes its own consecutive replica rows
        cfg = RunConfig(d=d, N=3, eps=0.1, alpha=1.0, T=0.5, h0=0.05, seed=4)
        model = NoiseModel.separable(d, gamma=1.0, sigma=1.0, g_name="gauss")
        pot = PotentialSpec.curie_weiss(1.0, 0.5)
        one, many = (moment_table(cfg, model, pot, reps=150, batch_size=b)
                     for b in (None, BLOCK))
        assert one.sup == many.sup and one.ci == many.ci

    def test_needs_two_replicas(self):
        # one replica gives a NaN confidence halfwidth
        cfg = RunConfig(d=1, N=2, eps=0.1, alpha=1.0, T=1.0, h0=0.05, seed=0)
        with pytest.raises(UsageError, match="reps >= 2"):
            moment_table(cfg, NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0), FREE_POT,
                         reps=1)



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

    def test_path_layout_does_not_change_the_bits(self):
        # uv_check hands over a time-major view; the pooled means must sum
        # in the same order as over replica-major paths
        paths = np.random.default_rng(1).standard_normal((300, 41, 1)).cumsum(axis=1)
        times = np.linspace(0, 1, 41)
        view = np.ascontiguousarray(paths.swapaxes(0, 1)).swapaxes(0, 1)
        assert bm_proxy(view, times) == bm_proxy(paths, times)

    @pytest.mark.parametrize("points", [1, 2])
    def test_requires_two_increments_per_path(self, points):
        # the lag-1 correlation pairs consecutive increments
        paths = np.random.default_rng(0).standard_normal((150, points))
        with pytest.raises(UsageError, match="at least 3 grid times"):
            bm_proxy(paths, np.linspace(0, 1, points))


class TestDriverPaths:
    """The scalar u/v paths and the Green-Kubo forcing path step one shared
    driver loop; both equal a per-step reference that pre-draws each
    stream block's starts and normals and then advances all replicas
    together.  Green-Kubo keeps one replica per stream."""

    @staticmethod
    def _captured_forcing(monkeypatch):
        # green_kubo contracts each step's driver values once, in step order
        seen = []

        def spy(*args):
            eta = _contract_forcing(*args)
            seen.append(np.array(eta))
            return eta

        monkeypatch.setattr(diagnostics, "_contract_forcing", spy)
        return seen

    def test_scalar_paths_equal_the_reference(self):
        model = NoiseModel.scalar_ou(2, gamma=3.0, sigma=1.5)
        cfg = RunConfig(d=2, N=4, eps=0.1, alpha=1.3, T=0.3, h0=0.05, seed=11)
        n = _n_steps(cfg.T, cfg.eps_step)
        stream = _uv_scalar(cfg, model, 70, n, [1, 2, 5], 3)
        _assert_stream_matches(stream, *_scalar_reference_paths(cfg, model, 70, n, 3))

    def test_scalar_green_kubo_path_equals_the_reference(self, monkeypatch):
        model = NoiseModel.scalar_ou(2, gamma=2.0, sigma=1.0)
        seen = self._captured_forcing(monkeypatch)
        green_kubo(model, horizon_fast=10.0, reps=9, seed=5)
        ref = _reference_drivers(model, 5, (_rng.GK_RUN,), 9, 400, 0.025, size=1)
        assert len(seen) == 400
        assert np.array_equal(np.stack(seen), np.stack(ref))

    def test_fourier_green_kubo_path_equals_the_reference(self, monkeypatch):
        model = NoiseModel.fourier_field(2, gamma=2.0, sigma=1.0,
                                         omegas=[[1.0, 0.0], [0.0, 1.0], [0.7, -0.4]],
                                         a=[1.0, 0.5, 0.3], b=[0.2, 0.4, 0.6])
        m = EmpiricalMeasure(np.random.default_rng(0).standard_normal((16, 2)))
        seen = self._captured_forcing(monkeypatch)
        means = []

        def counted_mean(*args):
            means.append(args)
            return _factor_mean(*args)

        # the measure is frozen: its basis mean is taken once, not per step
        monkeypatch.setattr(diagnostics, "_factor_mean", counted_mean)
        green_kubo(model, m_source=m, horizon_fast=10.0, reps=9, seed=5)
        ref = _reference_drivers(model, 5, (_rng.GK_RUN,), 9, 400, 0.025, size=1)
        eta = np.stack([averaged_forcing_xi(model, xi, m.points) for xi in ref])
        assert len(seen) == 400 and len(means) == 1
        assert np.array_equal(np.stack(seen), eta)


class TestWindowedPaths:
    """``_UvStream`` folds each step of u and v into its lag-deep ring and
    running sums; they equal the replica-major step-by-step reference for
    any horizon, chunk boundary, ring wrap and late start (W = CHUNK and
    M = the ring's 2 CHUNK + 1 rows under the lags 1 and CHUNK in the
    ids)."""

    @staticmethod
    def _streamed(d, n, steps, reps, seed):
        cfg = RunConfig(d=d, N=2, eps=0.1, alpha=1.3, T=1.0, h0=0.05, seed=0)
        eta = np.random.default_rng(seed).standard_normal((n, reps, d))
        eta[0, ::2, 0] = -0.0  # the first step adds to u = v = 0
        got, ref = _UvStream(cfg, d, reps, n, steps), _StepwisePaths(cfg, d, reps, n)
        for k in range(n):
            got.add(k, eta[k])
            ref.add(slice(None), k, eta[k])
        _assert_stream_matches(got, ref.u, ref.v_late)

    @pytest.mark.parametrize("n", [1, CHUNK - 11, CHUNK, 2 * CHUNK + 1, 2 * CHUNK + 101],
                             ids=["n=1", "n<W", "n=W", "n=2W+1", "late-start-mid-window"])
    def test_equals_the_stepwise_reference(self, n):
        # lags shorter than, equal to and longer than a chunk, where they fit
        steps = [m for m in (1, 2, 7, CHUNK, CHUNK + 9) if m <= n]
        self._streamed(2, n, steps, 7, n)

    @pytest.mark.parametrize("with_n", [False, True], ids=["lags=1,W", "lags=1,W,n"])
    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1,
                                   2 * CHUNK + 2, 6 * CHUNK + 8],
                             ids=["n=W-1", "n=W", "n=W+1", "n=M-1", "n=M", "n=M+1",
                                  "n=3M+5"])
    def test_ring_wraps_at_every_edge(self, n, with_n):
        # Under the lags 1 and CHUNK the ring holds M = 2 CHUNK + 1 rows: u(n)
        # is its last row at n = M - 1, wraps to row 0 at n = M, and the
        # longest horizon wraps it three times, with flushes whose rows
        # of u(t) or u(t - m) wrap part way.  A lag of n deepens the ring
        # past the horizon, so that nothing wraps.
        lags = {1, CHUNK, n} if with_n else {1, CHUNK}
        steps = sorted(m for m in lags if m <= n)
        self._streamed(2, n, steps, 7, n)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 4 * CHUNK - 1, 4 * CHUNK, 4 * CHUNK + 1,
                                   12 * CHUNK + 5])
    def test_longest_lag_equal_to_the_horizon(self, d, n):
        # the ring is then n + CHUNK + 1 rows deep, and the longest lag has
        # a single increment, u(n) - u(0)
        steps = sorted({1, max(1, n // 3), n})
        self._streamed(d, n, steps, 7, d * n)
