import math
import tracemalloc

import numpy as np
import pytest

from smallmass import rng as _rng
from smallmass.core import EmpiricalMeasure, pairwise_mean
from smallmass.errors import UsageError
from smallmass.noise import (NoiseModel, _fourier_basis, advance_xi, averaged_forcing_xi,
                             eval_field_points, forcing_variance, stationary_xi)


def _gen(seed=0):
    return _rng.stream(seed, _rng.DIRECT, 9)


def _stationary(model, seed):
    return stationary_xi(model, _rng.stream(seed, _rng.DIRECT))


def _advance(xi, model, lag, gen):
    """One exact driver step over fast lag ``lag`` on fresh normals from ``gen``."""
    return advance_xi(xi, model, lag, gen.standard_normal(xi.shape))


def _field(model, xi, x):
    """Field value at the single point ``x``; a d-vector."""
    return eval_field_points(model, xi, np.asarray([x], dtype=float))[0]


class TestInitStationary:
    def test_marginal_variance(self):
        model = NoiseModel.scalar_ou(3, gamma=1.0, sigma=1.0)
        draws = np.stack([_stationary(model, s) for s in range(4000)])
        assert draws.var() == pytest.approx(1.0, rel=0.05)

    def test_zero_amplitude(self):
        model = NoiseModel.scalar_ou(2, gamma=1.0, sigma=0.0)
        assert np.array_equal(_stationary(model, 5), np.zeros(2))

    def test_same_seed_same_state(self):
        model = NoiseModel.scalar_ou(2, gamma=1.0, sigma=1.0)
        assert np.array_equal(_stationary(model, 42), _stationary(model, 42))


class TestAdvance:
    def test_autocorrelation(self):
        # corr(xi(0), xi(s)) = exp(-gamma*s) for the exact update
        model = NoiseModel.scalar_ou(1, gamma=2.0, sigma=1.0)
        gen = _gen(3)
        lag = 0.3
        x0 = np.empty(8000)
        x1 = np.empty(8000)
        for i in range(8000):
            xi = model.sigma * gen.standard_normal(1)
            x0[i] = xi[0]
            x1[i] = _advance(xi, model, lag, gen)[0]
        corr = np.corrcoef(x0, x1)[0, 1]
        assert corr == pytest.approx(math.exp(-2.0 * lag), abs=0.03)

    def test_full_decorrelation(self):
        # a long lag forgets the initial value entirely: the new draw is
        # marginal N(0, sigma^2) and uncorrelated with where it started
        model = NoiseModel.scalar_ou(1, gamma=2.0, sigma=1.0)
        gen = _gen(4)
        start = np.repeat([100.0, -100.0], 2000)
        out = np.array([_advance(np.array([s]), model, 50.0, gen)[0] for s in start])
        assert out.var() == pytest.approx(1.0, rel=0.1)
        assert abs(np.corrcoef(start, out)[0, 1]) < 0.05

    def test_semigroup_moments(self):
        # one advance over s+s' matches two advances over s then s' in law
        model = NoiseModel.scalar_ou(1, gamma=1.5, sigma=0.8)
        gen = _gen(5)
        n = 6000
        one, two = np.empty(n), np.empty(n)
        x0 = np.empty(n)
        for i in range(n):
            xi = _stationary(model, 10_000 + i)
            x0[i] = xi[0]
            one[i] = _advance(xi, model, 0.5, gen)[0]
            two[i] = _advance(_advance(xi, model, 0.2, gen), model, 0.3, gen)[0]
        for path in (one, two):
            assert path.var() == pytest.approx(0.64, rel=0.08)
            corr = np.corrcoef(x0, path)[0, 1]
            assert corr == pytest.approx(math.exp(-1.5 * 0.5), abs=0.04)

    def test_stationarity_along_path(self):
        # neither marginal variance nor lag correlation drifts with the
        # fast-time offset of the window
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0)
        lag = 0.5
        vals = {0.0: [], 5.0: [], 20.0: []}
        lagged = {0.0: [], 5.0: [], 20.0: []}
        for i in range(2000):
            gen = _rng.stream(i, _rng.DIRECT, 8)
            xi = stationary_xi(model, gen)
            t = 0.0
            for target in sorted(vals):
                if target > t:
                    xi = _advance(xi, model, target - t, gen)
                t = target
                vals[target].append(xi[0])
                lagged[target].append(_advance(xi, model, lag, gen)[0])
        for target in vals:
            assert np.var(vals[target]) == pytest.approx(1.0, rel=0.1)
            corr = np.corrcoef(vals[target], lagged[target])[0, 1]
            assert corr == pytest.approx(math.exp(-lag), abs=0.06)


class TestEvalField:
    def test_scalar_ou_ignores_position(self):
        model = NoiseModel.scalar_ou(2, gamma=1.0, sigma=1.0)
        xi = _stationary(model, 2)
        a = _field(model, xi, [0.0, 0.0])
        b = _field(model, xi, [5.0, -3.0])
        assert np.array_equal(a, b)
        assert np.array_equal(a, xi)

    def test_separable_constant_profile_matches_scalar(self):
        model = NoiseModel.separable(2, gamma=1.0, sigma=1.0, g_name="one")
        xi = _stationary(model, 3)
        assert _field(model, xi, [4.0, 4.0]) == pytest.approx(xi)

    def test_fourier_zero_frequency(self):
        model = NoiseModel.fourier_field(1, gamma=1.0, sigma=1.0,
                                         omegas=[[0.0]], a=[1.0], b=[0.0])
        xi = _stationary(model, 4)
        for x in ([0.0], [2.0], [-7.5]):
            assert _field(model, xi, x) == pytest.approx(xi[:, 0])


class TestAveragedForcing:
    def test_scalar_ou_any_measure(self):
        model = NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0)
        xi = _stationary(model, 5)
        m = EmpiricalMeasure.from_points([[0.0], [10.0], [-3.0]])
        assert np.array_equal(averaged_forcing_xi(model, xi, m.points), xi)

    def test_separable_singleton(self):
        model = NoiseModel.separable(1, gamma=1.0, sigma=1.0, g_name="cos-sum")
        xi = _stationary(model, 6)
        m = EmpiricalMeasure.from_points([0.0])
        assert averaged_forcing_xi(model, xi, m.points) == pytest.approx(xi * 1.0)

    def test_separable_odd_symmetry(self):
        model = NoiseModel.separable(1, gamma=1.0, sigma=1.0, g_name="clip-linear")
        xi = _stationary(model, 7)
        m = EmpiricalMeasure.from_points([[-0.5], [0.5]])
        assert averaged_forcing_xi(model, xi, m.points) == pytest.approx([0.0], abs=1e-15)


def _fourier(d, K):
    gen = np.random.default_rng(10 * d + K)
    return NoiseModel.fourier_field(d, gamma=1.0, sigma=1.0,
                                    omegas=gen.standard_normal((K, d)),
                                    a=gen.standard_normal(K), b=gen.standard_normal(K))


class TestFourierBasis:
    """The phase-shift form R_k cos(w_k . x - phi_k) against a_k cos + b_k sin."""

    def test_within_a_few_ulp_of_the_two_term_form(self):
        # modes: b = 0, a = 0, a < 0, a generic pair, zero frequency, a = b = 0
        a = np.array([1.3, 0.0, -0.8, 0.6, 0.9, 0.0])
        b = np.array([0.0, -2.1, 0.4, -0.7, -0.5, 0.0])
        omegas = np.array([[1.0], [1.0], [1.0], [1.0], [0.0], [1.0]])
        model = NoiseModel.fourier_field(1, gamma=1.0, sigma=1.0, omegas=omegas, a=a, b=b)
        x = np.linspace(-60.0, 60.0, 24001)
        basis = _fourier_basis(model, x[:, None])
        assert basis.shape == (6, x.size)
        theta = omegas[:, :1] * x  # (K, n)
        two_term = a[:, None] * np.cos(theta) + b[:, None] * np.sin(theta)
        bound = 8 * np.finfo(float).eps * np.hypot(a, b)[:, None] * np.maximum(1.0, abs(theta))
        assert np.all(np.abs(basis - two_term) <= bound)
        assert np.all(basis[5] == 0.0)

    def test_mode_major_layout(self):
        # batch + (n, d) points give a contiguous (K, n) + batch basis, and
        # each batch entry equals the basis of its points alone
        model = _fourier(2, 3)
        points = np.random.default_rng(4).standard_normal((2, 3, 17, 2))
        basis = _fourier_basis(model, points)
        assert basis.shape == (3, 17, 2, 3) and basis.flags.c_contiguous
        for i in range(2):
            for j in range(3):
                assert np.array_equal(basis[:, :, i, j], _fourier_basis(model, points[i, j]))


class TestFourierAveragedForcing:
    """The linear route (average the basis, then contract) against the field."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
    def test_matches_mean_of_point_field(self, d, K, batch):
        model = _fourier(d, K)
        gen = np.random.default_rng(1)
        xi = gen.standard_normal(batch + (d, K))
        points = gen.standard_normal(batch + (17, d))
        got = averaged_forcing_xi(model, xi, points)
        ref = pairwise_mean(eval_field_points(model, xi, points), axis=-2)
        assert got.shape == batch + (d,)
        assert np.max(np.abs(got - ref)) <= 1e-13

    @pytest.mark.parametrize("d", [1, 2])
    def test_batch_equals_each_replica_alone(self, d):
        model = _fourier(d, 3)
        gen = np.random.default_rng(2)
        xi = gen.standard_normal((64, d, 3))
        points = gen.standard_normal((64, 32, d))
        batched = averaged_forcing_xi(model, xi, points)
        for r in range(64):
            assert np.array_equal(batched[r], averaged_forcing_xi(model, xi[r], points[r]))

    @pytest.mark.parametrize("n", [1, 32])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_replica_bits_do_not_depend_on_its_batch(self, d, n):
        # Each replica's phases come from its own (n, d) @ (d, K) product.
        # One (B*n, d) product over the whole batch would not do: at n = 1
        # the 1-row product alone and a row of a B-row product differ in
        # the last bit for about a third of the entries (OpenBLAS 0.3.31).
        model = _fourier(d, 3)
        gen = np.random.default_rng(5)
        xi = gen.standard_normal((512, d, 3))
        points = 3.0 * gen.standard_normal((512, n, d))
        alone = np.concatenate([averaged_forcing_xi(model, xi[r : r + 1], points[r : r + 1])
                                for r in range(512)])
        for B in (1, 7, 64, 65, 128, 512):
            for rows in (slice(0, B), slice(512 - B, 512)):
                got = averaged_forcing_xi(model, xi[rows], points[rows])
                assert np.array_equal(got, alone[rows]), (B, rows)

    def test_forcing_variance_forms_no_per_point_field(self):
        # The old route built a (mc_samples, 1024, 2) field: 64 MB.
        model = _fourier(2, 3)
        m = EmpiricalMeasure.from_points(np.random.default_rng(3).standard_normal((1024, 2)))
        tracemalloc.start()
        try:
            forcing_variance(model, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestMixingMetadata:
    def test_zero_rate_rejected(self):
        with pytest.raises(UsageError):
            NoiseModel.scalar_ou(1, gamma=0.0, sigma=1.0)


class TestForcingVariance:
    def test_scalar_ou_is_sigma_squared(self):
        model = NoiseModel.scalar_ou(2, gamma=1.0, sigma=1.0)
        assert forcing_variance(model) == 1.0

    def test_separable_constant_reduces_to_scalar(self):
        model = NoiseModel.separable(2, gamma=1.0, sigma=1.5, g_name="one")
        m = EmpiricalMeasure.from_points(np.random.default_rng(0).standard_normal((6, 2)))
        assert forcing_variance(model, m) == pytest.approx(1.5**2)

    def test_separable_vanishing_mean(self):
        model = NoiseModel.separable(1, gamma=1.0, sigma=1.0, g_name="clip-linear")
        m = EmpiricalMeasure.from_points([[-0.5], [0.5]])
        assert forcing_variance(model, m) == pytest.approx(0.0, abs=1e-15)

    def test_measure_required_for_law_dependent_kinds(self):
        model = NoiseModel.separable(1, gamma=1.0, sigma=1.0, g_name="one")
        with pytest.raises(UsageError):
            forcing_variance(model)

    def test_fourier_monte_carlo_close_to_closed_form(self):
        omegas, a, b = [[1.0], [2.0]], [0.5, 0.2], [0.1, 0.0]
        model = NoiseModel.fourier_field(1, gamma=1.0, sigma=1.0,
                                         omegas=omegas, a=a, b=b)
        m = EmpiricalMeasure.from_points([[0.3], [-1.2], [0.8]])
        pts = m.points
        ck = [np.mean(a[k] * np.cos(pts @ np.array(omegas[k]))
                      + b[k] * np.sin(pts @ np.array(omegas[k])))
              for k in range(2)]
        expected = sum(c * c for c in ck)
        est = forcing_variance(model, m)
        assert est == pytest.approx(expected, rel=1e-12)
