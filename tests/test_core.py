import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallmass.core import (EmpiricalMeasure, ParticleEnsemble, PotentialSpec,
                            RunConfig, grad_v_batch, pairwise_mean)
from smallmass.diagnostics import GkEstimate, MomentTable
from smallmass.errors import UsageError
from smallmass.noise import DriverState, NoiseModel


class TestEmpiricalMean:
    def test_scalar_points(self):
        m = EmpiricalMeasure.from_points([[1.0], [2.0], [3.0]])
        assert m.mean() == pytest.approx([2.0])

    def test_singleton(self):
        m = EmpiricalMeasure.from_points([0.0, 0.0])
        assert np.array_equal(m.mean(), [0.0, 0.0])

    def test_symmetry(self):
        m = EmpiricalMeasure.from_points([[-5.0], [5.0]])
        assert m.mean() == pytest.approx([0.0])

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            EmpiricalMeasure(np.empty((0, 1)))

    @given(st.integers(1, 20), st.floats(-1e3, 1e3), st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_translation_equivariance(self, n, shift, seed):
        pts = np.random.default_rng(seed).standard_normal((n, 2))
        base = EmpiricalMeasure(pts).mean()
        moved = EmpiricalMeasure(pts + shift).mean()
        assert moved == pytest.approx(base + shift, abs=1e-9, rel=1e-9)

    def test_pairwise_mean_matches_numpy(self):
        a = np.random.default_rng(3).standard_normal((37, 2))
        assert pairwise_mean(a, axis=0) == pytest.approx(a.mean(axis=0))

    def test_pairwise_mean_batch_consistent(self):
        # the fold must not depend on leading batch axes
        a = np.random.default_rng(4).standard_normal((5, 33, 2))
        batched = pairwise_mean(a, axis=1)
        single = np.stack([pairwise_mean(a[i], axis=0) for i in range(5)])
        assert np.array_equal(batched, single)


def _recursive_pairwise_mean(values, axis):
    """The fold as first written: recursive halving with a concatenate."""

    def fold(a):
        if a.shape[0] == 1:
            return a[0]
        half = a.shape[0] // 2
        folded = a[:half] + a[half : 2 * half]
        if a.shape[0] % 2:
            folded = np.concatenate([folded, a[2 * half :]], axis=0)
        return fold(folded)

    a = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    return fold(a) / a.shape[0]


class TestPairwiseFold:
    """``pairwise_mean`` keeps the summation tree of the recursive fold."""

    # (3, 2, n, 2) is a (rows, B, n, d) stack of particle sets; the axes
    # below fold it at each of its four positions
    @pytest.mark.parametrize("shape", [lambda n: (n,), lambda n: (n, 3),
                                       lambda n: (4, n, 2), lambda n: (3, 2, n, 2)],
                             ids=["(n,)", "(n,3)", "(4,n,2)", "(3,2,n,2)"])
    def test_bit_identical_to_the_recursive_fold(self, shape):
        gen = np.random.default_rng(17)
        for n in range(1, 71):
            # magnitudes over six decades, so a changed order would show
            a = gen.standard_normal(shape(n)) * 10.0 ** gen.uniform(-3, 3, shape(n))
            for axis in (0, 1, -1, -2):
                if not -a.ndim <= axis < a.ndim:
                    continue
                got, want = pairwise_mean(a, axis), _recursive_pairwise_mean(a, axis)
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want), (n, axis)

    @pytest.mark.parametrize("n", [2, 7, 32, 33, 70])
    def test_non_contiguous_views(self, n):
        gen = np.random.default_rng(n)
        base = gen.standard_normal((6, 2 * n, 5))
        views = [(base[::2, ::2, 1:4], 1), (base[:, ::-2, :], -2),
                 (base[:, :n].transpose(1, 0, 2), 0), (base[1, :n, :].T, -1)]
        for view, axis in views:
            assert not view.flags.c_contiguous
            assert np.array_equal(pairwise_mean(view, axis),
                                  _recursive_pairwise_mean(view, axis))

    def test_leaves_its_input_alone(self):
        a = np.random.default_rng(5).standard_normal((4, 9, 2))
        before = a.copy()
        pairwise_mean(a, axis=1)
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("shape, axis", [((0,), 0), ((3, 0), 1), ((0, 2), -2)])
    def test_empty_axis_rejected(self, shape, axis):
        with pytest.raises(UsageError, match="empty axis"):
            pairwise_mean(np.empty(shape), axis)


class TestGradV:
    """``grad_v_batch`` at a set of rows, which is its own measure."""

    def test_quadratic(self):
        # no measure dependence: each row's gradient is lam * x
        pot = PotentialSpec.quadratic(1.0)
        assert grad_v_batch(pot, [[2.0], [123.0]]) == pytest.approx(np.array([[2.0], [123.0]]))

    def test_curie_weiss(self):
        # the rows' mean is 0, so each gradient is (lam + kappa) * x
        pot = PotentialSpec.curie_weiss(1.0, 0.5)
        assert grad_v_batch(pot, [[1.0], [-1.0]]) == pytest.approx(np.array([[1.5], [-1.5]]))

    def test_zero_coupling_reduces_to_quadratic(self):
        rng = np.random.default_rng(0)
        pot_cw = PotentialSpec.curie_weiss(0.7, 0.0)
        pot_q = PotentialSpec.quadratic(0.7)
        for shape in [(4, 3)] * 5 + [(2, 4, 3)] * 5:
            x = rng.standard_normal(shape)
            assert grad_v_batch(pot_cw, x) == pytest.approx(grad_v_batch(pot_q, x))

    def test_vanishes_at_origin_point_mass(self):
        for pot in (PotentialSpec.quadratic(2.0), PotentialSpec.curie_weiss(1.0, 0.3)):
            assert grad_v_batch(pot, [[0.0, 0.0]]) == pytest.approx(np.zeros((1, 2)))


class TestGradVBatch:
    """Each ensemble of the batch is its own measure, and its gradient does
    not depend on the ensembles batched with it."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("pot", [
        PotentialSpec.quadratic(0.7),
        PotentialSpec.curie_weiss(0.7, 0.45),
        PotentialSpec.custom(lambda x, m: x - 0.3 * m.mean(), 1.6),
    ], ids=["quadratic", "curie-weiss", "custom"])
    def test_batch_equals_each_ensemble_under_its_measure(self, pot, d):
        X = np.random.default_rng(9).standard_normal((5, 13, d))
        out, tmp = np.empty_like(X), np.empty_like(X)
        batched = grad_v_batch(pot, X)
        buffered = grad_v_batch(pot, X, out=out, tmp=tmp)
        assert buffered is out
        for b in range(X.shape[0]):
            ref = grad_v_batch(pot, X[b])
            assert np.array_equal(batched[b], ref)
            assert np.array_equal(buffered[b], ref)


class TestValidation:
    def test_run_config_ranges(self):
        good = dict(d=1, N=4, eps=0.1, alpha=1.0, T=1.0, h0=0.05, seed=0)
        RunConfig(**good)
        for key, bad in (("eps", 1.5), ("eps", 0.0), ("alpha", 0.0),
                         ("h0", 0.25), ("h0", 0.0), ("T", -1.0)):
            with pytest.raises(UsageError):
                RunConfig(**{**good, key: bad})

    @pytest.mark.parametrize("alpha", [1.1e154, 1e300, math.inf, math.nan])
    def test_run_config_alpha_stops_where_its_square_overflows(self, alpha):
        # alpha**2 in _UvStream ended uv_check at alpha 1e300 in an
        # OverflowError; config files stop at the same 1e154
        message = f"friction alpha must lie in (0, 1e+154], got {alpha!r}"
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            RunConfig(d=1, N=2, eps=0.1, alpha=alpha, T=0.2, h0=0.05, seed=0)
        RunConfig(d=1, N=2, eps=0.1, alpha=1e154, T=0.2, h0=0.05, seed=0)

    def test_potential_validation(self):
        with pytest.raises(UsageError):
            PotentialSpec(kind="quadratic", lam=1.0, kappa=0.5)
        with pytest.raises(UsageError):
            PotentialSpec(kind="banana", lam=1.0)
        with pytest.raises(UsageError):
            PotentialSpec.custom(grad=lambda x, m: x, lipschitz_bound=0.0)

    def test_ensemble_validation(self):
        with pytest.raises(UsageError):
            ParticleEnsemble(np.zeros((2, 1)), np.zeros((3, 1)), 0.0, 0.5)
        with pytest.raises(UsageError):
            ParticleEnsemble(np.zeros((2, 1)), np.zeros((2, 1)), 0.0, None)
        with pytest.raises(UsageError):  # velocities are required
            ParticleEnsemble(np.zeros((2, 1)), None, 0.0, 0.5)


class TestArrayRecords:
    """Frozen records whose fields hold arrays compare and hash by
    identity: the generated field-wise ``__eq__`` raised ValueError on
    equal but distinct arrays, and the generated ``__hash__`` TypeError."""

    @pytest.mark.parametrize("make", [
        lambda: EmpiricalMeasure(np.zeros((3, 2))),
        lambda: ParticleEnsemble(np.zeros((3, 2)), np.zeros((3, 2)), 0.0, 0.5),
        lambda: DriverState(np.zeros(2), 0.0),
        lambda: GkEstimate(G=np.eye(2), horizon_fast=1.0, truncation_lag=0.5, reps=2,
                           ci_fro=0.0),
        lambda: MomentTable(eps=0.5, sup={}, ci={}, n_replicas=2, n_particles=3,
                            grid_times=np.zeros(3)),
    ], ids=["EmpiricalMeasure", "ParticleEnsemble", "DriverState", "GkEstimate",
            "MomentTable"])
    def test_equality_and_hash_are_by_identity(self, make):
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_noise_models_without_arrays_compare_by_value(self):
        # NoiseModel keeps its field-wise equality: its scalar-ou and
        # separable instances hold no array
        assert (NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0)
                == NoiseModel.scalar_ou(1, gamma=1.0, sigma=1.0))
        assert (NoiseModel.separable(2, 1.0, 1.0, "gauss")
                == NoiseModel.separable(2, 1.0, 1.0, "gauss"))
