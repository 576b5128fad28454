import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallmass.core import (EmpiricalMeasure, ParticleEnsemble, PotentialSpec,
                            RunConfig, default_pair_sampler, empirical_mean,
                            grad_v, grad_v_batch, pairwise_mean, probe_lipschitz)
from smallmass.errors import UsageError


class TestEmpiricalMean:
    def test_scalar_points(self):
        m = EmpiricalMeasure.from_points([[1.0], [2.0], [3.0]])
        assert empirical_mean(m) == pytest.approx([2.0])

    def test_singleton(self):
        m = EmpiricalMeasure.point_mass([0.0, 0.0])
        assert np.array_equal(empirical_mean(m), [0.0, 0.0])

    def test_symmetry(self):
        m = EmpiricalMeasure.from_points([[-5.0], [5.0]])
        assert empirical_mean(m) == pytest.approx([0.0])

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            EmpiricalMeasure(np.empty((0, 1)))

    @given(st.integers(1, 20), st.floats(-1e3, 1e3), st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_translation_equivariance(self, n, shift, seed):
        pts = np.random.default_rng(seed).standard_normal((n, 2))
        base = empirical_mean(EmpiricalMeasure(pts))
        moved = empirical_mean(EmpiricalMeasure(pts + shift))
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


class TestGradV:
    def test_quadratic(self):
        pot = PotentialSpec.quadratic(1.0)
        m = EmpiricalMeasure.point_mass([123.0])
        assert grad_v(pot, [2.0], m) == pytest.approx([2.0])

    def test_curie_weiss(self):
        pot = PotentialSpec.curie_weiss(1.0, 0.5)
        m = EmpiricalMeasure.point_mass([0.0])
        assert grad_v(pot, [1.0], m) == pytest.approx([1.5])

    def test_zero_coupling_reduces_to_quadratic(self):
        rng = np.random.default_rng(0)
        pot_cw = PotentialSpec.curie_weiss(0.7, 0.0)
        pot_q = PotentialSpec.quadratic(0.7)
        for _ in range(10):
            x = rng.standard_normal(3)
            m = EmpiricalMeasure(rng.standard_normal((5, 3)))
            assert grad_v(pot_cw, x, m) == pytest.approx(grad_v(pot_q, x, m))

    def test_vanishes_at_origin_point_mass(self):
        for pot in (PotentialSpec.quadratic(2.0), PotentialSpec.curie_weiss(1.0, 0.3)):
            m = EmpiricalMeasure.point_mass([0.0, 0.0])
            assert grad_v(pot, [0.0, 0.0], m) == pytest.approx([0.0, 0.0])

    def test_dimension_mismatch(self):
        pot = PotentialSpec.quadratic(1.0)
        with pytest.raises(UsageError):
            grad_v(pot, [1.0, 2.0], EmpiricalMeasure.point_mass([0.0]))


class TestGradVBatch:
    """Without a measure, each ensemble of the batch is its own measure."""

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
            ref = grad_v_batch(pot, X[b], EmpiricalMeasure(X[b]))
            assert np.array_equal(batched[b], ref)
            assert np.array_equal(buffered[b], ref)


class TestProbeLipschitz:
    def test_quadratic_bound(self):
        pot = PotentialSpec.quadratic(1.0)
        est = probe_lipschitz(pot, default_pair_sampler(2, seed=1), trials=200)
        assert est <= pot.lipschitz_bound + 1e-9

    def test_curie_weiss_bound(self):
        pot = PotentialSpec.curie_weiss(1.0, 0.5)
        assert pot.lipschitz_bound == pytest.approx(2.0)
        est = probe_lipschitz(pot, default_pair_sampler(1, seed=2), trials=200)
        assert est <= 2.0 + 1e-9

    def test_degenerate_pairs_skipped(self):
        pot = PotentialSpec.quadratic(1.0)
        x = np.zeros(1)
        m = EmpiricalMeasure.point_mass([0.5])
        hits = iter([((x, m), (x, m)), ((np.ones(1), m), (x, m))])

        def sampler():
            return next(hits)

        est = probe_lipschitz(pot, sampler, trials=2)
        assert est == pytest.approx(1.0)

    def test_all_degenerate_rejected(self):
        pot = PotentialSpec.quadratic(1.0)
        x = np.zeros(1)
        m = EmpiricalMeasure.point_mass([0.0])

        def sampler():
            return (x, m), (x, m)

        with pytest.raises(UsageError):
            probe_lipschitz(pot, sampler, trials=5)


class TestValidation:
    def test_run_config_ranges(self):
        good = dict(d=1, N=4, eps=0.1, alpha=1.0, T=1.0, h0=0.05, seed=0)
        RunConfig(**good)
        for key, bad in (("eps", 1.5), ("eps", 0.0), ("alpha", 0.0),
                         ("h0", 0.25), ("h0", 0.0), ("T", -1.0)):
            with pytest.raises(UsageError):
                RunConfig(**{**good, key: bad})

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
        ParticleEnsemble(np.zeros((2, 1)), None, 0.0, None)  # limit mode ok
