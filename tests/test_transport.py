import itertools
import math
import os
import subprocess
import sys
import textwrap
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallmass import transport
from smallmass.errors import UsageError
from smallmass.transport import (ASSIGNMENT_MAX_N, w2_1d, w2_assignment,
                                 w2_auto, w2_sliced)


def brute_force_w2(a, b):
    """Factorial-cost oracle: minimum over all permutations."""
    n = a.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(np.sum((a[i] - b[perm[i]]) ** 2) for i in range(n))
        best = min(best, cost)
    return math.sqrt(best / n)


def summed_cost_w2(a, b):
    """W2 with the same solver on the cost summed over an (n, n, d) array
    of squared coordinate differences."""
    cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    rows, cols = transport._assignment_solver()(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


class TestW21d:
    def test_identical_multisets(self):
        a = [3.0, -1.0, 3.0, 0.5]
        assert w2_1d(a, list(reversed(a))).value == 0.0

    def test_singletons(self):
        assert w2_1d([2.0], [-3.5]).value == pytest.approx(5.5)

    def test_two_point_example(self):
        # assignments cost sqrt(2) (monotone) and sqrt(5); minimum is sqrt(2)
        res = w2_1d([0.0, 1.0], [0.0, 3.0])
        assert res.value == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert res.method == "quantile-1d"

    def test_unequal_counts_rejected(self):
        with pytest.raises(UsageError):
            w2_1d([1.0, 2.0], [1.0])

    def test_points_off_the_line_rejected(self):
        # (n, d > 1) samples were flattened into n*d values on the line:
        # these two gave 1.0 by the quantile route
        with pytest.raises(UsageError, match=r"on the line.*\(4, 2\)"):
            w2_1d(np.zeros((4, 2)), np.ones((4, 2)))
        with pytest.raises(UsageError, match="on the line"):
            w2_1d(np.zeros(4), np.ones((4, 2)))

    def test_column_sample_is_the_line(self):
        a, b = [0.0, 1.0, 5.0], [2.0, -1.0, 0.5]
        assert w2_1d(np.array(a)[:, None], np.array(b)[:, None]) == w2_1d(a, b)


class TestW2Assignment:
    def test_identical_sets(self):
        a = np.random.default_rng(0).standard_normal((6, 3))
        assert w2_assignment(a, a.copy()).value == 0.0

    def test_matches_1d_solver(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.standard_normal((12, 1))
            b = rng.standard_normal((12, 1))
            assert w2_assignment(a, b).value == pytest.approx(
                w2_1d(a[:, 0], b[:, 0]).value, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            d = int(rng.integers(1, 4))
            a = rng.standard_normal((n, d))
            b = rng.standard_normal((n, d))
            assert w2_assignment(a, b).value == pytest.approx(
                brute_force_w2(a, b), abs=1e-9)

    @staticmethod
    def _samples(n, d, seed):
        # coordinates on scales from 1e-3 to 1e3, and a bootstrap-style
        # resample of the first sample, which repeats rows
        rng = np.random.default_rng(seed)
        scales = np.logspace(-3, 3, d)
        a = rng.standard_normal((n, d)) * scales
        b = rng.standard_normal((n, d)) * scales[::-1] + 1.0
        return a, a[rng.integers(0, n, size=n)], b

    @pytest.mark.parametrize("n", [1, 2, 7, 128])
    @pytest.mark.parametrize("d", range(1, 8))
    def test_cost_keeps_the_bits_of_the_coordinate_sum(self, n, d):
        # Below 8 terms NumPy's contiguous sum adds the coordinates one
        # after another, the order the per-coordinate build keeps.
        a, boot, b = self._samples(n, d, seed=100 * d + n)
        for x in (a, boot):
            assert w2_assignment(x, b).value == summed_cost_w2(x, b)

    @pytest.mark.parametrize("d", [8, 9])
    def test_cost_agrees_with_the_pairwise_coordinate_sum(self, d):
        # From 8 terms on NumPy sums pairwise, so the last bits may differ.
        for n in (1, 2, 7, 128):
            a, boot, b = self._samples(n, d, seed=100 * d + n)
            for x in (a, boot):
                assert w2_assignment(x, b).value == pytest.approx(
                    summed_cost_w2(x, b), rel=1e-14, abs=0.0)

    def test_budget_enforced(self):
        a = np.zeros((ASSIGNMENT_MAX_N + 1, 2))
        with pytest.raises(UsageError, match="sliced"):
            w2_assignment(a, a)


class TestW2Sliced:
    def test_identical_sets(self):
        a = np.random.default_rng(3).standard_normal((40, 4))
        res = w2_sliced(a, a.copy(), n_proj=16, seed=0)
        assert res.value == 0.0
        assert res.method == "sliced"

    def test_1d_equals_quantile_any_seed(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((30, 1))
        b = rng.standard_normal((30, 1))
        exact = w2_1d(a[:, 0], b[:, 0]).value
        for seed in (0, 1, 99):
            assert w2_sliced(a, b, n_proj=8, seed=seed).value == pytest.approx(
                exact, abs=1e-12)

    def test_lower_bounds_exact_distance(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            a = rng.standard_normal((20, 3))
            b = rng.standard_normal((20, 3)) + rng.standard_normal(3)
            exact = w2_assignment(a, b).value
            res = w2_sliced(a, b, n_proj=64, seed=trial)
            assert res.value <= exact + 3.0 * res.ci_halfwidth

    def test_unequal_sizes_supported(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((30, 2))
        b = rng.standard_normal((50, 2))
        res = w2_sliced(a, b, n_proj=32, seed=0)
        assert np.isfinite(res.value) and res.value > 0


class TestMetricProperties:
    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            pts = [rng.standard_normal((6, 2)) for _ in range(3)]
            dab = w2_assignment(pts[0], pts[1]).value
            dba = w2_assignment(pts[1], pts[0]).value
            assert dab == pytest.approx(dba, abs=1e-12)
            dac = w2_assignment(pts[0], pts[2]).value
            dcb = w2_assignment(pts[2], pts[1]).value
            assert dab <= dac + dcb + 1e-9

    def test_zero_iff_equal_multiset(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 2))
        perm = a[rng.permutation(5)]
        assert w2_assignment(a, perm).value == 0.0
        b = a.copy()
        b[0, 0] += 1e-3
        assert w2_assignment(a, b).value > 1e-4

    @given(st.floats(-50, 50), st.floats(-3, 3).filter(lambda s: abs(s) > 1e-3),
           st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_translation_and_scaling(self, shift, scale, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((8, 2))
        b = rng.standard_normal((8, 2))
        base = w2_assignment(a, b).value
        assert w2_assignment(a + shift, b + shift).value == pytest.approx(
            base, rel=1e-9, abs=1e-9)
        assert w2_assignment(scale * a, scale * b).value == pytest.approx(
            abs(scale) * base, rel=1e-9, abs=1e-9)


class TestAutoSelection:
    def test_routes(self):
        rng = np.random.default_rng(9)
        one = rng.standard_normal((10, 1))
        assert w2_auto(one, one).method == "quantile-1d"
        # unequal counts on the line: every sliced projection is +-1, so the
        # quantile resample gives the same number once
        other = rng.standard_normal((7, 1))
        assert w2_auto(one, other).method == "quantile-1d"
        assert w2_auto(one, other).value == pytest.approx(w2_sliced(one, other).value,
                                                          rel=1e-12)
        with pytest.raises(UsageError, match="nonempty"):
            w2_auto(one, one[:0])
        small = rng.standard_normal((10, 3))
        assert w2_auto(small, small).method == "assignment"
        big = rng.standard_normal((ASSIGNMENT_MAX_N + 1, 3))
        assert w2_auto(big, big).method == "sliced"


class TestSampleShapes:
    def test_1d_sample_is_points_on_the_line(self):
        # Equal multisets: every route reads [0, 1, 2] as three points.
        assert w2_auto([0, 1, 2], [2, 1, 0]) == w2_1d([0, 1, 2], [2, 1, 0])
        assert w2_auto([0, 1, 2], [2, 1, 0]).value == 0.0
        assert w2_assignment([0, 1, 2], [2, 1, 0]).value == 0.0
        assert w2_sliced([0, 1, 2], [2, 1, 0], n_proj=4).value == 0.0

    def test_1d_and_column_samples_agree(self):
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal(9), rng.standard_normal(9)
        assert w2_assignment(a, b) == w2_assignment(a[:, None], b[:, None])
        assert w2_sliced(a, b, n_proj=8) == w2_sliced(a[:, None], b[:, None], n_proj=8)

    @pytest.mark.parametrize("fn", [w2_1d, w2_assignment, w2_auto, w2_sliced])
    def test_more_than_two_dimensions_rejected(self, fn):
        a = np.zeros((4, 2, 1))
        with pytest.raises(UsageError, match="shape"):
            fn(a, a)

    @pytest.mark.parametrize("fn", [w2_1d, w2_assignment, w2_auto, w2_sliced])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, fn, bad):
        a = np.zeros((4, 2)) if fn is not w2_1d else np.zeros(4)
        b = a.copy()
        b.flat[1] = bad
        with pytest.raises(UsageError, match="finite"):
            fn(a, b)
        with pytest.raises(UsageError, match="finite"):
            fn(b, a)


def _public_solver():
    from scipy.optimize import linear_sum_assignment
    return linear_sum_assignment


def _lsap_spec():
    import scipy
    finder = FileFinder(os.path.join(scipy.__path__[0], "optimize"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    return finder.find_spec("scipy.optimize._lsap")


class TestAssignmentSolver:
    """The solver loaded from scipy's extension file is the public
    ``scipy.optimize.linear_sum_assignment``, fed the same matrix."""

    def _same(self, cost):
        rows, cols = transport._assignment_solver()(cost)
        ref_rows, ref_cols = _public_solver()(cost)
        assert rows.dtype == ref_rows.dtype and cols.dtype == ref_cols.dtype
        np.testing.assert_array_equal(rows, ref_rows)
        np.testing.assert_array_equal(cols, ref_cols)

    def test_random_square(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            self._same(rng.standard_normal((128, 128)) ** 2)

    def test_tie_heavy_integer_costs(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            self._same(rng.integers(0, 3, size=(64, 64)).astype(float))
        self._same(np.zeros((16, 16)))

    def test_duplicated_rows(self):
        # A bootstrap resample repeats points, so the cost has equal rows.
        rng = np.random.default_rng(13)
        a = rng.standard_normal((48, 2))[rng.integers(0, 48, size=48)]
        b = rng.standard_normal((48, 2))
        self._same(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))

    def test_single_point(self):
        self._same(np.array([[2.5]]))

    def test_rectangular(self):
        rng = np.random.default_rng(14)
        cost = rng.standard_normal((7, 12))
        self._same(cost)
        self._same(cost.T)

    def test_fallback_gives_the_same_result(self, monkeypatch):
        class NoExtension:
            def __init__(self, path, *loaders):
                pass

            def find_spec(self, name):
                return None

        rng = np.random.default_rng(15)
        a, b = rng.standard_normal((40, 3)), rng.standard_normal((40, 3))
        loaded = w2_assignment(a, b)
        transport._assignment_solver.cache_clear()
        monkeypatch.setattr(transport, "FileFinder", NoExtension)
        try:
            assert transport._assignment_solver() is _public_solver()
            assert w2_assignment(a, b) == loaded
        finally:
            transport._assignment_solver.cache_clear()

    @pytest.mark.skipif(_lsap_spec() is None,
                        reason="this scipy has no scipy/optimize/_lsap extension file")
    def test_scoring_does_not_import_scipy_optimize(self):
        # A d = 2 curie-weiss / fourier-field converge scores its rows by
        # assignment; neither it nor w2_assignment runs scipy.optimize.
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from smallmass.config import parse_config
            from smallmass.harness import run_convergence
            from smallmass.transport import w2_assignment

            rng = np.random.default_rng(0)
            assert w2_assignment(rng.standard_normal((9, 2)),
                                 rng.standard_normal((9, 2))).method == "assignment"
            report = run_convergence(parse_config({
                "run.d": 2, "run.N": 4, "run.T": 0.2, "run.alpha": 1.0,
                "run.seed": 7, "run.h0": 0.05, "run.eps_grid": [0.2, 0.1],
                "run.replicas": 8, "run.samples_per_replica": 1,
                "potential.kind": "curie-weiss", "potential.lambda": 1.0,
                "potential.kappa": 0.5, "noise.kind": "fourier-field",
                "noise.gamma": 2.0, "noise.sigma": 1.0,
                "noise.omegas": [[1.0, 0.0], [0.0, 1.0]], "noise.a": [1.0, 0.5],
                "noise.b": [0.0, 0.5], "limit.modes": ["paper", "green-kubo"],
                "gk.reps": 8, "gk.horizon_fast": 10.0, "output.dir": "unused"}))
            assert [r["w2_method"] for r in report.rows] == ["assignment"] * 2
            print(sorted(m for m in sys.modules if m.startswith("scipy.optimize")))
        """)
        env = dict(os.environ, SMALLMASS_WORKERS="2")
        r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, env=env)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"
