"""Wasserstein-2 distances between equal-weight empirical measures.

Three routes, by size and dimension:

* ``w2_1d``          exact in one dimension via the monotone (sorted)
                     coupling;
* ``w2_assignment``  exact in any dimension for equal sample counts up to
                     512, via an optimal assignment (for uniform weights
                     the optimal plan is a permutation) on the (n, n)
                     squared-distance cost, built one coordinate at a
                     time in one buffer;
* ``w2_sliced``      scalable surrogate: root-mean of squared 1-d
                     distances over random projection directions, with a
                     Monte Carlo confidence halfwidth.  Sliced W2 lower
                     bounds W2, so it is reported with its method tag.

``w2_auto`` picks the route the way the experiment harness does and
records the choice in the result.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np

from . import rng as _rng
from .errors import UsageError

__all__ = ["W2Result", "w2_1d", "w2_assignment", "w2_auto", "w2_sliced"]

ASSIGNMENT_MAX_N = 512
SLICED_DEFAULT_PROJECTIONS = 128


@dataclass(frozen=True)
class W2Result:
    value: float
    method: str  # quantile-1d | assignment | sliced
    ci_halfwidth: float | None = None


def _points(x, name: str) -> np.ndarray:
    """A sample as an (n, d) array of finite points; a 1-d sample of n
    values is n points on the line."""
    x = np.asarray(x, dtype=float)
    if x.ndim > 2:
        raise UsageError(f"{name} needs (n,) or (n, d) samples, got shape {x.shape}")
    if x.ndim < 2:
        x = x.reshape(-1, 1)
    if not np.isfinite(x).all():
        raise UsageError(f"{name} needs finite samples")
    return x


@functools.cache
def _assignment_solver():
    """scipy's compiled rectangular assignment solver (Crouse 2016).

    The extension is loaded from its file, so ``scipy/optimize/__init__.py``
    (about half a second of imports) never runs; ``importlib.util.find_spec``
    would run it, because it imports the parent package.  Where scipy's
    layout has no such file, the public function is imported instead.
    """
    import scipy

    finder = FileFinder(os.path.join(scipy.__path__[0], "optimize"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.optimize._lsap")
    if spec is None:
        from scipy.optimize import linear_sum_assignment
        return linear_sum_assignment
    loaded = spec.name in sys.modules
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    if not loaded:
        # CPython enters a single-phase extension in sys.modules itself; left
        # there, a later scipy.optimize import would not bind it as _lsap.
        sys.modules.pop(spec.name, None)
    return module.linear_sum_assignment


def w2_1d(a, b) -> W2Result:
    """Exact 1-d W2 between equal-size samples (monotone coupling); each
    sample is (n,) or (n, 1)."""
    a, b = _points(a, "w2_1d"), _points(b, "w2_1d")
    if a.shape[1] != 1 or b.shape[1] != 1:
        raise UsageError(f"w2_1d needs samples on the line, (n,) or (n, 1), "
                         f"got shapes {a.shape} and {b.shape}")
    a, b = a[:, 0], b[:, 0]
    if a.size != b.size or a.size == 0:
        raise UsageError(
            f"w2_1d needs equal nonempty sample counts, got {a.size} and {b.size}"
        )
    diff = np.sort(a) - np.sort(b)
    return W2Result(value=float(np.sqrt(np.mean(diff * diff))), method="quantile-1d")


def w2_assignment(a, b) -> W2Result:
    """Exact W2 between equal-size point sets via optimal assignment.

    The (n, n) cost is built one coordinate at a time: the squared
    differences of coordinate 0, then each later coordinate's added in
    order, with one scratch buffer and no (n, n, d) temporary.  For d <= 7
    that is the order in which NumPy's contiguous ``.sum(axis=2)`` adds
    (one after another below 8 terms), so the cost, and W2, have the same
    bits as that sum; from d = 8 on NumPy sums pairwise, and the two may
    differ in the last bits.
    """
    a = _points(a, "w2_assignment")
    b = _points(b, "w2_assignment")
    if a.shape != b.shape or a.shape[0] == 0:
        raise UsageError(f"w2_assignment needs matching (n, d) inputs, got {a.shape} and {b.shape}")
    n = a.shape[0]
    if n > ASSIGNMENT_MAX_N:
        raise UsageError(
            f"n={n} exceeds the exact-assignment budget ({ASSIGNMENT_MAX_N}); use w2_sliced"
        )
    cost = np.subtract.outer(a[:, 0], b[:, 0])
    np.square(cost, out=cost)
    diff = np.empty_like(cost)
    for j in range(1, a.shape[1]):
        np.subtract.outer(a[:, j], b[:, j], out=diff)
        np.square(diff, out=diff)
        cost += diff
    rows, cols = _assignment_solver()(cost)
    return W2Result(value=float(np.sqrt(cost[rows, cols].mean())), method="assignment")


def w2_sliced(a, b, n_proj: int = SLICED_DEFAULT_PROJECTIONS, seed: int = 0) -> W2Result:
    """Sliced W2 between point sets of possibly different sizes.

    Each projection contributes the squared exact 1-d distance of the
    projected samples; unequal counts are first resampled to a common size
    through the quantile function.  The halfwidth is the 95% normal
    interval of the mean of squares, propagated to the root.
    """
    a = _points(a, "w2_sliced")
    b = _points(b, "w2_sliced")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise UsageError("w2_sliced needs nonempty samples")
    if a.shape[1] != b.shape[1]:
        raise UsageError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if n_proj < 1:
        raise UsageError("need at least one projection")
    d = a.shape[1]
    gen = _rng.stream(seed, _rng.SLICED)
    dirs = gen.standard_normal((n_proj, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pa = a @ dirs.T  # (n, P)
    pb = b @ dirs.T
    pa.sort(axis=0)
    pb.sort(axis=0)
    if a.shape[0] != b.shape[0]:
        k = min(a.shape[0], b.shape[0])
        pa = _quantile_resample(pa, k)
        pb = _quantile_resample(pb, k)
    sq = np.mean((pa - pb) ** 2, axis=0)  # per projection
    mean_sq = float(np.mean(sq))
    value = float(np.sqrt(mean_sq))
    if n_proj > 1 and value > 0.0:
        half_sq = 1.96 * float(np.std(sq, ddof=1)) / np.sqrt(n_proj)
        halfwidth = half_sq / (2.0 * value)
    else:
        halfwidth = 0.0
    return W2Result(value=value, method="sliced", ci_halfwidth=halfwidth)


def _quantile_resample(sorted_cols: np.ndarray, k: int) -> np.ndarray:
    """Resample sorted columns to k values at mid-quantiles (k+0.5)/k."""
    n = sorted_cols.shape[0]
    q = (np.arange(k) + 0.5) / k
    src = (np.arange(n) + 0.5) / n
    out = np.empty((k, sorted_cols.shape[1]))
    for j in range(sorted_cols.shape[1]):
        out[:, j] = np.interp(q, src, sorted_cols[:, j])
    return out


# The routing rule of ``w2_auto``, as recorded in report headers.
W2_AUTO_RULE = (f"d=1 quantile, unequal counts resampled to the smaller; equal counts "
                f"d>1 n<={ASSIGNMENT_MAX_N} assignment; else sliced "
                f"n_proj={SLICED_DEFAULT_PROJECTIONS}")


def w2_auto(a, b, seed: int = 0) -> W2Result:
    """Route to the exact or sliced solver the way the harness does.

    d = 1 -> quantile coupling; unequal counts are first resampled to the
    smaller count at mid-quantiles.  d > 1 with equal counts n <= 512 ->
    assignment; unequal counts, or larger n, -> sliced with the default
    projection count.  ``W2_AUTO_RULE`` states the rule for report metadata.
    """
    a = _points(a, "w2_auto")
    b = _points(b, "w2_auto")
    if a.shape[1] != b.shape[1]:
        raise UsageError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[1] == 1:
        k = min(a.shape[0], b.shape[0])
        if k and a.shape[0] != b.shape[0]:
            a, b = (_quantile_resample(np.sort(x, axis=0), k) for x in (a, b))
        return w2_1d(a[:, 0], b[:, 0])
    if a.shape[0] == b.shape[0] and a.shape[0] <= ASSIGNMENT_MAX_N:
        return w2_assignment(a, b)
    return w2_sliced(a, b, seed=seed)
