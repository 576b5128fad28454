"""Counter-based random number streams.

Every stochastic component draws from a Philox generator keyed by the run
seed plus a short integer path (purpose code and up to three indices such
as the eps-grid position and the replica number).  Streams are therefore
independent, reproducible, and independent of scheduling: a replica's draws
do not depend on how many workers or batches the run was split into.

The kernels draw each step's normals through ``normal_windows``, a window
of steps at a time under one fixed byte budget, so the memory they hold
for normals does not grow with the horizon or the batch size.  Each
generator draws whole per-step blocks and every normal drawn is used.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError

# Purpose codes for the stream path.  Values are part of the on-disk
# reproducibility contract: changing them changes every simulation output.
DIRECT = 0
EPS_RUN = 1
LIMIT_RUN = 2
GK_RUN = 3
UV_RUN = 4
MOMENT_RUN = 5
SELF_TEST = 6
PROBE = 7
SLICED = 8
PAIRED = 9
BOOT = 10

_IDX_BITS = 16
_IDX_MAX = (1 << _IDX_BITS) - 1

# Normals (float64) held at once by one ``normal_windows`` caller: 2 MB.
DRAW_BUDGET = 1 << 18


def stream(seed: int, purpose: int, *indices: int) -> np.random.Generator:
    """Return the Generator for (seed, purpose, indices).

    ``purpose`` is one of the module-level codes; up to three indices of at
    most 16 bits each are packed into the second Philox key word.
    """
    if not 0 <= purpose < 256:
        raise UsageError(f"purpose code out of range: {purpose}")
    if len(indices) > 3:
        raise UsageError("at most three stream indices are supported")
    packed = np.uint64(purpose) << np.uint64(48)
    for slot, idx in enumerate(indices):
        if not 0 <= idx <= _IDX_MAX:
            raise UsageError(f"stream index out of range: {idx}")
        packed |= np.uint64(idx) << np.uint64(48 - _IDX_BITS * (slot + 1))
    key = np.array([np.uint64(seed) & np.uint64(0xFFFFFFFFFFFFFFFF), packed],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def normal_windows(gens, n: int, shape: tuple):
    """Yield the normals of steps 0..n-1, drawn a window of steps at a time.

    Step k's array has shape ``(len(gens),) + shape``; row j holds
    generator j's k-th ``shape`` draw.  Each window, every generator in
    turn draws a ``(W,) + shape`` block, which continues its stream exactly
    as one ``(n,) + shape`` draw would, so the values do not depend on W.
    W is the most steps that fit ``DRAW_BUDGET`` doubles.  A yielded array
    is overwritten when the next window is drawn.
    """
    step = (len(gens),) + shape
    width = max(1, min(n, DRAW_BUDGET // math.prod(step)))
    window = np.empty((width,) + step)
    for start in range(0, n, width):
        w = min(width, n - start)
        for j, gen in enumerate(gens):
            window[:w, j] = gen.standard_normal((w,) + shape)
        yield from window[:w]
