"""Counter-based random number streams.

Every stochastic component draws from a Philox generator keyed by the run
seed plus a short integer path (purpose code and up to three indices such
as the eps-grid position and the replica number).  Streams are therefore
independent, reproducible, and independent of scheduling: a replica's draws
do not depend on how many workers or batches the run was split into.

The kernels draw each step's normals through ``normal_windows``, a window
of steps at a time under one fixed byte budget, so the memory they hold
for normals does not grow with the horizon or the batch size.  The window
is laid out one row per stream: each generator draws its steps straight
into its own contiguous row, and step k is the strided view of every
row's entry k.  Every normal drawn is used.
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
_SEED_MAX = (1 << 64) - 1

# Normals (float64) held at once by one ``normal_windows`` caller: 2 MB.
DRAW_BUDGET = 1 << 18


def stream(seed: int, purpose: int, *indices: int) -> np.random.Generator:
    """Return the Generator for (seed, purpose, indices).

    ``seed`` is the first Philox key word, so it must lie in [0, 2**64).
    ``purpose`` is one of the module-level codes; up to three indices of at
    most 16 bits each are packed into the second Philox key word.
    """
    if not 0 <= seed <= _SEED_MAX:
        raise UsageError(f"seed out of range [0, 2**64): {seed}")
    if not 0 <= purpose < 256:
        raise UsageError(f"purpose code out of range: {purpose}")
    if len(indices) > 3:
        raise UsageError("at most three stream indices are supported")
    packed = purpose << 48
    for slot, idx in enumerate(indices):
        if not 0 <= idx <= _IDX_MAX:
            raise UsageError(f"stream index out of range: {idx}")
        packed |= idx << (48 - _IDX_BITS * (slot + 1))
    key = np.array([seed, packed], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def normal_windows(gens, n: int, shape: tuple):
    """Yield the normals of steps 0..n-1, drawn a window of steps at a time.

    Step k's array has shape ``(len(gens),) + shape``; row j holds
    generator j's k-th ``shape`` draw.  Each window, every generator in
    turn draws its ``(W,) + shape`` block straight into its own contiguous
    row of one ``(len(gens), W) + shape`` buffer, which continues its stream
    exactly as one ``(n,) + shape`` draw would, so the values do not depend
    on W.  W is the most steps that fit ``DRAW_BUDGET`` doubles.  Step k is
    the view ``rows[:, k]``, strided by the row length; it is overwritten
    when the next window is drawn.
    """
    width = max(1, min(n, DRAW_BUDGET // (len(gens) * math.prod(shape))))
    rows = np.empty((len(gens), width) + shape)
    for start in range(0, n, width):
        w = min(width, n - start)
        for j, gen in enumerate(gens):
            gen.standard_normal(out=rows[j, :w])
        yield from rows.swapaxes(0, 1)[:w]
