"""Keyed random number streams.

Every stochastic component draws from a generator keyed by the run seed
plus a short integer path (purpose code and up to three indices such as
the eps-grid position and the block number).  Streams are therefore
independent, reproducible, and independent of scheduling.

The purpose fixes the bit generator.  The blocked sample purposes below
(``EPS_RUN``, ``LIMIT_RUN``, ``SELF_TEST``, ``UV_RUN``, ``MOMENT_RUN``)
draw from SFC64, seeded by ``SeedSequence(seed, spawn_key=(purpose,
*indices))``; SFC64 draws a normal in a little over half of Philox's
time, and these purposes draw nearly every normal of a run.  The others
(``GK_RUN``, ``PAIRED``, ``BOOT``, ``SLICED``, ``DIRECT``) draw from the
counter-based Philox, keyed by the seed and the packed path.  Which
purpose uses which generator is part of the reproducibility contract,
not a setting.

Replicas are keyed by blocks.  On the purposes in ``_BLOCKED`` (the eps,
limit, self-test, u/v and moment samples) one stream serves a block of
``BLOCK`` consecutive replicas: block b holds replicas BLOCK*b ... BLOCK*b
+ s - 1 and draws from ``stream(seed, *path, b)``, where s is BLOCK except
for the last block of a sample, which ends at the sample's last replica.
The other purposes keep one replica per stream (blocks of one).  Block b
draws, in this order, the initial positions of its s replicas in one
``(s, N, d)`` call, their stationary drivers in one ``(s,) + driver_shape``
call, and then its per-step normals step-major, ``(steps, s) + shape``;
``block_draws`` is the one function that carries out this order, for
every caller's own starts (the limit kernel draws no drivers, the driver
paths of ``diagnostics`` no positions), and ``sweep_draws`` carries it
out row after row for the eps rows that one sweep advances together.  A
block of one replica
therefore draws exactly what a per-replica stream drew.  A replica's
values depend on its block (its index and its size s), never on how the
blocks were cut into batches or spread over workers; the callers cut
batches on block boundaries.  ``BLOCK`` and ``_BLOCKED`` are
part of the reproducibility contract, not settings.

The kernels draw each step's normals through ``normal_windows`` (one
row) or ``sweep_draws`` (a stack of rows), a window of steps at a time
under one fixed budget of ``DRAW_BUDGET`` doubles (512 KiB), so the
memory they hold for normals does not grow with the horizon, the batch
size or the number of rows.  A window holds every row still running at
its first step and is laid out step-major: each block draws its ``(w, s)
+ shape`` piece in one call, w its own row's steps left in the window,
and step k is the contiguous ``(a, B) + shape`` slab of the a rows still
running (``(B,) + shape`` for one row).  A block's values are those of one
full-length draw, so neither the window size nor the other rows move a
byte.  Every normal drawn is used.
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
PROBE = 7  # reserved: nothing draws from it, and a code is never reused
SLICED = 8
PAIRED = 9
BOOT = 10

_IDX_BITS = 16
_IDX_MAX = (1 << _IDX_BITS) - 1
_SEED_MAX = (1 << 64) - 1

# Replicas per stream on the blocked purposes.
BLOCK = 64
_BLOCKED = frozenset({EPS_RUN, LIMIT_RUN, UV_RUN, MOMENT_RUN, SELF_TEST})

# Normals (float64) held at once by one ``normal_windows`` caller: 512 KiB.
# The window size moves no byte of any output, only the memory held.
DRAW_BUDGET = 1 << 16


def stream(seed: int, purpose: int, *indices: int) -> np.random.Generator:
    """Return the Generator for (seed, purpose, indices).

    ``seed`` must lie in [0, 2**64), ``purpose`` is one of the module-level
    codes, and at most three indices of at most 16 bits each are given.
    A purpose in ``_BLOCKED`` draws from SFC64 seeded by
    ``SeedSequence(seed, spawn_key=(purpose, *indices))``; any other from
    Philox, whose first key word is ``seed`` and whose second packs the
    purpose and the indices.
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
    if purpose in _BLOCKED:
        seq = np.random.SeedSequence(seed, spawn_key=(purpose, *indices))
        return np.random.Generator(np.random.SFC64(seq))
    key = np.array([seed, packed], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def block_size(purpose: int) -> int:
    """Replicas per stream under ``purpose``: ``BLOCK`` or one."""
    return BLOCK if purpose in _BLOCKED else 1


def block_streams(seed: int, path: tuple, replica_ids) -> list:
    """The ``(generator, s)`` of each block of ``replica_ids`` under ``path``.

    The ids are cut into groups of ``block_size(path[0])``, the last one
    possibly shorter; each group must be a whole block, consecutive ids
    from a multiple of the block size, and draws from
    ``stream(seed, *path, block index)``.  A short group is a short block,
    so only a sample's last replicas may end one.
    """
    size = block_size(path[0])
    ids = list(replica_ids)
    blocks = []
    for j in range(0, len(ids), size):
        group = ids[j : j + size]
        first = group[0]
        if first % size or group != list(range(first, first + len(group))):
            raise UsageError(f"replicas {group[0]}..{group[-1]} are not a block of "
                             f"{size} consecutive replicas from a multiple of {size}")
        blocks.append((stream(seed, *path, first // size), len(group)))
    return blocks


def _draw_starts(seed: int, path: tuple, blocks, starts) -> list:
    """Each start drawn block after block, in the order given, and stacked
    over the blocks to ``(B, ...)``.  With no blocks each start is drawn
    for an empty block on block 0's stream, so it keeps its shape and
    nothing is drawn."""
    drawn = [[start(gen, s) for start in starts]
             for gen, s in blocks or [(stream(seed, *path, 0), 0)]]
    return list(map(np.concatenate, zip(*drawn)))


def block_draws(seed: int, path: tuple, replica_ids, n: int, shape: tuple, *starts):
    """Open the blocks of ``replica_ids`` and draw them in contract order.

    Each ``start(gen, s)`` draws one start array of a block's s replicas,
    ``(s, ...)``; block after block, every start is drawn in the order
    given.  Returns each start stacked over the blocks to ``(B, ...)``,
    followed by ``normal_windows(blocks, n, shape)``, the iterator of the
    blocks' per-step normals.  With no replicas each start is drawn for an
    empty block on block 0's stream, so it keeps its shape and nothing is
    drawn.
    """
    blocks = block_streams(seed, path, replica_ids)
    return (*_draw_starts(seed, path, blocks, starts), normal_windows(blocks, n, shape))


def sweep_draws(seed: int, paths, replica_ids, steps, shape: tuple, *starts):
    """``block_draws`` for a stack of rows that share ``replica_ids``.

    Row j draws on ``paths[j]`` and runs ``steps[j]`` steps, which must not
    increase from row to row; ``replica_ids`` must not be empty.  Row after
    row, the blocks of each draw their starts as ``block_draws`` would.
    Returns each start stacked to ``(rows, B, ...)``, followed by the
    iterator of the rows' per-step normals: step k's array has shape
    ``(a, B) + shape``, where the first a rows are those still running at
    step k, and its slab j is what ``normal_windows`` over row j's blocks
    yields at step k.  So every row draws exactly what ``block_draws`` on
    its own path draws.
    """
    rows = [block_streams(seed, path, replica_ids) for path in paths]
    drawn = [_draw_starts(seed, path, blocks, starts) for path, blocks in zip(paths, rows)]
    return (*map(np.stack, zip(*drawn)), _windows(rows, steps, shape, stacked=True))


def normal_windows(blocks, n: int, shape: tuple):
    """Yield the normals of steps 0..n-1, drawn a window of steps at a time.

    ``blocks`` holds ``(generator, s)`` pairs, as from ``block_streams``.
    Step k's array has shape ``(B,) + shape`` with B the sum of the s; its
    rows follow the blocks in order, and row j of a block holds that
    block's k-th ``(s,) + shape`` draw.  The windows are those of
    ``sweep_draws`` for this one row.  With no blocks there is nothing to
    draw, and nothing is yielded.
    """
    if sum(s for _, s in blocks):
        yield from _windows([blocks], [n], shape, stacked=False)


def _windows(rows, steps, shape: tuple, stacked: bool):
    """The window loop of ``normal_windows`` and ``sweep_draws``: ``rows``
    holds each row's blocks, every row with the same B replicas, and row j
    runs ``steps[j]`` steps, which must not increase.

    Each window holds every row still running at its first step.  Its
    width W is the most steps that fit ``DRAW_BUDGET`` doubles (at least
    one), and every block of such a row draws its ``(w, s) + shape``
    piece, w the row's steps left in the window, in one call: that
    continues the block's stream exactly as one ``(steps, s) + shape``
    draw would, so the values depend on neither W nor the other rows.
    With more than one block in the window a piece is drawn into a
    scratch array and copied into the step-major window.  Step k is the
    view ``window[k, :a]`` (``window[k, 0]`` unstacked), contiguous; it is
    overwritten when the next window is drawn, and its caller may
    overwrite it too.  Every normal drawn is used.
    """
    B = sum(s for _, s in rows[0])
    size = math.prod(shape)
    per_row = B * size
    n = steps[0]
    # The first window is the largest: it holds the most rows, and a later
    # one holds at most DRAW_BUDGET doubles or one step of its rows.
    buf = np.empty(min(n * len(rows) * per_row, max(DRAW_BUDGET, len(rows) * per_row)))
    scratch = np.empty(0)
    a = len(rows)
    start = 0
    while start < n:
        while steps[a - 1] <= start:
            a -= 1
        w = max(1, min(n - start, DRAW_BUDGET // (a * per_row)))
        window = buf[: w * a * per_row].reshape((w, a, B) + shape)
        if a == 1 and len(rows[0]) == 1:
            rows[0][0][0].standard_normal(out=window[:w, 0])
        else:
            for j, blocks in enumerate(rows[:a]):
                wj = min(w, steps[j] - start)
                row = 0
                for gen, s in blocks:
                    if scratch.size < wj * s * size:
                        scratch = np.empty(w * s * size)
                    piece = scratch[: wj * s * size].reshape((wj, s) + shape)
                    gen.standard_normal(out=piece)
                    window[:wj, j, row : row + s] = piece
                    row += s
        # Runs of steps between two rows' last steps share one active count.
        k, end = start, start + w
        while k < end:
            while steps[a - 1] <= k:
                a -= 1
            stop = min(end, steps[a - 1])
            yield from (window[k - start : stop - start, :a] if stacked
                        else window[k - start : stop - start, 0])
            k = stop
        start = end
