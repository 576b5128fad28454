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
paths of ``diagnostics`` no positions).  A block of one replica
therefore draws exactly what a per-replica stream drew.  A replica's
values depend on its block (its index and its size s), never on how the
blocks were cut into batches or spread over workers; the callers cut
batches on block boundaries.  ``BLOCK`` and ``_BLOCKED`` are
part of the reproducibility contract, not settings.

The kernels draw each step's normals through ``normal_windows``, a window
of steps at a time under one fixed budget of ``DRAW_BUDGET`` doubles
(512 KiB), so the memory they hold for normals does not grow with the
horizon or the batch size.  The window is laid out step-major: each block
draws its ``(W, s) + shape`` piece in one call, and step k is the
contiguous ``(B,) + shape`` slab of every block's replicas.  Every normal
drawn is used.
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
    drawn = [[start(gen, s) for start in starts]
             for gen, s in blocks or [(stream(seed, *path, 0), 0)]]
    return (*map(np.concatenate, zip(*drawn)), normal_windows(blocks, n, shape))


def normal_windows(blocks, n: int, shape: tuple):
    """Yield the normals of steps 0..n-1, drawn a window of steps at a time.

    ``blocks`` holds ``(generator, s)`` pairs, as from ``block_streams``.
    Step k's array has shape ``(B,) + shape`` with B the sum of the s; its
    rows follow the blocks in order, and row j of a block holds that
    block's k-th ``(s,) + shape`` draw.  Each window, every block draws its
    ``(W, s) + shape`` piece in one call, which continues its stream
    exactly as one ``(n, s) + shape`` draw would, so the values do not
    depend on W.  W is the most steps that fit ``DRAW_BUDGET`` doubles.
    With several blocks a piece is drawn into one block's scratch and
    copied into the step-major window.  Step k is the contiguous view
    ``window[k]``; it is overwritten when the next window is drawn.  With
    no blocks there is nothing to draw, and nothing is yielded.
    """
    B = sum(s for _, s in blocks)
    if B == 0:
        return
    size = math.prod(shape)
    width = max(1, min(n, DRAW_BUDGET // (B * size)))
    window = np.empty((width, B) + shape)
    if len(blocks) > 1:
        scratch = np.empty(width * max(s for _, s in blocks) * size)
    for start in range(0, n, width):
        w = min(width, n - start)
        if len(blocks) == 1:
            blocks[0][0].standard_normal(out=window[:w])
        else:
            row = 0
            for gen, s in blocks:
                piece = scratch[: w * s * size].reshape((w, s) + shape)
                gen.standard_normal(out=piece)
                window[:w, row : row + s] = piece
                row += s
        yield from window[:w]
