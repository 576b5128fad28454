import numpy as np
import pytest

from smallmass import rng as _rng
from smallmass.errors import UsageError

from conftest import BLOCK


def _key(gen):
    return gen.bit_generator.state["state"]["key"].tolist()


def _reference_key(seed, purpose, *indices):
    """The key as packed with np.uint64 arithmetic."""
    packed = np.uint64(purpose) << np.uint64(48)
    for slot, idx in enumerate(indices):
        packed |= np.uint64(idx) << np.uint64(48 - 16 * (slot + 1))
    return [int(np.uint64(seed)), int(packed)]


class TestStreamKey:
    def test_extreme_key(self):
        gen = _rng.stream(2**64 - 1, 255, 65535, 3, 7)
        assert _key(gen) == [18446744073709551615, 72057589743157255]

    @pytest.mark.parametrize("path", [
        (0, _rng.DIRECT), (7, _rng.EPS_RUN, 3, 511), (2025, _rng.UV_RUN, 0, 1023),
        (2**63 + 5, _rng.BOOT, 65535), (1, _rng.PAIRED, 1, 2, 3), (12, _rng.PROBE),
    ])
    def test_key_equals_the_uint64_packing(self, path):
        assert _key(_rng.stream(*path)) == _reference_key(*path)

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**70)])
    def test_seed_out_of_range_names_the_seed(self, seed):
        with pytest.raises(UsageError, match=f"seed out of range.*{seed}"):
            _rng.stream(seed, _rng.DIRECT)

    def test_index_and_purpose_range(self):
        with pytest.raises(UsageError, match="index out of range"):
            _rng.stream(0, _rng.DIRECT, 65536)
        with pytest.raises(UsageError, match="purpose"):
            _rng.stream(0, 256)
        with pytest.raises(UsageError, match="at most three"):
            _rng.stream(0, _rng.DIRECT, 1, 2, 3, 4)


class TestBlocks:
    def test_block_size_is_part_of_the_contract(self):
        assert _rng.BLOCK == BLOCK == 64
        for purpose in (_rng.EPS_RUN, _rng.LIMIT_RUN, _rng.SELF_TEST, _rng.UV_RUN,
                        _rng.MOMENT_RUN):
            assert _rng.block_size(purpose) == 64
        for purpose in (_rng.GK_RUN, _rng.PAIRED, _rng.DIRECT, _rng.BOOT):
            assert _rng.block_size(purpose) == 1

    def test_blocks_are_keyed_by_block_index(self):
        # 150 replicas: blocks 0 and 1 of 64, block 2 of the last 22
        blocks = _rng.block_streams(7, (_rng.EPS_RUN, 3), range(64, 150))
        assert [s for _, s in blocks] == [64, 22]
        assert [_key(g) for g, _ in blocks] == [_reference_key(7, _rng.EPS_RUN, 3, b)
                                                for b in (1, 2)]

    def test_block_of_one_is_the_replica_stream(self):
        # blocks of one key each replica by its own index, as before blocks
        blocks = _rng.block_streams(5, (_rng.GK_RUN,), [4, 0, 9])
        assert [s for _, s in blocks] == [1, 1, 1]
        assert [_key(g) for g, _ in blocks] == [_reference_key(5, _rng.GK_RUN, r)
                                                for r in (4, 0, 9)]

    @pytest.mark.parametrize("ids", [[3], range(1, 65), [0, 2], list(range(10)) + [64]],
                             ids=["off-boundary", "shifted", "gap", "short-then-more"])
    def test_ids_that_are_not_whole_blocks_are_rejected(self, ids):
        with pytest.raises(UsageError, match="not a block"):
            _rng.block_streams(0, (_rng.LIMIT_RUN, 0), ids)


class TestNormalWindows:
    @pytest.mark.parametrize("budget", [None, 1, 12, 48, 80], ids=[
        "one-window", "below-one-step", "single-step", "partial-last", "uneven"])
    @pytest.mark.parametrize("shape", [(2,), (3, 2)])
    def test_equals_one_full_draw_per_generator(self, budget, shape, monkeypatch):
        # blocks of 2, 1 and 3 replicas over 10 steps; with shape (2,) a
        # step is 12 doubles, so the budgets give windows of 10, 1, 1, 4
        # and 6 steps.  Each step is one contiguous slab, block after block.
        if budget is not None:
            monkeypatch.setattr(_rng, "DRAW_BUDGET", budget)
        n, path, sizes = 10, (5, _rng.EPS_RUN, 2), (2, 1, 3)
        want = np.concatenate([_rng.stream(*path, b).standard_normal((n, s) + shape)
                               for b, s in enumerate(sizes)], axis=1)
        blocks = [(_rng.stream(*path, b), s) for b, s in enumerate(sizes)]
        got = []
        for z in _rng.normal_windows(blocks, n, shape):
            assert z.shape == (6,) + shape and z.flags.c_contiguous
            got.append(z.copy())
        assert len(got) == n
        assert np.array_equal(np.stack(got), want)

    def test_block_of_one_draws_the_replica_stream(self):
        # one replica per block: each stream gives its (n,) + shape draw
        gens = [(_rng.stream(3, _rng.GK_RUN, r), 1) for r in range(3)]
        got = np.stack([z.copy() for z in _rng.normal_windows(gens, 7, (2,))])
        want = np.stack([_rng.stream(3, _rng.GK_RUN, r).standard_normal((7, 2))
                         for r in range(3)], axis=1)
        assert np.array_equal(got, want)

    def test_no_blocks_yield_nothing(self):
        assert list(_rng.normal_windows([], 7, (3, 2))) == []

    def test_generators_continue_after_the_windows(self):
        # the windows draw exactly n steps from each stream and no more
        blocks = [(_rng.stream(3, _rng.LIMIT_RUN, 0, b), s) for b, s in enumerate((4, 1))]
        for _ in _rng.normal_windows(blocks, 7, (1,)):
            pass
        for (gen, s), b in zip(blocks, range(2)):
            full = _rng.stream(3, _rng.LIMIT_RUN, 0, b)
            full.standard_normal((7, s, 1))
            assert gen.standard_normal() == full.standard_normal()
