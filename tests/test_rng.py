import numpy as np
import pytest

from smallmass import rng as _rng
from smallmass.errors import UsageError


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


class TestNormalWindows:
    @pytest.mark.parametrize("budget", [None, 1, 6, 24, 40], ids=[
        "one-window", "below-one-step", "single-step", "partial-last", "uneven"])
    @pytest.mark.parametrize("shape", [(2,), (3, 2)])
    def test_equals_one_full_draw_per_generator(self, budget, shape, monkeypatch):
        # 3 generators over 10 steps; with shape (2,) a step is 6 doubles,
        # so the budgets give windows of 10, 1, 1, 4 and 6 steps
        if budget is not None:
            monkeypatch.setattr(_rng, "DRAW_BUDGET", budget)
        n, path = 10, (5, _rng.EPS_RUN, 2)
        want = np.stack([_rng.stream(*path, r).standard_normal((n,) + shape)
                         for r in range(3)], axis=1)
        gens = [_rng.stream(*path, r) for r in range(3)]
        got = [z.copy() for z in _rng.normal_windows(gens, n, shape)]
        assert len(got) == n
        assert all(z.shape == (3,) + shape for z in got)
        assert np.array_equal(np.stack(got), want)

    def test_generators_continue_after_the_windows(self):
        # the windows draw exactly n steps from each stream and no more
        gens = [_rng.stream(3, _rng.LIMIT_RUN, 0, r) for r in range(2)]
        for _ in _rng.normal_windows(gens, 7, (1,)):
            pass
        ref = [_rng.stream(3, _rng.LIMIT_RUN, 0, r) for r in range(2)]
        for gen, full in zip(gens, ref):
            full.standard_normal((7, 1))
            assert gen.standard_normal() == full.standard_normal()
