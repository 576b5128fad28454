import numpy as np
import pytest

from smallmass import rng as _rng
from smallmass.errors import UsageError

from conftest import BLOCK

_BLOCKED = (_rng.EPS_RUN, _rng.LIMIT_RUN, _rng.SELF_TEST, _rng.UV_RUN, _rng.MOMENT_RUN)
_PHILOX = (_rng.GK_RUN, _rng.PAIRED, _rng.BOOT, _rng.SLICED, _rng.DIRECT)


def _key(gen):
    return gen.bit_generator.state["state"]["key"].tolist()


def _reference_key(seed, purpose, *indices):
    """The key as packed with np.uint64 arithmetic."""
    packed = np.uint64(purpose) << np.uint64(48)
    for slot, idx in enumerate(indices):
        packed |= np.uint64(idx) << np.uint64(48 - 16 * (slot + 1))
    return [int(np.uint64(seed)), int(packed)]


def _sfc64_state(gen):
    state = gen.bit_generator.state
    return state["bit_generator"], state["state"]["state"].tolist(), state["has_uint32"]


def _reference_sfc64_state(seed, purpose, *indices):
    """The state of SFC64 seeded by the seed and the path as spawn key."""
    seq = np.random.SeedSequence(seed, spawn_key=(purpose, *indices))
    return _sfc64_state(np.random.Generator(np.random.SFC64(seq)))


class TestStreamKey:
    def test_extreme_key(self):
        gen = _rng.stream(2**64 - 1, 255, 65535, 3, 7)
        assert _key(gen) == [18446744073709551615, 72057589743157255]

    @pytest.mark.parametrize("path", [
        (0, _rng.DIRECT), (7, _rng.SLICED, 3, 511), (2025, _rng.GK_RUN, 0, 1023),
        (2**63 + 5, _rng.BOOT, 65535), (1, _rng.PAIRED, 1, 2, 3), (12, _rng.PROBE),
    ])
    def test_key_equals_the_uint64_packing(self, path):
        # the purposes outside the blocked samples stay on Philox
        gen = _rng.stream(*path)
        assert type(gen.bit_generator) is np.random.Philox
        assert _key(gen) == _reference_key(*path)

    @pytest.mark.parametrize("path", [
        (0, _rng.EPS_RUN), (7, _rng.EPS_RUN, 3, 511), (2025, _rng.UV_RUN, 0, 1023),
        (2**64 - 1, _rng.LIMIT_RUN, 65535, 65535, 65535), (1, _rng.SELF_TEST, 1, 2),
        (12, _rng.MOMENT_RUN, 0, 4),
    ])
    def test_blocked_state_equals_the_seed_sequence(self, path):
        assert _sfc64_state(_rng.stream(*path)) == _reference_sfc64_state(*path)

    def test_generator_follows_the_purpose(self):
        for purpose in range(256):
            kind = type(_rng.stream(3, purpose, 1).bit_generator)
            assert kind is (np.random.SFC64 if purpose in _BLOCKED else np.random.Philox)

    def test_golden_raw_values(self):
        # Pins the stream contract across numpy versions: a change in how
        # SeedSequence seeds SFC64, or in either bit generator, moves these.
        assert _rng.stream(7, _rng.EPS_RUN, 3, 1).bit_generator.random_raw(4).tolist() == [
            6347342661492781958, 11910372520452914051, 2313790771650234264,
            8080665622071785612]
        assert _rng.stream(7, _rng.GK_RUN, 3).bit_generator.random_raw(4).tolist() == [
            18443496845944543486, 14412927028098099672, 12138278063109048932,
            6662020849161961615]

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

    @pytest.mark.parametrize("purpose", [_rng.EPS_RUN, _rng.GK_RUN], ids=["sfc64", "philox"])
    @pytest.mark.parametrize("seed, indices, match", [
        (-1, (0,), "seed out of range"), (2**64, (0,), "seed out of range"),
        (0, (65536,), "index out of range"), (0, (-1,), "index out of range"),
        (0, (1, 2, 3, 4), "at most three"),
    ], ids=["seed-below", "seed-above", "index-above", "index-below", "four-indices"])
    def test_both_generators_reject_the_same_path(self, purpose, seed, indices, match):
        with pytest.raises(UsageError, match=match):
            _rng.stream(seed, purpose, *indices)

    @pytest.mark.parametrize("purpose", [-1, 2**64])
    def test_purpose_out_of_range_is_rejected_before_a_generator_is_chosen(self, purpose):
        with pytest.raises(UsageError, match="purpose code out of range"):
            _rng.stream(0, purpose, 0)


class TestBlocks:
    def test_block_size_is_part_of_the_contract(self):
        assert _rng.BLOCK == BLOCK == 64
        for purpose in _BLOCKED:
            assert _rng.block_size(purpose) == 64
        for purpose in _PHILOX:
            assert _rng.block_size(purpose) == 1

    def test_blocks_are_keyed_by_block_index(self):
        # 150 replicas: blocks 0 and 1 of 64, block 2 of the last 22
        blocks = _rng.block_streams(7, (_rng.EPS_RUN, 3), range(64, 150))
        assert [s for _, s in blocks] == [64, 22]
        assert [_sfc64_state(g) for g, _ in blocks] == [
            _reference_sfc64_state(7, _rng.EPS_RUN, 3, b) for b in (1, 2)]

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


class TestWindows:
    @pytest.mark.parametrize("budget", [None, 1, 12, 48, 80], ids=[
        "one-window", "below-one-step", "single-step", "partial-last", "uneven"])
    @pytest.mark.parametrize("shape", [(2,), (3, 2)])
    def test_equals_one_full_draw_per_generator(self, budget, shape, monkeypatch):
        # one row of blocks of 2, 1 and 3 replicas over 10 steps; with shape
        # (2,) a step is 12 doubles, so the budgets give windows of 10, 1,
        # 1, 4 and 6 steps.  Each step is one contiguous slab, block after
        # block.
        if budget is not None:
            monkeypatch.setattr(_rng, "DRAW_BUDGET", budget)
        n, path, sizes = 10, (5, _rng.EPS_RUN, 2), (2, 1, 3)
        want = np.concatenate([_rng.stream(*path, b).standard_normal((n, s) + shape)
                               for b, s in enumerate(sizes)], axis=1)
        blocks = [(_rng.stream(*path, b), s) for b, s in enumerate(sizes)]
        got = []
        for z in _rng._windows([blocks], [n], shape):
            assert z.shape == (1, 6) + shape and z.flags.c_contiguous
            got.append(z[0].copy())
        assert len(got) == n
        assert np.array_equal(np.stack(got), want)

    def test_block_of_one_draws_the_replica_stream(self):
        # one replica per block: each stream gives its (n,) + shape draw
        gens = [(_rng.stream(3, _rng.GK_RUN, r), 1) for r in range(3)]
        got = np.stack([z[0].copy() for z in _rng._windows([gens], [7], (2,))])
        want = np.stack([_rng.stream(3, _rng.GK_RUN, r).standard_normal((7, 2))
                         for r in range(3)], axis=1)
        assert np.array_equal(got, want)

    def test_no_blocks_yield_nothing(self):
        assert list(_rng._windows([[]], [7], (3, 2))) == []
        assert list(_rng._windows([[], []], [7, 4], (3, 2))) == []

    def test_generators_continue_after_the_windows(self):
        # the windows draw exactly n steps from each stream and no more
        blocks = [(_rng.stream(3, _rng.LIMIT_RUN, 0, b), s) for b, s in enumerate((4, 1))]
        for _ in _rng._windows([blocks], [7], (1,)):
            pass
        for (gen, s), b in zip(blocks, range(2)):
            full = _rng.stream(3, _rng.LIMIT_RUN, 0, b)
            full.standard_normal((7, s, 1))
            assert gen.standard_normal() == full.standard_normal()


class TestSweepDraws:
    @pytest.mark.parametrize("budget", [None, 1, 12, 400, 1000], ids=[
        "one-window", "below-one-step", "single-step", "widening", "uneven"])
    def test_each_row_draws_what_it_draws_alone(self, budget, monkeypatch):
        # three rows of 10, 7 and 3 steps over 66 replicas, blocks of 64
        # and 2, shape (2,): step k holds the rows still running, each
        # row's slab is its own blocks' k-th draw, and every block draws its
        # row's steps and no more, whatever the window.  A step of three
        # rows is 396 doubles, of one row 132, so the budget of 400 gives
        # windows of 1, 1 and 3 steps as the rows retire.
        if budget is not None:
            monkeypatch.setattr(_rng, "DRAW_BUDGET", budget)
        steps, sizes, shape = [10, 7, 3], (64, 2), (2,)
        paths = [(_rng.EPS_RUN, j) for j in range(3)]
        opened = []
        stream = _rng.stream

        def keep(*args):
            opened.append(stream(*args))
            return opened[-1]

        monkeypatch.setattr(_rng, "stream", keep)
        (windows,) = _rng.sweep_draws(5, paths, range(66), steps, shape)
        got = [z.copy() for z in windows]
        assert [z.shape for z in got] == [(sum(k < n for n in steps), 66) + shape
                                          for k in range(10)]
        assert all(z.flags.c_contiguous for z in got)
        for j, n in enumerate(steps):
            want = np.concatenate([stream(5, *paths[j], b).standard_normal((n, s) + shape)
                                   for b, s in enumerate(sizes)], axis=1)
            assert np.array_equal(np.stack([z[j] for z in got[:n]]), want)
            for b, s in enumerate(sizes):
                full = stream(5, *paths[j], b)
                full.standard_normal((n, s) + shape)
                assert opened[2 * j + b].standard_normal() == full.standard_normal()

    def test_rows_draw_what_each_draws_alone(self):
        paths = [(_rng.EPS_RUN, j) for j in range(3)]
        X, xi, steps = _rng.sweep_draws(9, paths, range(70), [6, 4, 4], (2, 4),
                                        _positions, _drivers)
        got = [z.copy() for z in steps]
        assert X.shape == (3, 70, 3, 2) and xi.shape == (3, 70, 2, 4)
        for j, (path, n) in enumerate(zip(paths, [6, 4, 4])):
            (want_X,), (want_xi,), want_steps = _rng.sweep_draws(9, [path], range(70), [n],
                                                                 (2, 4), _positions, _drivers)
            assert np.array_equal(X[j], want_X) and np.array_equal(xi[j], want_xi)
            assert np.array_equal(np.stack([z[j] for z in got[:n]]),
                                  np.stack([z[0].copy() for z in want_steps]))


def _positions(gen, s):
    return gen.standard_normal((s, 3, 2))


def _drivers(gen, s):
    return 2.0 * gen.standard_normal((s, 2, 4))


class TestOneRow:
    """``sweep_draws`` over one path, as the limit kernel and the driver
    paths call it."""

    @staticmethod
    def _reference(seed, path, ids, n, shape):
        """The per-block loop the kernels ran before: each block draws its
        positions, then its drivers, into preallocated rows, and the steps
        come from the windows over the same blocks."""
        blocks = _rng.block_streams(seed, path, ids)
        X, xi, row = np.empty((len(ids), 3, 2)), np.empty((len(ids), 2, 4)), 0
        for gen, s in blocks:
            X[row : row + s] = _positions(gen, s)
            xi[row : row + s] = _drivers(gen, s)
            row += s
        return X, xi, [z[0].copy() for z in _rng._windows([blocks], [n], shape)]

    @pytest.mark.parametrize("path, ids", [
        ((_rng.EPS_RUN, 3), range(150)), ((_rng.EPS_RUN, 3), range(64, 150)),
        ((_rng.LIMIT_RUN, 0), range(64)), ((_rng.GK_RUN,), range(5)),
        ((_rng.GK_RUN,), [4, 0, 9]),
    ], ids=["short-last-block", "from-block-1", "one-whole-block", "blocks-of-one",
            "blocks-of-one-unordered"])
    def test_equals_the_per_block_loop(self, path, ids):
        (X,), (xi,), steps = _rng.sweep_draws(9, [path], ids, [6], (2, 4),
                                              _positions, _drivers)
        want_X, want_xi, want_steps = self._reference(9, path, list(ids), 6, (2, 4))
        assert X.shape == (len(ids), 3, 2) and xi.shape == (len(ids), 2, 4)
        assert np.array_equal(X, want_X) and np.array_equal(xi, want_xi)
        got = [z[0].copy() for z in steps]
        assert len(got) == 6
        assert np.array_equal(np.stack(got), np.stack(want_steps))

    def test_block_of_one_draws_the_replica_stream(self):
        # under GK_RUN replica r draws its start and then its steps from
        # (seed, GK_RUN, r) alone
        (xi,), steps = _rng.sweep_draws(3, [(_rng.GK_RUN,)], range(3), [4], (2,),
                                        lambda gen, s: gen.standard_normal((s, 2)))
        got = np.stack([z[0].copy() for z in steps], axis=1)
        for r in range(3):
            gen = _rng.stream(3, _rng.GK_RUN, r)
            assert np.array_equal(xi[r], gen.standard_normal((1, 2))[0])
            assert np.array_equal(got[r], gen.standard_normal((4, 1, 2))[:, 0])

    def test_starts_are_drawn_block_by_block_in_order(self):
        calls = []

        def start(tag):
            def draw(gen, s):
                calls.append((tag, s))
                return np.full((s, 1), float(len(calls)))
            return draw

        (a,), (b,), steps = _rng.sweep_draws(0, [(_rng.UV_RUN, 0)], range(130), [1], (1,),
                                             start("a"), start("b"))
        assert calls == [("a", 64), ("b", 64), ("a", 64), ("b", 64), ("a", 2), ("b", 2)]
        assert np.array_equal(a[:, 0], np.repeat([1.0, 3.0, 5.0], [64, 64, 2]))
        assert np.array_equal(b[:, 0], np.repeat([2.0, 4.0, 6.0], [64, 64, 2]))
        assert len(list(steps)) == 1

    @pytest.mark.parametrize("path", [(_rng.LIMIT_RUN, 2), (_rng.GK_RUN,)])
    def test_no_replicas_keep_the_start_shapes_and_draw_nothing(self, path):
        X, xi, steps = _rng.sweep_draws(1, [path], [], [5], (2, 4), _positions, _drivers)
        assert X.shape == (1, 0, 3, 2) and xi.shape == (1, 0, 2, 4)
        assert list(steps) == []
