"""Unit tests for aggregate functions and window engines."""

import numpy as np
import pytest

from repro.core.aggregates import (
    COUNT,
    MAX,
    SUM,
    MaxWindowEngine,
    SumWindowEngine,
    aggregate_by_name,
    sliding_aggregate,
    sliding_max,
    sliding_sum,
)


class TestAggregateFunction:
    def test_sum_identity_and_combine(self):
        assert SUM.identity == 0.0
        assert SUM.combine(2.0, 3.0) == 5.0
        assert SUM.reduce(np.array([1.0, 2.0, 3.0])) == 6.0

    def test_max_identity_and_combine(self):
        assert MAX.identity == 0.0
        assert MAX.combine(2.0, 3.0) == 3.0
        assert MAX.reduce(np.array([1.0, 5.0, 3.0])) == 5.0

    def test_count_is_sum(self):
        assert COUNT is SUM

    def test_lookup_by_name(self):
        assert aggregate_by_name("sum") is SUM
        assert aggregate_by_name("max") is MAX
        assert aggregate_by_name("count") is SUM

    def test_lookup_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown aggregate"):
            aggregate_by_name("median")

    def test_make_engine_types(self):
        assert isinstance(SUM.make_engine(4), SumWindowEngine)
        assert isinstance(MAX.make_engine(4), MaxWindowEngine)

    def test_sliding_dispatch(self):
        data = np.array([1.0, 3.0, 2.0])
        assert list(SUM.sliding(data, 2)) == [4.0, 5.0]
        assert list(MAX.sliding(data, 2)) == [3.0, 3.0]


class TestSlidingKernels:
    def test_sliding_sum_basic(self):
        out = sliding_sum(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        assert list(out) == [3.0, 5.0, 7.0]

    def test_sliding_sum_full_window(self):
        out = sliding_sum(np.array([1.0, 2.0, 3.0]), 3)
        assert list(out) == [6.0]

    def test_sliding_sum_window_exceeds_data(self):
        assert sliding_sum(np.array([1.0]), 5).size == 0

    def test_sliding_sum_size_one(self):
        data = np.array([4.0, 0.0, 2.0])
        assert list(sliding_sum(data, 1)) == [4.0, 0.0, 2.0]

    def test_sliding_sum_invalid_size(self):
        with pytest.raises(ValueError):
            sliding_sum(np.array([1.0]), 0)

    def test_sliding_max_basic(self):
        out = sliding_max(np.array([1.0, 5.0, 2.0, 4.0]), 2)
        assert list(out) == [5.0, 5.0, 4.0]

    def test_sliding_max_size_one_copies(self):
        data = np.array([2.0, 1.0])
        out = sliding_max(data, 1)
        out[0] = 99.0
        assert data[0] == 2.0

    def test_sliding_max_window_exceeds_data(self):
        assert sliding_max(np.array([1.0]), 2).size == 0

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 7, 16, 31])
    def test_sliding_max_random_vs_bruteforce(self, rng, size):
        data = rng.uniform(0, 100, 200)
        got = sliding_max(data, size)
        want = [data[i : i + size].max() for i in range(data.size - size + 1)]
        np.testing.assert_allclose(got, want)

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 7, 16, 31])
    def test_sliding_sum_random_vs_bruteforce(self, rng, size):
        data = rng.uniform(0, 100, 200)
        got = sliding_sum(data, size)
        want = [data[i : i + size].sum() for i in range(data.size - size + 1)]
        np.testing.assert_allclose(got, want)

    def test_sliding_aggregate_unknown(self):
        from repro.core.aggregates import AggregateFunction

        weird = AggregateFunction("median", 0.0, min, np.median)
        with pytest.raises(ValueError, match="no sliding kernel"):
            sliding_aggregate(weird, np.array([1.0]), 1)


class TestSumWindowEngine:
    def test_single_append_values(self):
        engine = SumWindowEngine(history=8)
        engine.append(np.array([1.0, 2.0, 3.0, 4.0]))
        assert engine.length == 4
        assert engine.value(3, 2) == 7.0
        assert engine.value(3, 4) == 10.0

    def test_clamped_window_at_stream_start(self):
        engine = SumWindowEngine(history=8)
        engine.append(np.array([5.0, 1.0]))
        # A size-4 window ending at t=1 only covers t=0..1.
        assert engine.value(1, 4) == 6.0

    def test_values_vectorized_matches_scalar(self, rng):
        engine = SumWindowEngine(history=16)
        data = rng.uniform(0, 10, 50)
        engine.append(data)
        ends = np.array([3, 10, 20, 49])
        got = engine.values(ends, 7)
        want = [engine.value(int(t), 7) for t in ends]
        np.testing.assert_allclose(got, want)

    def test_values_grid_matches_scalar(self, rng):
        engine = SumWindowEngine(history=16)
        engine.append(rng.uniform(0, 10, 60))
        ends = np.array([20, 30, 40])
        sizes = np.array([1, 4, 9])
        grid = engine.values_grid(ends, sizes)
        assert grid.shape == (3, 3)
        for i, w in enumerate(sizes):
            for j, t in enumerate(ends):
                assert grid[i, j] == pytest.approx(engine.value(int(t), int(w)))

    @pytest.mark.parametrize(
        "chunks, ends",
        [
            # Untrimmed: windows clamped at index 0 (ends below size - 1)
            # mixed with full windows in one call.
            ((40,), [30, 0, 12, 2, 39, 5, 11, 23]),
            # Trimmed prefix buffer (offset > 0): full windows only.
            ((30, 30, 30), [89, 70, 84, 66, 75]),
        ],
    )
    def test_vectorized_queries_equal_scalar_bits(self, rng, chunks, ends):
        # Full-mantissa data, ends unsorted: both vectorized paths must
        # perform the scalar path's exact subtraction (==, not approx).
        engine = SumWindowEngine(history=24)
        for n in chunks:
            engine.append(rng.uniform(0, 10, n))
        ends = np.array(ends)
        sizes = np.array([1, 3, 7, 13, 24])
        grid = engine.values_grid(ends, sizes)
        assert grid.shape == (sizes.size, ends.size)
        out = np.empty(ends.size)
        for i, w in enumerate(sizes.tolist()):
            want = [engine.value(t, w) for t in ends.tolist()]
            assert engine.values(ends, w).tolist() == want
            assert engine.values(ends, w, out=out) is out
            assert out.tolist() == want
            assert grid[i].tolist() == want

    def test_vectorized_bounds_checks(self):
        # values() / values_grid() check their whole call's span and fail
        # as value() does: "history" for a window (clamped or not) that
        # starts behind the retained prefixes, "beyond" for an end past
        # the stream.
        engine = SumWindowEngine(history=4)
        for _ in range(20):
            engine.append(np.ones(10))
        with pytest.raises(IndexError, match="history"):
            engine.value(150, 5)
        with pytest.raises(IndexError, match="beyond"):
            engine.value(200, 1)
        ends = np.array([199, 150, 195])
        for bad_ends, sizes, match in (
            (ends, [5], "history"),
            (np.array([199, 5]), [10], "history"),
            (np.array([199, 195]), [1, 40], "history"),
            (np.array([199, 200]), [1], "beyond"),
            (np.array([200, 195]), [1, 2], "beyond"),
        ):
            with pytest.raises(IndexError, match=match):
                engine.values_grid(bad_ends, np.array(sizes))
            if len(sizes) == 1:
                with pytest.raises(IndexError, match=match):
                    engine.values(bad_ends, sizes[0])
                with pytest.raises(IndexError, match=match):
                    engine.values(
                        bad_ends, sizes[0], out=np.empty(bad_ends.size)
                    )

    def test_multi_chunk_equals_single_chunk(self, rng):
        # Queries must end within the most recent chunk (engine contract).
        data = rng.uniform(0, 5, 100)
        one = SumWindowEngine(history=20)
        one.append(data)
        many = SumWindowEngine(history=20)
        for lo in range(0, 100, 30):
            many.append(data[lo : lo + 30])
        for t in (90, 95, 99):
            for w in (1, 5, 20):
                assert many.value(t, w) == pytest.approx(one.value(t, w))

    def test_history_violation_raises(self):
        engine = SumWindowEngine(history=4)
        for _ in range(20):
            engine.append(np.ones(10))
        with pytest.raises(IndexError, match="history"):
            engine.value(50, 40)

    def test_end_beyond_stream_raises(self):
        engine = SumWindowEngine(history=4)
        engine.append(np.ones(3))
        with pytest.raises(IndexError, match="beyond"):
            engine.value(3, 1)

    def test_bad_size_raises(self):
        engine = SumWindowEngine(history=4)
        engine.append(np.ones(3))
        with pytest.raises(ValueError):
            engine.value(2, 0)

    def test_bad_history_raises(self):
        with pytest.raises(ValueError):
            SumWindowEngine(history=0)

    def test_append_requires_1d(self):
        engine = SumWindowEngine(history=4)
        with pytest.raises(ValueError, match="1-D"):
            engine.append(np.ones((2, 2)))

    def test_empty_values_query(self):
        engine = SumWindowEngine(history=4)
        engine.append(np.ones(3))
        assert engine.values(np.array([], dtype=np.int64), 2).size == 0


class TestMaxWindowEngine:
    def test_basic_values(self):
        engine = MaxWindowEngine(history=8)
        engine.append(np.array([1.0, 7.0, 3.0, 5.0]))
        assert engine.value(3, 2) == 5.0
        assert engine.value(3, 3) == 7.0
        assert engine.value(3, 4) == 7.0

    def test_clamped_window_at_stream_start(self):
        engine = MaxWindowEngine(history=8)
        engine.append(np.array([9.0, 1.0]))
        assert engine.value(1, 5) == 9.0

    def test_values_and_grid_match_scalar(self, rng):
        engine = MaxWindowEngine(history=32)
        engine.append(rng.uniform(0, 100, 80))
        ends = np.array([40, 50, 79])
        sizes = np.array([1, 3, 17])
        vals = engine.values(ends, 3)
        for j, t in enumerate(ends):
            assert vals[j] == engine.value(int(t), 3)
        grid = engine.values_grid(ends, sizes)
        for i, w in enumerate(sizes):
            for j, t in enumerate(ends):
                assert grid[i, j] == engine.value(int(t), int(w))

    def test_multi_chunk_equals_single_chunk(self, rng):
        data = rng.uniform(0, 5, 100)
        one = MaxWindowEngine(history=20)
        one.append(data)
        many = MaxWindowEngine(history=20)
        for lo in range(0, 100, 30):
            many.append(data[lo : lo + 30])
        for t in (92, 99):
            for w in (1, 7, 20):
                assert many.value(t, w) == one.value(t, w)

    def test_matches_bruteforce(self, rng):
        data = rng.uniform(0, 1000, 64)
        engine = MaxWindowEngine(history=64)
        engine.append(data)
        for t in range(0, 64, 5):
            for w in (1, 2, 3, 8, 13):
                start = max(0, t - w + 1)
                assert engine.value(t, w) == data[start : t + 1].max()

    def test_history_violation_raises(self):
        engine = MaxWindowEngine(history=4)
        for _ in range(10):
            engine.append(np.ones(10))
        with pytest.raises(IndexError, match="history"):
            engine.value(99, 60)
