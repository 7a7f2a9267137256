"""Tests for the multi-stream detector manager."""

import numpy as np
import pytest

from repro.core.chunked import ChunkedDetector
from repro.core.multi import MultiStreamDetector
from repro.core.naive import naive_detect
from repro.core.sbt import shifted_binary_tree
from repro.core.search import SearchParams
from repro.core.thresholds import NormalThresholds, all_sizes

FAST = SearchParams(
    max_same_size_states=64, max_final_states=400, max_expansions=1500
)


@pytest.fixture
def streams(rng):
    return {
        "a": rng.poisson(5.0, 3000).astype(float),
        "b": rng.poisson(9.0, 3000).astype(float),
        "c": rng.exponential(4.0, 3000),
    }


class TestShared:
    def test_detects_each_stream_correctly(self, streams, rng):
        train = rng.poisson(7.0, 2000).astype(float)
        th = NormalThresholds.from_data(train, 1e-3, all_sizes(16))
        fleet = MultiStreamDetector.shared(
            streams, shifted_binary_tree(16), th
        )
        results = fleet.detect(streams, chunk_size=500)
        for name, series in streams.items():
            assert results[name] == naive_detect(series, th), name

    def test_names_sorted(self, streams, rng):
        train = rng.poisson(7.0, 500).astype(float)
        th = NormalThresholds.from_data(train, 1e-3, all_sizes(8))
        fleet = MultiStreamDetector.shared(
            streams, shifted_binary_tree(8), th
        )
        assert fleet.names == ("a", "b", "c")

    def test_refine_filter_is_one_fleet_setting(self, rng):
        th = NormalThresholds.from_data(
            rng.poisson(7.0, 500).astype(float), 1e-3, all_sizes(8)
        )
        sbt = shifted_binary_tree(8)
        off = MultiStreamDetector.shared("ab", sbt, th, refine_filter=False)
        assert off.refine_filter is False
        mixed = MultiStreamDetector(
            {"a": off.detector("a"), "b": ChunkedDetector(sbt, th)}
        )
        with pytest.raises(ValueError, match="disagree"):
            mixed.refine_filter

    def test_total_operations_accumulates(self, streams, rng):
        train = rng.poisson(7.0, 500).astype(float)
        th = NormalThresholds.from_data(train, 1e-3, all_sizes(8))
        fleet = MultiStreamDetector.shared(
            streams, shifted_binary_tree(8), th
        )
        fleet.detect(streams)
        per_stream = [
            fleet.detector(name).counters.total_operations
            for name in fleet.names
        ]
        assert fleet.total_operations() == sum(per_stream)
        assert all(ops > 0 for ops in per_stream)


class TestPerStream:
    def test_each_stream_gets_own_detector(self, streams):
        training = {name: s[:1500] for name, s in streams.items()}
        fleet = MultiStreamDetector.per_stream(
            training, 1e-3, all_sizes(16), search_params=FAST
        )
        results = fleet.detect(streams)
        for name, series in streams.items():
            th = fleet.detector(name).thresholds
            assert results[name] == naive_detect(series, th), name
        # Thresholds differ across differently-scaled streams.
        assert fleet.detector("a").thresholds.threshold(4) != (
            fleet.detector("b").thresholds.threshold(4)
        )


class TestInterface:
    def _small_fleet(self, rng):
        train = rng.poisson(5.0, 500).astype(float)
        th = NormalThresholds.from_data(train, 1e-2, all_sizes(8))
        return MultiStreamDetector.shared(
            ["x", "y"], shifted_binary_tree(8), th
        )

    def test_unknown_stream_rejected(self, rng):
        fleet = self._small_fleet(rng)
        with pytest.raises(KeyError, match="unknown streams"):
            fleet.process({"zzz": np.ones(4)})
        with pytest.raises(KeyError):
            fleet.detect({"zzz": np.ones(4)})

    def test_ragged_feeding(self, rng):
        fleet = self._small_fleet(rng)
        fleet.process({"x": np.ones(10)})  # y gets nothing this round
        fleet.process({"x": np.ones(5), "y": np.ones(7)})
        tails = fleet.finish()
        assert set(tails) == {"x", "y"}

    def test_finish_twice_raises(self, rng):
        fleet = self._small_fleet(rng)
        fleet.finish()
        with pytest.raises(RuntimeError):
            fleet.finish()
        with pytest.raises(RuntimeError):
            fleet.process({"x": np.ones(2)})

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            MultiStreamDetector({})

    def test_detect_with_unequal_lengths(self, rng):
        train = rng.poisson(5.0, 500).astype(float)
        th = NormalThresholds.from_data(train, 1e-2, all_sizes(8))
        fleet = MultiStreamDetector.shared(
            ["x", "y"], shifted_binary_tree(8), th
        )
        data = {
            "x": rng.poisson(5.0, 1000).astype(float),
            "y": rng.poisson(5.0, 2500).astype(float),
        }
        results = fleet.detect(data, chunk_size=300)
        for name in data:
            assert results[name] == naive_detect(data[name], th)
