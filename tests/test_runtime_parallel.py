"""Seeded equivalence tests: parallel runtime vs serial multi-stream.

The parallel runtime must be a *perfect* stand-in for the serial
manager: identical bursts (values included), identical per-stream and
merged operation counts, on shared- and per-stream-trained portfolios,
for any worker count.  These tests pin that contract, plus the failure
modes: worker exceptions propagate with the remote traceback, the pool
shuts down cleanly afterwards, and shared-memory segments never leak.
"""

import multiprocessing as mp
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.aggregates import MAX
from repro.core.multi import MultiStreamDetector
from repro.core.opcount import OpCounters
from repro.core.sbt import shifted_binary_tree
from repro.core.search import SearchParams
from repro.core.thresholds import NormalThresholds, all_sizes
from repro.runtime import (
    ParallelMultiStreamDetector,
    SharedChunkRing,
    WorkerError,
    resolve_workers,
)

FAST = SearchParams(
    max_same_size_states=64, max_final_states=400, max_expansions=1500
)


@pytest.fixture
def streams(rng):
    # Ragged lengths on purpose: stream tails hit finish() differently.
    return {
        "a": rng.poisson(5.0, 3000).astype(float),
        "b": rng.poisson(9.0, 2500).astype(float),
        "c": rng.exponential(4.0, 3210),
        "d": rng.poisson(2.0, 700).astype(float),
        "e": rng.exponential(9.0, 1501),
    }


@pytest.fixture
def shared_setup(streams, rng):
    train = rng.poisson(7.0, 2000).astype(float)
    thresholds = NormalThresholds.from_data(train, 1e-3, all_sizes(16))
    return shifted_binary_tree(16), thresholds


def assert_counters_equal(a, b):
    assert np.array_equal(a.updates, b.updates)
    assert np.array_equal(a.filter_comparisons, b.filter_comparisons)
    assert np.array_equal(a.alarms, b.alarms)
    assert np.array_equal(a.search_cells, b.search_cells)
    assert a.bursts == b.bursts


class TestSharedEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_identical_results_and_counts(
        self, streams, shared_setup, workers
    ):
        structure, thresholds = shared_setup
        serial = MultiStreamDetector.shared(streams, structure, thresholds)
        expected = serial.detect(streams, chunk_size=600)

        fleet = ParallelMultiStreamDetector.shared(
            streams, structure, thresholds, workers=workers
        )
        assert fleet.num_workers == workers
        got = fleet.detect(streams, chunk_size=600)

        for name in streams:
            # Byte-identical: same bursts, same order, same values.
            assert tuple(got[name]) == tuple(expected[name]), name
            assert_counters_equal(
                fleet.counters(name), serial.detector(name).counters
            )
            assert fleet.structure(name) == structure
        assert fleet.total_operations() == serial.total_operations()
        assert_counters_equal(
            fleet.merged_counters(), serial.merged_counters()
        )

    def test_streaming_interface_ragged_rounds(self, shared_setup, rng):
        structure, thresholds = shared_setup
        serial = MultiStreamDetector.shared(
            ["x", "y"], structure, thresholds
        )
        fleet = ParallelMultiStreamDetector.shared(
            ["x", "y"], structure, thresholds, workers=2
        )
        x1, x2 = rng.poisson(5.0, 40).astype(float), rng.poisson(
            5.0, 25
        ).astype(float)
        y1 = rng.poisson(5.0, 33).astype(float)
        assert fleet.process({"x": x1}) == serial.process({"x": x1})
        assert fleet.process({"x": x2, "y": y1}) == serial.process(
            {"x": x2, "y": y1}
        )
        assert fleet.finish() == serial.finish()

    def test_names_sorted_and_unknown_rejected(self, streams, shared_setup):
        structure, thresholds = shared_setup
        fleet = ParallelMultiStreamDetector.shared(
            streams, structure, thresholds, workers=2
        )
        with fleet:
            assert fleet.names == tuple(sorted(streams))
            with pytest.raises(KeyError, match="unknown streams"):
                fleet.process({"zzz": np.ones(4)})
            with pytest.raises(KeyError):
                fleet.detect({"zzz": np.ones(4)})

    def test_finish_twice_raises(self, streams, shared_setup):
        structure, thresholds = shared_setup
        fleet = ParallelMultiStreamDetector.shared(
            streams, structure, thresholds, workers=2
        )
        fleet.finish()
        with pytest.raises(RuntimeError):
            fleet.finish()
        with pytest.raises(RuntimeError):
            fleet.process({"a": np.ones(2)})


class TestPerStreamEquivalence:
    def test_training_and_detection_identical(self, streams):
        training = {name: s[:1200] for name, s in streams.items()}
        serial = MultiStreamDetector.per_stream(
            training, 1e-3, all_sizes(16), search_params=FAST
        )
        expected = serial.detect(streams)

        fleet = ParallelMultiStreamDetector.per_stream(
            training, 1e-3, all_sizes(16), FAST, workers=2
        )
        got = fleet.detect(streams)
        for name in streams:
            assert fleet.structure(name) == serial.detector(name).structure
            assert tuple(got[name]) == tuple(expected[name]), name
            assert_counters_equal(
                fleet.counters(name), serial.detector(name).counters
            )
        assert_counters_equal(
            fleet.merged_counters(), serial.merged_counters()
        )


class TestAggregatePlumbing:
    """Non-SUM aggregates must survive every backend, incl. the serial
    fallback (which once silently rebuilt detectors with SUM)."""

    def test_shared_max_identical_across_backends(
        self, streams, shared_setup
    ):
        structure, thresholds = shared_setup
        reference = MultiStreamDetector.shared(
            streams, structure, thresholds, aggregate=MAX
        )
        expected = reference.detect(streams, chunk_size=600)
        pooled = ParallelMultiStreamDetector.shared(
            streams, structure, thresholds, workers=2, aggregate=MAX
        )
        fallback = ParallelMultiStreamDetector.shared(
            streams, structure, thresholds, workers="serial", aggregate=MAX
        )
        got_pool = pooled.detect(streams, chunk_size=600)
        got_fallback = fallback.detect(streams, chunk_size=600)
        for name in streams:
            assert tuple(got_pool[name]) == tuple(expected[name]), name
            assert tuple(got_fallback[name]) == tuple(expected[name]), name
        assert_counters_equal(
            pooled.merged_counters(), reference.merged_counters()
        )
        assert_counters_equal(
            fallback.merged_counters(), reference.merged_counters()
        )
        # Sanity: MAX genuinely differs from SUM on this workload, so
        # the equalities above would catch a dropped aggregate.
        sum_results = MultiStreamDetector.shared(
            streams, structure, thresholds
        ).detect(streams, chunk_size=600)
        assert any(
            tuple(sum_results[n]) != tuple(expected[n]) for n in streams
        )

    def test_per_stream_max_backends_agree(self, streams):
        training = {name: s[:1200] for name, s in streams.items()}
        pooled = ParallelMultiStreamDetector.per_stream(
            training, 1e-3, all_sizes(16), FAST, workers=2, aggregate=MAX
        )
        fallback = ParallelMultiStreamDetector.per_stream(
            training,
            1e-3,
            all_sizes(16),
            FAST,
            workers="serial",
            aggregate=MAX,
        )
        got_pool = pooled.detect(streams)
        got_fallback = fallback.detect(streams)
        for name in streams:
            assert tuple(got_pool[name]) == tuple(got_fallback[name]), name
        assert_counters_equal(
            pooled.merged_counters(), fallback.merged_counters()
        )

    def test_refine_filter_off_matches_serial(self, streams, shared_setup):
        structure, thresholds = shared_setup
        reference = MultiStreamDetector.shared(
            streams, structure, thresholds, refine_filter=False
        )
        fleet = ParallelMultiStreamDetector.shared(
            streams, structure, thresholds, workers=2, refine_filter=False
        )
        expected = reference.detect(streams, chunk_size=600)
        got = fleet.detect(streams, chunk_size=600)
        for name in streams:
            assert tuple(got[name]) == tuple(expected[name]), name
        # The ablation switch changes filter work, so counters prove it
        # actually reached the workers.
        assert_counters_equal(
            fleet.merged_counters(), reference.merged_counters()
        )


class TestInflightBound:
    def test_many_streams_with_tiny_window(
        self, shared_setup, rng, monkeypatch
    ):
        # Force the sliding window to engage many times over: with the
        # bound at 2 and 25 streams on 2 workers, setup must interleave
        # sends and acks or it would not terminate correctly.
        import repro.runtime.pool as pool_mod

        monkeypatch.setattr(pool_mod, "DEFAULT_MAX_INFLIGHT", 2)
        structure, thresholds = shared_setup
        streams = {
            f"s{i:02d}": rng.poisson(5.0, 120).astype(float)
            for i in range(25)
        }
        serial = MultiStreamDetector.shared(streams, structure, thresholds)
        fleet = ParallelMultiStreamDetector.shared(
            streams, structure, thresholds, workers=2
        )
        assert fleet.detect(streams) == serial.detect(streams)

    def test_per_stream_training_with_tiny_window(self, rng, monkeypatch):
        import repro.runtime.pool as pool_mod

        monkeypatch.setattr(pool_mod, "DEFAULT_MAX_INFLIGHT", 1)
        training = {
            f"s{i}": rng.poisson(6.0, 300).astype(float) for i in range(7)
        }
        serial = MultiStreamDetector.per_stream(
            training, 1e-3, all_sizes(8), search_params=FAST
        )
        fleet = ParallelMultiStreamDetector.per_stream(
            training, 1e-3, all_sizes(8), FAST, workers=2
        )
        data = {name: rng.poisson(6.0, 500).astype(float) for name in training}
        assert fleet.detect(data) == serial.detect(data)


class TestBackendSelection:
    def test_serial_fallback_is_serial(self, streams, shared_setup):
        structure, thresholds = shared_setup
        fleet = ParallelMultiStreamDetector.shared(
            streams, structure, thresholds, workers="serial"
        )
        assert fleet.num_workers == 0
        serial = MultiStreamDetector.shared(streams, structure, thresholds)
        assert fleet.detect(streams) == serial.detect(streams)

    def test_resolve_workers(self):
        assert resolve_workers("serial", 8) == 0
        assert resolve_workers(0, 8) == 0
        assert resolve_workers(3, 8) == 3
        assert resolve_workers(8, 3) == 3  # capped at stream count
        auto = resolve_workers("auto", 16)
        assert auto == 0 or auto >= 2
        with pytest.raises(ValueError):
            resolve_workers(-1, 4)
        with pytest.raises(ValueError):
            resolve_workers("many", 4)

    def test_empty_fleet_rejected(self, shared_setup):
        structure, thresholds = shared_setup
        with pytest.raises(ValueError):
            ParallelMultiStreamDetector.shared([], structure, thresholds)

    def test_duplicate_names_rejected(self, shared_setup):
        structure, thresholds = shared_setup
        with pytest.raises(ValueError, match="unique"):
            ParallelMultiStreamDetector.shared(
                ["a", "a"], structure, thresholds, workers=2
            )


def _exit_without_cleanup(conn, worker_id):
    """Stand-in worker that dies instantly, like a segfault or OOM kill."""
    os._exit(1)


def _shm_segments() -> set:
    return set(os.listdir("/dev/shm"))


needs_dev_shm = pytest.mark.skipif(
    not Path("/dev/shm").is_dir(), reason="POSIX shared memory not mounted"
)
needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="monkeypatched worker target needs fork inheritance",
)


class TestWorkerDeath:
    """A worker dying mid-flight must never strand /dev/shm segments.

    The parent owns every segment, so its exception path — not the dead
    worker — is what keeps the machine clean.  These tests pin the
    ordering fixed after PR 2: release shared memory *before* (or in a
    ``finally`` around) joining workers, because joins can raise or be
    interrupted while unlink cannot.
    """

    @needs_dev_shm
    def test_killed_worker_frees_all_segments(self, streams, shared_setup):
        structure, thresholds = shared_setup
        before = _shm_segments()
        fleet = ParallelMultiStreamDetector.shared(
            streams, structure, thresholds, workers=2
        )
        # Simulate an external kill (OOM, operator) of one worker.
        victim = fleet._pool._procs[0]
        victim.kill()
        victim.join(timeout=10.0)
        assert not victim.is_alive()
        with pytest.raises(WorkerError, match="worker"):
            fleet.detect(streams, chunk_size=600)
        # The failure shut the fleet down and unlinked every segment.
        assert fleet._closed
        assert _shm_segments() - before == set()

    @needs_dev_shm
    @needs_fork
    def test_worker_dead_at_startup_frees_training_segments(
        self, rng, monkeypatch
    ):
        # per_stream() ships training arrays through the ring while
        # building; a worker that dies before acking any of them must
        # not leak those in-flight segments on the error path.
        import repro.runtime.pool as pool_mod

        monkeypatch.setattr(pool_mod, "worker_main", _exit_without_cleanup)
        before = _shm_segments()
        training = {
            f"s{i}": rng.poisson(6.0, 300).astype(float) for i in range(6)
        }
        with pytest.raises(WorkerError, match="worker"):
            ParallelMultiStreamDetector.per_stream(
                training, 1e-3, all_sizes(8), FAST, workers=2
            )
        assert _shm_segments() - before == set()


class TestFailureModes:
    def test_worker_exception_propagates(self, streams, shared_setup):
        structure, thresholds = shared_setup
        fleet = ParallelMultiStreamDetector.shared(
            streams, structure, thresholds, workers=2
        )
        # Negative values violate the monotonicity contract inside the
        # worker's detector; the remote ValueError must surface here.
        with pytest.raises(WorkerError, match="non-negative"):
            fleet.process({"a": np.array([1.0, -5.0, 2.0])})
        # The pool is shut down; further use fails fast instead of hanging.
        with pytest.raises(RuntimeError):
            fleet.process({"a": np.ones(4)})

    def test_close_is_idempotent(self, streams, shared_setup):
        structure, thresholds = shared_setup
        fleet = ParallelMultiStreamDetector.shared(
            streams, structure, thresholds, workers=2
        )
        fleet.close()
        fleet.close()


class TestChunkRing:
    def test_slots_recycle(self):
        with SharedChunkRing() as ring:
            a = ring.put(np.arange(10.0))
            ring.release(a)
            b = ring.put(np.arange(5.0))
            assert b.slot == a.slot  # reused, not reallocated
            assert ring.num_slots == 1

    def test_roundtrip_values(self):
        from repro.runtime import ChunkReader

        with SharedChunkRing() as ring:
            data = np.linspace(0.0, 1.0, 1000)
            ref = ring.put(data)
            reader = ChunkReader()
            try:
                assert np.array_equal(reader.view(ref), data)
            finally:
                reader.close()

    def test_regrow_evicts_stale_reader_attachments(self):
        from repro.runtime import ChunkReader

        with SharedChunkRing() as ring:
            reader = ChunkReader()
            try:
                small = ring.put(np.arange(10.0))
                old_name = small.name
                reader.view(small)  # cache the attachment
                assert old_name in reader._segments
                ring.release(small)
                # Too big for the free slot: the ring regrows it in
                # place, unlinking the old segment.
                big = ring.put(np.arange(float(1 << 13)))
                assert big.slot == small.slot
                assert old_name in big.retired
                view = reader.view(big)
                # The reader dropped the dead segment, not just any.
                assert old_name not in reader._segments
                assert big.name in reader._segments
                assert np.array_equal(view, np.arange(float(1 << 13)))
            finally:
                reader.close()


def test_merged_counters_pads_levels():
    a, b = OpCounters(2), OpCounters(4)
    a.updates[:] = [1, 2, 3]
    b.updates[:] = [10, 20, 30, 40, 50]
    a.bursts, b.bursts = 3, 4
    merged = OpCounters.merged([a, b])
    assert merged.num_levels == 4
    assert list(merged.updates) == [11, 22, 33, 40, 50]
    assert merged.bursts == 7
    # __iadd__ stays strict about shape.
    with pytest.raises(ValueError):
        a += b
