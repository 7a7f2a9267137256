"""Runtime health tests: latency percentiles, stats(), the CLI stats line.

:meth:`ParallelMultiStreamDetector.stats` reports what the worker pool
already measures — reply-wait percentiles, queue depth, restarts and
degradation.  The parallel half injects deterministic ``delay`` faults
into a real worker pool so the latency samples are non-zero, and checks
that the snapshot stays valid after the pool is gone (close, degrade).
"""

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.core.multi import MultiStreamDetector
from repro.core.sbt import shifted_binary_tree
from repro.core.thresholds import NormalThresholds, all_sizes
from repro.runtime import (
    Fault,
    FaultPlan,
    ParallelMultiStreamDetector,
    RuntimeStats,
    SupervisorPolicy,
)
from repro.runtime.parallel import latency_percentiles

from test_runtime_faults import (
    CHUNK,
    FAST,
    assert_counters_equal,
    needs_dev_shm,
)

DELAY_EARLY = FaultPlan(
    (
        Fault("delay", 0, worker=0, seconds=0.25),
        Fault("delay", 0, worker=1, seconds=0.25),
    )
)


@pytest.fixture
def streams(rng):
    return {
        "a": rng.poisson(5.0, 1000).astype(float),
        "b": rng.poisson(9.0, 870).astype(float),
        "c": rng.exponential(4.0, 930),
        "d": rng.poisson(2.0, 640).astype(float),
    }


@pytest.fixture
def setup(rng):
    train = rng.poisson(7.0, 1200).astype(float)
    thresholds = NormalThresholds.from_data(train, 1e-3, all_sizes(16))
    return shifted_binary_tree(16), thresholds


@pytest.fixture
def expected(streams, setup):
    structure, thresholds = setup
    serial = MultiStreamDetector.shared(streams, structure, thresholds)
    return serial.detect(streams, chunk_size=CHUNK), serial


class TestLatencyPercentiles:
    def test_empty_is_zero(self):
        assert latency_percentiles(()) == (0.0, 0.0)

    def test_percentiles_ordered(self):
        p50, p99 = latency_percentiles(tuple(float(i) for i in range(100)))
        assert 0.0 < p50 < p99


# ---------------------------------------------------------------------------
# stats(): one snapshot, valid at every point of the lifecycle
# ---------------------------------------------------------------------------

@needs_dev_shm
class TestRuntimeStats:
    def test_serial_backend_snapshot(self, streams, setup):
        structure, thresholds = setup
        det = ParallelMultiStreamDetector.shared(
            streams, structure, thresholds, workers="serial"
        )
        s = det.stats()
        assert isinstance(s, RuntimeStats)
        assert s.backend == "serial"
        assert s.workers == 0
        assert not s.degraded
        assert "backend=serial" in s.describe()

    def test_parallel_snapshot_survives_close(self, streams, setup):
        structure, thresholds = setup
        fleet = ParallelMultiStreamDetector.shared(
            streams,
            structure,
            thresholds,
            workers=2,
            faults="restart",
            supervision=FAST,
            fault_plan=DELAY_EARLY,
        )
        with fleet:
            fleet.detect(streams, chunk_size=CHUNK)
        s = fleet.stats()  # after the `with` block: pool closed
        assert s.backend == "parallel"
        assert s.workers == 2
        assert s.latency_p99 >= s.latency_p50 >= 0.0
        assert s.latency_p99 > 0.0  # the injected stragglers are visible
        assert s.max_inflight >= 1
        desc = s.describe()
        for token in ("backend=parallel", "degraded=no", "restarts=0"):
            assert token in desc
        assert s.as_dict()["workers"] == 2

    def test_degrade_keeps_restart_and_degraded_diagnostics(
        self, streams, setup, expected
    ):
        # One restart is spent on the first kill; the second kill
        # exhausts the budget and folds the run back to serial.  The
        # diagnostics must survive both the fold-back and close().
        policy = SupervisorPolicy(
            deadline=2.0,
            term_grace=0.5,
            max_restarts=1,
            backoff_base=0.01,
            backoff_cap=0.05,
        )
        plan = FaultPlan(
            (Fault("kill", 0, worker=0), Fault("kill", 1, worker=0))
        )
        structure, thresholds = setup
        fleet = ParallelMultiStreamDetector.shared(
            streams,
            structure,
            thresholds,
            workers=2,
            faults="degrade",
            supervision=policy,
            fault_plan=plan,
        )
        with fleet:
            got = fleet.detect(streams, chunk_size=CHUNK)
        want, serial = expected
        for name in streams:
            assert tuple(got[name]) == tuple(want[name]), name
            assert_counters_equal(
                fleet.counters(name), serial.detector(name).counters
            )
        assert fleet.degraded
        assert fleet.total_restarts == 1
        s = fleet.stats()
        assert s.degraded
        assert s.total_restarts == 1
        assert s.backend == "parallel"  # how the run *started*
        assert "degraded=yes" in s.describe()
        assert "restarts=1" in s.describe()


# ---------------------------------------------------------------------------
# CLI: the stats line on stderr
# ---------------------------------------------------------------------------

class TestOverloadCLI:
    @pytest.fixture
    def spec_and_stream(self, tmp_path, rng):
        train = tmp_path / "train.csv"
        live = tmp_path / "live.csv"
        np.savetxt(train, rng.poisson(8.0, 900).astype(float))
        np.savetxt(live, rng.poisson(8.0, 1200).astype(float))
        spec = tmp_path / "spec.json"
        cli_main(
            ["train", str(train), "--max-window", "16", "-o", str(spec)]
        )
        return spec, live

    def test_detect_defaults_still_report_stats(
        self, spec_and_stream, tmp_path, capsys
    ):
        spec, live = spec_and_stream
        cli_main(
            ["detect", str(spec), str(live), "-o", str(tmp_path / "b.csv")]
        )
        err = capsys.readouterr().err
        # One stream under --workers auto always runs serial, and the
        # serial backend has no latency samples: the line is fixed.
        stats = [
            line for line in err.splitlines() if line.startswith("# stats: ")
        ]
        assert stats == [
            "# stats: backend=serial workers=0 p50=0.000s p99=0.000s "
            "queue=0/32 restarts=0 degraded=no"
        ]
