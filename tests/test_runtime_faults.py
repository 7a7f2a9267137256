"""Fault-tolerance tests: supervision, checkpoints, and fault injection.

The contract under test is the strongest one the runtime makes: a
supervised parallel run that loses workers mid-chunk — killed, hung,
reply dropped, or chunk corrupted — must produce *byte-identical*
bursts and operation counters to an undisturbed serial run, and must
never strand a worker process or a /dev/shm segment.  Faults are
injected deterministically via :class:`repro.runtime.FaultPlan`, so
every recovery path here is replayed on every test run, not just when
the machine happens to misbehave.
"""

import multiprocessing as mp
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.aggregates import SUM
from repro.core.chunked import ChunkedDetector, initial_carry
from repro.core.events import BurstSet
from repro.core.multi import MultiStreamDetector
from repro.core.sbt import shifted_binary_tree
from repro.core.thresholds import NormalThresholds, all_sizes
from repro.runtime import (
    Fault,
    FaultPlan,
    ParallelMultiStreamDetector,
    SupervisorPolicy,
    WorkerCrashed,
    WorkerError,
    WorkerPool,
    WorkerTimeout,
    WorkerUnrecoverable,
)

needs_dev_shm = pytest.mark.skipif(
    not Path("/dev/shm").is_dir(), reason="POSIX shared memory not mounted"
)
needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="monkeypatched worker target needs fork inheritance",
)

#: Short deadlines so hang faults resolve in ~a second, not a minute.
FAST = SupervisorPolicy(
    deadline=2.0, term_grace=0.5, backoff_base=0.01, backoff_cap=0.05
)
NO_RESTARTS = SupervisorPolicy(
    deadline=2.0,
    term_grace=0.5,
    max_restarts=0,
    backoff_base=0.01,
    backoff_cap=0.05,
)

CHUNK = 250  # ~4 supervised rounds over the fixture streams


def _shm_segments() -> set:
    return set(os.listdir("/dev/shm"))


def assert_counters_equal(a, b):
    assert np.array_equal(a.updates, b.updates)
    assert np.array_equal(a.filter_comparisons, b.filter_comparisons)
    assert np.array_equal(a.alarms, b.alarms)
    assert np.array_equal(a.search_cells, b.search_cells)
    assert a.bursts == b.bursts


@pytest.fixture
def streams(rng):
    # Ragged lengths: the last round is partial for some streams only.
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


def run_with_plan(streams, setup, plan, faults="restart", policy=FAST):
    structure, thresholds = setup
    fleet = ParallelMultiStreamDetector.shared(
        streams,
        structure,
        thresholds,
        workers=2,
        faults=faults,
        supervision=policy,
        fault_plan=plan,
    )
    with fleet:
        got = fleet.detect(streams, chunk_size=CHUNK)
    return got, fleet, fleet.total_restarts


def assert_identical(streams, got, fleet, expected):
    want, serial = expected
    for name in streams:
        assert tuple(got[name]) == tuple(want[name]), name
        assert_counters_equal(
            fleet.counters(name), serial.detector(name).counters
        )
    assert_counters_equal(fleet.merged_counters(), serial.merged_counters())


# ---------------------------------------------------------------------------
# Checkpoint carries (the state the supervisor replays from)
# ---------------------------------------------------------------------------

class TestDetectorCarry:
    def test_resume_matches_uninterrupted(self, rng, setup):
        structure, thresholds = setup
        stream = rng.poisson(6.0, 700).astype(float)

        ref = ChunkedDetector(structure, thresholds)
        want = [b for lo in range(0, 700, 100) for b in ref.process(stream[lo : lo + 100])]
        want += ref.finish()

        # Process three chunks, checkpoint, continue on a fresh detector
        # built from the carry — as the supervisor does after a crash.
        first = ChunkedDetector(structure, thresholds)
        got = [b for lo in (0, 100, 200) for b in first.process(stream[lo : lo + 100])]
        resumed = ChunkedDetector.from_carry(
            structure, thresholds, first.carry()
        )
        got += [
            b
            for lo in range(300, 700, 100)
            for b in resumed.process(stream[lo : lo + 100])
        ]
        got += resumed.finish()

        assert got == want
        assert_counters_equal(resumed.counters, ref.counters)

    def test_initial_carry_is_a_fresh_detector(self, rng, setup):
        structure, thresholds = setup
        stream = rng.poisson(6.0, 300).astype(float)
        ref = ChunkedDetector(structure, thresholds)
        restored = ChunkedDetector.from_carry(
            structure, thresholds, initial_carry(structure, SUM)
        )
        assert restored.detect(stream) == ref.detect(stream)

    def test_restore_rejected_after_processing(self, rng, setup):
        structure, thresholds = setup
        det = ChunkedDetector(structure, thresholds)
        carry = det.carry()
        det.process(rng.poisson(5.0, 50).astype(float))
        with pytest.raises(RuntimeError, match="must precede"):
            det.restore_carry(carry)

    def test_carry_rejected_after_finish(self, setup):
        structure, thresholds = setup
        det = ChunkedDetector(structure, thresholds)
        det.finish()
        with pytest.raises(RuntimeError, match="finished"):
            det.carry()


# ---------------------------------------------------------------------------
# Restart policy: every fault kind must be invisible in the output
# ---------------------------------------------------------------------------

@needs_dev_shm
class TestRestartPolicy:
    @pytest.mark.parametrize(
        "kind, round_index",
        [
            ("kill", 0),
            ("kill", 2),
            ("hang", 1),
            ("hang_hard", 1),
            ("drop_reply", 2),
        ],
    )
    def test_worker_fault_byte_identical(
        self, streams, setup, expected, kind, round_index
    ):
        before = _shm_segments()
        plan = FaultPlan.single(kind, round_index, worker=0)
        got, fleet, restarts = run_with_plan(streams, setup, plan)
        assert_identical(streams, got, fleet, expected)
        # The fault genuinely fired and cost a process.
        assert restarts >= 1
        assert not fleet.degraded
        assert _shm_segments() - before == set()

    def test_corrupt_chunk_rewritten_not_restarted(
        self, streams, setup, expected
    ):
        before = _shm_segments()
        plan = FaultPlan.single("corrupt", 1, stream="b")
        got, fleet, restarts = run_with_plan(streams, setup, plan)
        assert_identical(streams, got, fleet, expected)
        # Checksum failure keeps the worker alive: rewrite and resend.
        assert restarts == 0
        assert _shm_segments() - before == set()

    def test_multi_fault_plan(self, streams, setup, expected):
        plan = FaultPlan(
            (
                Fault("kill", 0, worker=1),
                Fault("corrupt", 1, stream="c"),
                Fault("drop_reply", 2, worker=0),
            )
        )
        got, fleet, restarts = run_with_plan(streams, setup, plan)
        assert_identical(streams, got, fleet, expected)
        assert restarts >= 2

    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_random_plans(self, streams, setup, expected, seed):
        plan_rng = np.random.default_rng([99, seed])
        plan = FaultPlan.random(
            plan_rng, n_workers=2, n_rounds=4, streams=tuple(streams)
        )
        before = _shm_segments()
        got, fleet, _ = run_with_plan(streams, setup, plan)
        assert_identical(streams, got, fleet, expected)
        assert _shm_segments() - before == set()

    @pytest.mark.parametrize(
        "plan, error, match",
        [
            pytest.param(
                FaultPlan.single("kill", 1, worker=0),
                WorkerCrashed,
                None,
                id="kill",
            ),
            pytest.param(
                FaultPlan.single("corrupt", 1, stream="b"),
                WorkerError,
                "corrupt chunk",
                id="corrupt",
            ),
            pytest.param(
                FaultPlan.single("hang", 1, worker=0),
                WorkerTimeout,
                None,
                id="hang",
            ),
            pytest.param(
                FaultPlan.single("drop_reply", 1, worker=0),
                WorkerTimeout,
                None,
                id="drop_reply",
            ),
        ],
    )
    def test_injection_without_supervision_is_caught(
        self, streams, setup, plan, error, match
    ):
        # faults="raise" + a plan: the default policy stays fail-fast,
        # surfacing the injected fault instead of healing it.
        structure, thresholds = setup
        before = _shm_segments()
        fleet = ParallelMultiStreamDetector.shared(
            streams,
            structure,
            thresholds,
            workers=2,
            fault_plan=plan,
            recv_timeout=1.0,
        )
        assert fleet.faults == "raise"
        with pytest.raises(error, match=match):
            fleet.detect(streams, chunk_size=CHUNK)
        assert fleet._closed
        assert _shm_segments() - before == set()

    @pytest.mark.parametrize(
        "faults, want_carry", [("raise", False), ("restart", True)]
    )
    def test_rounds_ship_carries_only_under_supervision(
        self, streams, setup, monkeypatch, faults, want_carry
    ):
        # A fail-fast round has no checkpoints to advance, so its
        # process commands must not ask the workers for carries.
        sent = []
        send = WorkerPool.send

        def spy(pool, worker, message):
            sent.append(message)
            send(pool, worker, message)

        monkeypatch.setattr(WorkerPool, "send", spy)
        structure, thresholds = setup
        fleet = ParallelMultiStreamDetector.shared(
            streams,
            structure,
            thresholds,
            workers=2,
            faults=faults,
            supervision=FAST,
        )
        with fleet:
            fleet.detect(streams, chunk_size=CHUNK)
        flags = [message[2] for message in sent if message[0] == "process"]
        assert flags
        assert all(flag is want_carry for flag in flags)


# ---------------------------------------------------------------------------
# Degrade policy: a collapsed pool folds back to serial mid-run
# ---------------------------------------------------------------------------

@needs_dev_shm
class TestDegradePolicy:
    @pytest.mark.parametrize("kind", ["kill", "drop_reply"])
    def test_degrades_and_stays_byte_identical(
        self, streams, setup, expected, kind
    ):
        before = _shm_segments()
        plan = FaultPlan.single(kind, 1, worker=0)
        got, fleet, _ = run_with_plan(
            streams, setup, plan, faults="degrade", policy=NO_RESTARTS
        )
        assert fleet.degraded  # the pool really collapsed
        assert_identical(streams, got, fleet, expected)
        assert _shm_segments() - before == set()

    def test_restart_budget_spares_degrade(self, streams, setup, expected):
        # With restarts available, degrade mode heals like restart mode
        # and never falls back.
        plan = FaultPlan.single("kill", 1, worker=0)
        got, fleet, restarts = run_with_plan(
            streams, setup, plan, faults="degrade"
        )
        assert not fleet.degraded
        assert restarts >= 1
        assert_identical(streams, got, fleet, expected)

    @pytest.mark.parametrize(
        "call", ["checkpoints", "stream_counters", "finish"]
    )
    def test_worker_lost_between_rounds(
        self, streams, setup, expected, call
    ):
        # A worker killed between rounds is found by the next exchange,
        # whatever its command.  With no restart left, the lost
        # worker's streams are answered in-process from their
        # checkpoints, and the run stays byte-identical to serial.
        structure, thresholds = setup
        rounds = [
            {n: s[lo : lo + CHUNK] for n, s in streams.items() if lo < s.size}
            for lo in range(0, 1000, CHUNK)
        ]
        kill_after = len(rounds) - 1 if call == "finish" else 0
        ref = MultiStreamDetector.shared(streams, structure, thresholds)
        ref.process(rounds[0])
        before = _shm_segments()
        fleet = ParallelMultiStreamDetector.shared(
            streams,
            structure,
            thresholds,
            workers=2,
            faults="degrade",
            supervision=NO_RESTARTS,
        )
        found = {name: [] for name in streams}
        with fleet:
            for i, chunks in enumerate(rounds):
                for name, bursts in fleet.process(chunks).items():
                    found[name] += bursts
                if i != kill_after:
                    continue
                victim = fleet._pool._procs[0]
                victim.kill()
                victim.join(timeout=10.0)
                if call == "checkpoints":
                    got = fleet.checkpoints()
                    for name, want in ref.checkpoints().items():
                        assert got[name].length == want.length
                        assert got[name].offset == want.offset
                        assert np.array_equal(got[name].tail, want.tail)
                        assert_counters_equal(
                            got[name].counters, want.counters
                        )
                elif call == "stream_counters":
                    got = fleet.stream_counters()
                    for name, want in ref.stream_counters().items():
                        assert_counters_equal(got[name], want)
            for name, bursts in fleet.finish().items():
                found[name] += bursts
        assert fleet.degraded
        assert_identical(
            streams,
            {name: BurstSet(b) for name, b in found.items()},
            fleet,
            expected,
        )
        assert _shm_segments() - before == set()

    def test_unknown_policy_rejected(self, streams, setup):
        structure, thresholds = setup
        with pytest.raises(ValueError, match="faults must be one of"):
            ParallelMultiStreamDetector.shared(
                streams, structure, thresholds, workers=2, faults="retry"
            )


# ---------------------------------------------------------------------------
# Budget exhaustion and application errors under supervision
# ---------------------------------------------------------------------------

@needs_dev_shm
class TestSupervisionLimits:
    def test_exhausted_budget_raises_unrecoverable(self, streams, setup):
        structure, thresholds = setup
        plan = FaultPlan.single("kill", 1, worker=0)
        before = _shm_segments()
        fleet = ParallelMultiStreamDetector.shared(
            streams,
            structure,
            thresholds,
            workers=2,
            faults="restart",
            supervision=NO_RESTARTS,
            fault_plan=plan,
        )
        with pytest.raises(WorkerUnrecoverable, match="worker 0"):
            fleet.detect(streams, chunk_size=CHUNK)
        assert fleet._closed
        assert _shm_segments() - before == set()

    def test_application_error_not_retried(self, streams, setup):
        # Deterministic remote exceptions must fail fast even under
        # supervision — retrying them would mask bugs.
        structure, thresholds = setup
        fleet = ParallelMultiStreamDetector.shared(
            streams,
            structure,
            thresholds,
            workers=2,
            faults="restart",
            supervision=FAST,
        )
        with pytest.raises(WorkerError, match="non-negative"):
            fleet.process({"a": np.array([1.0, -5.0, 2.0])})
        # The error shut the fleet down instead of entering recovery.
        assert fleet._closed


# ---------------------------------------------------------------------------
# Deadline-aware receives (the hang-forever regression)
# ---------------------------------------------------------------------------

class TestRecvDeadline:
    def test_pool_default_timeout(self):
        # A live worker with nothing to say must not hang the parent:
        # the pool-wide deadline turns silence into a typed error.
        with WorkerPool(1, recv_timeout=0.3) as pool:
            with pytest.raises(WorkerTimeout, match="alive but stuck"):
                pool.recv(0)
            assert pool.alive(0)  # diagnosis, not escalation

    def test_per_call_timeout_overrides_pool_default(self):
        with WorkerPool(1) as pool:  # legacy pool: no default deadline
            with pytest.raises(WorkerTimeout):
                pool.recv(0, timeout=0.3)


# ---------------------------------------------------------------------------
# Shutdown escalation
# ---------------------------------------------------------------------------

def _stubborn_worker(conn, worker_id):
    """A worker that ignores stop commands and masks SIGTERM.

    Sends one readiness reply so the parent can wait until the mask is
    actually installed — terminating earlier would race process startup
    and let plain SIGTERM win.
    """
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send(("ready",))
    while True:
        time.sleep(600)


def _await_ready(pool):
    for w in range(pool.num_workers):
        assert pool.recv(w, timeout=10.0) == ("ready",)


class TestCloseEscalation:
    def test_clean_close_stops_workers(self):
        pool = WorkerPool(2)
        procs = list(pool._procs)
        pool.close()
        assert all(not p.is_alive() for p in procs)
        # Cooperative stop, not a kill.
        assert all(p.exitcode == 0 for p in procs)

    @needs_fork
    def test_close_kills_stop_ignoring_worker(self, monkeypatch):
        import repro.runtime.pool as pool_mod

        monkeypatch.setattr(pool_mod, "worker_main", _stubborn_worker)
        pool = WorkerPool(2)
        procs = list(pool._procs)
        _await_ready(pool)
        pool.close(join_timeout=0.3)
        # stop ignored, SIGTERM masked: only SIGKILL gets them down.
        assert all(not p.is_alive() for p in procs)
        assert all(p.exitcode == -signal.SIGKILL for p in procs)

    @needs_fork
    def test_ensure_dead_escalates_to_kill(self, monkeypatch):
        import repro.runtime.pool as pool_mod

        monkeypatch.setattr(pool_mod, "worker_main", _stubborn_worker)
        pool = WorkerPool(1)
        try:
            victim = pool._procs[0]
            _await_ready(pool)
            pool.ensure_dead(0, grace=0.2)
            assert not victim.is_alive()
            assert victim.exitcode == -signal.SIGKILL
        finally:
            pool.close(join_timeout=0.3)

    def test_restart_replaces_dead_worker(self):
        with WorkerPool(2) as pool:
            old = pool._procs[0]
            old.kill()
            old.join(timeout=10.0)
            assert not pool.alive(0)
            pool.restart(0)
            assert pool.alive(0)
            assert pool._procs[0] is not old
            assert pool.num_workers == 2
            assert pool.alive(1)  # the other worker was left alone
