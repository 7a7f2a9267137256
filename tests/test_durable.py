"""Durability tests: WAL framing, atomic snapshots, crash recovery.

The contract under test is crash-anywhere equivalence: kill the durable
ingestion pipeline at *any* traced IO operation — at the op boundary or
tearing a write mid-entry — and recovery under ``"trim"`` must continue
byte-identically (bursts, per-level operation counters, amendment
ledger) to a run that never crashed, while ``"strict"`` must either do
the same or refuse with :class:`CorruptWalError` exactly when data was
really torn.  The sweep here drives the same
:mod:`repro.durable.fsio` hook the testkit's ``crash_recover`` relation
uses, over every traced operation of a recorded run.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.chunked import ChunkedDetector
from repro.core.multi import MultiStreamDetector
from repro.core.sbt import shifted_binary_tree
from repro.core.thresholds import NormalThresholds, all_sizes
from repro.durable import fsio
from repro.durable.fsio import (
    KillAtHook,
    OpCountingHook,
    SimulatedCrash,
    atomic_write_bytes,
    crash_hook,
)
from repro.durable.ingestor import (
    DurableMultiStreamIngestor,
    DurableStreamIngestor,
)
from repro.durable.snapshot import (
    carry_from_dict,
    carry_to_dict,
    load_latest_snapshot,
    snapshot_paths,
    write_snapshot,
)
from repro.durable.wal import (
    CorruptWalError,
    WriteAheadLog,
    entry_records,
    scan_wal,
)
from repro.ingest import AmendmentLedger, LateRecordError, StreamIngestor
from repro.ingest.ledger import BurstAmended, BurstRetracted
from repro.io.spec import DetectorSpec
from repro.runtime import (
    Fault,
    FaultPlan,
    ParallelMultiStreamDetector,
    SupervisorPolicy,
)

needs_dev_shm = pytest.mark.skipif(
    not Path("/dev/shm").is_dir(), reason="POSIX shared memory not mounted"
)

#: Short deadlines so an injected worker kill resolves in ~a second.
FAST_SUPERVISION = SupervisorPolicy(
    deadline=2.0, term_grace=0.5, backoff_base=0.01, backoff_cap=0.05
)


@pytest.fixture
def spec(rng):
    train = rng.poisson(6.0, 600).astype(np.float64)
    thresholds = NormalThresholds.from_data(train, 1e-3, all_sizes(16))
    return DetectorSpec(shifted_binary_tree(16), thresholds)


def assert_counters_equal(a, b):
    assert np.array_equal(a.updates, b.updates)
    assert np.array_equal(a.filter_comparisons, b.filter_comparisons)
    assert np.array_equal(a.alarms, b.alarms)
    assert np.array_equal(a.search_cells, b.search_cells)
    assert a.bursts == b.bursts


# ---------------------------------------------------------------------------
# Write-ahead log
# ---------------------------------------------------------------------------

class TestWal:
    def test_append_rolls_segments_and_scan_reads_back(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_entries=3)
        for i in range(8):
            assert wal.append("push", {"t": i, "v": float(i)}) == i
        wal.close()
        # 8 entries at 3/segment: two full segments plus a sealed stub.
        names = sorted(p.name for p in tmp_path.glob("wal-*"))
        assert names == [
            "wal-00000000.log",
            "wal-00000001.log",
            "wal-00000002.log",
        ]
        scan = scan_wal(tmp_path, "strict")
        assert [e["lsn"] for e in scan.entries] == list(range(8))
        assert [e["t"] for e in scan.entries] == list(range(8))
        assert scan.trimmed_entries == 0
        assert scan.next_segment == 3
        assert scan.next_lsn == 8

    def test_scan_seals_the_active_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_entries=100)
        wal.append("push", {"t": 0, "v": 1.0})
        wal.append("finish", {})
        # Abandon without close(): the segment is still .open.
        wal._file.close()
        assert list(tmp_path.glob("wal-*.open"))
        scan = scan_wal(tmp_path, "strict")
        assert scan.next_lsn == 2
        assert not list(tmp_path.glob("wal-*.open"))
        assert list(tmp_path.glob("wal-*.log"))
        # Re-scan of the canonicalized directory agrees.
        assert scan_wal(tmp_path, "strict").entries == scan.entries

    @staticmethod
    def _torn_wal(directory: Path, cut: int) -> None:
        """A WAL whose active segment loses its last ``cut`` bytes."""
        wal = WriteAheadLog(directory, segment_entries=100)
        wal.append("push", {"t": 0, "v": 1.0})
        wal.append("batch", {"t": [1, 2, 3], "v": [1.0, 2.0, 3.0]})
        wal._file.close()
        [active] = directory.glob("wal-*.open")
        raw = active.read_bytes()
        active.write_bytes(raw[: len(raw) - cut])

    def test_torn_tail_strict_raises(self, tmp_path):
        self._torn_wal(tmp_path, cut=5)
        with pytest.raises(CorruptWalError, match="torn tail"):
            scan_wal(tmp_path, "strict")

    def test_torn_tail_trim_quarantines_with_exact_accounting(
        self, tmp_path
    ):
        self._torn_wal(tmp_path, cut=5)
        scan = scan_wal(tmp_path, "trim")
        # The batch entry died; its record count survives in the header.
        assert scan.next_lsn == 1
        assert scan.trimmed_entries == 1
        assert scan.trimmed_records == 3
        assert list(tmp_path.glob("wal-*.corrupt"))
        # The repaired directory is clean under strict from now on.
        again = scan_wal(tmp_path, "strict")
        assert again.entries == scan.entries
        assert again.trimmed_entries == 0

    def test_damage_inside_sealed_segment_is_never_trimmable(
        self, tmp_path
    ):
        wal = WriteAheadLog(tmp_path, segment_entries=2)
        for i in range(4):
            wal.append("push", {"t": i, "v": float(i)})
        wal.close()
        first = tmp_path / "wal-00000000.log"
        raw = bytearray(first.read_bytes())
        raw[4] ^= 0xFF
        first.write_bytes(bytes(raw))
        for policy in ("strict", "trim"):
            with pytest.raises(CorruptWalError, match="sealed segment"):
                scan_wal(tmp_path, policy)

    def test_missing_sealed_segment_detected(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_entries=2)
        for i in range(6):
            wal.append("push", {"t": i, "v": float(i)})
        wal.close()
        (tmp_path / "wal-00000001.log").unlink()
        with pytest.raises(CorruptWalError, match="missing sealed"):
            scan_wal(tmp_path, "trim")

    def test_multiple_active_segments_fatal(self, tmp_path):
        (tmp_path / "wal-00000000.open").write_bytes(b"")
        (tmp_path / "wal-00000001.open").write_bytes(b"")
        with pytest.raises(CorruptWalError, match="multiple active"):
            scan_wal(tmp_path, "trim")

    def test_leftover_open_with_sealed_twin_is_superseded(self, tmp_path):
        # An interrupted trim leaves both wal-N.log (republished) and
        # wal-N.open (damaged original); the sealed twin wins.
        wal = WriteAheadLog(tmp_path, segment_entries=100)
        wal.append("push", {"t": 0, "v": 1.0})
        wal.close()
        (tmp_path / "wal-00000000.open").write_bytes(b"garbage")
        scan = scan_wal(tmp_path, "strict")
        assert scan.next_lsn == 1
        assert not list(tmp_path.glob("wal-*.open"))

    def test_invalid_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="recovery must be"):
            scan_wal(tmp_path, "fix-everything")

    def test_entry_records_accounting(self):
        assert entry_records({"op": "push", "t": 3, "v": 1.0}) == 1
        assert entry_records({"op": "batch", "t": [1, 2], "v": [0, 0]}) == 2
        assert entry_records({"op": "punctuate", "w": 9}) == 0
        assert entry_records({"op": "correct", "t": 1, "v": 0.0}) == 0
        assert entry_records({"op": "finish"}) == 0


# ---------------------------------------------------------------------------
# fsio: atomic publication survives a kill at every traced operation
# ---------------------------------------------------------------------------

class TestAtomicWrite:
    def test_never_observable_half_written(self, tmp_path):
        target = tmp_path / "meta.json"
        old, new = b"old contents\n", b"replacement, longer contents\n"
        counting = OpCountingHook()
        target.write_bytes(old)
        with crash_hook(counting):
            atomic_write_bytes(target, new)
        assert target.read_bytes() == new
        total = counting.count
        assert total >= 4  # write, fsync, rename, dir fsync

        for index in range(total):
            for tear in (None, 0.5):
                target.write_bytes(old)
                with crash_hook(KillAtHook(index, tear)):
                    with pytest.raises(SimulatedCrash):
                        atomic_write_bytes(target, new)
                # Old content until the rename op; new after; never a mix.
                assert target.read_bytes() in (old, new)

    def test_tear_on_write_keeps_prefix_only(self, tmp_path):
        f = fsio.open_append(tmp_path / "seg")
        with crash_hook(KillAtHook(0, 0.5)):
            with pytest.raises(SimulatedCrash):
                fsio.append_bytes(f, b"0123456789")
        f.close()
        assert (tmp_path / "seg").read_bytes() == b"01234"


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

class TestSnapshots:
    def test_round_trip_and_newest_wins(self, tmp_path):
        write_snapshot(tmp_path, 5, {"x": 1})
        write_snapshot(tmp_path, 12, {"x": 2})
        assert len(snapshot_paths(tmp_path)) == 2
        assert load_latest_snapshot(tmp_path) == (12, {"x": 2})

    def test_corrupt_snapshot_skipped(self, tmp_path):
        write_snapshot(tmp_path, 5, {"x": 1})
        newest = write_snapshot(tmp_path, 12, {"x": 2})
        raw = bytearray(newest.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        newest.write_bytes(bytes(raw))
        assert load_latest_snapshot(tmp_path) == (5, {"x": 1})

    def test_max_lsn_cap_ignores_post_trim_snapshots(self, tmp_path):
        write_snapshot(tmp_path, 5, {"x": 1})
        write_snapshot(tmp_path, 12, {"x": 2})
        assert load_latest_snapshot(tmp_path, max_lsn=9) == (5, {"x": 1})
        assert load_latest_snapshot(tmp_path, max_lsn=3) is None

    def test_empty_directory(self, tmp_path):
        assert load_latest_snapshot(tmp_path) is None

    def test_carry_survives_json(self, spec, rng):
        det = ChunkedDetector(spec.structure, spec.thresholds, spec.aggregate)
        det.process(rng.poisson(6.0, 300).astype(np.float64))
        carry = det.carry()
        back = carry_from_dict(
            json.loads(json.dumps(carry_to_dict(carry), sort_keys=True))
        )
        assert back.length == carry.length
        assert back.aggregate == carry.aggregate
        assert back.offset == carry.offset
        assert np.array_equal(back.tail, carry.tail)
        assert_counters_equal(back.counters, carry.counters)


# ---------------------------------------------------------------------------
# Durable single-stream ingestion
# ---------------------------------------------------------------------------

def _counter_lists(counters) -> tuple:
    return (
        counters.updates.tolist(),
        counters.filter_comparisons.tolist(),
        counters.alarms.tolist(),
        counters.search_cells.tolist(),
        int(counters.bursts),
    )


def _fingerprint(dur) -> tuple:
    """Everything the equivalence contract covers, JSON-stable."""
    return (
        tuple(
            sorted((b.end, b.size, b.value) for b in dur.final_bursts())
        ),
        json.dumps(dur.ledger.as_dict(), sort_keys=True),
    ) + _counter_lists(dur.counters)


def _apply_ops(dur, ops) -> None:
    """Call ``dur.<op>(*args)`` for each ``(op, *args)``; a fleet's
    stream ops carry the stream name as their first argument."""
    for op, *args in ops:
        getattr(dur, op)(*args)


def _scripted_ops(rng, n: int) -> list[tuple]:
    """In-order pushes with one punctuation and one correction mixed in."""
    vals = rng.poisson(6.0, n).astype(np.float64)
    ops: list[tuple] = [("push", t, float(v)) for t, v in enumerate(vals)]
    ops.insert(n // 2, ("punctuate", n // 2))
    # Rewrite a long-sealed bin near the end: the amendment path.
    ops.insert(n - 2, ("correct", 3, float(vals[3] + 40.0)))
    ops.append(("finish",))
    return ops


class TestDurableStream:
    def test_matches_plain_ingestor(self, spec, rng, tmp_path):
        ops = _scripted_ops(rng, 80)
        det = ChunkedDetector(
            spec.structure, spec.thresholds, spec.aggregate
        )
        plain = StreamIngestor(
            det, spec.thresholds, spec.aggregate, max_lateness=2
        )
        dur = DurableStreamIngestor(
            spec, tmp_path / "run", max_lateness=2, snapshot_every=16
        )
        for op in ops:
            if op[0] == "push":
                assert dur.push(op[1], op[2]) == plain.push(op[1], op[2])
            elif op[0] == "punctuate":
                assert dur.punctuate(op[1]) == plain.punctuate(op[1])
            elif op[0] == "correct":
                dur.correct(op[1], op[2])
                plain.correct(op[1], op[2])
            else:
                assert dur.finish() == plain.finish()
        assert tuple(dur.final_bursts()) == tuple(plain.final_bursts())
        assert dur.ledger.as_dict() == plain.ledger.as_dict()
        assert_counters_equal(dur.counters, det.counters)

    def test_second_run_in_same_directory_rejected(self, spec, tmp_path):
        DurableStreamIngestor(spec, tmp_path / "run")
        with pytest.raises(FileExistsError, match="already holds"):
            DurableStreamIngestor(spec, tmp_path / "run")

    def test_recover_of_empty_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no durable run"):
            DurableStreamIngestor.recover(tmp_path)

    def test_recover_refuses_a_fleet_run_untouched(self, spec, tmp_path):
        fleet = MultiStreamDetector.shared(
            ["a", "b"], spec.structure, spec.thresholds,
            aggregate=spec.aggregate,
        )
        dur = DurableMultiStreamIngestor(fleet, spec, tmp_path)
        dur.push("a", 0, 1.0)
        dur._wal._file.close()
        before = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(CorruptWalError, match="fleet"):
            DurableStreamIngestor.recover(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_snapshot_cadence_and_recovery_from_newest(
        self, spec, rng, tmp_path
    ):
        dur = DurableStreamIngestor(
            spec, tmp_path / "run", snapshot_every=5
        )
        for t, v in enumerate(rng.poisson(6.0, 12).astype(np.float64)):
            dur.push(t, float(v))
        dur._durable._wal._file.close()
        lsns = [int(p.stem.split("-")[1]) for p in
                snapshot_paths(tmp_path / "run")]
        assert lsns == [5, 10]
        _, report = DurableStreamIngestor.recover(tmp_path / "run")
        assert report.snapshot_lsn == 10
        assert report.replayed_entries == 2
        assert report.ops_applied == 12
        assert not report.finished

    def test_recover_mid_run_continues_byte_identically(
        self, spec, rng, tmp_path
    ):
        ops = _scripted_ops(rng, 80)
        ref = DurableStreamIngestor(
            spec, tmp_path / "ref", max_lateness=2, snapshot_every=16
        )
        _apply_ops(ref, ops)
        want = _fingerprint(ref)

        cut = len(ops) // 2
        dur = DurableStreamIngestor(
            spec,
            tmp_path / "run",
            max_lateness=2,
            snapshot_every=16,
            segment_entries=7,
        )
        _apply_ops(dur, ops[:cut])
        dur._durable._wal._file.close()  # abandoned, not closed

        resumed, report = DurableStreamIngestor.recover(tmp_path / "run")
        assert report.ops_applied == cut
        assert report.trimmed_entries == 0
        assert not report.finished
        _apply_ops(resumed, ops[report.ops_applied :])
        assert _fingerprint(resumed) == want

    def test_recover_finished_run(self, spec, rng, tmp_path):
        ops = _scripted_ops(rng, 60)
        dur = DurableStreamIngestor(
            spec, tmp_path / "run", max_lateness=2
        )
        _apply_ops(dur, ops)
        want = _fingerprint(dur)
        resumed, report = DurableStreamIngestor.recover(tmp_path / "run")
        assert report.finished
        assert resumed.finished
        assert _fingerprint(resumed) == want

    def test_crash_anywhere_sweep(self, spec, rng, tmp_path):
        vals = rng.poisson(6.0, 36).astype(np.float64)
        ops = [("push", t, float(v)) for t, v in enumerate(vals)]
        ops.append(("finish",))
        knobs = dict(max_lateness=2, snapshot_every=6, segment_entries=5)
        _crash_sweep(
            tmp_path,
            lambda directory: DurableStreamIngestor(spec, directory, **knobs),
            DurableStreamIngestor.recover,
            ops,
            _fingerprint,
        )


def _crash_sweep(tmp_path, start, recover, ops, fingerprint) -> None:
    """Kill the pipeline at traced IO offsets; recovery must agree.

    ``start(directory)`` begins a durable run that ``ops`` feed (see
    :func:`_apply_ops`, one WAL entry each) and ``recover`` resumes it.
    ``trim`` must always land byte-identical to the uninterrupted run;
    ``strict`` must do the same or refuse with :class:`CorruptWalError`
    — and when it refuses, ``trim`` on the same crash must report
    genuinely trimmed entries.
    """
    counting = OpCountingHook()
    ref = start(tmp_path / "ref")
    with crash_hook(counting):
        _apply_ops(ref, ops)
    want = fingerprint(ref)
    total = counting.count
    assert total > 40  # the run is IO-dense enough to be worth sweeping

    def crashed_run(directory, kill, tear):
        try:
            with crash_hook(KillAtHook(kill, tear)):
                _apply_ops(start(directory), ops)
        except SimulatedCrash:
            return True
        return False

    def recover_and_compare(directory, policy):
        resumed, report = recover(directory, recovery=policy)
        if not report.finished:
            _apply_ops(resumed, ops[report.ops_applied :])
        assert fingerprint(resumed) == want, (
            f"{policy} diverged: {report.summary()}"
        )
        return report

    strict_raises = 0
    for kill in range(total):
        for tear in (None,) if kill % 5 else (None, 0.5):
            trim_dir = tmp_path / f"t{kill}-{tear}"
            assert crashed_run(trim_dir, kill, tear)
            try:
                trim_report = recover_and_compare(trim_dir, "trim")
            except FileNotFoundError:
                # Crash before meta.json became durable: the run
                # never existed; a fresh start is the recovery.
                assert kill < 8
                continue
            strict_dir = tmp_path / f"s{kill}-{tear}"
            assert crashed_run(strict_dir, kill, tear)
            try:
                recover_and_compare(strict_dir, "strict")
            except CorruptWalError:
                # strict refused: trim must have repaired real loss.
                strict_raises += 1
                assert trim_report.trimmed_entries > 0
    # The sweep genuinely exercised the torn-tail path.
    assert strict_raises > 0


# ---------------------------------------------------------------------------
# Directories in the single-stream shape (meta kind "stream")
# ---------------------------------------------------------------------------

#: Written by the single-stream implementation of commit b2cd43a: meta
#: kind "stream", WAL entries without a stream name, snapshots shaped
#: {ingestor, carry, counters}.  ``feed.json`` holds the operations fed
#: and the uninterrupted run's fingerprint.  ``midrun`` was abandoned
#: after 27 operations (a snapshot at LSN 16 and an ``.open`` segment);
#: ``finished`` ran to the end.
STREAM_V1 = Path(__file__).parent / "fixtures" / "durable_stream_v1"


@pytest.mark.parametrize("keep_snapshots", [True, False])
@pytest.mark.parametrize("run", ["midrun", "finished"])
def test_recovers_stream_shaped_directory(tmp_path, run, keep_snapshots):
    from repro.testkit.crash import _fingerprint as crash_fingerprint

    feed = json.loads((STREAM_V1 / "feed.json").read_text())
    directory = tmp_path / run
    shutil.copytree(STREAM_V1 / run, directory)
    if not keep_snapshots:
        # Snapshots only accelerate: the WAL alone must land the same.
        for path in snapshot_paths(directory):
            path.unlink()
    dur, report = DurableStreamIngestor.recover(directory)
    assert report.trimmed_entries == 0
    if run == "midrun":
        assert not report.finished
        assert report.ops_applied == 27
        assert report.snapshot_lsn == (16 if keep_snapshots else 0)
        _apply_ops(dur, feed["ops"][report.ops_applied :])
    else:
        assert report.finished
        assert report.ops_applied == len(feed["ops"])
    assert crash_fingerprint(dur) == feed["fingerprint"]
    # The resumed run recovers again from what it wrote itself.
    again, _ = DurableStreamIngestor.recover(directory)
    assert crash_fingerprint(again) == feed["fingerprint"]


# ---------------------------------------------------------------------------
# Refused calls
# ---------------------------------------------------------------------------

#: case -> (two-stream fleet?, the refused call, its error).  Bins 0-19
#: are fed first (frontier 19), so bins from 19 on are unsealed and bin 5
#: is late.
REFUSED_CALLS = {
    "fractional-push": (False, lambda d: d.push(22.5, 1.0), ValueError),
    "negative-value": (
        False, lambda d: d.push_batch([20, 21], [1.0, -1.0]), ValueError
    ),
    "nan-value": (
        False, lambda d: d.push_batch([20, 21], [1.0, np.nan]), ValueError
    ),
    "fractional-batch": (
        False, lambda d: d.push_batch([20.5, 21.0], [1.0, 2.0]), ValueError
    ),
    "correct-unsealed": (False, lambda d: d.correct(25, 1.0), ValueError),
    # Refused before any record is counted, live and on replay alike.
    "late-record": (
        False, lambda d: d.push_batch([25, 5], [1.0, 1.0]), LateRecordError
    ),
    "unknown-stream": (
        True, lambda d: d.push_batch("c", [20], [1.0]), KeyError
    ),
    "push-after-recovered-finish": (
        False, lambda d: d.push(40, 1.0), RuntimeError
    ),
}


def _feed_range(dur, vals, lo: int, hi: int) -> None:
    ts = np.arange(lo, hi)
    if isinstance(dur, DurableMultiStreamIngestor):
        for name in dur.names:
            dur.push_batch(name, ts, vals[lo:hi])
    else:
        dur.push_batch(ts, vals[lo:hi])


def _state(dur) -> tuple:
    if isinstance(dur, DurableMultiStreamIngestor):
        return _multi_fingerprint(dur)
    return _fingerprint(dur)


@pytest.mark.parametrize("case", sorted(REFUSED_CALLS))
def test_refused_call_does_not_poison_the_log(spec, rng, tmp_path, case):
    """Recovery lands on the live run's state after a refused call:
    nothing it cannot replay was logged, and what was logged is refused
    on replay as it was live."""
    fleet, call, error = REFUSED_CALLS[case]
    vals = rng.poisson(6.0, 30).astype(np.float64)
    directory = tmp_path / "run"
    if fleet:
        dur = DurableMultiStreamIngestor(
            MultiStreamDetector.shared(
                ["a", "b"], spec.structure, spec.thresholds,
                aggregate=spec.aggregate,
            ),
            spec,
            directory,
        )
    else:
        dur = DurableStreamIngestor(spec, directory)
    _feed_range(dur, vals, 0, 20)
    if case == "push-after-recovered-finish":
        dur.finish()
        dur, _ = DurableStreamIngestor.recover(directory)
    with pytest.raises(error):
        call(dur)
    if not dur.finished:
        _feed_range(dur, vals, 20, 30)
    recovered, report = type(dur).recover(directory)
    assert report.trimmed_entries == 0
    assert _state(recovered) == _state(dur)


# ---------------------------------------------------------------------------
# Durable fleets, serial and parallel
# ---------------------------------------------------------------------------

def _multi_fingerprint(dur) -> tuple:
    bursts = {
        name: tuple(sorted((b.end, b.size, b.value) for b in burst_set))
        for name, burst_set in dur.final_bursts().items()
    }
    return (bursts, json.dumps(dur.ledger().as_dict(), sort_keys=True))


def _feed_multi(dur, feeds, chunk: int) -> None:
    n = max(len(v) for v in feeds.values())
    for lo in range(0, n, chunk):
        for name in sorted(feeds):
            vals = feeds[name][lo : lo + chunk]
            if vals.size:
                ts = np.arange(lo, lo + vals.size, dtype=np.int64)
                dur.push_batch(name, ts, vals)
    dur.finish()


class TestDurableMulti:
    @pytest.fixture
    def feeds(self, rng):
        return {
            "a": rng.poisson(6.0, 600).astype(np.float64),
            "b": rng.exponential(5.0, 540),
        }

    def _serial_fleet(self, spec, names, **kwargs):
        return MultiStreamDetector.shared(
            list(names), spec.structure, spec.thresholds,
            aggregate=spec.aggregate, **kwargs,
        )

    def test_crash_anywhere_sweep(self, spec, rng, tmp_path):
        """The single-stream sweep over a two-stream fleet: pushes
        alternate between streams, so kills land mid-way through
        per-stream routing and per-stream carries in snapshots."""
        vals = rng.poisson(6.0, 36).astype(np.float64)
        ops = [
            ("push", "ab"[i % 2], i // 2, float(v))
            for i, v in enumerate(vals)
        ]
        ops.append(("finish",))

        def start(directory):
            return DurableMultiStreamIngestor(
                self._serial_fleet(spec, "ab"), spec, directory,
                max_lateness=2, snapshot_every=6, segment_entries=5,
            )

        def fingerprint(dur):
            counters = dur._fleet.stream_counters()
            return _multi_fingerprint(dur) + tuple(
                _counter_lists(counters[name]) for name in "ab"
            )

        _crash_sweep(
            tmp_path, start, DurableMultiStreamIngestor.recover, ops,
            fingerprint,
        )

    def test_recover_rebuilds_the_fleets_refine_filter(
        self, spec, feeds, tmp_path
    ):
        batches = [
            (name, lo + np.arange(vals.size), vals)
            for lo in range(0, 600, 150)
            for name in sorted(feeds)
            if (vals := feeds[name][lo : lo + 150]).size
        ]
        ref_fleet = self._serial_fleet(spec, feeds, refine_filter=False)
        ref = DurableMultiStreamIngestor(
            ref_fleet, spec, tmp_path / "ref", snapshot_every=3
        )
        for batch in batches:
            ref.push_batch(*batch)
        ref.finish()

        dur = DurableMultiStreamIngestor(
            self._serial_fleet(spec, feeds, refine_filter=False),
            spec,
            tmp_path / "run",
            snapshot_every=3,
        )
        for batch in batches[:4]:
            dur.push_batch(*batch)
        dur._wal._file.close()  # abandoned after a snapshot at LSN 3
        resumed, report = DurableMultiStreamIngestor.recover(
            tmp_path / "run"
        )
        assert (report.snapshot_lsn, report.ops_applied) == (3, 4)
        for batch in batches[4:]:
            resumed.push_batch(*batch)
        resumed.finish()
        assert _multi_fingerprint(resumed) == _multi_fingerprint(ref)
        got = resumed._fleet.stream_counters()
        for name, counters in ref_fleet.stream_counters().items():
            assert_counters_equal(got[name], counters)

    def test_recover_mid_run_matches_uninterrupted(
        self, spec, feeds, tmp_path
    ):
        ref = DurableMultiStreamIngestor(
            self._serial_fleet(spec, feeds),
            spec,
            tmp_path / "ref",
            snapshot_every=3,
        )
        _feed_multi(ref, feeds, chunk=150)
        want = _multi_fingerprint(ref)

        dur = DurableMultiStreamIngestor(
            self._serial_fleet(spec, feeds),
            spec,
            tmp_path / "run",
            snapshot_every=3,
        )
        # Feed only the first five batches, then abandon.
        sent = 0
        n = max(len(v) for v in feeds.values())
        for lo in range(0, n, 150):
            for name in sorted(feeds):
                vals = feeds[name][lo : lo + 150]
                if vals.size and sent < 5:
                    ts = np.arange(lo, lo + vals.size, dtype=np.int64)
                    dur.push_batch(name, ts, vals)
                    sent += 1
        dur._wal._file.close()

        resumed, report = DurableMultiStreamIngestor.recover(
            tmp_path / "run"
        )
        assert report.snapshot_lsn > 0
        assert not report.finished
        # Re-send from the record offset (batch boundaries may differ).
        skip = report.records_applied
        seen = {name: 0 for name in feeds}
        for lo in range(0, n, 150):
            for name in sorted(feeds):
                vals = feeds[name][lo : lo + 150]
                if not vals.size:
                    continue
                ts = np.arange(lo, lo + vals.size, dtype=np.int64)
                done = sum(seen.values())
                if done + vals.size > skip:
                    off = max(0, skip - done) if done < skip else 0
                    resumed.push_batch(name, ts[off:], vals[off:])
                seen[name] += vals.size
        resumed.finish()
        assert _multi_fingerprint(resumed) == want

    def test_parallel_checkpoints_match_serial(self, spec, feeds):
        serial = self._serial_fleet(spec, feeds)
        fleet = ParallelMultiStreamDetector.shared(
            list(feeds), spec.structure, spec.thresholds,
            aggregate=spec.aggregate, workers=2,
        )
        with fleet:
            for lo in range(0, 600, 200):
                chunks = {
                    name: feeds[name][lo : lo + 200] for name in feeds
                }
                chunks = {n: c for n, c in chunks.items() if c.size}
                serial.process(chunks)
                fleet.process(chunks)
                want = serial.checkpoints()
                got = fleet.checkpoints()
                assert sorted(got) == sorted(want)
                for name in want:
                    assert got[name].length == want[name].length
                    assert got[name].aggregate == want[name].aggregate
                    assert got[name].offset == want[name].offset
                    assert np.array_equal(
                        got[name].tail, want[name].tail
                    )
                    assert_counters_equal(
                        got[name].counters, want[name].counters
                    )
                theirs = serial.stream_counters()
                for name, counters in fleet.stream_counters().items():
                    assert_counters_equal(counters, theirs[name])

    def test_from_carries_resumes_byte_identically(self, spec, feeds):
        serial = self._serial_fleet(spec, feeds)
        ref = self._serial_fleet(spec, feeds)
        want = ref.detect(feeds, chunk_size=200)

        head = {name: vals[:200] for name, vals in feeds.items()}
        got = {name: list(bs) for name, bs in serial.process(head).items()}
        resumed = ParallelMultiStreamDetector.from_carries(
            spec.structure, spec.thresholds, serial.checkpoints(),
            workers=2,
        )
        with resumed:
            for lo in range(200, 600, 200):
                chunks = {
                    name: feeds[name][lo : lo + 200] for name in feeds
                }
                chunks = {n: c for n, c in chunks.items() if c.size}
                for name, bursts in resumed.process(chunks).items():
                    got[name].extend(bursts)
            for name, bursts in resumed.finish().items():
                got[name].extend(bursts)
            for name in feeds:
                # detect() returns a sorted BurstSet; process() emits in
                # discovery order — compare as sets of identical bursts.
                assert sorted(got[name]) == sorted(want[name]), name
                assert_counters_equal(
                    resumed.counters(name), ref.detector(name).counters
                )

    @needs_dev_shm
    def test_supervised_kill_with_snapshots_pending(
        self, spec, feeds, tmp_path
    ):
        """The crash matrix: a worker dies mid-round while the durable
        layer is between snapshots.  The supervised run must heal, leak
        nothing, stay byte-identical to serial, and leave a durable
        directory that recovers to the same finished state."""
        ref = DurableMultiStreamIngestor(
            self._serial_fleet(spec, feeds),
            spec,
            tmp_path / "ref",
            snapshot_every=3,
        )
        _feed_multi(ref, feeds, chunk=150)
        want = _multi_fingerprint(ref)

        before = set(os.listdir("/dev/shm"))
        fleet = ParallelMultiStreamDetector.shared(
            list(feeds),
            spec.structure,
            spec.thresholds,
            aggregate=spec.aggregate,
            workers=2,
            faults="restart",
            supervision=FAST_SUPERVISION,
            # Each ingestion-driven round addresses one stream's owner;
            # arming both workers guarantees whoever owns round 2 dies.
            fault_plan=FaultPlan(
                (Fault("kill", 2, worker=0), Fault("kill", 2, worker=1))
            ),
        )
        dur = DurableMultiStreamIngestor(
            fleet, spec, tmp_path / "run", snapshot_every=3
        )
        _feed_multi(dur, feeds, chunk=150)
        assert fleet.total_restarts >= 1  # the kill genuinely fired
        assert not fleet.degraded
        assert _multi_fingerprint(dur) == want
        fleet.close()
        assert set(os.listdir("/dev/shm")) - before == set()

        recovered, report = DurableMultiStreamIngestor.recover(
            tmp_path / "run"
        )
        assert report.finished
        assert _multi_fingerprint(recovered) == want


# ---------------------------------------------------------------------------
# Amendment ledger serialization
# ---------------------------------------------------------------------------

class TestLedgerRoundTrip:
    @staticmethod
    def _busy_ledger() -> AmendmentLedger:
        ledger = AmendmentLedger()
        ledger.records = 100
        ledger.records_sealed = 90
        ledger.bins_sealed = 40
        ledger.duplicates_merged = 3
        ledger.late_dropped = 2
        ledger.late_amended = 4
        ledger.corrections = 1
        ledger.windows_reevaluated = 7
        # None old_value: a burst discovered late, not revised — the
        # JSON null + None-aware sort-key case.
        ledger.record_amendment(BurstAmended(12, 4, None, 9.5))
        ledger.record_amendment(BurstAmended(12, 4, 8.25, 9.5))
        ledger.record_amendment(BurstAmended(7, 2, 3.0, 4.0))
        ledger.record_retraction(BurstRetracted(20, 8, 15.0, 1.0))
        return ledger

    def test_json_round_trip_is_a_fixed_point(self):
        ledger = self._busy_ledger()
        payload = json.loads(json.dumps(ledger.to_dict(), sort_keys=True))
        back = AmendmentLedger.from_dict(payload)
        assert back.as_dict() == ledger.as_dict()
        assert back.to_dict() == payload

    def test_event_order_is_canonical(self):
        a = self._busy_ledger()
        b = AmendmentLedger()
        b.records, b.records_sealed, b.bins_sealed = 100, 90, 40
        b.duplicates_merged, b.late_dropped = 3, 2
        b.late_amended, b.corrections, b.windows_reevaluated = 4, 1, 7
        # Same events, scrambled arrival order.
        b.record_retraction(BurstRetracted(20, 8, 15.0, 1.0))
        b.record_amendment(BurstAmended(7, 2, 3.0, 4.0))
        b.record_amendment(BurstAmended(12, 4, 8.25, 9.5))
        b.record_amendment(BurstAmended(12, 4, None, 9.5))
        assert a.as_dict() == b.as_dict()
