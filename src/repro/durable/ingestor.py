"""Log-before-apply ingestion and crash recovery.

:class:`DurableMultiStreamIngestor` wraps the :mod:`repro.ingest`
pipeline of a named fleet with the durability contract:

1. **Log before apply.**  Every mutating call — ``push``,
   ``push_batch``, ``punctuate``, ``correct``, ``finish`` — is
   validated, appended to the write-ahead log as one entry, and then
   applied *from that entry* through the same dispatch recovery
   replays.  The applied state is therefore always a deterministic
   replay of a WAL prefix, and a call the pipeline refuses up front
   never reaches the log.
2. **Snapshot on cadence.**  Every ``snapshot_every`` WAL entries the
   full resumable state (detector carries, buffered bins, watermarks,
   ledgers, burst beliefs) is published atomically, keyed by LSN.
3. **Recover = snapshot + tail replay.**
   :meth:`~DurableMultiStreamIngestor.recover` loads the newest
   loadable snapshot at or below the surviving WAL prefix, replays the
   remaining entries through the same dispatch, and resumes logging —
   bursts, per-level operation counts and the amendment ledger come
   out byte-identical to a run that never crashed (the testkit's
   ``crash_recover`` relation sweeps every injected kill point to
   prove it).

:class:`DurableStreamIngestor` is one stream as a fleet of one: a
one-stream serial fleet named ``"stream"``, with that name bound on
every call.  It has no journal, snapshot or replay code of its own.
Directories written before single streams were fleets of one (meta
kind ``"stream"``: entries without a stream name, snapshots shaped
``{ingestor, carry, counters}``) are translated as they are read.

Delivery across the crash is at-least-once with a resume offset: the
:class:`RecoveryReport` says exactly how many entries were durably
applied (``ops_applied``) and how many stream records that covers
(``records_applied``), so a feed that retains its outbox re-sends from
there.  Records torn off the WAL tail under ``recovery="trim"`` are
part of that re-send and are accounted exactly
(``trimmed_entries``/``trimmed_records``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ..core.chunked import initial_carry
from ..core.events import Burst, BurstSet
from ..core.multi import MultiStreamDetector
from ..ingest import (
    AmendmentLedger,
    MultiStreamIngestor,
    StreamIngestor,
    validate_records,
)
from ..io.spec import DetectorSpec
from . import fsio
from .snapshot import (
    carry_from_dict,
    carry_to_dict,
    counters_from_dict,
    counters_to_dict,
    load_latest_snapshot,
    write_snapshot,
)
from .wal import CorruptWalError, WriteAheadLog, entry_records, scan_wal

__all__ = [
    "DurableMultiStreamIngestor",
    "DurableStreamIngestor",
    "RecoveryReport",
]

META_FORMAT = "repro.durable.meta.v1"

#: The name a :class:`DurableStreamIngestor`'s one stream goes by.
STREAM = "stream"


@dataclass(frozen=True)
class RecoveryReport:
    """Exact accounting of one recovery.

    ``ops_applied`` is the resume offset: WAL entries durably applied
    (and therefore reflected in the recovered state); the feed must
    re-send everything it produced from that offset on.
    ``records_applied`` counts the stream records those entries carry.
    """

    snapshot_lsn: int
    replayed_entries: int
    replayed_records: int
    trimmed_entries: int
    trimmed_records: int
    ops_applied: int
    records_applied: int
    finished: bool

    def summary(self) -> str:
        return (
            f"recovered from snapshot lsn={self.snapshot_lsn} "
            f"+ {self.replayed_entries} replayed entr"
            f"{'y' if self.replayed_entries == 1 else 'ies'} "
            f"({self.replayed_records} records); "
            f"trimmed {self.trimmed_entries} entr"
            f"{'y' if self.trimmed_entries == 1 else 'ies'} "
            f"({self.trimmed_records} records); "
            f"resume at op {self.ops_applied} "
            f"(record {self.records_applied})"
            + ("; stream already finished" if self.finished else "")
        )


def _write_meta(directory: Path, meta: dict[str, Any]) -> None:
    fsio.atomic_write_bytes(
        directory / "meta.json",
        (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode(),
    )


def _read_meta(directory: Path) -> dict[str, Any]:
    path = directory / "meta.json"
    if not path.exists():
        raise FileNotFoundError(
            f"{directory} holds no durable run (missing meta.json)"
        )
    meta = json.loads(path.read_text())
    if meta.get("format") != META_FORMAT:
        raise CorruptWalError(
            f"unrecognized meta format {meta.get('format')!r} in {path}"
        )
    if meta.get("kind") == "stream":
        meta["names"] = [STREAM]
    elif meta.get("kind") != "multi":
        raise CorruptWalError(
            f"durable run in {directory} is kind={meta.get('kind')!r}, "
            "expected 'multi'"
        )
    return meta


def _named_entry(entry: Mapping[str, Any]) -> Mapping[str, Any]:
    """A kind-``"stream"`` entry with the stream name it was logged without.

    Entries logged after such a directory was first recovered already
    carry the name; so do the snapshots :func:`_fleet_state` passes on.
    """
    if entry["op"] in ("push", "batch", "correct") and "s" not in entry:
        return {**entry, "s": STREAM}
    return entry


def _fleet_state(state: Mapping[str, Any]) -> Mapping[str, Any]:
    """A kind-``"stream"`` snapshot reshaped as a fleet-of-one snapshot."""
    if "ingestor" not in state:
        return state
    ingestor = state["ingestor"]
    return {
        "multi": {
            "streams": {STREAM: ingestor},
            "finished": ingestor["finished"],
        },
        "carries": {STREAM: state["carry"]},
        "counters": {STREAM: state["counters"]},
    }


def _records(
    timestamps: Any, values: Any, where: str
) -> tuple[list[int], list[float]]:
    """Validated records as the JSON lists a WAL entry holds."""
    ts, vals = validate_records(timestamps, values, where=where)
    return ts.tolist(), vals.tolist()


class DurableMultiStreamIngestor:
    """A named fleet of streams over one shared write-ahead log.

    ``fleet`` is any multi-stream sink the plain
    :class:`~repro.ingest.ingestor.MultiStreamIngestor` accepts that
    additionally exposes ``checkpoints()``, ``stream_counters()`` and
    ``refine_filter`` (the serial
    :class:`~repro.core.multi.MultiStreamDetector` and the parallel
    runtime both do).  Snapshots are taken between operations — for
    the parallel runtime that is a round boundary, where worker
    carries are current.
    Construction starts a *new* durable run in ``durable_dir`` (which
    must not already hold one — resume an existing run with
    :meth:`recover`).
    """

    def __init__(
        self,
        fleet: Any,
        spec: DetectorSpec,
        durable_dir: str | Path,
        *,
        max_lateness: int = 0,
        late_policy: str = "raise",
        snapshot_every: int = 256,
        segment_entries: int = 256,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        directory = Path(durable_dir)
        directory.mkdir(parents=True, exist_ok=True)
        if (directory / "meta.json").exists():
            raise FileExistsError(
                f"{directory} already holds a durable run; use "
                "recover() to resume it"
            )
        meta = {
            "format": META_FORMAT,
            "kind": "multi",
            "spec": spec.to_dict(),
            "names": sorted(fleet.names),
            "max_lateness": int(max_lateness),
            "late_policy": late_policy,
            "snapshot_every": int(snapshot_every),
            "segment_entries": int(segment_entries),
            # The fleet's own setting, so recovery rebuilds its twin.
            "refine_filter": bool(fleet.refine_filter),
        }
        self._init_parts(
            fleet,
            spec,
            directory,
            meta,
            WriteAheadLog(directory, segment_entries=segment_entries),
        )
        _write_meta(directory, meta)

    def _init_parts(
        self,
        fleet: Any,
        spec: DetectorSpec,
        directory: Path,
        meta: dict[str, Any],
        wal: WriteAheadLog,
    ) -> None:
        self.durable_dir = directory
        self._wal = wal
        self.snapshot_every = int(meta["snapshot_every"])
        self._last_snapshot_lsn = 0
        self._fleet = fleet
        self._multi = MultiStreamIngestor(
            fleet,
            spec.thresholds,
            spec.aggregate,
            max_lateness=int(meta["max_lateness"]),
            late_policy=str(meta["late_policy"]),
        )

    # -- the mirrored feeding surface ----------------------------------
    def push(
        self, name: str, timestamp: int, value: float
    ) -> list[Burst]:
        [t], [v] = _records([timestamp], [value], "push")
        return self._stream_op("push", name, {"t": t, "v": v})

    def push_batch(
        self, name: str, timestamps: np.ndarray, values: np.ndarray
    ) -> list[Burst]:
        ts, vals = _records(timestamps, values, "push_batch")
        return self._stream_op("batch", name, {"t": ts, "v": vals})

    def punctuate(self, watermark: int) -> dict[str, list[Burst]]:
        return self._logged("punctuate", {"w": int(watermark)})

    def correct(self, name: str, timestamp: int, value: float) -> None:
        [t], [v] = _records([timestamp], [value], "correct")
        self._stream_op("correct", name, {"t": t, "v": v})

    def finish(self) -> dict[str, list[Burst]]:
        """Log, flush the pipeline, snapshot the final state, seal."""
        self._journal("finish", {})
        out = self._apply("finish", {})
        self.snapshot_now()
        self._wal.close()
        return out

    # -- journal and apply ---------------------------------------------
    def _stream_op(
        self, op: str, name: str, payload: dict[str, Any]
    ) -> Any:
        self._multi.ingestor(name)  # KeyError for an unknown stream
        return self._logged(op, {"s": name, **payload})

    def _logged(self, op: str, payload: dict[str, Any]) -> Any:
        self._journal(op, payload)
        try:
            return self._apply(op, payload)
        finally:
            self._maybe_snapshot()

    def _journal(self, op: str, payload: dict[str, Any]) -> None:
        if self.finished and op != "correct":
            raise RuntimeError(
                "ingestor already finished; only correct() may follow"
            )
        self._wal.append(op, payload)

    def _apply(self, op: str, entry: Mapping[str, Any]) -> Any:
        """Apply one journaled entry: the live call and replay both."""
        multi = self._multi
        if op == "batch":
            # float64, not int64: a fractional timestamp an earlier
            # version logged must be refused on replay as it was live.
            return multi.push_batch(
                entry["s"],
                np.asarray(entry["t"], dtype=np.float64),
                np.asarray(entry["v"], dtype=np.float64),
            )
        if op == "push":
            return multi.push(entry["s"], entry["t"], entry["v"])
        if op == "punctuate":
            return multi.punctuate(entry["w"])
        if op == "correct":
            return multi.correct(entry["s"], entry["t"], entry["v"])
        if op == "finish":
            return multi.finish()
        raise CorruptWalError(f"unknown WAL op {op!r}")

    # -- state access --------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        return self._multi.names

    @property
    def finished(self) -> bool:
        return self._multi._finished  # noqa: SLF001 - same package family

    @property
    def next_lsn(self) -> int:
        return self._wal.next_lsn

    def ingestor(self, name: str) -> StreamIngestor:
        return self._multi.ingestor(name)

    def final_bursts(self) -> dict[str, BurstSet]:
        return self._multi.final_bursts()

    def ledger(self) -> AmendmentLedger:
        return self._multi.ledger()

    # -- snapshots -----------------------------------------------------
    def _maybe_snapshot(self) -> None:
        if (
            self._wal.next_lsn - self._last_snapshot_lsn
            >= self.snapshot_every
        ):
            self.snapshot_now()

    def snapshot_now(self) -> Path:
        """Publish fleet state at the current LSN (a round boundary).

        Each carry holds its stream's counters, so a live pool answers
        with one exchange; a finished run has no carries, only counters.
        """
        if self.finished:
            carries: dict[str, Any] = {name: None for name in self.names}
            counters = self._fleet.stream_counters()
        else:
            checkpoints = self._fleet.checkpoints()
            carries = {
                name: carry_to_dict(carry)
                for name, carry in checkpoints.items()
            }
            counters = {
                name: carry.counters for name, carry in checkpoints.items()
            }
        state = {
            "multi": self._multi.state_dict(),
            "carries": carries,
            "counters": {
                name: counters_to_dict(c) for name, c in counters.items()
            },
        }
        lsn = self._wal.next_lsn
        path = write_snapshot(self.durable_dir, lsn, state)
        self._last_snapshot_lsn = lsn
        return path

    # -- recovery ------------------------------------------------------
    @classmethod
    def recover(
        cls,
        durable_dir: str | Path,
        *,
        recovery: str = "strict",
        backend: str = "auto",
    ) -> tuple["DurableMultiStreamIngestor", RecoveryReport]:
        """Resume a fleet run on a serial in-process fleet.

        Raises :class:`~repro.durable.wal.CorruptWalError` for damage
        the ``recovery`` policy refuses to repair.
        """
        directory = Path(durable_dir)
        meta = _read_meta(directory)
        spec = DetectorSpec.from_dict(meta["spec"])
        scan = scan_wal(directory, recovery)
        entries = scan.entries
        snap = load_latest_snapshot(directory, max_lsn=scan.next_lsn)
        snapshot_lsn, state = snap if snap is not None else (0, None)
        if meta["kind"] == "stream":
            entries = tuple(_named_entry(e) for e in entries)
            state = None if state is None else _fleet_state(state)

        names = [str(n) for n in meta["names"]]
        carries = {}
        if state is not None:
            carries = {
                name: carry_from_dict(payload)
                for name, payload in state["carries"].items()
                if payload is not None
            }
        if carries and len(carries) != len(names):
            raise CorruptWalError(
                "snapshot carries cover only part of the fleet"
            )
        fleet = MultiStreamDetector.from_carries(
            spec.structure,
            spec.thresholds,
            carries
            or {
                name: initial_carry(spec.structure, spec.aggregate)
                for name in names
            },
            refine_filter=bool(meta["refine_filter"]),
            backend=backend,
        )
        if state is not None and not carries:
            # Finished-run snapshot: the engines are closed, but the
            # final per-stream counters must survive recovery.
            for name, payload in state["counters"].items():
                fleet.detector(name).counters = counters_from_dict(payload)
        self = cls.__new__(cls)
        self._init_parts(
            fleet,
            spec,
            directory,
            meta,
            WriteAheadLog(
                directory,
                segment_entries=int(meta["segment_entries"]),
                start_lsn=scan.next_lsn,
                start_segment=scan.next_segment,
            ),
        )
        if state is not None:
            self._multi.restore_state(state["multi"])
        replayed = entries[snapshot_lsn:]
        for entry in replayed:
            try:
                self._apply(entry["op"], entry)
            except ValueError:
                # A refusal that depends on state (a late record under
                # "raise", correct() of an unsealed bin): the live call
                # raised before mutating anything, and so does replay.
                pass
        self._last_snapshot_lsn = snapshot_lsn
        self._maybe_snapshot()
        report = RecoveryReport(
            snapshot_lsn=snapshot_lsn,
            replayed_entries=len(replayed),
            replayed_records=sum(entry_records(e) for e in replayed),
            trimmed_entries=scan.trimmed_entries,
            trimmed_records=scan.trimmed_records,
            ops_applied=scan.next_lsn,
            records_applied=sum(entry_records(e) for e in entries),
            finished=self.finished,
        )
        return self, report


class DurableStreamIngestor:
    """One stream's durable ingestion pipeline: a fleet of one.

    Builds a one-stream serial
    :class:`~repro.core.multi.MultiStreamDetector` named ``"stream"``
    under a :class:`DurableMultiStreamIngestor` and forwards each call
    with that name bound, so the journal, snapshots and recovery are
    the fleet's.  Mirrors the
    :class:`~repro.ingest.ingestor.StreamIngestor` feeding surface;
    construction starts a *new* durable run in ``durable_dir`` (resume
    an existing run with :meth:`recover`).
    """

    def __init__(
        self,
        spec: DetectorSpec,
        durable_dir: str | Path,
        *,
        max_lateness: int = 0,
        late_policy: str = "raise",
        snapshot_every: int = 256,
        segment_entries: int = 256,
        refine_filter: bool = True,
        backend: str = "auto",
    ) -> None:
        fleet = MultiStreamDetector.shared(
            [STREAM],
            spec.structure,
            spec.thresholds,
            aggregate=spec.aggregate,
            refine_filter=refine_filter,
            backend=backend,
        )
        self._durable = DurableMultiStreamIngestor(
            fleet,
            spec,
            durable_dir,
            max_lateness=max_lateness,
            late_policy=late_policy,
            snapshot_every=snapshot_every,
            segment_entries=segment_entries,
        )

    def push(self, timestamp: int, value: float) -> list[Burst]:
        return self._durable.push(STREAM, timestamp, value)

    def push_batch(
        self, timestamps: np.ndarray, values: np.ndarray
    ) -> list[Burst]:
        return self._durable.push_batch(STREAM, timestamps, values)

    def punctuate(self, watermark: int) -> list[Burst]:
        return self._durable.punctuate(watermark)[STREAM]

    def correct(self, timestamp: int, value: float) -> None:
        self._durable.correct(STREAM, timestamp, value)

    def finish(self) -> list[Burst]:
        return self._durable.finish()[STREAM]

    def snapshot_now(self) -> Path:
        return self._durable.snapshot_now()

    @property
    def _ingestor(self) -> StreamIngestor:
        return self._durable.ingestor(STREAM)

    @property
    def ledger(self) -> AmendmentLedger:
        return self._ingestor.ledger

    @property
    def counters(self):
        """The detector's per-level operation counters."""
        return self._durable._fleet.stream_counters()[STREAM]  # noqa: SLF001

    @property
    def finished(self) -> bool:
        return self._durable.finished

    @property
    def next_lsn(self) -> int:
        return self._durable.next_lsn

    @property
    def durable_dir(self) -> Path:
        return self._durable.durable_dir

    def final_bursts(self) -> BurstSet:
        return self._ingestor.final_bursts()

    @classmethod
    def recover(
        cls,
        durable_dir: str | Path,
        *,
        recovery: str = "strict",
        backend: str = "auto",
    ) -> tuple["DurableStreamIngestor", RecoveryReport]:
        """Resume the single-stream run in ``durable_dir``.

        Raises :class:`~repro.durable.wal.CorruptWalError` for damage
        the ``recovery`` policy refuses to repair, and for a fleet run.
        """
        names = _read_meta(Path(durable_dir))["names"]
        if names != [STREAM]:
            raise CorruptWalError(
                f"durable run in {durable_dir} is a fleet of {names}; "
                "resume it with DurableMultiStreamIngestor.recover()"
            )
        self = cls.__new__(cls)
        self._durable, report = DurableMultiStreamIngestor.recover(
            durable_dir, recovery=recovery, backend=backend
        )
        return self, report
