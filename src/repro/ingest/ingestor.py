"""Watermark sealing: out-of-order records in, in-order chunks out.

:class:`StreamIngestor` stands between a timestamped feed and one
detector.  Records at or above the sealed frontier wait in the
:class:`~repro.ingest.buffer.OutOfOrderBuffer`; the watermark — the
largest ``timestamp - max_lateness`` seen, or an explicit punctuation —
seals every bin strictly below it, and sealing releases one dense,
in-order chunk into the existing chunked-detector path.  Detection
itself therefore runs the exact code every other entry point runs, and
because the detector is chunk-partition invariant, *any* arrival order
consistent with the watermark yields byte-identical bursts, counters,
and ledger — the invariance the testkit's ``ooo_shuffle`` relation
checks.

A record below the frontier is **late**; the ``late_policy`` decides:

``"raise"``
    Refuse (:class:`LateRecordError`).  The strict default — matching
    the in-order assumption every pre-ingestion entry point makes.
``"drop"``
    Discard, counted in the ledger (monitoring-style best effort).
``"amend"``
    Combine into the sealed bin and revise history: the detector engine
    is amended so windows not yet scanned aggregate the corrected
    value, and every already-sealed window the bin participates in is
    re-checked against its threshold, emitting
    :class:`~repro.ingest.ledger.BurstAmended` /
    :class:`~repro.ingest.ledger.BurstRetracted` events.

``correct()`` is the downward-revision companion (exchanges bust
trades; sensors recant): it *rewrites* a sealed bin outright instead of
combining, so it can lower values and retract bursts — the only path
that can, since record values are non-negative and both aggregates are
monotone.

The ingestor keeps the sealed series (one float per sealed bin) for
window re-evaluation; amendment cost is O(sizes x window span), paid
only on actual revisions.
"""

from __future__ import annotations

from typing import Mapping, Protocol

import numpy as np

from ..core.aggregates import SUM, AggregateFunction
from ..core.events import Burst, BurstSet
from ..core.thresholds import ThresholdModel
from .buffer import BinAggregate, OutOfOrderBuffer
from .ledger import AmendmentLedger, BurstAmended, BurstRetracted
from .records import validate_records

__all__ = [
    "LATE_POLICIES",
    "LateRecordError",
    "MultiStreamIngestor",
    "StreamIngestor",
]

#: Accepted late-record policies, strictest first.
LATE_POLICIES = ("raise", "drop", "amend")


class LateRecordError(ValueError):
    """A record arrived below the sealed frontier under policy ``raise``."""


class SealedSink(Protocol):
    """What the ingestor needs from a detector: the chunked interface."""

    def process(self, chunk: np.ndarray) -> list[Burst]: ...

    def finish(self) -> list[Burst]: ...

    def amend(self, index: int, value: float) -> None: ...


class MultiSink(Protocol):
    """A multi-stream fleet: chunk maps in, burst maps out."""

    @property
    def names(self) -> tuple[str, ...]: ...

    def process(
        self, chunks: Mapping[str, np.ndarray]
    ) -> dict[str, list[Burst]]: ...

    def finish(self) -> dict[str, list[Burst]]: ...

    def amend(self, name: str, index: int, value: float) -> None: ...


class StreamIngestor:
    """Out-of-order ingestion for one stream, sealing into ``sink``.

    ``thresholds`` must be the sink's threshold model — amendment
    re-evaluation re-checks sealed windows against it.  ``aggregate``
    must match the sink's; both default to the library default (sum).
    """

    def __init__(
        self,
        sink: SealedSink,
        thresholds: ThresholdModel,
        aggregate: AggregateFunction = SUM,
        *,
        max_lateness: int = 0,
        late_policy: str = "raise",
    ) -> None:
        if max_lateness < 0:
            raise ValueError("max_lateness must be >= 0")
        if late_policy not in LATE_POLICIES:
            raise ValueError(
                f"late_policy must be one of {LATE_POLICIES}, "
                f"got {late_policy!r}"
            )
        self._sink = sink
        self._thresholds = thresholds
        self._aggregate = aggregate
        self.max_lateness = int(max_lateness)
        self.late_policy = late_policy
        self.ledger = AmendmentLedger()
        self._buffer = OutOfOrderBuffer(aggregate)
        self._sealed = np.zeros(1024, dtype=np.float64)
        self._bursts: dict[tuple[int, int], float] = {}
        self._finished = False

    # -- state ---------------------------------------------------------
    @property
    def watermark(self) -> int:
        """The sealed frontier: every bin strictly below it is sealed."""
        return self._buffer.start

    @property
    def buffer(self) -> OutOfOrderBuffer:
        """The unsealed region (read for inspection, not mutation)."""
        return self._buffer

    @property
    def buffered_records(self) -> int:
        """Records accepted but not yet sealed."""
        return self._buffer.n_records

    def sealed_series(self) -> np.ndarray:
        """Copy of the sealed dense series (index = time bin)."""
        return self._sealed[: self.watermark].copy()

    def final_bursts(self) -> BurstSet:
        """Bursts as currently believed: reported, minus retracted,
        with amended values."""
        return BurstSet(
            Burst(end, size, value)
            for (end, size), value in self._bursts.items()
        )

    # -- durability ----------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """JSON-ready snapshot of the ingestor's own resumable state.

        Captures the sealed frontier, the sealed dense series, the
        current burst beliefs, the buffered (unsealed) bins with their
        record counts, the ledger, and the finished flag.  The *sink's*
        state is deliberately not included — the durable layer pairs
        this with the detector's :meth:`~repro.core.chunked.ChunkedDetector.carry`
        so the two halves checkpoint at the same seal boundary.
        """
        frontier = self.watermark
        return {
            "frontier": frontier,
            "sealed": self._sealed[:frontier].tolist(),
            "bursts": [
                [int(end), int(size), float(value)]
                for (end, size), value in sorted(self._bursts.items())
            ],
            "buffer": [
                [int(b.timestamp), float(b.value), int(b.count)]
                for b in self._buffer.bins()
            ],
            "ledger": self.ledger.to_dict(),
            "finished": bool(self._finished),
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Resume from :meth:`state_dict` output (post-JSON safe).

        Only legal on a fresh ingestor whose sink has already been
        restored to the matching carry — the pair then continues
        byte-identically to a run that never stopped.
        """
        if self.watermark or self._buffer.n_bins or self.ledger.records:
            raise RuntimeError(
                "restore_state() requires a fresh ingestor"
            )
        frontier = int(state["frontier"])  # type: ignore[arg-type]
        sealed = np.asarray(state["sealed"], dtype=np.float64)
        if sealed.size != frontier:
            raise ValueError(
                f"sealed series length {sealed.size} != frontier {frontier}"
            )
        self._sealed = np.zeros(
            max(1024, 2 * frontier or 1024), dtype=np.float64
        )
        self._sealed[:frontier] = sealed
        self._bursts = {
            (int(end), int(size)): float(value)
            for end, size, value in state["bursts"]  # type: ignore[union-attr]
        }
        self._buffer.restore(
            [
                BinAggregate(int(t), float(v), int(c))
                for t, v, c in state["buffer"]  # type: ignore[union-attr]
            ],
            frontier,
        )
        self.ledger = AmendmentLedger.from_dict(state["ledger"])  # type: ignore[arg-type]
        self._finished = bool(state["finished"])

    # -- feeding -------------------------------------------------------
    def push(self, timestamp: int, value: float) -> list[Burst]:
        """Ingest one record; returns bursts from any seal it causes."""
        self._check_open()
        ts, vals = validate_records([timestamp], [value], where="push")
        [t], [v] = ts.tolist(), vals.tolist()
        if t < self.watermark:
            self._refuse_late(t)
            self.ledger.records += 1
            self._handle_late(t, v)
            return []
        self.ledger.records += 1
        if not self._buffer.insert(t, v):
            self.ledger.duplicates_merged += 1
        return self._seal_to(t - self.max_lateness)

    def push_batch(
        self, timestamps: np.ndarray, values: np.ndarray
    ) -> list[Burst]:
        """Ingest a batch atomically; returns bursts from the seal.

        Lateness is judged against the frontier *at batch start* — a
        straggler batch may carry bins the rest of the batch would
        otherwise seal.  Under policy ``raise`` a late record refuses
        the whole batch; otherwise late records are handled per policy
        in batch order, the on-time remainder bulk-inserts into the
        buffer, and the watermark then advances once, off the batch
        maximum.
        """
        self._check_open()
        ts, vals = validate_records(timestamps, values, where="push_batch")
        late = ts < self.watermark
        if late.any():
            self._refuse_late(int(ts[late][0]))
        self.ledger.records += int(ts.size)
        for t, v in zip(ts[late].tolist(), vals[late].tolist()):
            self._handle_late(t, v)
        ts, vals = ts[~late], vals[~late]
        if ts.size == 0:
            return []
        before = self._buffer.n_records
        merged = self._buffer.bulk_insert(ts, vals)
        assert self._buffer.n_records == before + ts.size
        self.ledger.duplicates_merged += merged
        return self._seal_to(int(ts.max()) - self.max_lateness)

    def punctuate(self, watermark: int) -> list[Burst]:
        """Advance the watermark explicitly (seal bins < ``watermark``).

        Punctuation is how a feed asserts completeness without sending
        records — e.g. end-of-minute markers.  Moving it backwards is a
        no-op; records below it afterwards are late.
        """
        self._check_open()
        return self._seal_to(int(watermark))

    def finish(self) -> list[Burst]:
        """Seal everything buffered and flush the sink."""
        out = self.seal_remainder()
        tail = self._sink.finish()
        self.absorb_finish(tail)
        return out + tail

    def seal_remainder(self) -> list[Burst]:
        """Seal every buffered bin without finishing the sink.

        Fleet plumbing: a multi-stream sink finishes all streams at
        once, so :class:`MultiStreamIngestor` seals each stream first
        and feeds the per-stream tail back via :meth:`absorb_finish`.
        """
        self._check_open()
        top = self._buffer.max_timestamp
        if top is None:
            return []
        return self._seal_to(top + 1)

    def absorb_finish(self, tail: list[Burst]) -> None:
        """Register the sink's finish() bursts and close the ingestor."""
        self._check_open()
        self._register(tail)
        self._finished = True

    # -- revisions -----------------------------------------------------
    def correct(self, timestamp: int, value: float) -> None:
        """Rewrite sealed bin ``timestamp`` to exactly ``value``.

        Set semantics, not combine: this is the downward-revision path
        (bust trades, recanted sensor readings) and the only way a
        reported burst can be retracted.  Only sealed bins can be
        corrected — an unsealed bin is still mutable the ordinary way,
        so push the record instead.  Legal after :meth:`finish` (the
        verdict on history may be revised after the stream ends).
        """
        ts, vals = validate_records([timestamp], [value], where="correct")
        [t], [v] = ts.tolist(), vals.tolist()
        if t >= self.watermark:
            raise ValueError(
                f"bin {t} is not sealed (frontier {self.watermark}); "
                "correct() rewrites published history — push the record"
            )
        self._rewrite_bin(t, v)
        self.ledger.corrections += 1

    def _refuse_late(self, t: int) -> None:
        """Refuse late bin ``t`` under policy ``raise``, before counting."""
        if self.late_policy == "raise":
            raise LateRecordError(
                f"record at bin {t} arrived below the sealed frontier "
                f"{self.watermark} (max_lateness={self.max_lateness}); "
                "use --late-policy drop|amend to accept late data"
            )

    def _handle_late(self, t: int, v: float) -> None:
        if self.late_policy == "drop":
            self.ledger.late_dropped += 1
            return
        self._rewrite_bin(
            t, self._aggregate.combine(float(self._sealed[t]), v)
        )
        self.ledger.late_amended += 1

    def _rewrite_bin(self, t: int, new_value: float) -> None:
        old_value = float(self._sealed[t])
        if new_value == old_value:
            return
        if not self._finished:
            # Keep windows the detector has NOT yet scanned consistent.
            # After finish() there are none, and the engine is closed.
            self._sink.amend(t, new_value)
        self._sealed[t] = new_value
        self._reevaluate(t, old_value)

    def _reevaluate(self, t: int, old_bin: float) -> None:
        """Re-check every sealed window containing bin ``t``.

        Windows ending at or beyond the frontier are the detector's
        problem (its engine was amended); windows fully inside the
        sealed region were already scanned under the old value, so any
        verdict change must surface as an amendment event.  Old window
        values are recomputed with the bin restored — a pure function
        of the sealed series, so replays agree exactly.
        """
        series = self._sealed
        new_bin = float(series[t])
        ledger = self.ledger
        for size in self._thresholds.window_sizes.tolist():
            f = self._thresholds.threshold(size)
            lo = max(t, size - 1)
            hi = min(t + size - 1, self.watermark - 1)
            for end in range(lo, hi + 1):
                start = end - size + 1
                window = series[start : end + 1]
                new_val = float(self._aggregate.reduce(window))
                restored = window.copy()
                restored[t - start] = old_bin
                old_val = float(self._aggregate.reduce(restored))
                ledger.windows_reevaluated += 1
                if old_val < f <= new_val:
                    ledger.record_amendment(
                        BurstAmended(end, size, None, new_val)
                    )
                    self._bursts[(end, size)] = new_val
                elif new_val < f <= old_val:
                    ledger.record_retraction(
                        BurstRetracted(end, size, old_val, new_val)
                    )
                    self._bursts.pop((end, size), None)
                elif f <= old_val and old_val != new_val:
                    ledger.record_amendment(
                        BurstAmended(end, size, old_val, new_val)
                    )
                    self._bursts[(end, size)] = new_val

    # -- sealing -------------------------------------------------------
    def _seal_to(self, new_frontier: int) -> list[Burst]:
        frontier = self.watermark
        if new_frontier <= frontier:
            return []
        chunk, records = self._buffer.evict_below(new_frontier)
        self._store(frontier, chunk)
        self.ledger.records_sealed += records
        self.ledger.bins_sealed += chunk.size
        bursts = self._sink.process(chunk)
        self._register(bursts)
        return bursts

    def _store(self, frontier: int, chunk: np.ndarray) -> None:
        need = frontier + chunk.size
        if need > self._sealed.size:
            grown = np.zeros(
                max(need, 2 * self._sealed.size), dtype=np.float64
            )
            grown[:frontier] = self._sealed[:frontier]
            self._sealed = grown
        self._sealed[frontier:need] = chunk

    def _register(self, bursts: list[Burst]) -> None:
        for b in bursts:
            self._bursts[(b.end, b.size)] = b.value

    # -- validation ----------------------------------------------------
    def _check_open(self) -> None:
        if self._finished:
            raise RuntimeError(
                "ingestor already finished; only correct() may follow"
            )


class _NamedSink:
    """One stream of a multi-stream fleet, seen as a SealedSink.

    ``finish`` is deliberately absent: fleets finish all streams at
    once, so :class:`MultiStreamIngestor` drives sealing and finishing
    itself via :meth:`StreamIngestor.seal_remainder` /
    :meth:`StreamIngestor.absorb_finish`.
    """

    def __init__(self, fleet: MultiSink, name: str) -> None:
        self._fleet = fleet
        self._name = name

    def process(self, chunk: np.ndarray) -> list[Burst]:
        return self._fleet.process({self._name: chunk})[self._name]

    def amend(self, index: int, value: float) -> None:
        self._fleet.amend(self._name, index, value)


class MultiStreamIngestor:
    """Out-of-order ingestion for a named fleet of streams.

    One :class:`StreamIngestor` per stream, all sealing into the same
    multi-stream sink (a :class:`~repro.core.multi.MultiStreamDetector`
    or the parallel runtime's fleet).  Watermarks are per stream —
    streams tick independently — but :meth:`punctuate` broadcasts,
    matching the usual "end of period" marker.  Note the ``amend`` and
    ``correct`` paths require a sink whose ``amend`` works; the
    parallel runtime only supports that in serial mode, where engine
    state lives in-process.
    """

    def __init__(
        self,
        fleet: MultiSink,
        thresholds: ThresholdModel,
        aggregate: AggregateFunction = SUM,
        *,
        max_lateness: int = 0,
        late_policy: str = "raise",
    ) -> None:
        self._fleet = fleet
        self._ingestors = {
            name: StreamIngestor(
                _NamedSink(fleet, name),
                thresholds,
                aggregate,
                max_lateness=max_lateness,
                late_policy=late_policy,
            )
            for name in fleet.names
        }
        self._finished = False

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._ingestors))

    def ingestor(self, name: str) -> StreamIngestor:
        """The per-stream ingestor (watermark, ledger, final bursts)."""
        return self._ingestors[name]

    def push(self, name: str, timestamp: int, value: float) -> list[Burst]:
        return self._ingestors[name].push(timestamp, value)

    def push_batch(
        self, name: str, timestamps: np.ndarray, values: np.ndarray
    ) -> list[Burst]:
        return self._ingestors[name].push_batch(timestamps, values)

    def punctuate(self, watermark: int) -> dict[str, list[Burst]]:
        """Advance every stream's watermark (broadcast punctuation)."""
        return {
            name: ing.punctuate(watermark)
            for name, ing in sorted(self._ingestors.items())
        }

    def correct(self, name: str, timestamp: int, value: float) -> None:
        self._ingestors[name].correct(timestamp, value)

    def finish(self) -> dict[str, list[Burst]]:
        """Seal every stream, then finish the fleet once."""
        if self._finished:
            raise RuntimeError("finish() already called")
        self._finished = True
        out = {
            name: ing.seal_remainder()
            for name, ing in sorted(self._ingestors.items())
        }
        for name, tail in self._fleet.finish().items():
            if name in self._ingestors:
                self._ingestors[name].absorb_finish(tail)
                out[name] = out[name] + tail
        return out

    def final_bursts(self) -> dict[str, BurstSet]:
        return {
            name: ing.final_bursts()
            for name, ing in sorted(self._ingestors.items())
        }

    # -- durability ----------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """Per-stream :meth:`StreamIngestor.state_dict`, fleet flag on top."""
        return {
            "streams": {
                name: ing.state_dict()
                for name, ing in sorted(self._ingestors.items())
            },
            "finished": bool(self._finished),
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Resume every stream from :meth:`state_dict` output."""
        streams = state["streams"]  # type: ignore[index]
        if sorted(streams) != sorted(self._ingestors):  # type: ignore[arg-type]
            raise ValueError(
                "snapshot streams do not match this fleet: "
                f"{sorted(streams)} vs {sorted(self._ingestors)}"  # type: ignore[arg-type]
            )
        for name, ing in self._ingestors.items():
            ing.restore_state(streams[name])  # type: ignore[index]
        self._finished = bool(state["finished"])

    def ledger(self) -> AmendmentLedger:
        """Fleet-wide ledger: per-stream ledgers merged."""
        merged = AmendmentLedger()
        for _, ing in sorted(self._ingestors.items()):
            merged.merge(ing.ledger)
        return merged
