"""Amendment accounting: what late data did to already-reported bursts.

Once a window has been sealed and scanned, its verdict is public: a
burst was reported (or not) downstream.  A late record that lands
inside an already-sealed region under the ``amend`` policy can change
that verdict, and silently rewriting history is how monitoring systems
lose trust.  Every revision is therefore a first-class event:

* :class:`BurstAmended` — a sealed window's aggregate changed and the
  window (still, or newly) exceeds its threshold; carries both the old
  and new values, with ``old_value = None`` for a burst that only
  surfaced because of the late data.
* :class:`BurstRetracted` — a previously reported burst fell back under
  its threshold after a downward correction.

The :class:`AmendmentLedger` accumulates these events plus exact
counters for every record the ingestor touched: a run is only
trustworthy if the arithmetic
``records = sealed-in-order + late_amended + late_dropped + buffered``
closes.  Everything in the ledger is a pure function of the record
multiset and the punctuation sequence — arrival order must not leak in,
because the invariance harness compares ledgers across permutations
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["AmendmentLedger", "BurstAmended", "BurstRetracted"]


@dataclass(frozen=True, order=True)
class BurstAmended:
    """A sealed window now exceeds threshold (or exceeds it differently).

    Window identity follows :class:`repro.core.events.Burst`: the window
    of ``size`` bins ending at ``end``.  ``old_value`` is None when the
    window was below threshold before the revision — a burst discovered
    late, not revised.
    """

    end: int
    size: int
    old_value: float | None
    new_value: float

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("empty window cannot be amended")

    @property
    def start(self) -> int:
        """First time index covered by the amended window."""
        return self.end - self.size + 1


@dataclass(frozen=True, order=True)
class BurstRetracted:
    """A previously reported burst fell under threshold after correction."""

    end: int
    size: int
    old_value: float
    new_value: float

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("empty window cannot be retracted")

    @property
    def start(self) -> int:
        """First time index covered by the retracted window."""
        return self.end - self.size + 1


@dataclass
class AmendmentLedger:
    """Exact accounting for one ingestion run.

    Counter semantics:

    ``records``
        Every record pushed (accepted or not), punctuation excluded.
    ``records_sealed``
        Records whose bin has been sealed and released downstream; the
        run-level identity ``records == records_sealed + late_dropped +
        late_amended + still-buffered`` must close exactly.
    ``bins_sealed``
        Dense bins released to the detector, zero-filled gaps included.
    ``duplicates_merged``
        Records that combined into a bin that already had one.
    ``late_dropped`` / ``late_amended``
        Records below the sealed frontier, per the configured policy.
    ``corrections``
        Explicit :meth:`~repro.ingest.ingestor.StreamIngestor.correct`
        calls (not counted in ``records``).
    ``windows_reevaluated``
        Sealed windows re-checked against thresholds after a revision.
    """

    records: int = 0
    records_sealed: int = 0
    bins_sealed: int = 0
    duplicates_merged: int = 0
    late_dropped: int = 0
    late_amended: int = 0
    corrections: int = 0
    windows_reevaluated: int = 0
    amendments: list[BurstAmended] = field(default_factory=list)
    retractions: list[BurstRetracted] = field(default_factory=list)

    def record_amendment(self, event: BurstAmended) -> None:
        self.amendments.append(event)

    def record_retraction(self, event: BurstRetracted) -> None:
        self.retractions.append(event)

    def merge(self, other: "AmendmentLedger") -> None:
        """Fold another stream's ledger into this one (fleet totals)."""
        self.records += other.records
        self.records_sealed += other.records_sealed
        self.bins_sealed += other.bins_sealed
        self.duplicates_merged += other.duplicates_merged
        self.late_dropped += other.late_dropped
        self.late_amended += other.late_amended
        self.corrections += other.corrections
        self.windows_reevaluated += other.windows_reevaluated
        self.amendments.extend(other.amendments)
        self.retractions.extend(other.retractions)

    def to_dict(self) -> dict[str, Any]:
        """Serialize for persistence (snapshots); see :meth:`from_dict`.

        Identical to :meth:`as_dict` — the sorted event order *is* the
        canonical order, so serialize → JSON → deserialize → serialize
        is a fixed point and ledger comparisons across a crash/recover
        boundary stay byte-for-byte.  ``old_value`` may be ``None`` (a
        burst discovered late); JSON carries it as ``null`` and the
        None-aware sort key keeps such events ordered deterministically.
        """
        return self.as_dict()

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "AmendmentLedger":
        """Rebuild a ledger from :meth:`to_dict` output (post-JSON safe)."""
        ledger = cls(
            records=int(payload["records"]),
            records_sealed=int(payload["records_sealed"]),
            bins_sealed=int(payload["bins_sealed"]),
            duplicates_merged=int(payload["duplicates_merged"]),
            late_dropped=int(payload["late_dropped"]),
            late_amended=int(payload["late_amended"]),
            corrections=int(payload["corrections"]),
            windows_reevaluated=int(payload["windows_reevaluated"]),
        )
        for end, size, old, new in payload["amendments"]:
            ledger.amendments.append(
                BurstAmended(
                    int(end),
                    int(size),
                    None if old is None else float(old),
                    float(new),
                )
            )
        for end, size, old, new in payload["retractions"]:
            ledger.retractions.append(
                BurstRetracted(int(end), int(size), float(old), float(new))
            )
        return ledger

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form; event lists sorted so comparison is stable."""
        # None old_value (burst discovered late) sorts before any float;
        # dataclass ordering would raise on the None/float comparison.
        def event_key(e: BurstAmended | BurstRetracted):
            return (
                e.end,
                e.size,
                e.old_value is not None,
                e.old_value or 0.0,
                e.new_value,
            )

        return {
            "records": self.records,
            "records_sealed": self.records_sealed,
            "bins_sealed": self.bins_sealed,
            "duplicates_merged": self.duplicates_merged,
            "late_dropped": self.late_dropped,
            "late_amended": self.late_amended,
            "corrections": self.corrections,
            "windows_reevaluated": self.windows_reevaluated,
            "amendments": [
                [e.end, e.size, e.old_value, e.new_value]
                for e in sorted(self.amendments, key=event_key)
            ],
            "retractions": [
                [e.end, e.size, e.old_value, e.new_value]
                for e in sorted(self.retractions, key=event_key)
            ],
        }

    def summary(self) -> str:
        """One human line of ``key=value`` totals."""
        return (
            f"records={self.records} "
            f"sealed(records={self.records_sealed}, "
            f"bins={self.bins_sealed}) "
            f"dupes={self.duplicates_merged} "
            f"late(dropped={self.late_dropped}, "
            f"amended={self.late_amended}) "
            f"corrections={self.corrections} "
            f"reeval={self.windows_reevaluated} "
            f"events(amended={len(self.amendments)}, "
            f"retracted={len(self.retractions)})"
        )
