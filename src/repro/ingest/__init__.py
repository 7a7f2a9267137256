"""Out-of-order ingestion: watermarks, sealing, and burst amendment.

The detection stack (:mod:`repro.core`) consumes dense in-order series;
this package is the adapter real feeds need.  Timestamped records —
late, duplicated, out of order — buffer in a dense window of unsealed
time bins (:class:`OutOfOrderBuffer`), watermarks seal in-order chunks
into the unchanged chunked-detector path, and late data
under the ``amend`` policy revises already-published verdicts through
first-class :class:`BurstAmended` / :class:`BurstRetracted` events with
exact accounting (:class:`AmendmentLedger`).  See DESIGN.md §15.
"""

from .buffer import BinAggregate, OutOfOrderBuffer
from .ingestor import (
    LATE_POLICIES,
    LateRecordError,
    MultiStreamIngestor,
    StreamIngestor,
)
from .ledger import AmendmentLedger, BurstAmended, BurstRetracted
from .records import (
    TimestampedRecord,
    records_to_arrays,
    series_from_records,
    validate_records,
)

__all__ = [
    "AmendmentLedger",
    "BinAggregate",
    "BurstAmended",
    "BurstRetracted",
    "LATE_POLICIES",
    "LateRecordError",
    "MultiStreamIngestor",
    "OutOfOrderBuffer",
    "StreamIngestor",
    "TimestampedRecord",
    "records_to_arrays",
    "series_from_records",
    "validate_records",
]
