"""Out-of-order buffer: a dense window of unsealed time bins.

Every unsealed record sits on an integer bin in ``[start, end)``, where
``start`` is the sealed frontier and ``end - 1`` the newest bin holding
a record.  The window is two arrays indexed by ``timestamp - start``:
the combined value of each bin (float64) and its record count (int64).
A zero count marks an empty bin, whose value is the aggregate's
identity — so the window *is* the dense chunk sealing will release, and
the operations sliding-window aggregation papers identify as the
out-of-order workload become array operations:

* ``insert`` — one record, an O(1) index update;
* ``bulk_insert`` — a straggler batch, one vectorized scatter;
* ``evict_below`` — watermark advance, an array slice handed over as
  the sealed chunk.

The float combine order is part of the output contract, because replay
and the arrival-order harness compare sealed values exactly: records on
one bin combine in arrival order, and a batch is first combined per bin
in batch order and then into the bin, ``old + (b1 + b2)``.  Hence the
scatter accumulates into a fresh identity array before one ``old +
batch``; ``ufunc.at`` straight into the window would give ``(old + b1)
+ b2``.

A tree would only pay off for bins far sparser than the records, and
even then sealing hands the detector every bin of ``[start, watermark)``
as one dense chunk, so the window costs the same order as the seal that
follows it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.aggregates import AggregateFunction
from .records import validate_records

__all__ = ["BinAggregate", "OutOfOrderBuffer"]

#: Element-wise form of each registered aggregate's ``combine``.  Both
#: insert paths use it, so a bin combines identically however its
#: records arrived, down to the sign of a zero (Python's ``max`` and
#: ``np.maximum`` break a ``0.0``/``-0.0`` tie differently).
_UFUNCS = {"sum": np.add, "max": np.maximum}

#: Smallest window allocation, in bins.
_MIN_CAPACITY = 1024


@dataclass(frozen=True)
class BinAggregate:
    """One time bin as sealed or snapshotted: combined value + count."""

    timestamp: int
    value: float
    count: int


class OutOfOrderBuffer:
    """Unsealed bins of one stream, as a dense window over ``[start, end)``.

    Eviction slices the sealed prefix off the front of both arrays, so
    they may be views of a larger allocation; the buffer never writes
    below its ``start`` again, which keeps every returned chunk stable.
    """

    def __init__(self, aggregate: AggregateFunction) -> None:
        self._ufunc = _UFUNCS[aggregate.name]
        self._identity = aggregate.identity
        self._start = 0
        self._end = 0
        self._values = np.empty(0, dtype=np.float64)
        self._counts = np.empty(0, dtype=np.int64)

    def _reserve(self, size: int) -> None:
        """Make room for window indices below ``size``.

        A reallocation adds the live bin count as slack, so capacity
        doubles while nothing is sealed, and otherwise amortizes over
        the bins sealed before the next one.
        """
        if size <= self._values.size:
            return
        live = self._end - self._start
        capacity = max(size, _MIN_CAPACITY) + live
        values = np.full(capacity, self._identity, dtype=np.float64)
        counts = np.zeros(capacity, dtype=np.int64)
        values[:live] = self._values[:live]
        counts[:live] = self._counts[:live]
        self._values, self._counts = values, counts

    def _check_start(self, lowest: int) -> None:
        if lowest < self._start:
            raise ValueError(
                f"bin {lowest} is below the window start {self._start}"
            )

    # -- mutators ------------------------------------------------------
    def insert(self, timestamp: int, value: float) -> bool:
        """Add one record; returns True if its bin is new.

        A False return means the record combined into an existing bin —
        the ledger counts it as a merged duplicate timestamp.
        """
        t = int(timestamp)
        self._check_start(t)
        i = t - self._start
        self._reserve(i + 1)
        fresh = not self._counts[i]
        self._values[i] = self._ufunc(self._values[i], value)
        self._counts[i] += 1
        self._end = max(self._end, t + 1)
        return fresh

    def bulk_insert(
        self, timestamps: np.ndarray, values: np.ndarray
    ) -> int:
        """Merge a straggler batch; returns records merged into old bins."""
        ts, vals = validate_records(timestamps, values, where="bulk_insert")
        if ts.size == 0:
            return 0
        lo, hi = int(ts.min()), int(ts.max())
        self._check_start(lo)
        self._reserve(hi - self._start + 1)
        rel = ts - lo
        span = slice(lo - self._start, hi + 1 - self._start)
        batch = np.full(hi + 1 - lo, self._identity, dtype=np.float64)
        self._ufunc.at(batch, rel, vals)
        added = np.bincount(rel, minlength=batch.size)
        old = self._counts[span]
        fresh = int(np.count_nonzero(added[old == 0]))
        self._values[span] = self._ufunc(self._values[span], batch)
        self._counts[span] = old + added
        self._end = max(self._end, hi + 1)
        return int(ts.size) - fresh

    def evict_below(self, watermark: int) -> tuple[np.ndarray, int]:
        """Seal ``[start, watermark)``: its dense chunk and record count.

        Empty bins read as the aggregate identity.  A watermark at or
        below ``start`` seals nothing.
        """
        length = int(watermark) - self._start
        if length <= 0:
            return np.empty(0, dtype=np.float64), 0
        held = min(length, self._end - self._start)
        records = int(self._counts[:held].sum())
        if length <= self._values.size:
            chunk = self._values[:length]
        else:
            chunk = np.full(length, self._identity, dtype=np.float64)
            chunk[:held] = self._values[:held]
        self._values = self._values[length:]
        self._counts = self._counts[length:]
        self._start += length
        self._end = max(self._end, self._start)
        return chunk, records

    def restore(self, bins: list[BinAggregate], start: int) -> None:
        """Rebuild an empty buffer from a :meth:`bins` snapshot.

        The durable layer's recovery path: ``start`` is the snapshotted
        frontier, and the bins arrive time-ordered with their combined
        values *and record counts*, so ``restore(b.bins(), b.start)``
        round-trips exactly.
        """
        if self.n_records:
            raise RuntimeError("restore() requires an empty buffer")
        last = start - 1
        for b in bins:
            if b.timestamp <= last:
                raise ValueError(
                    "restore() bins must be strictly time-ordered, "
                    "at or above the window start"
                )
            if b.count < 1:
                raise ValueError("restore() bin with empty record count")
            last = b.timestamp
        self._start = self._end = int(start)
        self._reserve(last + 1 - self._start)
        for b in bins:
            self._values[b.timestamp - self._start] = float(b.value)
            self._counts[b.timestamp - self._start] = int(b.count)
        self._end = last + 1

    # -- queries -------------------------------------------------------
    @property
    def start(self) -> int:
        """The window start: every bin below it is sealed."""
        return self._start

    @property
    def n_bins(self) -> int:
        """Distinct unsealed timestamps currently buffered."""
        return int(np.count_nonzero(self._counts[: self._end - self._start]))

    @property
    def n_records(self) -> int:
        """Records absorbed and not yet sealed (duplicates included)."""
        return int(self._counts[: self._end - self._start].sum())

    @property
    def max_timestamp(self) -> int | None:
        return self._end - 1 if self._end > self._start else None

    def bins(self) -> list[BinAggregate]:
        """In-order snapshot of every buffered bin (non-destructive)."""
        held = np.flatnonzero(self._counts[: self._end - self._start])
        return [
            BinAggregate(self._start + i, value, count)
            for i, value, count in zip(
                held.tolist(),
                self._values[held].tolist(),
                self._counts[held].tolist(),
            )
        ]
