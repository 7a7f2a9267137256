"""Aggregate functions and incremental window-aggregate engines.

The elastic burst detection problem (paper, Problem 1) is defined for any
*monotonic, associative* aggregate ``A``: ``A[x_t .. x_{t+w-1}] <=
A[x_t .. x_{t+w}]`` for all ``w``.  The paper's experiments use ``sum`` over
non-negative event counts; ``max`` and ``count`` share the required
properties and are supported throughout this library.

Two layers live here:

* :class:`AggregateFunction` — a small value object describing the algebra
  (name, identity, combine, NumPy reduction), with the two standard
  instances :data:`SUM` and :data:`MAX` (:data:`COUNT` is an alias of
  :data:`SUM`, as counting events is summing indicator values).

* :class:`WindowEngine` — an incremental engine answering "aggregate of the
  window of size ``w`` ending at global time ``t``" for a growing stream
  while retaining only a bounded trailing history.  Detectors are written
  against this interface, so switching the aggregate never touches the
  detection logic.  :class:`SumWindowEngine` answers queries in O(1) from
  trailing prefix sums; :class:`MaxWindowEngine` uses a trailing sparse
  table giving O(1) range-max queries.

Module-level helpers :func:`sliding_sum` and :func:`sliding_max` compute
full-window sliding aggregates of a complete array (used by the naive
baseline and by training-statistics estimation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "AggregateFunction",
    "SUM",
    "MAX",
    "COUNT",
    "WindowEngine",
    "SumWindowEngine",
    "MaxWindowEngine",
    "sliding_sum",
    "sliding_max",
    "sliding_aggregate",
]


@dataclass(frozen=True)
class AggregateFunction:
    """A monotonic, associative aggregation function.

    Attributes
    ----------
    name:
        Identifier used in reprs and serialized structures (``"sum"``,
        ``"max"``).
    identity:
        Neutral element (0 for sum, 0 for max over non-negative data).
    combine:
        Binary combination of two partial aggregates.
    reduce:
        NumPy reduction applied to an array of raw values.
    """

    name: str
    identity: float
    combine: Callable[[float, float], float] = field(repr=False)
    reduce: Callable[[np.ndarray], float] = field(repr=False)

    def make_engine(self, history: int) -> "WindowEngine":
        """Build a :class:`WindowEngine` for this aggregate.

        ``history`` is the largest window size any query will use; the
        engine only promises to answer queries that reach back at most
        ``history`` points behind the most recent appended chunk.
        """
        if self.name == "sum":
            return SumWindowEngine(history)
        if self.name == "max":
            return MaxWindowEngine(history)
        raise ValueError(f"no engine registered for aggregate {self.name!r}")

    def sliding(self, data: np.ndarray, size: int) -> np.ndarray:
        """Full-window sliding aggregate of ``data`` at window ``size``."""
        return sliding_aggregate(self, data, size)


SUM = AggregateFunction("sum", 0.0, lambda a, b: a + b, np.sum)
MAX = AggregateFunction("max", 0.0, max, np.max)
#: Counting events is summing per-tick indicator/count values.
COUNT = SUM

_BY_NAME = {"sum": SUM, "max": MAX, "count": COUNT}


def aggregate_by_name(name: str) -> AggregateFunction:
    """Look up a registered aggregate (``"sum"``, ``"max"``, ``"count"``)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown aggregate {name!r}") from None


def sliding_sum(data: np.ndarray, size: int) -> np.ndarray:
    """Sums of all full windows of ``size``; output length ``n - size + 1``.

    ``out[i]`` is the sum of ``data[i : i + size]`` (the window *starting*
    at ``i``; equivalently ending at ``i + size - 1``).
    """
    data = np.asarray(data, dtype=np.float64)
    if size < 1:
        raise ValueError("window size must be >= 1")
    if size > data.size:
        return np.empty(0, dtype=np.float64)
    prefix = np.concatenate(([0.0], np.cumsum(data)))
    return prefix[size:] - prefix[:-size]


def sliding_max(data: np.ndarray, size: int) -> np.ndarray:
    """Maxima of all full windows of ``size``; output length ``n - size + 1``.

    Uses the van Herk / Gil-Werman two-pass scan: O(n) regardless of
    ``size``, no SciPy dependency in the hot path.
    """
    data = np.asarray(data, dtype=np.float64)
    if size < 1:
        raise ValueError("window size must be >= 1")
    n = data.size
    if size > n:
        return np.empty(0, dtype=np.float64)
    if size == 1:
        return data.copy()
    # Pad to a multiple of `size`, scan maxima forward within blocks and
    # backward within blocks, then combine the two scans across each
    # window's block boundary.
    pad = (-n) % size
    padded = np.concatenate((data, np.full(pad, -np.inf, dtype=np.float64)))
    blocks = padded.reshape(-1, size)
    fwd = np.maximum.accumulate(blocks, axis=1).ravel()
    bwd = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(bwd[: n - size + 1], fwd[size - 1 : n])


def sliding_aggregate(
    agg: AggregateFunction, data: np.ndarray, size: int
) -> np.ndarray:
    """Dispatch to :func:`sliding_sum` / :func:`sliding_max` by aggregate."""
    if agg.name == "sum":
        return sliding_sum(data, size)
    if agg.name == "max":
        return sliding_max(data, size)
    raise ValueError(f"no sliding kernel for aggregate {agg.name!r}")


class WindowEngine:
    """Incremental engine answering window-aggregate queries on a stream.

    Values are appended in chunks via :meth:`append`.  Afterwards,
    :meth:`value` / :meth:`values` answer the aggregate of the window of a
    given size **ending** at a global time index, with the window clamped at
    the stream start (a window reaching before time 0 aggregates only the
    values that exist — this is how the detectors warm up, and it is safe
    because a clamped window's aggregate is a lower bound of the full
    window's under monotonicity).

    Only queries whose (clamped) window lies within the retained trailing
    history are legal; the engine retains at least ``history`` points before
    the most recently appended chunk.
    """

    def __init__(self, history: int) -> None:
        if history < 1:
            raise ValueError("history must be >= 1")
        self.history = int(history)
        self._length = 0  # total points appended

    @property
    def length(self) -> int:
        """Number of stream points appended so far."""
        return self._length

    def append(self, values: np.ndarray) -> None:
        """Ingest the next chunk of the stream.

        Values must be non-negative and finite: the entire filtering
        framework rests on aggregate monotonicity (paper, Problem 1),
        which negative values break — and a broken monotonicity *silently
        misses bursts* rather than failing loudly, so it is rejected here.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("append expects a 1-D array")
        if values.size:
            low = values.min()
            if not np.isfinite(low) or low < 0 or not np.isfinite(values.max()):
                raise ValueError(
                    "stream values must be finite and non-negative "
                    "(monotonic filtering is unsound otherwise)"
                )
        self._append(values)
        self._length += values.size

    # -- interface for subclasses -------------------------------------
    def _append(self, values: np.ndarray) -> None:
        raise NotImplementedError

    def value(self, end: int, size: int) -> float:
        """Aggregate of the window of ``size`` ending at global index ``end``."""
        raise NotImplementedError

    def values(
        self, ends: np.ndarray, size: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Vectorized :meth:`value` for an array of window end indices.

        ``out``, when given, must be a float64 array of shape
        ``(len(ends),)``; the result is written there and returned,
        letting hot callers reuse a preallocated buffer across calls.
        """
        raise NotImplementedError

    def values_grid(self, ends: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Aggregates for every (size, end) pair.

        Returns an array of shape ``(len(sizes), len(ends))``; entry
        ``[i, j]`` is the (start-clamped) window of ``sizes[i]`` ending at
        ``ends[j]``.  This is the detailed-search kernel: one call
        evaluates the larger sizes of a level's alarmed nodes (tier 1 of
        the chunked detector's search), or one flushed node's region.
        """
        raise NotImplementedError

    def snapshot(self) -> tuple[int, np.ndarray]:
        """Byte-exact trailing state at a chunk boundary.

        Returns ``(offset, tail)``: the global index of the first retained
        entry and a copy of the trailing buffer, truncated to the minimum
        the engine contract requires (``history`` points behind the current
        length).  Feeding the pair to :meth:`restore` on a fresh engine and
        then appending the same future chunks yields bit-identical answers
        to the uninterrupted engine: the retained region covers every legal
        future query, and the stored entries are the engine's own floats,
        not recomputed ones.
        """
        raise NotImplementedError

    def restore(self, offset: int, tail: np.ndarray, length: int) -> None:
        """Adopt a :meth:`snapshot` taken at stream position ``length``.

        Only legal on a fresh engine (nothing appended yet).
        """
        raise NotImplementedError

    def kernel_state(self) -> tuple[str, np.ndarray, int]:
        """Raw trailing state for the native kernel, ``(kind, buf, offset)``.

        ``kind`` tags the buffer's meaning (``"sum"`` — prefix sums,
        ``"max"`` — raw values); ``offset`` is the global index of
        ``buf[0]``.  The returned buffer is the engine's *live* array,
        not a copy — the kernel reads it between :meth:`append` calls
        and never writes to it.  Engines without a native kernel simply
        do not override this.
        """
        raise NotImplementedError(
            "engine exposes no state for the native kernel; "
            "use backend='numpy'"
        )

    def amend(self, index: int, value: float) -> None:
        """Rewrite the already-appended stream value at ``index``.

        The ingestion layer's straggler path: a late record lands on a
        bin the detector has already consumed, and every window that
        reaches the bin — including windows that have not been *sealed*
        yet — must aggregate the corrected value from now on.  ``value``
        is the bin's new value (set semantics, not a delta), so the
        caller decides how a late record combines with what was there.

        Constraints mirror :meth:`append`: the value must be finite and
        non-negative (monotonic filtering is unsound otherwise) and
        ``index`` must lie before the current length.  An index that has
        fallen behind the retained history is a silent no-op for engines
        whose state no longer represents it — by the retention contract
        no legal future query can reach such a bin, so there is nothing
        left to correct.
        """
        raise NotImplementedError

    def _amend_check(self, index: int, value: float) -> None:
        if index < 0 or index >= self._length:
            raise IndexError(
                f"amend index {index} outside stream length {self._length}"
            )
        if not np.isfinite(value) or value < 0:
            raise ValueError(
                "amended values must be finite and non-negative "
                "(monotonic filtering is unsound otherwise)"
            )

    def _restore_check(
        self, offset: int, tail: np.ndarray, length: int, entries: int
    ) -> None:
        if self._length:
            raise RuntimeError("restore() must precede the first append()")
        if length < 0 or offset < 0 or offset > length:
            raise ValueError(
                f"invalid snapshot bounds (offset={offset}, length={length})"
            )
        if tail.ndim != 1:
            raise ValueError("snapshot tail must be a 1-D array")
        if tail.size != entries:
            raise ValueError(
                f"snapshot tail has {tail.size} entries, expected {entries}"
            )

    def _check(self, end: int, size: int) -> None:
        if end >= self._length:
            raise IndexError(f"window end {end} beyond stream length {self._length}")
        if size < 1:
            raise ValueError("window size must be >= 1")


class SumWindowEngine(WindowEngine):
    """O(1) window sums from a trailing prefix-sum buffer.

    The buffer stores prefix sums ``P[j] = x[0] + ... + x[j-1]`` for the
    retained suffix of global indices; ``_offset`` is the global index of
    the first retained prefix entry.
    """

    def __init__(self, history: int) -> None:
        super().__init__(history)
        self._prefix = np.zeros(1, dtype=np.float64)
        self._offset = 0  # global prefix index of self._prefix[0]

    def _append(self, values: np.ndarray) -> None:
        new = self._prefix[-1] + np.cumsum(values)
        self._prefix = np.concatenate((self._prefix, new))
        # Retain prefix entries for indices >= length_after - history - 1 so
        # that windows of up to `history` ending anywhere in the new chunk
        # stay answerable; also keep one chunk of slack for DSR queries that
        # look back from early positions of the *next* chunk.
        keep_from = self._length + values.size - self.history - values.size
        trim = max(0, keep_from - self._offset)
        if trim > 0 and trim < self._prefix.size - 1:
            self._prefix = self._prefix[trim:]
            self._offset += trim

    def snapshot(self) -> tuple[int, np.ndarray]:
        # Prefix VALUES are absolute cumulative sums, so truncating the
        # buffer to indices [length - history, length] keeps every retained
        # entry bit-identical to the uninterrupted engine's; future queries
        # never reach further back (see the append() retention policy).
        keep_from = max(self._offset, self._length - self.history)
        return keep_from, self._prefix[keep_from - self._offset :].copy()

    def restore(self, offset: int, tail: np.ndarray, length: int) -> None:
        tail = np.asarray(tail, dtype=np.float64)
        self._restore_check(offset, tail, length, length - offset + 1)
        self._prefix = tail.copy()
        self._offset = offset
        self._length = length

    def kernel_state(self) -> tuple[str, np.ndarray, int]:
        return ("sum", self._prefix, self._offset)

    def amend(self, index: int, value: float) -> None:
        # Every retained prefix entry P[j] with j > index includes
        # x[index], so setting the bin shifts them all by the same delta
        # (dyadic streams keep this exact; see repro.testkit.generators).
        # When the bin's own entries are gone (index < offset), both
        # sides of every legal P[end+1] - P[start] difference contain
        # x[index], the delta cancels, and the amendment is a no-op.
        self._amend_check(index, value)
        if index < self._offset:
            return
        local = index - self._offset
        delta = value - float(self._prefix[local + 1] - self._prefix[local])
        if delta != 0.0:
            self._prefix[local + 1 :] += delta

    def _p(self, idx: int | np.ndarray) -> float | np.ndarray:
        return self._prefix[idx - self._offset]

    def value(self, end: int, size: int) -> float:
        self._check(end, size)
        start = max(0, end + 1 - size)
        if start < self._offset:
            raise IndexError(
                f"window [{start}, {end}] reaches behind retained history "
                f"(oldest retained prefix index {self._offset})"
            )
        return float(self._p(end + 1) - self._p(start))

    def _check_span(self, lo: int, hi: int, size: int) -> bool:
        """Bounds-check windows of up to ``size`` ending in ``[lo, hi]``.

        Returns whether one of them starts before index 0, i.e. whether
        the call must clamp its starts.
        """
        if hi >= self._length:
            raise IndexError("window end beyond stream length")
        first = lo + 1 - size
        if max(first, 0) < self._offset:
            raise IndexError("window reaches behind retained history")
        return first < 0

    def values(
        self, ends: np.ndarray, size: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        ends = np.asarray(ends, dtype=np.int64)
        if ends.size == 0:
            return np.empty(0, dtype=np.float64)
        clamp = self._check_span(int(ends.min()), int(ends.max()), size)
        # Local prefix indices of each window's end + 1, then its start.
        idx = ends + (1 - self._offset)
        top = self._prefix[idx]
        idx -= size
        if clamp:
            np.maximum(idx, -self._offset, out=idx)
        return np.subtract(top, self._prefix[idx], out=out)

    def values_grid(self, ends: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Aggregates for every (size, end) pair, as :meth:`value` computes
        them: one prefix gather for the ends, one for the starts.

        Starts are clamped at index 0 only when a window of the call
        starts before it, which happens in the stream's first
        ``max(sizes)`` points.
        """
        ends = np.asarray(ends, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if ends.size == 0 or sizes.size == 0:
            return np.empty((sizes.size, ends.size), dtype=np.float64)
        clamp = self._check_span(
            int(ends.min()), int(ends.max()), int(sizes.max())
        )
        idx = ends + (1 - self._offset)
        starts = idx[None, :] - sizes[:, None]
        if clamp:
            np.maximum(starts, -self._offset, out=starts)
        return self._prefix[idx][None, :] - self._prefix[starts]


class MaxWindowEngine(WindowEngine):
    """O(1) window maxima from a trailing sparse table.

    A sparse table over the retained buffer stores, for each power of two
    ``2^k``, the max of each aligned window of ``2^k`` values; any range max
    is the max of two overlapping power-of-two windows.  The table is
    rebuilt per appended chunk over the (bounded) retained buffer, so the
    amortized cost stays O(1) per point for chunked streams.
    """

    def __init__(self, history: int) -> None:
        super().__init__(history)
        self._buf = np.empty(0, dtype=np.float64)
        self._offset = 0  # global index of self._buf[0]
        self._table: list[np.ndarray] = []

    def _append(self, values: np.ndarray) -> None:
        self._buf = np.concatenate((self._buf, values))
        keep = self.history + values.size
        if self._buf.size > keep + values.size:
            trim = self._buf.size - keep
            self._buf = self._buf[trim:]
            self._offset += trim
        self._rebuild()

    def snapshot(self) -> tuple[int, np.ndarray]:
        # The buffer holds raw stream values; keeping the last `history` of
        # them is enough for every future query, and the sparse table is
        # derived state rebuilt on restore.
        keep_from = max(self._offset, self._length - self.history)
        return keep_from, self._buf[keep_from - self._offset :].copy()

    def restore(self, offset: int, tail: np.ndarray, length: int) -> None:
        tail = np.asarray(tail, dtype=np.float64)
        self._restore_check(offset, tail, length, length - offset)
        self._buf = tail.copy()
        self._offset = offset
        self._length = length
        self._rebuild()

    def kernel_state(self) -> tuple[str, np.ndarray, int]:
        return ("max", self._buf, self._offset)

    def amend(self, index: int, value: float) -> None:
        # The buffer holds raw stream values, so an amendment is a point
        # write plus a sparse-table rebuild (same cost as one append).
        # A bin behind the retained buffer is unreachable by any legal
        # query, so there is nothing to rewrite.
        self._amend_check(index, value)
        if index < self._offset:
            return
        if self._buf[index - self._offset] != value:
            self._buf[index - self._offset] = value
            self._rebuild()

    def _rebuild(self) -> None:
        self._table = [self._buf]
        k = 1
        while (1 << k) <= self._buf.size:
            prev = self._table[-1]
            half = 1 << (k - 1)
            self._table.append(np.maximum(prev[:-half], prev[half:]))
            k += 1

    def _range_max(
        self, lo: np.ndarray, hi: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Max of buffer[lo:hi] (local indices, hi exclusive), vectorized."""
        span = hi - lo
        if np.any(span < 1):
            raise ValueError("empty range in range-max query")
        k = np.frexp(span.astype(np.float64))[1] - 1  # floor(log2(span))
        if out is None:
            out = np.empty(lo.shape, dtype=np.float64)
        for kk in np.unique(k):
            mask = k == kk
            tab = self._table[kk]
            half = 1 << int(kk)
            out[mask] = np.maximum(
                tab[lo[mask]], tab[hi[mask] - half]
            )
        return out

    def value(self, end: int, size: int) -> float:
        self._check(end, size)
        start = max(0, end + 1 - size)
        if start < self._offset:
            raise IndexError("window reaches behind retained history")
        lo = np.array([start - self._offset])
        hi = np.array([end + 1 - self._offset])
        return float(self._range_max(lo, hi)[0])

    def values(
        self, ends: np.ndarray, size: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        ends = np.asarray(ends, dtype=np.int64)
        if ends.size == 0:
            return np.empty(0, dtype=np.float64)
        if ends.max(initial=-1) >= self._length:
            raise IndexError("window end beyond stream length")
        starts = np.maximum(0, ends + 1 - size)
        if starts.min() < self._offset:
            raise IndexError("window reaches behind retained history")
        return self._range_max(
            starts - self._offset, ends + 1 - self._offset, out=out
        )

    def values_grid(self, ends: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        ends = np.asarray(ends, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if ends.size == 0 or sizes.size == 0:
            return np.empty((sizes.size, ends.size), dtype=np.float64)
        if ends.max() >= self._length:
            raise IndexError("window end beyond stream length")
        starts = np.maximum(0, ends[None, :] + 1 - sizes[:, None])
        if starts.min() < self._offset:
            raise IndexError("window reaches behind retained history")
        hi = np.broadcast_to(
            ends[None, :] + 1 - self._offset, starts.shape
        ).copy()
        return self._range_max(starts - self._offset, hi)
