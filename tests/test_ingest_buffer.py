"""Property suite for the out-of-order buffer vs a literal oracle.

The oracle is a plain ``dict`` re-aggregated from scratch: timestamps to
``(value, count)``, combined with the aggregate function, sorted on
demand, plus the last eviction watermark below which inserts are
refused.  The dense window must agree with it exactly after every
operation — values are dyadic (multiples of 1/1024 in a small range),
so float aggregation is exact and comparisons need no tolerance.  The
combine *order*, which non-dyadic values expose, is pinned separately
against a sequential reduce.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.aggregates import MAX, SUM
from repro.ingest import BinAggregate, OutOfOrderBuffer, series_from_records

# Small domains on purpose: collisions (duplicate timestamps) and
# adjacent ties must be common, not lucky.
timestamps = st.integers(0, 63)
values = st.integers(0, 8 * 1024).map(lambda q: q / 1024.0)


@st.composite
def op_sequences(draw):
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["insert", "insert", "bulk", "evict"]))
        if kind == "insert":
            ops.append(("insert", draw(timestamps), draw(values)))
        elif kind == "bulk":
            k = draw(st.integers(0, 12))
            ops.append(
                (
                    "bulk",
                    [
                        (draw(timestamps), draw(values))
                        for _ in range(k)
                    ],
                )
            )
        else:
            ops.append(("evict", draw(st.integers(0, 80))))
    return ops


class DictOracle:
    """Literal re-aggregation: the spec the window must match."""

    def __init__(self, aggregate):
        self.aggregate = aggregate
        self.bins: dict[int, tuple[float, int]] = {}
        self.start = 0

    def insert(self, t: int, v: float) -> bool:
        if t in self.bins:
            old_v, old_c = self.bins[t]
            self.bins[t] = (self.aggregate.combine(old_v, v), old_c + 1)
            return False
        self.bins[t] = (v, 1)
        return True

    def evict_below(self, watermark: int) -> tuple[np.ndarray, int]:
        """The sealed range, densified: identity where no record landed."""
        if watermark <= self.start:
            return np.empty(0, dtype=np.float64), 0
        chunk = np.full(
            watermark - self.start, self.aggregate.identity, dtype=np.float64
        )
        records = 0
        for t in sorted(t for t in self.bins if t < watermark):
            value, count = self.bins.pop(t)
            chunk[t - self.start] = value
            records += count
        self.start = watermark
        return chunk, records

    def snapshot(self) -> list[BinAggregate]:
        return [
            BinAggregate(t, *self.bins[t]) for t in sorted(self.bins)
        ]

    @property
    def n_records(self) -> int:
        return sum(c for _, c in self.bins.values())


def _assert_matches(buf: OutOfOrderBuffer, oracle: DictOracle) -> None:
    assert buf.bins() == oracle.snapshot()
    assert buf.n_bins == len(oracle.bins)
    assert buf.n_records == oracle.n_records
    assert buf.start == oracle.start
    ts = sorted(oracle.bins)
    assert buf.max_timestamp == (ts[-1] if ts else None)


def _assert_evicted_equal(got, want) -> None:
    (chunk, records), (want_chunk, want_records) = got, want
    assert chunk.dtype == np.float64
    assert chunk.tolist() == want_chunk.tolist()
    assert records == want_records


@pytest.mark.parametrize("aggregate", [SUM, MAX], ids=["sum", "max"])
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=op_sequences())
def test_buffer_matches_literal_oracle(aggregate, ops):
    buf = OutOfOrderBuffer(aggregate)
    oracle = DictOracle(aggregate)
    for op in ops:
        if op[0] == "insert":
            _, t, v = op
            if t < oracle.start:
                with pytest.raises(ValueError, match="below the window"):
                    buf.insert(t, v)
            else:
                assert buf.insert(t, v) == oracle.insert(t, v)
        elif op[0] == "bulk":
            batch = op[1]
            ts = np.array([t for t, _ in batch], dtype=np.int64)
            vals = np.array([v for _, v in batch], dtype=np.float64)
            if any(t < oracle.start for t, _ in batch):
                with pytest.raises(ValueError, match="below the window"):
                    buf.bulk_insert(ts, vals)
            else:
                merged = sum(
                    0 if oracle.insert(t, v) else 1 for t, v in batch
                )
                assert buf.bulk_insert(ts, vals) == merged
        else:
            _, w = op
            _assert_evicted_equal(buf.evict_below(w), oracle.evict_below(w))
        _assert_matches(buf, oracle)


@pytest.mark.parametrize("aggregate", [SUM, MAX], ids=["sum", "max"])
@settings(max_examples=40, deadline=None)
@given(
    batch=st.lists(st.tuples(timestamps, values), max_size=30),
    pre=st.lists(st.tuples(timestamps, values), max_size=10),
)
def test_bulk_insert_equals_loop_of_inserts(aggregate, batch, pre):
    """One straggler batch == the same records inserted one by one."""
    looped = OutOfOrderBuffer(aggregate)
    bulked = OutOfOrderBuffer(aggregate)
    for t, v in pre:
        looped.insert(t, v)
        bulked.insert(t, v)
    merged = 0
    for t, v in batch:
        merged += 0 if looped.insert(t, v) else 1
    ts = np.array([t for t, _ in batch], dtype=np.int64)
    vals = np.array([v for _, v in batch], dtype=np.float64)
    assert bulked.bulk_insert(ts, vals) == merged
    assert bulked.bins() == looped.bins()
    assert bulked.n_bins == looped.n_bins
    assert bulked.n_records == looped.n_records
    assert bulked.max_timestamp == looped.max_timestamp


@pytest.mark.parametrize("aggregate", [SUM, MAX], ids=["sum", "max"])
def test_combine_order_matches_sequential_reduce(aggregate):
    """Non-dyadic values expose float order: a bin holds
    ``old + (b1 + b2 + ...)``, each side reduced in arrival order."""
    rng = np.random.default_rng(7)
    old = rng.uniform(0, 1, 3)
    ts = rng.integers(0, 3, 60)
    vals = rng.uniform(0, 1, 60)
    buf = OutOfOrderBuffer(aggregate)
    for t, v in enumerate(old.tolist()):
        buf.insert(t, v)
    buf.bulk_insert(ts, vals)
    chunk, _ = buf.evict_below(3)
    for t in range(3):
        batch = reduce(aggregate.combine, vals[ts == t].tolist())
        assert chunk[t] == aggregate.combine(float(old[t]), batch)


@pytest.mark.parametrize("aggregate", [SUM, MAX], ids=["sum", "max"])
def test_signed_zeros_combine_like_the_sealing_oracle(aggregate):
    """Both insert paths combine a bin as ``series_from_records`` does,
    down to the sign of a zero."""
    ts = np.array([1, 2, 2, 3, 3, 4, 4], dtype=np.int64)
    vals = np.array([-0.0, -0.0, -0.0, 0.0, -0.0, -0.0, 0.0])
    looped = OutOfOrderBuffer(aggregate)
    for t, v in zip(ts.tolist(), vals.tolist()):
        looped.insert(t, v)
    bulked = OutOfOrderBuffer(aggregate)
    bulked.bulk_insert(ts, vals)
    want = np.signbit(series_from_records(ts, vals, aggregate)).tolist()
    for buf in (looped, bulked):
        chunk, _ = buf.evict_below(5)
        assert np.signbit(chunk).tolist() == want


def test_exact_dyadic_ties():
    """Dyadic values aggregate exactly: 1/4 + 1/4 + 1/2 == 1.0, not ~1.0."""
    buf = OutOfOrderBuffer(SUM)
    buf.insert(5, 0.25)
    buf.insert(5, 0.25)
    buf.insert(5, 0.5)
    chunk, records = buf.evict_below(6)
    assert chunk.tolist() == [0.0] * 5 + [1.0]
    assert records == 3


def test_eviction_order_and_partial_survival():
    buf = OutOfOrderBuffer(SUM)
    for t in (9, 2, 7, 4, 11):
        buf.insert(t, float(t))
    chunk, records = buf.evict_below(8)
    assert chunk.tolist() == [0.0, 0.0, 2.0, 0.0, 4.0, 0.0, 0.0, 7.0]
    assert records == 3
    assert [b.timestamp for b in buf.bins()] == [9, 11]
    chunk, records = buf.evict_below(8)  # idempotent at the old watermark
    assert chunk.size == 0 and records == 0
    with pytest.raises(ValueError, match="below the window start 8"):
        buf.insert(7, 1.0)


def test_restore_round_trips_bins_and_start():
    buf = OutOfOrderBuffer(SUM)
    for t, v in ((12, 1.5), (20, 2.0), (12, 0.25)):
        buf.insert(t, v)
    buf.evict_below(10)
    twin = OutOfOrderBuffer(SUM)
    twin.restore(buf.bins(), buf.start)
    assert (twin.start, twin.bins()) == (10, buf.bins())
    _assert_evicted_equal(twin.evict_below(21), buf.evict_below(21))
    with pytest.raises(ValueError, match="at or above the window start"):
        OutOfOrderBuffer(SUM).restore([BinAggregate(3, 1.0, 1)], 4)


def test_empty_buffer_properties():
    buf = OutOfOrderBuffer(SUM)
    assert buf.n_bins == 0
    assert buf.n_records == 0
    assert buf.start == 0
    assert buf.max_timestamp is None
    chunk, records = buf.evict_below(100)
    assert chunk.tolist() == [SUM.identity] * 100
    assert records == 0
    assert buf.bins() == []
