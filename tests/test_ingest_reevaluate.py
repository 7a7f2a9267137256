"""Amendment re-checks against the window-by-window oracle, bit for bit.

``StreamIngestor._reevaluate`` bounds every window over a revised bin in
one array pass and reduces only the windows whose bound reaches the
threshold.  :func:`repro.testkit.reevaluate_windows` reduces every
window, one at a time.  Both must produce the same events in the same
order with the same float bits, the same burst beliefs, and the same
``windows_reevaluated`` count.

Each case restores an ingestor over a stub sink from a random sealed
series (non-dyadic floats, signed zeros, values near the float64
maximum) and random beliefs, then revises it with late records under
``amend`` (``push`` and ``push_batch``) and with ``correct()``, up and
down, on finished and unfinished ingestors.  Thresholds sit at exact
window values of the revised series and at their ``nextafter``
neighbours, where a bound that ignores rounding drops a window.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.aggregates import MAX, SUM
from repro.core.thresholds import FixedThresholds
from repro.ingest import AmendmentLedger, BurstAmended, StreamIngestor
from repro.testkit import reevaluate_windows

BIG = 1.7976931348623157e308

# Sums near BIG overflow on purpose.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning"
)


class StubSink:
    """Accepts every chunk and amendment, reports nothing."""

    def process(self, chunk):
        return []

    def finish(self):
        return []

    def amend(self, index, value):
        pass


def bits(x):
    return None if x is None else float(x).hex()


def event_bits(events):
    return [
        (e.end, e.size, bits(e.old_value), bits(e.new_value))
        for e in events
    ]


def belief_bits(beliefs):
    return [(key, bits(value)) for key, value in beliefs.items()]


def revised_series(series, aggregate, ops):
    """The series after each op that changes a bin, with the bin."""
    series = np.array(series, dtype=np.float64)
    out = []
    for kind, records in ops:
        for t, v in records:
            old = float(series[t])
            new = v if kind == "correct" else aggregate.combine(old, v)
            if new != old:
                series[t] = new
                out.append((series.copy(), t, old))
    return out


def window_values(states, sizes, aggregate):
    """Old and new values of every window over each revised bin."""
    values = {w: [] for w in sizes}
    for series, t, old in states:
        restored = series.copy()
        restored[t] = old
        for w in sizes:
            last = min(t + w - 1, series.size - 1)
            for end in range(max(t, w - 1), last + 1):
                for s in (series, restored):
                    window = s[end - w + 1 : end + 1]
                    values[w].append(float(aggregate.reduce(window)))
    return values


@st.composite
def scenarios(draw):
    aggregate = draw(st.sampled_from([SUM, MAX]))
    # Gamma draws have full 53-bit mantissas: sums round, and the order
    # they are taken in shows in the last bits.
    gamma = st.integers(0, 2**32 - 1).map(
        lambda seed: float(np.random.default_rng(seed).gamma(2.0, 2.0))
    )
    huge = st.floats(0.4 * BIG, BIG)
    specials = [
        st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0]),
    ]
    overflow = draw(st.booleans())
    if overflow:
        specials.append(huge)
    values = st.one_of(gamma, *specials)
    frontier = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    series = np.random.default_rng(seed).gamma(2.0, 2.0, frontier).tolist()
    for _ in range(draw(st.integers(0, 4))):
        t = draw(st.integers(0, frontier - 1))
        series[t] = draw(st.one_of(*specials))
    if overflow:
        # Two adjacent huge bins: prefixes past them overflow, while
        # windows beside them stay finite.
        t = draw(st.integers(0, frontier - 1))
        series[t : t + 2] = [draw(huge), draw(huge)][: frontier - t]
    sizes = sorted(draw(st.sets(st.integers(1, 12), min_size=1, max_size=6)))
    bins = st.one_of(
        st.just(0), st.just(frontier - 1), st.integers(0, frontier - 1)
    )
    finished = draw(st.booleans())
    kinds = ["correct"] if finished else ["correct", "push", "batch"]
    ops = []
    state = np.array(series, dtype=np.float64)
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(kinds))
        count = draw(st.integers(1, 4)) if kind == "batch" else 1
        records = []
        for _ in range(count):
            t, v = draw(bins), draw(values)
            old = float(state[t])
            new = v if kind == "correct" else aggregate.combine(old, v)
            if math.isinf(new):
                continue  # an engine refuses a non-finite bin
            state[t] = new
            records.append((t, v))
        if records:
            ops.append((kind, records))
    candidates = window_values(
        revised_series(series, aggregate, ops), sizes, aggregate
    )
    table = {}
    for w in sizes:
        if candidates[w] and draw(st.integers(0, 3)):
            f = draw(st.sampled_from(candidates[w]))
            step = draw(st.sampled_from([0, -1, 1]))
            if step:
                f = float(np.nextafter(f, step * np.inf))
        else:
            f = draw(values)
        table[w] = f
    beliefs = draw(
        st.lists(
            st.tuples(
                st.integers(0, frontier - 1), st.sampled_from(sizes), values
            ),
            max_size=8,
        )
    )
    return aggregate, series, table, beliefs, ops, finished


def check_against_oracle(aggregate, series, table, beliefs, ops, finished):
    """Run ``ops`` on a restored ingestor and on the oracle; compare."""
    thresholds = FixedThresholds(table)
    frontier = len(series)
    ingestor = StreamIngestor(
        StubSink(), thresholds, aggregate, late_policy="amend"
    )
    ingestor.restore_state(
        {
            "frontier": frontier,
            "sealed": list(series),
            "bursts": [list(b) for b in beliefs],
            "buffer": [],
            "ledger": AmendmentLedger().to_dict(),
            "finished": finished,
        }
    )
    model = np.array(series, dtype=np.float64)
    model_beliefs = dict(ingestor._bursts)
    amendments, retractions, windows = [], [], 0
    for kind, records in ops:
        if kind == "correct":
            [(t, v)] = records
            ingestor.correct(t, v)
        elif kind == "push":
            [(t, v)] = records
            ingestor.push(t, v)
        else:
            ts, vs = zip(*records)
            ingestor.push_batch(np.array(ts), np.array(vs))
        for t, v in records:
            old = float(model[t])
            new = v if kind == "correct" else aggregate.combine(old, v)
            if new == old:
                continue
            model[t] = new
            events, updates, count = reevaluate_windows(
                model, t, old, frontier, thresholds, aggregate
            )
            windows += count
            for e in events:
                if isinstance(e, BurstAmended):
                    amendments.append(e)
                else:
                    retractions.append(e)
            for key, value in updates:
                if value is None:
                    model_beliefs.pop(key, None)
                else:
                    model_beliefs[key] = value
    ledger = ingestor.ledger
    assert event_bits(ledger.amendments) == event_bits(amendments)
    assert event_bits(ledger.retractions) == event_bits(retractions)
    assert belief_bits(ingestor._bursts) == belief_bits(model_beliefs)
    assert ledger.windows_reevaluated == windows
    assert [bits(x) for x in ingestor.sealed_series()] == [
        bits(x) for x in model
    ]
    return ledger


@given(scenarios())
@settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_reevaluate_matches_the_window_by_window_oracle(scenario):
    check_against_oracle(*scenario)


def _exact_sum_above_prefix_difference():
    """A gamma series, a late value for bin 11 and a size-6 window over
    it whose span prefix difference (largest size 8, as in the tests
    below) rounds below its ``np.sum``."""
    rng = np.random.default_rng(7)
    t, w, maxw = 11, 6, 8
    while True:
        series = rng.gamma(2.0, 1.0, 24)
        late = float(rng.gamma(2.0, 1.0))
        revised = series.copy()
        revised[t] = series[t] + late
        lo = t - maxw + 1
        prefix = np.concatenate(([0.0], np.cumsum(revised[lo : t + maxw])))
        for end in range(t, t + w):
            exact = float(np.sum(revised[end - w + 1 : end + 1]))
            approx = prefix[end + 1 - lo] - prefix[end - w + 1 - lo]
            if approx < exact:
                return list(series), t, late, end, w, exact


@pytest.mark.parametrize("kind", ["push", "correct"])
def test_threshold_at_the_exact_sum_above_its_prefix_difference(kind):
    # A bound with no rounding margin rules this window out and misses
    # the burst the late value creates.
    series, t, late, end, w, exact = _exact_sum_above_prefix_difference()
    value = late if kind == "push" else series[t] + late
    ledger = check_against_oracle(
        SUM,
        series,
        {2: 1e9, w: exact, 8: 1e9},
        [],
        [(kind, [(t, value)])],
        False,
    )
    assert BurstAmended(end, w, None, exact) in ledger.amendments


def test_overflowing_prefix_keeps_windows_candidates():
    # The prefix over the span overflows (inf - inf = nan) while the
    # window itself is finite; a NaN bound must not rule it out.
    ledger = check_against_oracle(
        SUM,
        [1e308, 1e308, 0.0, 0.0, 0.0],
        {1: 5.0, 4: BIG},
        [],
        [("correct", [(2, 5.0)])],
        True,
    )
    assert ledger.amendments == [BurstAmended(2, 1, None, 5.0)]
