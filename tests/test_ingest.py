"""Unit tests for the watermark ingestion layer (repro.ingest).

Covers the ingestor's watermark/sealing semantics, the three late-record
policies, post-finish corrections with burst retraction, the exact
amendment ledger, the timestamped CSV source's validation, the
multi-stream wrapper, and the CLI plumbing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregates import SUM
from repro.core.chunked import ChunkedDetector
from repro.core.events import BurstSet
from repro.core.multi import MultiStreamDetector
from repro.core.naive import naive_detect
from repro.core.structure import SATStructure
from repro.core.thresholds import FixedThresholds
from repro.ingest import (
    BurstAmended,
    BurstRetracted,
    LateRecordError,
    MultiStreamIngestor,
    StreamIngestor,
    TimestampedRecord,
)
from repro.streams.source import TimestampedCSVSource

STRUCTURE = SATStructure.from_pairs([(2, 1), (4, 2), (8, 4)])
THRESHOLDS = FixedThresholds({2: 9.0, 4: 14.0})


def make_ingestor(**kwargs):
    detector = ChunkedDetector(STRUCTURE, THRESHOLDS, SUM)
    ingestor = StreamIngestor(detector, THRESHOLDS, SUM, **kwargs)
    return ingestor, detector


def naive_reference(series) -> BurstSet:
    return naive_detect(
        np.asarray(series, dtype=np.float64), THRESHOLDS, SUM
    )


def assert_bursts_equal(got: BurstSet, want: BurstSet) -> None:
    assert got.keys() == want.keys()
    by_key = {b.key(): b.value for b in want}
    for b in got:
        assert b.value == by_key[b.key()]


# -- watermark and sealing ---------------------------------------------


def test_in_order_push_matches_direct_detection():
    values = [1.0, 5.0, 6.0, 2.0, 8.0, 7.0, 0.5, 3.0]
    ingestor, _ = make_ingestor()
    for t, v in enumerate(values):
        ingestor.push(t, v)
    ingestor.finish()
    assert list(ingestor.sealed_series()) == values
    assert_bursts_equal(ingestor.final_bursts(), naive_reference(values))
    ledger = ingestor.ledger
    assert ledger.records == len(values)
    assert ledger.records_sealed == len(values)
    assert ledger.bins_sealed == len(values)


def test_watermark_trails_by_max_lateness():
    ingestor, _ = make_ingestor(max_lateness=3)
    ingestor.push(10, 1.0)
    assert ingestor.watermark == 7
    ingestor.push(8, 1.0)  # within lateness: buffered, not late
    assert ingestor.buffered_records == 2
    ingestor.push(20, 1.0)
    assert ingestor.watermark == 17


def test_gaps_seal_as_identity_bins():
    ingestor, _ = make_ingestor()
    ingestor.push(0, 2.0)
    ingestor.push(4, 3.0)  # bins 1..3 never got records
    ingestor.finish()
    assert list(ingestor.sealed_series()) == [2.0, 0.0, 0.0, 0.0, 3.0]


def test_punctuation_seals_and_defines_lateness():
    ingestor, _ = make_ingestor()
    ingestor.punctuate(5)
    assert ingestor.watermark == 5
    assert ingestor.ledger.bins_sealed == 5
    ingestor.punctuate(3)  # backwards: no-op
    assert ingestor.watermark == 5
    with pytest.raises(LateRecordError):
        ingestor.push(4, 1.0)


def test_duplicate_timestamps_combine_and_count():
    ingestor, _ = make_ingestor()
    ingestor.push(0, 1.0)
    ingestor.push(0, 2.5)
    ingestor.finish()
    assert list(ingestor.sealed_series()) == [3.5]
    assert ingestor.ledger.duplicates_merged == 1
    assert ingestor.ledger.records == 2
    assert ingestor.ledger.records_sealed == 2


def test_push_batch_equals_single_pushes():
    rng = np.random.default_rng(0)
    ts = rng.integers(0, 40, 60)
    vals = np.round(rng.uniform(0, 5, 60) * 1024) / 1024
    one, _ = make_ingestor(max_lateness=40)
    for t, v in zip(ts.tolist(), vals.tolist()):
        one.push(t, v)
    one.finish()
    batched, _ = make_ingestor(max_lateness=40)
    batched.push_batch(ts, vals)
    batched.finish()
    assert list(one.sealed_series()) == list(batched.sealed_series())
    assert_bursts_equal(batched.final_bursts(), one.final_bursts())
    assert one.ledger.as_dict() == batched.ledger.as_dict()


def test_combine_order_is_pinned():
    """A batch combines per bin first, then into the bin; single pushes
    combine one at a time.  Non-dyadic values make the order visible."""
    batched, _ = make_ingestor()
    batched.push_batch([3], [0.1])
    batched.push_batch([3, 3], [0.2, 0.3])
    batched.finish()
    assert batched.sealed_series()[3] == 0.1 + (0.2 + 0.3) == 0.6
    single, _ = make_ingestor()
    for v in (0.1, 0.2, 0.3):
        single.push(3, v)
    single.finish()
    assert single.sealed_series()[3] == (0.1 + 0.2) + 0.3
    assert single.sealed_series()[3] == 0.6000000000000001


def test_push_after_finish_refused():
    ingestor, _ = make_ingestor()
    ingestor.push(0, 1.0)
    ingestor.finish()
    with pytest.raises(RuntimeError, match="finished"):
        ingestor.push(1, 1.0)


# -- late-record policies ----------------------------------------------


def test_raise_policy_names_frontier_and_remedy():
    ingestor, _ = make_ingestor()
    ingestor.push(10, 1.0)
    with pytest.raises(LateRecordError, match=r"frontier 10.*late-policy"):
        ingestor.push(3, 1.0)


def test_refused_late_records_keep_the_ledger_identity():
    ingestor, _ = make_ingestor(max_lateness=2)
    for t in range(10):
        ingestor.push(t, 1.0)
    refusals = (
        lambda: ingestor.push_batch([11, 3, 12], [1.0, 1.0, 1.0]),
        lambda: ingestor.push(3, 1.0),
    )
    for refused in refusals:
        with pytest.raises(LateRecordError):
            refused()
        ledger = ingestor.ledger
        assert ledger.records == 10
        assert (
            ledger.records
            == ledger.records_sealed
            + ledger.late_dropped
            + ledger.late_amended
            + ingestor.buffered_records
        )


def test_drop_policy_counts_but_ignores():
    ingestor, _ = make_ingestor(late_policy="drop")
    ingestor.push(10, 1.0)
    ingestor.push(3, 99.0)
    ingestor.finish()
    assert ingestor.sealed_series()[3] == 0.0
    ledger = ingestor.ledger
    assert ledger.late_dropped == 1
    assert ledger.records == 2
    assert ledger.records_sealed == 1


def test_amend_policy_revises_history_to_naive_truth():
    ingestor, _ = make_ingestor(late_policy="amend")
    values = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    for t, v in enumerate(values):
        ingestor.push(t, v)
    ingestor.push(20, 1.0)  # frontier far past the revision site
    ingestor.push(2, 10.0)  # late: combines into bin 2
    ingestor.finish()
    effective = ingestor.sealed_series()
    assert effective[2] == 11.0
    assert_bursts_equal(ingestor.final_bursts(), naive_reference(effective))
    ledger = ingestor.ledger
    assert ledger.late_amended == 1
    assert ledger.windows_reevaluated > 0
    # The late spike pushed sealed windows over threshold: discovered
    # late, so their events carry old_value None.
    assert ledger.amendments
    assert all(e.old_value is None for e in ledger.amendments)


def test_amendment_ledger_identity():
    ingestor, _ = make_ingestor(late_policy="drop", max_lateness=2)
    rng = np.random.default_rng(1)
    for t in rng.integers(0, 30, 50).tolist():
        ingestor.push(t, 1.0)
    ledger = ingestor.ledger
    assert ledger.records == 50
    assert (
        ledger.records
        == ledger.records_sealed
        + ledger.late_dropped
        + ledger.late_amended
        + ingestor.buffered_records
    )


# -- corrections and retraction ----------------------------------------


def test_correct_retracts_bursts_exactly():
    ingestor, _ = make_ingestor()
    values = [1.0, 8.0, 8.0, 1.0, 1.0, 1.0, 1.0, 1.0]  # bins 1-2 burst
    for t, v in enumerate(values):
        ingestor.push(t, v)
    ingestor.finish()
    assert (2, 2) in ingestor.final_bursts().keys()
    ingestor.correct(2, 0.5)  # a recanted reading: rewrite, not combine
    corrected = ingestor.sealed_series()
    assert corrected[2] == 0.5
    assert_bursts_equal(ingestor.final_bursts(), naive_reference(corrected))
    ledger = ingestor.ledger
    assert ledger.corrections == 1
    assert any(
        e == BurstRetracted(2, 2, 16.0, 8.5) for e in ledger.retractions
    )


def test_correct_refuses_unsealed_bins():
    ingestor, _ = make_ingestor(max_lateness=5)
    ingestor.push(10, 1.0)  # frontier 5; bins 5..10 unsealed
    with pytest.raises(ValueError, match="not sealed"):
        ingestor.correct(7, 2.0)


def test_amend_events_are_ordered_and_validated():
    a = BurstAmended(5, 2, 3.0, 4.0)
    assert a.start == 4
    r = BurstRetracted(5, 2, 16.0, 1.0)
    assert r.start == 4
    with pytest.raises(ValueError):
        BurstAmended(5, 0, None, 1.0)
    assert BurstAmended(4, 2, None, 1.0) < a  # order=True, by end first


def test_timestamped_record_ordering():
    assert TimestampedRecord(1, 5.0) < TimestampedRecord(2, 0.0)


# -- input validation --------------------------------------------------


BAD_RECORDS = [
    (-1, 1.0),
    (1.5, 1.0),
    (0, -1.0),
    (0, float("nan")),
    (0, float("inf")),
    (float("inf"), 1.0),
    (float("nan"), 1.0),
]


@pytest.mark.parametrize("timestamp, value", BAD_RECORDS)
def test_push_rejects_bad_records(timestamp, value):
    ingestor, _ = make_ingestor()
    with pytest.raises(ValueError):
        ingestor.push(timestamp, value)


@pytest.mark.parametrize("timestamp, value", BAD_RECORDS)
def test_correct_rejects_bad_records(timestamp, value):
    ingestor, _ = make_ingestor()
    ingestor.push(4, 1.0)  # bins 0-3 sealed
    with pytest.raises(ValueError):
        ingestor.correct(timestamp, value)
    assert ingestor.ledger.corrections == 0


def test_push_batch_rejects_bad_arrays():
    ingestor, _ = make_ingestor()
    with pytest.raises(ValueError, match="push_batch"):
        ingestor.push_batch(
            np.array([0, 1]), np.array([1.0, float("nan")])
        )


# -- timestamped CSV source --------------------------------------------


def test_timestamped_source_parses_and_batches(tmp_path):
    path = tmp_path / "feed.csv"
    path.write_text("# comment\n3,1.5\n\n0,2.0\n3,0.25\n")
    source = TimestampedCSVSource(path)
    assert list(source.records()) == [(3, 1.5), (0, 2.0), (3, 0.25)]
    [(ts, vals)] = list(source.batches(16))
    assert ts.tolist() == [3, 0, 3]
    assert vals.tolist() == [1.5, 2.0, 0.25]


@pytest.mark.parametrize(
    "row",
    ["1.5,2.0", "-3,2.0", "3,-2.0", "3,nan", "3,inf", "3", "3,2,1", "x,2"],
)
def test_timestamped_source_rejects_with_file_and_line(tmp_path, row):
    path = tmp_path / "feed.csv"
    path.write_text(f"0,1.0\n{row}\n")
    with pytest.raises(ValueError, match=rf"{path.name}:2: "):
        list(TimestampedCSVSource(path).records())


def test_timestamped_source_skip_bad_records(tmp_path):
    path = tmp_path / "feed.csv"
    path.write_text("0,1.0\nbad,row\n2,3.0\n")
    source = TimestampedCSVSource(path, skip_bad_records=True)
    assert list(source.records()) == [(0, 1.0), (2, 3.0)]
    assert source.skipped == 1


# -- multi-stream ------------------------------------------------------


def test_multi_stream_ingestor_matches_single_runs():
    rng = np.random.default_rng(7)
    streams = {
        name: np.round(rng.uniform(0, 6, 24) * 1024) / 1024
        for name in ("a", "b")
    }
    fleet = MultiStreamDetector.shared(
        list(streams), STRUCTURE, THRESHOLDS, aggregate=SUM
    )
    multi = MultiStreamIngestor(fleet, THRESHOLDS, SUM, max_lateness=4)
    for name, series in streams.items():
        # Adjacent-pair swaps: displacement 1, within max_lateness=4.
        order = [t ^ 1 for t in range(24)]
        for t in order:
            multi.push(name, t, float(series[t]))
    multi.finish()
    final = multi.final_bursts()
    for name, series in streams.items():
        assert_bursts_equal(final[name], naive_reference(series))
    merged = multi.ledger()
    assert merged.records == 48
    assert merged.records_sealed == 48


def test_multi_stream_punctuate_broadcasts():
    fleet = MultiStreamDetector.shared(
        ["a", "b"], STRUCTURE, THRESHOLDS, aggregate=SUM
    )
    multi = MultiStreamIngestor(fleet, THRESHOLDS, SUM)
    multi.punctuate(4)
    for name in ("a", "b"):
        assert multi.ingestor(name).watermark == 4


# -- CLI plumbing ------------------------------------------------------


def _cli_feed(tmp_path):
    """A spec, a 40-point plain stream, and the same points shuffled as
    a timestamped feed: (spec path, plain csv, feed csv, series, order)."""
    from repro.io import DetectorSpec, save_spec

    spec = DetectorSpec(STRUCTURE, THRESHOLDS)
    spec_path = tmp_path / "spec.json"
    save_spec(spec, spec_path)
    rng = np.random.default_rng(11)
    series = np.round(rng.uniform(0, 6, 40) * 1024) / 1024
    plain = tmp_path / "plain.csv"
    plain.write_text("\n".join(str(v) for v in series) + "\n")
    feed = tmp_path / "feed.csv"
    order = rng.permutation(40).tolist()
    feed.write_text(
        "".join(f"{t},{series[t]}\n" for t in order)
    )
    return spec_path, plain, feed, series, order


def test_cli_timestamped_detect_matches_plain(tmp_path, capsys):
    from repro.__main__ import main

    spec_path, plain, feed, _, _ = _cli_feed(tmp_path)
    out_plain = tmp_path / "a.csv"
    out_feed = tmp_path / "b.csv"
    assert main(
        ["detect", str(spec_path), str(plain), "-o", str(out_plain),
         "--workers", "serial"]
    ) == 0
    assert main(
        ["detect", str(spec_path), str(feed), "-o", str(out_feed),
         "--timestamped", "--max-lateness", "40", "--workers", "serial"]
    ) == 0
    assert out_plain.read_text() == out_feed.read_text()
    assert "# ingest: records=40" in capsys.readouterr().err


def test_cli_durable_detect_and_recover_match_plain(tmp_path, capsys):
    """``detect --durable-dir`` and both ``recover`` forms print the
    plain run's bursts, with the accounting lines pinned verbatim."""
    from repro.__main__ import main
    from repro.durable import DurableStreamIngestor
    from repro.io import load_spec

    spec_path, plain, feed, series, order = _cli_feed(tmp_path)
    want = tmp_path / "want.csv"
    assert main(
        ["detect", str(spec_path), str(plain), "-o", str(want),
         "--workers", "serial"]
    ) == 0
    capsys.readouterr()
    bursts = want.read_text()
    ingest = (
        "# ingest: records=40 sealed(records=40, bins=40) dupes=0 "
        "late(dropped=0, amended=0) corrections=0 reeval=0 "
        "events(amended=0, retracted=0)"
    )
    ops = "# 40 records, 211 operations (5.3/record)"

    run = tmp_path / "run"
    got = tmp_path / "durable.csv"
    assert main(
        ["detect", str(spec_path), str(feed), "-o", str(got),
         "--timestamped", "--max-lateness", "40",
         "--durable-dir", str(run)]
    ) == 0
    assert got.read_text() == bursts
    assert capsys.readouterr().err.splitlines() == [
        ops, ingest, f"# durable: 2 WAL entries in {run}",
    ]

    assert main(["recover", str(run)]) == 0
    out = capsys.readouterr()
    assert out.out == bursts
    assert out.err.splitlines() == [
        "# recovered from snapshot lsn=2 + 0 replayed entries "
        "(0 records); trimmed 0 entries (0 records); resume at op 2 "
        "(record 40); stream already finished",
        ops, ingest, f"# durable: 2 WAL entries in {run}",
    ]

    # Abandoned after three batches (no finish, WAL left open), then
    # resumed by re-feeding the file from the reported record offset.
    abandoned = tmp_path / "abandoned"
    dur = DurableStreamIngestor(
        load_spec(spec_path), abandoned, max_lateness=40, snapshot_every=2
    )
    for lo, hi in ((0, 15), (15, 25), (25, 30)):
        ts = np.asarray(order[lo:hi], dtype=np.int64)
        dur.push_batch(ts, series[ts])
    del dur
    assert main(["recover", str(abandoned), "--stream", str(feed)]) == 0
    out = capsys.readouterr()
    assert out.out == bursts
    assert out.err.splitlines() == [
        "# recovered from snapshot lsn=2 + 1 replayed entry (5 records); "
        "trimmed 0 entries (0 records); resume at op 3 (record 30)",
        ops, ingest, f"# durable: 5 WAL entries in {abandoned}",
    ]


def test_cli_late_policy_raise_fails_actionably(tmp_path):
    from repro.__main__ import main
    from repro.io import DetectorSpec, save_spec

    spec_path = tmp_path / "spec.json"
    save_spec(DetectorSpec(STRUCTURE, THRESHOLDS), spec_path)
    feed = tmp_path / "feed.csv"
    feed.write_text("10,1.0\n")
    punct = tmp_path / "feed2.csv"
    # A single batch can never be late against itself; lateness via
    # push_batch is exercised in the unit tests above.  Here just check
    # the flag parses and an in-order feed passes under raise.
    punct.write_text("0,1.0\n1,2.0\n")
    assert main(
        ["detect", str(spec_path), str(punct), "-o",
         str(tmp_path / "out.csv"), "--timestamped", "--workers", "serial"]
    ) == 0


def test_cli_amend_requires_serial_fleet():
    import argparse

    from repro.__main__ import _make_ingestor

    class FakeFleet:
        num_workers = 2

    args = argparse.Namespace(
        late_policy="amend", max_lateness=0, workers=2
    )
    with pytest.raises(SystemExit, match="serial"):
        _make_ingestor(args, FakeFleet(), None)
