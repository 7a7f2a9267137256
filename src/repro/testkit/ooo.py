"""Arrival-order invariance: the out-of-order leg of the testkit.

The ingestion layer's contract (DESIGN.md §15) is that detection output
is a pure function of the record *multiset* and the watermark sequence —
arrival order must not leak into bursts, operation counts, or the
amendment ledger.  This module tests that contract two ways:

* :func:`ooo_shuffle` — a metamorphic relation in the style of
  :mod:`repro.testkit.relations`: a fuzz case's stream is re-delivered
  as timestamped records under K seeded *watermark-consistent* arrival
  permutations, and every permutation must reproduce the in-order run
  byte for byte (final bursts with values, counter totals and per-level
  routing, amendment ledger).  A permutation is watermark-consistent
  when no record is ever released after a record more than
  ``max_lateness`` bins ahead of it — precisely the arrivals a correct
  feed under that lateness bound can produce, so none of them are late
  and the ledger must match the in-order run exactly (no amendment
  events).  Each permutation is delivered twice: one ``push`` per
  record, and through ``push_batch`` in seeded random slices.  Batching
  cannot make a record late — the frontier at the start of a batch is
  at or below the one each of its records would meet if pushed alone.
  The relation also pins the adapter itself: the in-order ingestion run
  must match the plain chunked backend.

* the ``repro.testkit.ooo.v1`` corpus format — reproducer files that
  *do* contain genuinely late records and post-finish corrections, with
  the expected ledger and final bursts pinned in the file.  Replay
  re-runs the pipeline, compares byte-for-byte, and independently
  cross-checks the final bursts against the naive oracle over the final
  sealed series.

Wired into the fuzz loop via ``FuzzConfig.ooo_every`` / ``--ooo-every``
(kept out of the always-on relation battery: it runs several full
detections per case).
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from ..core.chunked import ChunkedDetector
from ..core.events import Burst, BurstSet
from ..core.naive import naive_detect
from ..core.opcount import OpCounters
from ..ingest import LateRecordError, StreamIngestor
from ..io.spec import DetectorSpec
from .generators import FuzzCase
from .oracles import Mismatch, diff_burst_sets, run_backend

__all__ = [
    "OOO_FORMAT",
    "ooo_payload",
    "ooo_shuffle",
    "replay_ooo_payload",
    "save_ooo_reproducer",
    "watermark_consistent_arrival",
]

OOO_FORMAT = "repro.testkit.ooo.v1"


def watermark_consistent_arrival(
    rng: np.random.Generator, n: int, max_lateness: int
) -> np.ndarray:
    """A random arrival order of bins ``0..n-1`` that is never late.

    Releases records one at a time, picking uniformly among the pending
    records within ``max_lateness`` of the *oldest* pending one.  The
    watermark after any prefix is ``max released - max_lateness``, which
    this construction keeps at or below every pending timestamp — so a
    pipeline with the same ``max_lateness`` seals nothing early and
    classifies no record late.  ``max_lateness=0`` yields the identity.
    """
    pending = list(range(n))  # always sorted: we delete, never append
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        # Sorted pending: the eligible set is the prefix of timestamps
        # within max_lateness of the oldest (at most L+1 long, but NOT
        # simply pending[:L+1] — earlier picks leave gaps).
        limit = pending[0] + max_lateness
        hi = 1
        while hi < len(pending) and pending[hi] <= limit:
            hi += 1
        pick = int(rng.integers(0, hi))
        out[i] = pending.pop(pick)
    return out


def _counter_fingerprint(counters: OpCounters) -> dict[str, Any]:
    """Totals plus per-level routing — the exact op-count identity."""
    return {
        **counters.as_dict(),
        "per_level_updates": counters.updates.tolist(),
        "per_level_filter": counters.filter_comparisons.tolist(),
        "per_level_alarms": counters.alarms.tolist(),
        "per_level_search": counters.search_cells.tolist(),
    }


def _batch_ends(case: FuzzCase, k: int) -> np.ndarray:
    """Seeded slice ends for delivering permutation ``k`` in batches.

    Drawn from the case's own stream and ``k``, never from the
    relation's shared RNG, so the permutations and every later draw
    (the ``crash_recover`` kill points) stay what they were.
    """
    n = int(case.stream.size)
    rng = np.random.default_rng([zlib.crc32(case.stream.tobytes()), k])
    cuts = np.flatnonzero(rng.random(n - 1) < rng.uniform(0.05, 0.5)) + 1
    return np.append(cuts, n)


def _ingest_run(
    case: FuzzCase,
    arrival: np.ndarray,
    max_lateness: int,
    batch_ends: np.ndarray | None = None,
) -> tuple[BurstSet, dict[str, Any], dict[str, Any]]:
    """Deliver the case's stream in ``arrival`` order through ingestion:
    one ``push`` per record, or one ``push_batch`` per slice ending at
    each of ``batch_ends``."""
    spec = case.spec
    detector = ChunkedDetector(
        spec.structure,
        spec.thresholds,
        spec.aggregate,
        refine_filter=case.refine_filter,
    )
    ingestor = StreamIngestor(
        detector,
        spec.thresholds,
        spec.aggregate,
        max_lateness=max_lateness,
        late_policy="raise",
    )
    stream = case.stream
    if batch_ends is None:
        for t in arrival.tolist():
            ingestor.push(t, float(stream[t]))
    else:
        lo = 0
        for hi in batch_ends.tolist():
            ingestor.push_batch(arrival[lo:hi], stream[arrival[lo:hi]])
            lo = hi
    ingestor.finish()
    return (
        ingestor.final_bursts(),
        _counter_fingerprint(detector.counters),
        ingestor.ledger.as_dict(),
    )


def ooo_shuffle(
    case: FuzzCase,
    rng: np.random.Generator,
    permutations: int = 3,
) -> list[Mismatch]:
    """Arrival-order invariance of the full ingestion + detection path."""
    n = int(case.stream.size)
    if n == 0:
        return []
    max_lateness = int(rng.integers(0, min(n, 24) + 1))
    out: list[Mismatch] = []
    try:
        inorder = _ingest_run(
            case, np.arange(n, dtype=np.int64), max_lateness
        )
    except Exception as exc:  # noqa: BLE001 - crashes are findings
        return [
            Mismatch(
                "ooo-shuffle", "ingest", f"{type(exc).__name__}: {exc}"
            )
        ]
    ref_bursts, ref_counters, ref_ledger = inorder

    # The adapter must be invisible: in-order ingestion == plain chunked.
    direct = run_backend(case, "chunked")
    missing, extra, value_errors = diff_burst_sets(direct, ref_bursts)
    if missing or extra or value_errors:
        out.append(
            Mismatch(
                "ooo-shuffle",
                "ingest",
                "in-order ingestion disagrees with the chunked backend"
                + (f"; {value_errors[0]}" if value_errors else ""),
                missing,
                extra,
            )
        )

    runs = []
    for k in range(permutations):
        arrival = watermark_consistent_arrival(rng, n, max_lateness)
        runs.append((f"ingest-perm-{k}(L={max_lateness})", arrival, None))
        runs.append(
            (
                f"ingest-perm-{k}-batched(L={max_lateness})",
                arrival,
                _batch_ends(case, k),
            )
        )
    for label, arrival, batch_ends in runs:
        try:
            bursts, counters, ledger = _ingest_run(
                case, arrival, max_lateness, batch_ends
            )
        except Exception as exc:  # noqa: BLE001 - crashes are findings
            out.append(
                Mismatch(
                    "ooo-shuffle", label, f"{type(exc).__name__}: {exc}"
                )
            )
            continue
        missing, extra, value_errors = diff_burst_sets(ref_bursts, bursts)
        if missing or extra or value_errors:
            out.append(
                Mismatch(
                    "ooo-shuffle",
                    label,
                    "final bursts depend on arrival order"
                    + (f"; {value_errors[0]}" if value_errors else ""),
                    missing,
                    extra,
                )
            )
        if counters != ref_counters:
            diff = {
                key: (ref_counters[key], counters[key])
                for key in ref_counters
                if counters.get(key) != ref_counters[key]
            }
            out.append(
                Mismatch(
                    "ooo-shuffle",
                    label,
                    f"op-count routing depends on arrival order: {diff}",
                )
            )
        if ledger != ref_ledger:
            diff = {
                key: (ref_ledger[key], ledger[key])
                for key in ref_ledger
                if ledger.get(key) != ref_ledger[key]
            }
            out.append(
                Mismatch(
                    "ooo-shuffle",
                    label,
                    f"amendment ledger depends on arrival order: {diff}",
                )
            )
    return out


# ---------------------------------------------------------------------------
# Out-of-order reproducer corpus
# ---------------------------------------------------------------------------

def _run_ooo_pipeline(
    spec: DetectorSpec,
    refine_filter: bool,
    records: list[tuple[int, float]],
    corrections: list[tuple[int, float]],
    max_lateness: int,
    late_policy: str,
) -> StreamIngestor:
    detector = ChunkedDetector(
        spec.structure,
        spec.thresholds,
        spec.aggregate,
        refine_filter=refine_filter,
    )
    ingestor = StreamIngestor(
        detector,
        spec.thresholds,
        spec.aggregate,
        max_lateness=max_lateness,
        late_policy=late_policy,
    )
    for t, v in records:
        ingestor.push(t, v)
    ingestor.finish()
    for t, v in corrections:
        ingestor.correct(t, v)
    return ingestor


def ooo_payload(
    spec: DetectorSpec,
    records: list[tuple[int, float]],
    *,
    max_lateness: int,
    late_policy: str,
    corrections: list[tuple[int, float]] | None = None,
    refine_filter: bool = True,
    label: str = "ooo",
    origin: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Build a self-verifying OOO corpus payload.

    Runs the pipeline once and pins its ledger and final bursts as the
    expectation — or, when the run raises (policy ``raise`` with a late
    record), pins the exception type.  Replay then holds the pipeline to
    that behaviour forever.
    """
    payload: dict[str, Any] = {
        "format": OOO_FORMAT,
        "label": label,
        "spec": spec.to_dict(),
        "refine_filter": bool(refine_filter),
        "max_lateness": int(max_lateness),
        "late_policy": late_policy,
        "records": [[int(t), float(v)] for t, v in records],
        "corrections": [
            [int(t), float(v)] for t, v in (corrections or [])
        ],
    }
    try:
        ingestor = _run_ooo_pipeline(
            spec,
            refine_filter,
            records,
            corrections or [],
            max_lateness,
            late_policy,
        )
    except LateRecordError:
        payload["expect"] = {"error": "LateRecordError"}
    else:
        payload["expect"] = {
            "ledger": ingestor.ledger.as_dict(),
            "bursts": [
                [b.end, b.size, b.value]
                for b in ingestor.final_bursts()
            ],
        }
    if origin:
        payload["origin"] = origin
    return payload


def replay_ooo_payload(payload: dict[str, Any]) -> list[Mismatch]:
    """Re-run one OOO corpus case; empty list = passes.

    Checks, byte-for-byte: the pinned exception or (ledger, final
    bursts), plus an oracle the file cannot get wrong — the final bursts
    must equal naive detection over the final sealed series.
    """
    if payload.get("format") != OOO_FORMAT:
        raise ValueError(
            f"not an ooo case (format={payload.get('format')!r})"
        )
    spec = DetectorSpec.from_dict(payload["spec"])
    records = [(int(t), float(v)) for t, v in payload["records"]]
    corrections = [
        (int(t), float(v)) for t, v in payload.get("corrections", [])
    ]
    expect = payload["expect"]
    try:
        ingestor = _run_ooo_pipeline(
            spec,
            bool(payload.get("refine_filter", True)),
            records,
            corrections,
            int(payload["max_lateness"]),
            str(payload["late_policy"]),
        )
    except LateRecordError as exc:
        if expect.get("error") == "LateRecordError":
            return []
        return [
            Mismatch("ooo-replay", "ingest", f"unexpected raise: {exc}")
        ]
    except Exception as exc:  # noqa: BLE001 - crashes are findings
        return [
            Mismatch(
                "ooo-replay", "ingest", f"{type(exc).__name__}: {exc}"
            )
        ]
    if "error" in expect:
        return [
            Mismatch(
                "ooo-replay",
                "ingest",
                f"expected {expect['error']}, but the run completed",
            )
        ]
    out: list[Mismatch] = []
    got_ledger = ingestor.ledger.as_dict()
    if got_ledger != expect["ledger"]:
        diff = {
            key: (expect["ledger"].get(key), got_ledger.get(key))
            for key in set(expect["ledger"]) | set(got_ledger)
            if got_ledger.get(key) != expect["ledger"].get(key)
        }
        out.append(
            Mismatch(
                "ooo-replay", "ingest", f"ledger drifted: {diff}"
            )
        )
    got = ingestor.final_bursts()
    want = BurstSet(
        Burst(int(end), int(size), float(value))
        for end, size, value in expect["bursts"]
    )
    missing, extra, value_errors = diff_burst_sets(want, got)
    if missing or extra or value_errors:
        out.append(
            Mismatch(
                "ooo-replay",
                "ingest",
                "final bursts drifted from the pinned expectation"
                + (f"; {value_errors[0]}" if value_errors else ""),
                missing,
                extra,
            )
        )
    oracle = naive_detect(
        ingestor.sealed_series(), spec.thresholds, spec.aggregate
    )
    missing, extra, value_errors = diff_burst_sets(oracle, got)
    if missing or extra or value_errors:
        out.append(
            Mismatch(
                "ooo-replay",
                "naive-oracle",
                "final bursts disagree with naive detection over the "
                "final sealed series"
                + (f"; {value_errors[0]}" if value_errors else ""),
                missing,
                extra,
            )
        )
    return out


def save_ooo_reproducer(
    payload: dict[str, Any], directory: str | Path
) -> Path:
    """Write an OOO payload to the corpus, content-addressed like fuzz-*."""
    from .corpus import _content_name

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = _content_name(
        {
            k: payload[k]
            for k in (
                "spec",
                "records",
                "corrections",
                "max_lateness",
                "late_policy",
            )
        }
    )
    path = directory / f"ooo-{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
