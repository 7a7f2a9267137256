"""Atomic snapshots of the full resumable ingestion state.

A snapshot is one file, written with the full
:mod:`~repro.durable.fsio` discipline (tmp → fsync → rename → fsync
dir), named by the LSN it corresponds to: ``snap-<lsn>.json`` captures
the state after exactly ``lsn`` WAL entries were applied.  Recovery
loads the newest loadable snapshot and replays the WAL from its LSN —
a snapshot is pure acceleration, never authority: deleting every
snapshot only makes recovery replay more, not diverge.

Because publication is atomic, a half-written snapshot can only ever
exist under a ``*.tmp`` name that readers ignore.  An unreadable or
checksum-failing file under the final name therefore means external
damage; :func:`load_latest_snapshot` skips it and falls back to the
next-newest (ultimately to LSN 0), which the WAL makes equivalent.

**Format v2** encodes the state once.  The payload is the compact,
key-sorted JSON of ``{"arrays", "lsn", "state"}``, a newline, then the
raw little-endian bytes of every float64 array the state holds as a
dict value (the sealed series, one per stream).  In the JSON each such
array is a ``null``, and ``arrays`` lists every array's key path and
length in byte order.  zlib compresses the payload at level 1, and the
file is one small JSON document ``{"body", "crc", "format", "lsn"}``:
``body`` is the base64 of the compressed payload and ``crc`` the CRC-32
of ``body`` as written.  Load checks that CRC, then the payload's own
LSN against the outer one, so damage anywhere (the LSN included) makes
a file unloadable rather than a different snapshot, and nothing is
re-encoded to check it.

Compression is not optional.  Raw float64 costs 8 bytes a bin, while
v1's JSON text spent about 5.2 on integer-valued series, so plain
binary would grow the directory.  On 204k bins, zlib level 1 took
9-58 ms and gave 221 kB-1.56 MB (Poisson counts to full-mantissa
gammas), against 45-140 ms and 0.87-3.74 MB for one ``json.dumps`` of
the same list; the level is a constant.  Files keep the ``.json``
name because each is still one JSON document, and readers (the
benchmark's snapshot counters among them) find snapshots by
``snap-*.json``.  **Format v1** files, the whole state as JSON with a
CRC over its re-encoding, still load; only they pay that re-encode.

The serialized state pairs the two halves of the pipeline at the same
seal boundary: the ingestor's own state
(:meth:`~repro.ingest.ingestor.StreamIngestor.state_dict` — frontier,
sealed series, buffered bins, burst beliefs, ledger) and the
detector's :class:`~repro.core.chunked.DetectorCarry` (engine tail
plus per-level operation counters), JSON-ready via the helpers here.
"""

from __future__ import annotations

import base64
import json
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from ..core.chunked import DetectorCarry
from ..core.opcount import OpCounters
from . import fsio

__all__ = [
    "SNAPSHOT_FORMAT",
    "carry_from_dict",
    "carry_to_dict",
    "counters_from_dict",
    "counters_to_dict",
    "load_latest_snapshot",
    "snapshot_paths",
    "write_snapshot",
]

SNAPSHOT_FORMAT = "repro.durable.snapshot.v2"
_V1_FORMAT = "repro.durable.snapshot.v1"

#: zlib level of the v2 payload: fixed (see the module docstring).
_ZLIB_LEVEL = 1


def counters_to_dict(counters: OpCounters) -> dict[str, Any]:
    """Serialize per-level op counters losslessly (not just totals)."""
    return {
        "updates": counters.updates.tolist(),
        "filter_comparisons": counters.filter_comparisons.tolist(),
        "alarms": counters.alarms.tolist(),
        "search_cells": counters.search_cells.tolist(),
        "bursts": int(counters.bursts),
    }


def counters_from_dict(payload: dict[str, Any]) -> OpCounters:
    counters = OpCounters(len(payload["updates"]) - 1)
    counters.updates[:] = np.asarray(payload["updates"], dtype=np.int64)
    counters.filter_comparisons[:] = np.asarray(
        payload["filter_comparisons"], dtype=np.int64
    )
    counters.alarms[:] = np.asarray(payload["alarms"], dtype=np.int64)
    counters.search_cells[:] = np.asarray(
        payload["search_cells"], dtype=np.int64
    )
    counters.bursts = int(payload["bursts"])
    return counters


def carry_to_dict(carry: DetectorCarry) -> dict[str, Any]:
    """JSON-ready form of a detector checkpoint (float64-exact)."""
    return {
        "length": int(carry.length),
        "aggregate": carry.aggregate,
        "offset": int(carry.offset),
        # float() round-trips float64 exactly through JSON (repr grisu).
        "tail": [float(x) for x in carry.tail],
        "counters": counters_to_dict(carry.counters),
    }


def carry_from_dict(payload: dict[str, Any]) -> DetectorCarry:
    return DetectorCarry(
        length=int(payload["length"]),
        aggregate=str(payload["aggregate"]),
        offset=int(payload["offset"]),
        tail=np.asarray(payload["tail"], dtype=np.float64),
        counters=counters_from_dict(payload["counters"]),
    )


def _snapshot_path(directory: Path, lsn: int) -> Path:
    return directory / f"snap-{lsn:012d}.json"


def snapshot_paths(directory: str | Path) -> list[Path]:
    """All published snapshots, oldest first."""
    return sorted(Path(directory).glob("snap-*.json"))


def _split_arrays(
    node: Any, path: list[str], arrays: list[tuple[list[str], np.ndarray]]
) -> Any:
    """``node`` with each array held as a dict value replaced by None.

    The arrays go to ``arrays`` with their key paths, in visit order.
    """
    if not isinstance(node, dict):
        return node
    out = {}
    for key, value in node.items():
        if isinstance(value, np.ndarray):
            if value.dtype != np.float64 or value.ndim != 1:
                raise TypeError(
                    f"snapshot arrays must be 1-D float64, got "
                    f"{value.dtype} {value.shape} at {path + [key]}"
                )
            arrays.append((path + [key], value))
            out[key] = None
        else:
            out[key] = _split_arrays(value, path + [key], arrays)
    return out


def write_snapshot(
    directory: str | Path, lsn: int, state: dict[str, Any]
) -> Path:
    """Publish the state after ``lsn`` applied entries; returns the path.

    ``state`` is JSON-ready apart from 1-D float64 arrays held as dict
    values, which are stored as raw bytes (format v2).
    """
    arrays: list[tuple[list[str], np.ndarray]] = []
    tree = _split_arrays(state, [], arrays)
    head = json.dumps(
        {
            "arrays": [[path, int(a.size)] for path, a in arrays],
            "lsn": int(lsn),
            "state": tree,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    payload = b"".join(
        [head.encode(), b"\n"]
        + [np.ascontiguousarray(a, dtype="<f8") for _, a in arrays]
    )
    body = base64.b64encode(zlib.compress(payload, _ZLIB_LEVEL))
    # Built by hand: base64 needs no JSON escaping, and the state was
    # already encoded once, above.
    document = b'{"body":"%s","crc":%d,"format":"%s","lsn":%d}\n' % (
        body,
        zlib.crc32(body),
        SNAPSHOT_FORMAT.encode(),
        int(lsn),
    )
    path = _snapshot_path(Path(directory), lsn)
    fsio.atomic_write_bytes(path, document)
    return path


def _decode_v2(document: dict[str, Any]) -> tuple[int, dict[str, Any]] | None:
    body = document["body"].encode("ascii")
    if document["crc"] != zlib.crc32(body):
        return None
    payload = zlib.decompress(base64.b64decode(body, validate=True))
    head, _, blob = payload.partition(b"\n")
    decoded = json.loads(head)
    if decoded["lsn"] != document["lsn"]:
        return None
    state = decoded["state"]
    offset = 0
    for path, size in decoded["arrays"]:
        node = state
        for key in path[:-1]:
            node = node[key]
        # Read-only views into the payload; restoring copies them.
        node[path[-1]] = np.frombuffer(
            blob, dtype="<f8", count=size, offset=offset
        )
        offset += 8 * size
    return int(decoded["lsn"]), state


def _decode_v1(document: dict[str, Any]) -> tuple[int, dict[str, Any]] | None:
    body = json.dumps(
        {"lsn": document["lsn"], "state": document["state"]},
        sort_keys=True,
        separators=(",", ":"),
    )
    if document["crc"] != zlib.crc32(body.encode()):
        return None
    return int(document["lsn"]), document["state"]


def _load_one(path: Path) -> tuple[int, dict[str, Any]] | None:
    try:
        document = json.loads(path.read_bytes())
        if document["format"] == SNAPSHOT_FORMAT:
            return _decode_v2(document)
        if document["format"] == _V1_FORMAT:
            return _decode_v1(document)
        return None
    except (
        OSError, ValueError, KeyError, TypeError, AttributeError, zlib.error
    ):
        # binascii.Error (bad base64) and JSON errors are ValueErrors.
        return None


def load_latest_snapshot(
    directory: str | Path, max_lsn: int | None = None
) -> tuple[int, dict[str, Any]] | None:
    """Newest loadable snapshot, optionally capped at ``max_lsn``.

    The cap keeps recovery honest after a trim: a snapshot taken past
    the surviving WAL prefix would smuggle back state whose log
    entries were lost, leaving the LSN sequence inconsistent for
    subsequent appends — so such snapshots are ignored and the state
    is re-derived from the log alone.
    """
    for path in reversed(snapshot_paths(directory)):
        loaded = _load_one(path)
        if loaded is None:
            continue
        if max_lsn is not None and loaded[0] > max_lsn:
            continue
        return loaded
    return None
