"""Durable state: write-ahead ingestion log, snapshots, crash recovery.

The layers beneath this one are deliberately ephemeral — a
:class:`~repro.core.chunked.ChunkedDetector` carry, an
:class:`~repro.ingest.buffer.OutOfOrderBuffer`, an
:class:`~repro.ingest.ledger.AmendmentLedger` all live in process
memory, and one crash loses the stream.  This package makes an
ingestion pipeline restartable:

* :mod:`repro.durable.fsio` — the *only* module that writes to disk:
  fsync + atomic-rename discipline, plus the crash-injection hook the
  testkit's kill-at-every-offset sweep drives (lint rule RL013 pins
  the boundary).
* :mod:`repro.durable.wal` — a segmented, checksummed write-ahead log
  of every ingestion operation; torn tails are detected per entry and
  handled per ``recovery="strict"|"trim"``.
* :mod:`repro.durable.snapshot` — atomic snapshots of the full
  resumable state (detector carries, sealed series, buffered bins,
  watermarks, ledgers), encoded once: JSON plus the sealed series as
  raw float64 bytes, zlib-compressed and checksummed as written.
* :mod:`repro.durable.ingestor` — one log-before-apply implementation,
  :class:`DurableMultiStreamIngestor` over a named fleet, whose
  :meth:`~DurableMultiStreamIngestor.recover` continues detection
  byte-identically (bursts, per-level op counts, ledger) to a run
  that never crashed.  :class:`DurableStreamIngestor` is a single
  stream as a fleet of one.
"""

from .fsio import SimulatedCrash, crash_hook, install_crash_hook
from .ingestor import (
    DurableMultiStreamIngestor,
    DurableStreamIngestor,
    RecoveryReport,
)
from .snapshot import carry_from_dict, carry_to_dict
from .wal import CorruptWalError, WriteAheadLog

__all__ = [
    "CorruptWalError",
    "DurableMultiStreamIngestor",
    "DurableStreamIngestor",
    "RecoveryReport",
    "SimulatedCrash",
    "WriteAheadLog",
    "carry_from_dict",
    "carry_to_dict",
    "crash_hook",
    "install_crash_hook",
]
