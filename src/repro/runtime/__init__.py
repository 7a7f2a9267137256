"""Parallel multi-stream runtime: shard detection work across cores.

The paper's flagship application (§5.4) runs one elastic burst detector
per stock over thousands of parallel streams.  Streams share no state,
so both detection and per-stream structure training are embarrassingly
parallel; this package supplies the substrate:

* :mod:`repro.runtime.shm` — a ring of shared-memory ``float64``
  buffers; chunks are written once by the parent and mapped zero-copy by
  workers (stream data is never pickled), with optional per-chunk
  checksums so corruption is detected instead of detected-as-bursts;
* :mod:`repro.runtime.pool` — persistent worker processes with
  deterministic routing, remote-traceback error propagation,
  deadline-aware receives (crashed *and* hung workers surface as typed
  errors instead of hanging the parent), restart support, and orderly
  ``stop`` → ``terminate`` → ``kill`` shutdown;
* :mod:`repro.runtime.worker` — the per-process command loop owning a
  shard of :class:`~repro.core.chunked.ChunkedDetector` instances;
* :mod:`repro.runtime.supervisor` — the recovery loop: per-command
  deadlines, capped-backoff restarts, and checkpoint-driven replay so a
  ``kill -9`` mid-chunk costs nothing but time;
* :mod:`repro.runtime.faults` — seeded, deterministic fault injection
  (:class:`~repro.runtime.faults.FaultPlan`) used by the chaos suite to
  *prove* the recovery paths byte-identical to serial execution;
* :mod:`repro.runtime.parallel` —
  :class:`~repro.runtime.parallel.ParallelMultiStreamDetector`, the
  drop-in parallel counterpart of
  :class:`~repro.core.multi.MultiStreamDetector`: identical bursts,
  identical per-stream operation counts, ``workers="auto" | int |
  "serial"`` backend selection with graceful serial fallback, a
  ``faults="raise" | "restart" | "degrade"`` recovery policy, and a
  :class:`~repro.runtime.parallel.RuntimeStats` ``stats()`` snapshot of
  reply-wait percentiles, queue depth, restarts and degradation.
"""

from .faults import Fault, FaultInjector, FaultPlan
from .parallel import ParallelMultiStreamDetector, RuntimeStats
from .pool import (
    WorkerCrashed,
    WorkerError,
    WorkerPool,
    WorkerTimeout,
    resolve_workers,
)
from .shm import ChunkCorruption, ChunkReader, ChunkRef, SharedChunkRing
from .supervisor import Supervisor, SupervisorPolicy, WorkerUnrecoverable

__all__ = [
    "ParallelMultiStreamDetector",
    "WorkerError",
    "WorkerCrashed",
    "WorkerTimeout",
    "WorkerUnrecoverable",
    "WorkerPool",
    "resolve_workers",
    "Supervisor",
    "SupervisorPolicy",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "RuntimeStats",
    "ChunkRef",
    "ChunkReader",
    "ChunkCorruption",
    "SharedChunkRing",
]
