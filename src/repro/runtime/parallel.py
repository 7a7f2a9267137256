"""Parallel multi-stream detection: the public face of the runtime.

:class:`ParallelMultiStreamDetector` has the same ``process`` /
``finish`` / ``detect`` shape as
:class:`repro.core.multi.MultiStreamDetector`, but shards its streams
across a persistent :class:`~repro.runtime.pool.WorkerPool` and fans
chunks out through a :class:`~repro.runtime.shm.SharedChunkRing`.
Detection over independent streams is embarrassingly parallel — no state
is shared between streams — so results and per-stream operation counts
are *identical* to the serial manager's, merely computed on more cores.

Backend selection: ``workers="auto"`` sizes the pool to
``min(cores, streams)`` and silently degrades to the serial manager when
that leaves fewer than two workers; ``workers=<int>`` forces a pool of
exactly that many processes; ``workers="serial"`` forces the in-process
path.  The serial path is byte-for-byte the existing
:class:`MultiStreamDetector`, wrapped so callers can switch backends
without touching call sites.

Fault policies (``faults=``):

* ``"raise"`` (default) — today's fail-fast contract: any worker death,
  hang past the pool's ``recv_timeout``, or corrupt chunk aborts the run
  with a :class:`~repro.runtime.pool.WorkerError`.
* ``"restart"`` — a :class:`~repro.runtime.supervisor.Supervisor` owns
  the pool: every acknowledged round checkpoints each stream's carry
  state (:class:`~repro.core.chunked.DetectorCarry`), a crashed or hung
  worker is restarted with capped backoff, its shard is rebuilt from the
  checkpoints, and the lost round is replayed — bursts and
  :class:`OpCounters` stay byte-identical to the serial backend even
  under ``kill -9`` mid-chunk.
* ``"degrade"`` — like ``"restart"`` until a worker exhausts its
  recovery budget; then the run folds back into in-process serial
  execution from the checkpoints, replaying lost work locally, and
  continues without losing a byte.

Per-stream training (the paper's §5.4 portfolio setup) is where
parallelism pays most: fitting :class:`NormalThresholds` and running the
best-first structure search per stream dominates setup cost, and each
stream's search is independent, so :meth:`per_stream` ships training
data through shared memory and trains every shard concurrently.

Overload control (``shedding=`` + ``overload=``): the pool's in-flight
bound gives explicit backpressure, a clock-free latency EMA with
hysteresis decides when the run is overloaded, and a
:class:`~repro.runtime.overload.ShedPlanner` applies the chosen policy
round by round — deferring (``widen_chunks``), dropping
(``sample_streams``), or structurally coarsening (``coarsen_sat``)
work, with every action recorded in a
:class:`~repro.runtime.overload.SheddingReport`.  :meth:`stats` surfaces
the whole picture (latency percentiles, queue depth, overload state,
shed totals, restarts, degradation) at any point, including after
:meth:`close`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..core.aggregates import SUM, AggregateFunction, aggregate_by_name
from ..core.chunked import (
    DEFAULT_CHUNK,
    ChunkedDetector,
    DetectorCarry,
    initial_carry,
)
from ..core.events import Burst, BurstSet
from ..core.kernel import resolve_backend
from ..core.multi import MultiStreamDetector
from ..core.opcount import OpCounters
from ..core.search import SearchParams
from ..core.structure import SATStructure
from ..core.thresholds import ThresholdModel
from .faults import FaultInjector, FaultPlan, corrupt_chunk
from .overload import (
    SHEDDING_POLICIES,
    OverloadConfig,
    RuntimeStats,
    ShedPlanner,
    SheddingReport,
    coarsen_structure,
    latency_percentiles,
    swap_alignment,
    swap_split,
)
from .pool import (
    DEFAULT_MAX_INFLIGHT,
    WorkerError,
    WorkerPool,
    resolve_workers,
)
from .shm import ChunkRef, SharedChunkRing
from .supervisor import Supervisor, SupervisorPolicy, WorkerUnrecoverable

__all__ = ["ParallelMultiStreamDetector"]

_FAULT_POLICIES = ("raise", "restart", "degrade")


@dataclass(frozen=True)
class _StreamConfig:
    """Everything needed to rebuild one stream's detector from a carry."""

    structure: SATStructure
    thresholds: ThresholdModel
    aggregate: str
    refine: bool
    backend: str = "auto"

    def from_carry(self, carry: DetectorCarry) -> ChunkedDetector:
        return ChunkedDetector.from_carry(
            self.structure,
            self.thresholds,
            carry,
            refine_filter=self.refine,
            backend=self.backend,
        )


class ParallelMultiStreamDetector:
    """One elastic burst detector per stream, sharded across processes.

    Construct with :meth:`shared` or :meth:`per_stream`; both accept
    ``workers="auto" | int | "serial"`` and a ``faults`` policy (see the
    module docstring).  Use as a context manager (or call :meth:`close`)
    when not driving the detector to completion via :meth:`detect` /
    :meth:`finish`, so worker processes and shared memory are always
    reclaimed.
    """

    def __init__(
        self,
        names: list[str],
        pool: WorkerPool | None,
        ring: SharedChunkRing | None,
        owners: dict[str, int],
        serial: MultiStreamDetector | None,
        structures: dict[str, SATStructure] | None = None,
    ) -> None:
        self._names = names
        self._pool = pool
        self._ring = ring
        self._owners = owners
        self._serial = serial
        self._structures = structures or {}
        self._counters: dict[str, OpCounters] | None = None
        self._finished = False
        self._closed = False
        # Fault-tolerance state; populated by _configure_faults.
        self._faults = "raise"
        self._policy: SupervisorPolicy | None = None
        self._supervisor: Supervisor | None = None
        self._injector: FaultInjector | None = None
        self._configs: dict[str, _StreamConfig] = {}
        self._checkpoints: dict[str, DetectorCarry] = {}
        self._round = 0
        self._degraded = False
        self._total_restarts = 0
        # Overload/shedding state; populated by _configure_overload.
        self._shedding = "none"
        self._shed: ShedPlanner | None = None
        self._fine_structures: dict[str, SATStructure] = {}
        self._ingest_round = 0
        # Structure swaps scheduled but not yet landed on an aligned
        # stream position, and each stream's consumed length — the
        # parent-side mirror of the worker's pending-swap arithmetic.
        self._pending_swaps: dict[str, SATStructure] = {}
        self._stream_positions: dict[str, int] = {n: 0 for n in names}
        # Telemetry frozen at close()/degrade so stats() outlives the pool.
        self._init_workers = pool.num_workers if pool is not None else 0
        self._max_inflight = (
            pool.max_inflight if pool is not None else DEFAULT_MAX_INFLIGHT
        )
        self._final_latency: tuple[float, ...] = ()

    def _configure_faults(
        self,
        faults: str,
        policy: SupervisorPolicy | None,
        plan: FaultPlan | None,
        configs: dict[str, _StreamConfig],
    ) -> None:
        self._faults = faults
        if self._pool is None:
            # Serial backend: nothing can crash, plans have no workers
            # to hit; the policy knob is accepted for call-site symmetry.
            return
        # Kept for every policy: the coarsen_sat reshape path needs the
        # per-stream build recipe even in fail-fast mode.
        self._configs = configs
        if plan is not None:
            self._injector = FaultInjector(plan)
        if faults == "raise":
            return
        self._policy = policy if policy is not None else SupervisorPolicy()
        self._supervisor = Supervisor(
            self._pool, self._policy, self._reprime
        )
        self._checkpoints = {
            name: initial_carry(
                cfg.structure, aggregate_by_name(cfg.aggregate)
            )
            for name, cfg in configs.items()
        }

    def _configure_overload(
        self, shedding: str, overload: OverloadConfig | None
    ) -> None:
        if shedding not in SHEDDING_POLICIES:
            raise ValueError(
                f"shedding must be one of {SHEDDING_POLICIES}, "
                f"got {shedding!r}"
            )
        self._shedding = shedding
        if self._pool is None:
            # Serial backend: one process, no queues to overload; the
            # knobs are accepted so call sites stay backend-agnostic.
            return
        if shedding == "none" and overload is None:
            # No policy and no tuning requested: skip the per-round
            # planner entirely so the default path pays nothing.
            return
        self._shed = ShedPlanner(shedding, overload)
        self._fine_structures = {
            name: cfg.structure for name, cfg in self._configs.items()
        }

    @staticmethod
    def _check_faults(faults: str, plan: FaultPlan | None) -> bool:
        """Validate the policy spec; returns whether chunk checksums are
        needed (any supervision, or any injection to be caught)."""
        if faults not in _FAULT_POLICIES:
            raise ValueError(
                f"faults must be one of {_FAULT_POLICIES}, got {faults!r}"
            )
        return faults != "raise" or plan is not None

    # -- constructors -----------------------------------------------------
    @classmethod
    def shared(
        cls,
        names: Iterable[str],
        structure: SATStructure,
        thresholds: ThresholdModel,
        *,
        workers: int | str = "auto",
        aggregate: AggregateFunction = SUM,
        refine_filter: bool = True,
        backend: str = "auto",
        faults: str = "raise",
        supervision: SupervisorPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        recv_timeout: float | None = None,
        shedding: str = "none",
        overload: OverloadConfig | None = None,
    ) -> "ParallelMultiStreamDetector":
        """Same structure and thresholds for every stream."""
        names = cls._check_names(names)
        checksum = cls._check_faults(faults, fault_plan)
        # Fail fast in the parent on an unknown backend or a missing
        # numba install, before any worker process spawns.
        resolve_backend(backend)
        n_workers = resolve_workers(workers, len(names))
        if n_workers == 0:
            serial = MultiStreamDetector.shared(
                names,
                structure,
                thresholds,
                aggregate=aggregate,
                refine_filter=refine_filter,
                backend=backend,
            )
            det = cls(names, None, None, {}, serial)
            det._faults = faults
            det._configure_overload(shedding, overload)
            return det
        pool = WorkerPool(n_workers, recv_timeout=recv_timeout)
        try:
            owners = {
                name: i % n_workers for i, name in enumerate(names)
            }
            # The pool's in-flight bound doubles as flow control here:
            # unread acks can fill the ~64KB pipe buffer at portfolio
            # scale, blocking the worker's send and therefore its
            # request drain — a deadlock with the sending parent.
            inflight = {w: 0 for w in range(n_workers)}
            for name in names:
                w = owners[name]
                if inflight[w] >= pool.max_inflight:
                    pool.recv(w)  # acks arrive in send order per worker
                    inflight[w] -= 1
                pool.send(
                    w,
                    (
                        "build",
                        name,
                        structure,
                        thresholds,
                        aggregate.name,
                        refine_filter,
                        backend,
                    ),
                )
                inflight[w] += 1
            for w, pending in inflight.items():
                for _ in range(pending):
                    pool.recv(w)
        except Exception:
            pool.close()
            raise
        det = cls(names, pool, SharedChunkRing(checksum), owners, None)
        det._configure_faults(
            faults,
            supervision,
            fault_plan,
            {
                name: _StreamConfig(
                    structure,
                    thresholds,
                    aggregate.name,
                    refine_filter,
                    backend,
                )
                for name in names
            },
        )
        det._configure_overload(shedding, overload)
        return det

    @classmethod
    def from_carries(
        cls,
        structure: SATStructure,
        thresholds: ThresholdModel,
        carries: Mapping[str, DetectorCarry],
        *,
        workers: int | str = "auto",
        refine_filter: bool = True,
        backend: str = "auto",
        faults: str = "raise",
        supervision: SupervisorPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        recv_timeout: float | None = None,
        shedding: str = "none",
        overload: OverloadConfig | None = None,
    ) -> "ParallelMultiStreamDetector":
        """Resume a shared-structure fleet from per-stream carries.

        The durable layer's recovery path: each worker rebuilds its
        shard through the ``restore`` command instead of ``build``, so
        a recovered pool continues mid-stream with the exact engine
        tails and op counters the checkpoints hold.  The aggregate is
        taken from each carry (it was recorded at checkpoint time);
        stream positions and supervision checkpoints start from the
        carries, not zero, so swap alignment and a first-round worker
        loss both see the resumed offsets.
        """
        carries = dict(carries)
        names = cls._check_names(carries)
        checksum = cls._check_faults(faults, fault_plan)
        resolve_backend(backend)
        n_workers = resolve_workers(workers, len(names))
        if n_workers == 0:
            serial = MultiStreamDetector.from_carries(
                structure,
                thresholds,
                carries,
                refine_filter=refine_filter,
                backend=backend,
            )
            det = cls(names, None, None, {}, serial)
            det._faults = faults
            det._configure_overload(shedding, overload)
            return det
        pool = WorkerPool(n_workers, recv_timeout=recv_timeout)
        try:
            owners = {
                name: i % n_workers for i, name in enumerate(names)
            }
            inflight = {w: 0 for w in range(n_workers)}
            for name in names:
                w = owners[name]
                if inflight[w] >= pool.max_inflight:
                    pool.recv(w)
                    inflight[w] -= 1
                pool.send(
                    w,
                    (
                        "restore",
                        name,
                        structure,
                        thresholds,
                        carries[name].aggregate,
                        refine_filter,
                        backend,
                        carries[name],
                    ),
                )
                inflight[w] += 1
            for w, pending in inflight.items():
                for _ in range(pending):
                    pool.recv(w)
        except Exception:
            pool.close()
            raise
        det = cls(names, pool, SharedChunkRing(checksum), owners, None)
        det._configure_faults(
            faults,
            supervision,
            fault_plan,
            {
                name: _StreamConfig(
                    structure,
                    thresholds,
                    carries[name].aggregate,
                    refine_filter,
                    backend,
                )
                for name in names
            },
        )
        det._configure_overload(shedding, overload)
        det._stream_positions = {
            name: int(carries[name].length) for name in names
        }
        if det._supervisor is not None:
            det._checkpoints = dict(carries)
        return det

    @classmethod
    def per_stream(
        cls,
        training: Mapping[str, np.ndarray],
        burst_probability: float,
        window_sizes: Iterable[int],
        search_params: SearchParams | None = None,
        *,
        workers: int | str = "auto",
        aggregate: AggregateFunction = SUM,
        refine_filter: bool = True,
        backend: str = "auto",
        faults: str = "raise",
        supervision: SupervisorPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        recv_timeout: float | None = None,
        shedding: str = "none",
        overload: OverloadConfig | None = None,
    ) -> "ParallelMultiStreamDetector":
        """Fit thresholds and adapt a structure to each stream, in parallel.

        Training data is written to shared memory once per stream; each
        worker fits and searches its own shard concurrently — for large
        portfolios the structure search dominates setup cost, and it
        scales near-linearly with cores.
        """
        names = cls._check_names(training)
        checksum = cls._check_faults(faults, fault_plan)
        resolve_backend(backend)
        n_workers = resolve_workers(workers, len(names))
        if n_workers == 0:
            serial = MultiStreamDetector.per_stream(
                training,
                burst_probability,
                window_sizes,
                search_params,
                aggregate=aggregate,
                refine_filter=refine_filter,
                backend=backend,
            )
            det = cls(names, None, None, {}, serial)
            det._faults = faults
            det._configure_overload(shedding, overload)
            return det
        sizes = tuple(int(w) for w in window_sizes)
        pool = WorkerPool(n_workers, recv_timeout=recv_timeout)
        ring = SharedChunkRing(checksum)
        try:
            owners = {name: i % n_workers for i, name in enumerate(names)}
            refs: dict[str, ChunkRef] = {}
            structures: dict[str, SATStructure] = {}
            fitted: dict[str, ThresholdModel] = {}

            def drain_one(w: int) -> None:
                _, got_name, structure, fitted_thresholds = pool.recv(w)
                structures[got_name] = structure
                fitted[got_name] = fitted_thresholds
                ring.release(refs[got_name])

            # Interleave sends with receives: the in-flight bound keeps
            # reply pipes from filling AND caps ring memory at
            # workers * max_inflight live training arrays.
            inflight = {w: 0 for w in range(n_workers)}
            for name in names:
                w = owners[name]
                if inflight[w] >= pool.max_inflight:
                    drain_one(w)
                    inflight[w] -= 1
                refs[name] = ring.put(
                    np.asarray(training[name], dtype=np.float64)
                )
                pool.send(
                    w,
                    (
                        "train",
                        name,
                        refs[name],
                        float(burst_probability),
                        sizes,
                        search_params,
                        aggregate.name,
                        refine_filter,
                        backend,
                    ),
                )
                inflight[w] += 1
            for w, pending in inflight.items():
                for _ in range(pending):
                    drain_one(w)
        except Exception:
            # Release shared memory before joining workers: unlinking is
            # cheap and cannot block, whereas a dead worker's join can be
            # interrupted and must not strand /dev/shm segments.
            try:
                ring.close()
            finally:
                pool.close()
            raise
        det = cls(names, pool, ring, owners, None, structures)
        det._configure_faults(
            faults,
            supervision,
            fault_plan,
            {
                name: _StreamConfig(
                    structures[name],
                    fitted[name],
                    aggregate.name,
                    refine_filter,
                    backend,
                )
                for name in names
            },
        )
        det._configure_overload(shedding, overload)
        return det

    @staticmethod
    def _check_names(names: Iterable[str]) -> list[str]:
        names = list(names)
        if not names:
            raise ValueError("at least one stream is required")
        if len(set(names)) != len(names):
            raise ValueError("stream names must be unique")
        return names

    # -- access -----------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """Stream names, sorted."""
        return tuple(sorted(self._names))

    @property
    def num_workers(self) -> int:
        """Worker processes backing this detector (0 = serial)."""
        return self._pool.num_workers if self._pool else 0

    @property
    def faults(self) -> str:
        """The fault policy this detector was built with."""
        return self._faults

    @property
    def refine_filter(self) -> bool:
        """Whether the streams' detectors run the refinement filter."""
        if self._serial is not None:
            return self._serial.refine_filter
        # Every pool constructor takes one setting for the whole fleet.
        return next(iter(self._configs.values())).refine

    @property
    def degraded(self) -> bool:
        """Whether a ``faults="degrade"`` run has folded back to serial."""
        return self._degraded

    @property
    def total_restarts(self) -> int:
        """Worker restarts the supervisor performed over this run.

        Survives :meth:`close` (and degradation), so callers can audit
        after the fact how much recovery a finished run needed.
        """
        if self._supervisor is not None:
            return self._supervisor.total_restarts
        return self._total_restarts

    @property
    def shedding(self) -> str:
        """The shedding policy this detector was built with."""
        return self._shedding

    def shedding_report(self) -> SheddingReport | None:
        """The accountable-shedding ledger (``None`` without a planner)."""
        return self._shed.report if self._shed is not None else None

    def stats(self) -> RuntimeStats:
        """A point-in-time snapshot of the runtime's health.

        Valid at any moment — mid-run, after :meth:`finish`, after
        :meth:`close`, and after a ``faults="degrade"`` fold-back
        (latency telemetry is frozen when the pool goes away; restart
        and degradation bookkeeping survives it).
        """
        if self._pool is not None:
            samples: tuple[float, ...] = self._pool.latency_samples()
            depth = max(self._pool.queue_depths(), default=0)
        else:
            samples = self._final_latency
            depth = 0
        p50, p99 = latency_percentiles(samples)
        det = self._shed.detector if self._shed is not None else None
        rep = self._shed.report if self._shed is not None else None
        return RuntimeStats(
            backend="parallel" if self._init_workers else "serial",
            workers=self._init_workers,
            latency_p50=p50,
            latency_p99=p99,
            queue_depth=depth,
            max_inflight=self._max_inflight,
            overloaded=det.overloaded if det is not None else False,
            overloaded_rounds=(
                det.overloaded_rounds if det is not None else 0
            ),
            transitions=det.transitions if det is not None else 0,
            shedding=self._shedding,
            shed_actions=len(rep.actions) if rep is not None else 0,
            dropped_points=rep.dropped_points if rep is not None else 0,
            deferred_points=rep.deferred_points if rep is not None else 0,
            coarsened_streams=(
                rep.coarsened_streams if rep is not None else 0
            ),
            total_restarts=self.total_restarts,
            degraded=self._degraded,
        )

    def structure(self, name: str) -> SATStructure:
        """The structure detecting ``name`` (per-stream-trained mode)."""
        if name in self._structures:
            return self._structures[name]
        if self._serial is not None:
            return self._serial.detector(name).structure
        if name not in self._owners:
            raise KeyError(name)
        raise KeyError(
            f"no per-stream structure recorded for {name!r} "
            "(shared mode shares one structure)"
        )

    def counters(self, name: str) -> OpCounters:
        """Operation counters of one stream's detector."""
        if self._serial is not None:
            return self._serial.detector(name).counters
        if name not in self._owners:
            raise KeyError(name)
        return self._gather_counters()[name]

    def stream_counters(self) -> dict[str, OpCounters]:
        """Per-stream operation counters over the whole fleet, sorted.

        The durable layer snapshots these next to each checkpoint carry
        so a recovered run reports identical per-level op counts.
        """
        if self._serial is not None:
            return self._serial.stream_counters()
        gathered = self._gather_counters()
        return {name: gathered[name] for name in sorted(gathered)}

    def checkpoints(self) -> dict[str, DetectorCarry]:
        """Resumable carry per stream, gathered across the pool.

        The durable layer's snapshot hook.  Only meaningful at a round
        boundary — between :meth:`process` calls — where no chunk is in
        flight and each pending coarsen swap either already landed (the
        worker's detector and the parent's config record moved together,
        see :meth:`_absorb_round_reply`) or has not started; the carry
        itself is structure-agnostic either way.  On a supervised pool a
        worker lost during the exchange is restored from its last
        acknowledged checkpoint first, so the gathered carries still
        describe one consistent boundary.
        """
        if self._serial is not None:
            return self._serial.checkpoints()
        carries: dict[str, DetectorCarry] = {}
        if self._supervisor is not None:
            builders = {w: _carry_command for w in self._worker_ids()}
            try:
                replies = self._supervisor.exchange(builders)
            except WorkerUnrecoverable:
                if self._faults != "degrade":
                    self.close()
                    raise
                # _reprime already rebuilt what it could from the last
                # acknowledged checkpoints; the serial fold-back holds
                # exactly that state, so its carries are the boundary.
                self._degrade_to_serial()
                assert self._serial is not None
                return self._serial.checkpoints()
            except Exception:
                self.close()
                raise
            for w in sorted(replies):
                carries.update(replies[w][1])
        else:
            try:
                for w in self._worker_ids():
                    self._pool.send(w, ("carry",))
                for w in self._worker_ids():
                    carries.update(self._pool.recv(w)[1])
            except Exception:
                self.close()
                raise
        return {name: carries[name] for name in sorted(carries)}

    def merged_counters(self) -> OpCounters:
        """Per-level counters merged over all streams and workers.

        Levels are aligned from the bottom; totals are exact regardless
        of per-stream structure depth (see :meth:`OpCounters.merged`).
        """
        if self._serial is not None:
            return self._serial.merged_counters()
        return OpCounters.merged(self._gather_counters().values())

    def total_operations(self) -> int:
        """RAM-model operations summed over all streams and workers."""
        if self._serial is not None:
            return self._serial.total_operations()
        return self.merged_counters().total_operations

    def amend(self, name: str, index: int, value: float) -> None:
        """Rewrite one consumed value of stream ``name`` (serial only).

        Straggler plumbing for the out-of-order ingestion layer
        (:mod:`repro.ingest`): only a serial fleet holds its engines in
        this process, so in-place amendment is available exactly when
        ``workers="serial"`` was requested (or the run has degraded to
        serial).  On a live worker pool the engines are process-remote —
        raise loudly rather than silently diverging from the sealed
        series; late-policy ``"amend"`` deployments must run serial.
        """
        if self._serial is None:
            raise RuntimeError(
                "amend() requires a serial fleet (workers='serial'); "
                "worker processes own their engine state"
            )
        self._serial.amend(name, index, value)

    def _gather_counters(self) -> dict[str, OpCounters]:
        if self._counters is not None:
            return self._counters
        counters: dict[str, OpCounters] = {}
        if self._supervisor is not None:
            builders = {
                w: _counters_command for w in self._worker_ids()
            }
            try:
                replies = self._supervisor.exchange(builders)
            except WorkerUnrecoverable:
                if self._faults != "degrade":
                    self.close()
                    raise
                # Checkpoint counters equal live counters at every round
                # boundary, so degrading (no replay needed) and reading
                # the restored detectors is exact.
                self._degrade_to_serial()
                assert self._serial is not None
                return {
                    name: self._serial.detector(name).counters
                    for name in self._names
                }
            except Exception:
                self.close()
                raise
            for w in sorted(replies):
                counters.update(replies[w][1])
        else:
            try:
                for w in self._worker_ids():
                    self._pool.send(w, ("counters",))
                for w in self._worker_ids():
                    counters.update(self._pool.recv(w)[1])
            except Exception:
                self.close()
                raise
        if self._finished:
            self._counters = counters
        return counters

    def _worker_ids(self) -> list[int]:
        return sorted(set(self._owners.values()))

    # -- supervision internals --------------------------------------------
    def _reprime(self, worker: int) -> None:
        """Rebuild a (re)started worker's shard from the checkpoints.

        Called by the supervisor after every restart and before any
        resend; restores *all* streams the worker owns — the process
        lost everything — to their state at the last acknowledged round.
        """
        deadline = self._policy.deadline if self._policy else None
        names = [n for n in self._names if self._owners[n] == worker]
        inflight = 0
        for name in names:
            if inflight >= self._pool.max_inflight:
                self._pool.recv(worker, deadline)
                inflight -= 1
            cfg = self._configs[name]
            self._pool.send(
                worker,
                (
                    "restore",
                    name,
                    cfg.structure,
                    cfg.thresholds,
                    cfg.aggregate,
                    cfg.refine,
                    cfg.backend,
                    self._checkpoints[name],
                ),
            )
            inflight += 1
        for _ in range(inflight):
            self._pool.recv(worker, deadline)
        # The fresh process lost any scheduled structure swaps along
        # with everything else; re-send the ones still pending so it
        # applies them at the same aligned positions the old worker
        # (and the parent's prediction) would have.
        swaps = [
            (n, self._pending_swaps[n])
            for n in names
            if n in self._pending_swaps
        ]
        if swaps:
            self._pool.send(worker, ("reshape", swaps))
            self._pool.recv(worker, deadline)

    def _absorb_round_reply(
        self,
        reply: tuple[Any, ...],
        found: dict[str, list[Burst]],
        applied_swaps: set[str] | None = None,
    ) -> None:
        """Fold one worker's ``("bursts", ...)`` reply into the round's
        results and advance its streams' checkpoints.

        A dispatch round may carry several chunks for one stream (a
        widen flush), so bursts accumulate per name.  Streams whose
        pending structure swap was predicted to land this round get
        their config record updated here, in the same step that
        advances their checkpoint: a checkpoint carry and the structure
        it was taken under must never go out of sync, or a later
        restore/degrade rebuild would replay under the wrong grid.
        """
        _, pairs, carries = reply
        for name, bursts in pairs:
            found.setdefault(name, []).extend(bursts)
        if carries:
            for name, carry in carries.items():
                self._checkpoints[name] = carry
                if applied_swaps and name in applied_swaps:
                    self._configs[name] = replace(
                        self._configs[name],
                        structure=self._pending_swaps.pop(name),
                    )

    def _degrade_to_serial(
        self,
        replay: dict[int, list[tuple[str, np.ndarray]]] | None = None,
        failed: dict[int, str] | None = None,
        found: dict[str, list[Burst]] | None = None,
    ) -> None:
        """Fold the collapsed pool back into in-process execution.

        Every stream's detector is rebuilt from its checkpoint (the
        state at its last acknowledged round); for workers in ``failed``
        the current round's retained chunks in ``replay`` are then
        re-processed locally, with any bursts appended to ``found``.
        The pool and ring are torn down; from here on every call
        delegates to the serial backend, byte-identical to a run that
        was serial from the start.
        """
        detectors: dict[str, ChunkedDetector] = {}
        for name in self._names:
            cfg = self._configs[name]
            detectors[name] = cfg.from_carry(self._checkpoints[name])
        if replay is not None and failed is not None:
            for w in sorted(failed):
                for name, arr in replay.get(w, []):
                    bursts = detectors[name].process(arr)
                    if found is not None:
                        found.setdefault(name, []).extend(bursts)
        # Swaps still pending die with the workers: the serial rebuild
        # keeps each stream on the structure its checkpoint was taken
        # under, which is always exact.
        self._pending_swaps.clear()
        self._serial = MultiStreamDetector(detectors)
        self._degraded = True
        if self._supervisor is not None:
            self._total_restarts = self._supervisor.total_restarts
        self._supervisor = None
        self._policy = None
        pool, ring = self._pool, self._ring
        self._pool = None
        self._ring = None
        if pool is not None:
            self._final_latency = pool.latency_samples()
        try:
            if ring is not None:
                ring.close()
        finally:
            if pool is not None:
                pool.close()

    # -- overload / shedding ------------------------------------------------
    def _plan_round(
        self, chunks: Mapping[str, np.ndarray]
    ) -> dict[str, list[np.ndarray]]:
        """Run the shed planner for one ingest round.

        Returns the chunk lists to dispatch now — possibly empty
        (deferred), possibly several chunks per stream (a widen flush)
        — and schedules any structure swap the ``coarsen_sat`` policy
        decided.  Under ``faults="degrade"`` a swap whose delivery
        exhausts the recovery budget folds the run back to serial
        mid-plan; the caller then dispatches the round serially.
        """
        assert self._shed is not None
        r = self._ingest_round
        self._ingest_round += 1
        # Only structures with intermediate levels have anything to
        # coarsen; single-level streams are skipped (and not reported).
        deep = [
            n
            for n in self._names
            if self._fine_structures[n].num_levels > 1
        ]
        if self._shed.restore_now(r, deep):
            self._reshape({n: self._fine_structures[n] for n in deep})
        elif self._shed.coarsen_now(r, deep):
            self._reshape(
                {
                    n: coarsen_structure(self._fine_structures[n])
                    for n in deep
                }
            )
        if self._serial is not None:
            # The swap delivery degraded the run mid-plan.
            return {}
        return self._shed.shed_round(r, chunks)

    def _reshape(self, structures: dict[str, SATStructure]) -> None:
        """Schedule structure hot-swaps at the next aligned position.

        A carry/from_carry handover is burst-exact only at stream
        positions divisible by every level shift of both structures
        (node grids are global — see
        :func:`~repro.runtime.overload.swap_alignment`), so a swap is
        never applied immediately: each worker lands its streams' swaps
        at the first aligned offset inside a future chunk, and the
        parent predicts the same rule (:meth:`_predict_swaps`) so the
        per-stream config record — what restores and degrade fold-backs
        rebuild from — flips to the new structure in the same absorb
        step as the first checkpoint taken under it.
        """
        if not structures:
            return
        per_worker: dict[int, list[tuple[str, SATStructure]]] = {}
        for name, structure in structures.items():
            self._pending_swaps[name] = structure
            per_worker.setdefault(self._owners[name], []).append(
                (name, structure)
            )
        if self._supervisor is not None:
            builders = {
                w: _reshape_command(swaps)
                for w, swaps in per_worker.items()
            }
            try:
                self._supervisor.exchange(builders)
            except WorkerUnrecoverable:
                if self._faults != "degrade":
                    self.close()
                    raise
                # Checkpoints sit at the last acknowledged round
                # boundary and carries are structure-agnostic, so the
                # fold-back needs no replay here.
                self._degrade_to_serial()
            except Exception:
                self.close()
                raise
            return
        try:
            for w in sorted(per_worker):
                self._pool.send(w, ("reshape", per_worker[w]))
            for w in sorted(per_worker):
                self._pool.recv(w)
        except Exception:
            self.close()
            raise

    def _predict_swaps(
        self, segments: dict[str, list[np.ndarray]]
    ) -> set[str]:
        """Which pending structure swaps will land during this round.

        Mirrors the worker's per-chunk rule: a swap lands iff an
        aligned stream position falls within the round's chunks for
        that stream.  (The worker checks chunk by chunk, but one
        round's chunks are contiguous, so testing the round total is
        equivalent.)  A swap back to the structure a stream already
        runs is a no-op that just clears the schedule on both sides.
        """
        applied: set[str] = set()
        for name, target in self._pending_swaps.items():
            parts = segments.get(name)
            if not parts:
                continue
            current = self._configs[name].structure
            if target == current:
                applied.add(name)
                continue
            total = sum(int(p.size) for p in parts)
            align = swap_alignment(current, target)
            position = self._stream_positions[name]
            if swap_split(position, total, align) is not None:
                applied.add(name)
        return applied

    def _advance_positions(
        self, segments: dict[str, list[np.ndarray]]
    ) -> None:
        for name, parts in segments.items():
            self._stream_positions[name] += sum(int(p.size) for p in parts)

    def _process_supervised(
        self, chunks: Mapping[str, np.ndarray | list[np.ndarray]]
    ) -> dict[str, list[Burst]]:
        segments = _segments_of(chunks)
        applied = self._predict_swaps(segments)
        per_worker: dict[int, list[tuple[str, np.ndarray]]] = {}
        for name, parts in segments.items():
            per_worker.setdefault(self._owners[name], []).extend(
                (name, arr) for arr in parts
            )
        round_index = self._round
        self._round += 1
        corrupt = (
            self._injector.corrupted_streams(round_index)
            if self._injector is not None
            else set()
        )
        live_refs: dict[int, list[ChunkRef]] = {}

        def make_builder(w: int) -> Callable[[], tuple[Any, ...]]:
            def build() -> tuple[Any, ...]:
                # A retry rewrites the worker's chunks into fresh slots;
                # the previous attempt's slots go back to the pool.
                for old in live_refs.pop(w, []):
                    self._ring.release(old)
                work: list[tuple[str, ChunkRef]] = []
                for name, arr in per_worker[w]:
                    ref = self._ring.put(arr)
                    if name in corrupt:
                        # Injected once; the resend after detection gets
                        # a clean slot.
                        corrupt.discard(name)
                        corrupt_chunk(ref)
                    work.append((name, ref))
                live_refs[w] = [ref for _, ref in work]
                directive = (
                    self._injector.worker_directive(round_index, w)
                    if self._injector is not None
                    else None
                )
                return ("process", work, True, directive)

            return build

        builders = {w: make_builder(w) for w in per_worker}
        found: dict[str, list[Burst]] = {}
        try:
            replies = self._supervisor.exchange(builders)
        except WorkerUnrecoverable as exc:
            if self._faults != "degrade":
                self.close()
                raise
            for w in sorted(exc.partial):
                self._absorb_round_reply(exc.partial[w], found, applied)
            self._degrade_to_serial(per_worker, exc.failed, found)
            return {name: found[name] for name in chunks}
        except Exception:
            self.close()
            raise
        for w in sorted(replies):
            self._absorb_round_reply(replies[w], found, applied)
        self._advance_positions(segments)
        for refs in live_refs.values():
            for ref in refs:
                self._ring.release(ref)
        return {name: found[name] for name in chunks}

    def _finish_supervised(self) -> dict[str, list[Burst]]:
        tails: dict[str, list[Burst]] = {}
        counters: dict[str, OpCounters] = {}
        builders = {w: _finish_command for w in self._worker_ids()}
        try:
            replies = self._supervisor.exchange(builders)
        except WorkerUnrecoverable as exc:
            if self._faults != "degrade":
                raise
            self._degraded = True
            for w in sorted(exc.partial):
                _, worker_tails, worker_counters = exc.partial[w]
                tails.update(worker_tails)
                counters.update(worker_counters)
            # Failed workers' streams: finish in-process from their
            # checkpoints (finish is deterministic from carry state, so
            # a lost or replayed finish cannot diverge).
            for w in sorted(exc.failed):
                for name in self._names:
                    if self._owners[name] != w:
                        continue
                    det = self._configs[name].from_carry(
                        self._checkpoints[name]
                    )
                    tails[name] = det.finish()
                    counters[name] = det.counters
        else:
            for w in sorted(replies):
                _, worker_tails, worker_counters = replies[w]
                tails.update(worker_tails)
                counters.update(worker_counters)
        self._counters = counters
        return tails

    # -- feeding ------------------------------------------------------------
    def process(
        self, chunks: Mapping[str, np.ndarray]
    ) -> dict[str, list[Burst]]:
        """Feed one chunk per stream; returns new bursts per stream.

        Chunks are copied once into shared-memory slots; workers map the
        same pages, so no stream data crosses a pipe.  Streams absent
        from ``chunks`` receive nothing this round.

        With a shed planner active the dispatched set may differ from
        ``chunks``: a deferred round returns no bursts yet, a widen
        flush may return bursts for streams beyond this round's input.
        Every key in ``chunks`` is always present in the result.
        """
        if self._finished:
            raise RuntimeError("detector already finished; create a new one")
        if self._serial is not None:
            return self._serial.process(chunks)
        unknown = set(chunks) - set(self._owners)
        if unknown:
            raise KeyError(f"unknown streams: {sorted(unknown)}")
        dispatch: Mapping[str, np.ndarray | list[np.ndarray]] = chunks
        if self._shed is not None:
            plan = self._plan_round(chunks)
            if self._serial is not None:
                # A structure-swap delivery degraded the run mid-plan.
                return self._collect(chunks, self._serial.process(chunks))
            if not plan:
                return {name: [] for name in chunks}
            dispatch = plan
        if self._supervisor is not None:
            found = self._process_supervised(dispatch)
        else:
            found = self._process_raw(dispatch)
        if self._shed is not None and self._pool is not None:
            # One latency sample per dispatched round: the worst reply
            # wait the pool saw since the previous drain.
            self._shed.observe(self._pool.drain_wait_max())
        return self._collect(chunks, found)

    @staticmethod
    def _collect(
        chunks: Mapping[str, np.ndarray],
        found: Mapping[str, list[Burst]],
    ) -> dict[str, list[Burst]]:
        """Found bursts keyed so every input stream is present."""
        out: dict[str, list[Burst]] = {name: [] for name in chunks}
        out.update(found)
        return out

    def _process_raw(
        self, chunks: Mapping[str, np.ndarray | list[np.ndarray]]
    ) -> dict[str, list[Burst]]:
        """The fail-fast dispatch path (no supervisor)."""
        segments = _segments_of(chunks)
        applied = self._predict_swaps(segments)
        round_index = self._round
        self._round += 1
        per_worker: dict[int, list[tuple[str, ChunkRef]]] = {}
        refs: list[ChunkRef] = []
        try:
            corrupt = (
                self._injector.corrupted_streams(round_index)
                if self._injector is not None
                else set()
            )
            for name, parts in segments.items():
                for chunk in parts:
                    ref = self._ring.put(chunk)
                    if name in corrupt:
                        corrupt_chunk(ref)
                    refs.append(ref)
                    per_worker.setdefault(self._owners[name], []).append(
                        (name, ref)
                    )
            for w in sorted(per_worker):
                directive = (
                    self._injector.worker_directive(round_index, w)
                    if self._injector is not None
                    else None
                )
                self._pool.send(
                    w, ("process", per_worker[w], False, directive)
                )
            found: dict[str, list[Burst]] = {}
            for w in sorted(per_worker):
                reply = self._pool.recv(w)
                if reply and reply[0] == "corrupt":
                    # Fail-fast policy: corruption is an error, exactly
                    # like a crash or a hang past the deadline.
                    raise WorkerError(
                        f"worker {w} rejected a corrupt chunk: {reply[1]}"
                    )
                for name, bursts in reply[1]:
                    found.setdefault(name, []).extend(bursts)
        except Exception:
            self.close()
            raise
        self._advance_positions(segments)
        for name in applied:
            self._configs[name] = replace(
                self._configs[name],
                structure=self._pending_swaps.pop(name),
            )
        for ref in refs:
            self._ring.release(ref)
        return {name: found[name] for name in chunks}

    def finish(self) -> dict[str, list[Burst]]:
        """Flush every stream, collect counters, and shut the pool down.

        Any chunks still buffered by the ``widen_chunks`` policy are
        dispatched first (one final flush round), so shedding by
        deferral never loses data.
        """
        if self._finished:
            raise RuntimeError("finish() already called")
        backlog_found: dict[str, list[Burst]] = {}
        if self._shed is not None and self._serial is None:
            backlog = self._shed.drain_for_finish(self._ingest_round)
            if backlog:
                self._ingest_round += 1
                if self._supervisor is not None:
                    backlog_found = self._process_supervised(backlog)
                else:
                    backlog_found = self._process_raw(backlog)
        self._finished = True
        if self._serial is not None:
            return self._prepend(backlog_found, self._serial.finish())
        if self._supervisor is not None:
            try:
                tails = self._finish_supervised()
            finally:
                self.close()
            return self._prepend(
                backlog_found, {name: tails[name] for name in self._names}
            )
        tails = {}
        counters: dict[str, OpCounters] = {}
        try:
            for w in self._worker_ids():
                self._pool.send(w, ("finish",))
            for w in self._worker_ids():
                _, worker_tails, worker_counters = self._pool.recv(w)
                tails.update(worker_tails)
                counters.update(worker_counters)
        finally:
            self.close()
        self._counters = counters
        return self._prepend(
            backlog_found, {name: tails[name] for name in self._names}
        )

    @staticmethod
    def _prepend(
        extra: dict[str, list[Burst]],
        tails: dict[str, list[Burst]],
    ) -> dict[str, list[Burst]]:
        """Backlog-flush bursts precede the finish tails, in order."""
        if not extra:
            return tails
        out = dict(tails)
        for name, bursts in extra.items():
            out[name] = bursts + out.get(name, [])
        return out

    def detect(
        self,
        data: Mapping[str, np.ndarray],
        chunk_size: int = DEFAULT_CHUNK,
    ) -> dict[str, BurstSet]:
        """Run every stream to completion; returns a BurstSet per stream."""
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        data = {k: np.asarray(v, dtype=np.float64) for k, v in data.items()}
        known = set(self._owners) if self._serial is None else set(
            self._serial.names
        )
        unknown = set(data) - known
        if unknown:
            raise KeyError(f"unknown streams: {sorted(unknown)}")
        collected: dict[str, list[Burst]] = {name: [] for name in data}
        longest = max((v.size for v in data.values()), default=0)
        for lo in range(0, longest, chunk_size):
            round_chunks = {
                name: series[lo : lo + chunk_size]
                for name, series in data.items()
                if lo < series.size
            }
            for name, bursts in self.process(round_chunks).items():
                collected[name].extend(bursts)
        for name, bursts in self.finish().items():
            if name in collected:
                collected[name].extend(bursts)
        return {name: BurstSet(bursts) for name, bursts in collected.items()}

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Shut down workers and release shared memory (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._supervisor is not None:
            self._total_restarts = self._supervisor.total_restarts
        self._supervisor = None
        if self._pool is not None:
            # Freeze latency telemetry so stats() keeps answering after
            # the pool is gone.
            self._final_latency = self._pool.latency_samples()
        try:
            if self._pool is not None:
                self._pool.close()
        finally:
            # Segments must be unlinked even when worker shutdown raises
            # (or a Ctrl-C lands during the join): a skipped unlink leaks
            # /dev/shm segments for the life of the machine.
            if self._ring is not None:
                self._ring.close()

    def __enter__(self) -> "ParallelMultiStreamDetector":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _segments_of(
    chunks: Mapping[str, np.ndarray | list[np.ndarray]],
) -> dict[str, list[np.ndarray]]:
    """Normalise a dispatch mapping to ordered chunk lists per stream.

    The shed planner may batch several deferred chunks for one stream
    into a single dispatch round (a widen flush); the plain path ships
    one chunk per stream.  Workers process a stream's chunks in list
    order, so batching preserves exact burst order.
    """
    out: dict[str, list[np.ndarray]] = {}
    for name, value in chunks.items():
        parts = value if isinstance(value, list) else [value]
        out[name] = [
            np.ascontiguousarray(part, dtype=np.float64) for part in parts
        ]
    return out


def _finish_command() -> tuple[Any, ...]:
    return ("finish",)


def _reshape_command(
    swaps: list[tuple[str, SATStructure]],
) -> Callable[[], tuple[Any, ...]]:
    def build() -> tuple[Any, ...]:
        return ("reshape", swaps)

    return build


def _counters_command() -> tuple[Any, ...]:
    return ("counters",)


def _carry_command() -> tuple[Any, ...]:
    return ("carry",)
