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

Health (:meth:`stats`): a :class:`RuntimeStats` snapshot of what the
pool already measures — reply-wait percentiles, queue depth, restarts
and degradation — valid at any point, including after :meth:`close`.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .pool import (
    DEFAULT_MAX_INFLIGHT,
    WorkerError,
    WorkerPool,
    resolve_workers,
)
from .shm import ChunkRef, SharedChunkRing
from .supervisor import Supervisor, SupervisorPolicy, WorkerUnrecoverable

__all__ = [
    "ParallelMultiStreamDetector",
    "RuntimeStats",
    "latency_percentiles",
]

_FAULT_POLICIES = ("raise", "restart", "degrade")


@dataclass(frozen=True)
class RuntimeStats:
    """One ``stats()`` snapshot of the runtime's health.

    Latency fields are seconds of accumulated poll-interval wait per
    worker command (granularity one poll interval, see
    :mod:`repro.runtime.pool`); ``queue_depth`` is the current maximum
    number of in-flight commands across workers.
    """

    backend: str
    workers: int
    latency_p50: float
    latency_p99: float
    queue_depth: int
    max_inflight: int
    total_restarts: int
    degraded: bool

    def describe(self) -> str:
        """A stable one-line rendering for logs and the CLI."""
        return (
            f"backend={self.backend} workers={self.workers} "
            f"p50={self.latency_p50:.3f}s p99={self.latency_p99:.3f}s "
            f"queue={self.queue_depth}/{self.max_inflight} "
            f"restarts={self.total_restarts} "
            f"degraded={'yes' if self.degraded else 'no'}"
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "backend": self.backend,
            "workers": self.workers,
            "latency_p50": self.latency_p50,
            "latency_p99": self.latency_p99,
            "queue_depth": self.queue_depth,
            "max_inflight": self.max_inflight,
            "total_restarts": self.total_restarts,
            "degraded": self.degraded,
        }


def latency_percentiles(samples: Iterable[float]) -> tuple[float, float]:
    """(p50, p99) of the recorded latency samples; zeros when empty."""
    arr = np.asarray(tuple(samples), dtype=np.float64)
    if arr.size == 0:
        return 0.0, 0.0
    return (
        float(np.percentile(arr, 50)),
        float(np.percentile(arr, 99)),
    )


@dataclass(frozen=True)
class _StreamConfig:
    """Everything needed to rebuild one stream's detector from a carry."""

    structure: SATStructure
    thresholds: ThresholdModel
    aggregate: str
    refine: bool
    backend: str = "auto"

    def build_command(self, name: str) -> tuple[Any, ...]:
        return (
            "build",
            name,
            self.structure,
            self.thresholds,
            self.aggregate,
            self.refine,
            self.backend,
        )

    def restore_command(
        self, name: str, carry: DetectorCarry
    ) -> tuple[Any, ...]:
        return (
            "restore",
            name,
            self.structure,
            self.thresholds,
            self.aggregate,
            self.refine,
            self.backend,
            carry,
        )

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
        # Kept for every policy: refine_filter reads the recipe even in
        # fail-fast mode.
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
            return det
        config = _StreamConfig(
            structure, thresholds, aggregate.name, refine_filter, backend
        )
        pool = WorkerPool(n_workers, recv_timeout=recv_timeout)
        try:
            owners = {
                name: i % n_workers for i, name in enumerate(names)
            }
            _send_bounded(pool, owners, names, config.build_command)
        except Exception:
            pool.close()
            raise
        det = cls(names, pool, SharedChunkRing(checksum), owners, None)
        det._configure_faults(
            faults,
            supervision,
            fault_plan,
            dict.fromkeys(names, config),
        )
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
    ) -> "ParallelMultiStreamDetector":
        """Resume a shared-structure fleet from per-stream carries.

        The durable layer's recovery path: each worker rebuilds its
        shard through the ``restore`` command instead of ``build``, so
        a recovered pool continues mid-stream with the exact engine
        tails and op counters the checkpoints hold.  The aggregate is
        taken from each carry (it was recorded at checkpoint time);
        supervision checkpoints start from the carries, not zero, so a
        first-round worker loss sees the resumed offsets.
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
            return det
        configs = {
            name: _StreamConfig(
                structure,
                thresholds,
                carries[name].aggregate,
                refine_filter,
                backend,
            )
            for name in names
        }
        pool = WorkerPool(n_workers, recv_timeout=recv_timeout)
        try:
            owners = {
                name: i % n_workers for i, name in enumerate(names)
            }
            _send_bounded(
                pool,
                owners,
                names,
                lambda name: configs[name].restore_command(
                    name, carries[name]
                ),
            )
        except Exception:
            pool.close()
            raise
        det = cls(names, pool, SharedChunkRing(checksum), owners, None)
        det._configure_faults(faults, supervision, fault_plan, configs)
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
            return det
        sizes = tuple(int(w) for w in window_sizes)
        pool = WorkerPool(n_workers, recv_timeout=recv_timeout)
        ring = SharedChunkRing(checksum)
        try:
            owners = {name: i % n_workers for i, name in enumerate(names)}
            refs: dict[str, ChunkRef] = {}
            structures: dict[str, SATStructure] = {}
            fitted: dict[str, ThresholdModel] = {}

            def train(name: str) -> tuple[Any, ...]:
                refs[name] = ring.put(
                    np.asarray(training[name], dtype=np.float64)
                )
                return (
                    "train",
                    name,
                    refs[name],
                    float(burst_probability),
                    sizes,
                    search_params,
                    aggregate.name,
                    refine_filter,
                    backend,
                )

            def trained(reply: tuple[Any, ...]) -> None:
                _, got_name, structure, fitted_thresholds = reply
                structures[got_name] = structure
                fitted[got_name] = fitted_thresholds
                ring.release(refs[got_name])

            # The in-flight bound also caps ring memory at
            # workers * max_inflight live training arrays.
            _send_bounded(pool, owners, names, train, trained)
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
        return RuntimeStats(
            backend="parallel" if self._init_workers else "serial",
            workers=self._init_workers,
            latency_p50=p50,
            latency_p99=p99,
            queue_depth=depth,
            max_inflight=self._max_inflight,
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
        flight.  On a supervised pool a worker lost during the exchange
        is restored from its last acknowledged checkpoint first, so the
        gathered carries still describe one consistent boundary.
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
        _send_bounded(
            self._pool,
            self._owners,
            [n for n in self._names if self._owners[n] == worker],
            lambda name: self._configs[name].restore_command(
                name, self._checkpoints[name]
            ),
            deadline=self._policy.deadline if self._policy else None,
        )

    def _absorb_round_reply(
        self,
        reply: tuple[Any, ...],
        found: dict[str, list[Burst]],
    ) -> None:
        """Fold one worker's ``("bursts", ...)`` reply into the round's
        results and advance its streams' checkpoints."""
        _, pairs, carries = reply
        for name, bursts in pairs:
            found[name] = bursts
        if carries:
            self._checkpoints.update(carries)

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
        re-processed locally, with their bursts recorded in ``found``.
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
                        found[name] = bursts
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

    def _process_supervised(
        self, chunks: Mapping[str, np.ndarray]
    ) -> dict[str, list[Burst]]:
        per_worker: dict[int, list[tuple[str, np.ndarray]]] = {}
        for name, chunk in chunks.items():
            arr = np.ascontiguousarray(chunk, dtype=np.float64)
            per_worker.setdefault(self._owners[name], []).append(
                (name, arr)
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
                self._absorb_round_reply(exc.partial[w], found)
            self._degrade_to_serial(per_worker, exc.failed, found)
            return {name: found[name] for name in chunks}
        except Exception:
            self.close()
            raise
        for w in sorted(replies):
            self._absorb_round_reply(replies[w], found)
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
        """
        if self._finished:
            raise RuntimeError("detector already finished; create a new one")
        if self._serial is not None:
            return self._serial.process(chunks)
        unknown = set(chunks) - set(self._owners)
        if unknown:
            raise KeyError(f"unknown streams: {sorted(unknown)}")
        if self._supervisor is not None:
            return self._process_supervised(chunks)
        return self._process_raw(chunks)

    def _process_raw(
        self, chunks: Mapping[str, np.ndarray]
    ) -> dict[str, list[Burst]]:
        """The fail-fast dispatch path (no supervisor)."""
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
            for name, chunk in chunks.items():
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
                    found[name] = bursts
        except Exception:
            self.close()
            raise
        for ref in refs:
            self._ring.release(ref)
        return {name: found[name] for name in chunks}

    def finish(self) -> dict[str, list[Burst]]:
        """Flush every stream, collect counters, and shut the pool down."""
        if self._finished:
            raise RuntimeError("finish() already called")
        self._finished = True
        if self._serial is not None:
            return self._serial.finish()
        if self._supervisor is not None:
            try:
                tails = self._finish_supervised()
            finally:
                self.close()
            return {name: tails[name] for name in self._names}
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
        return {name: tails[name] for name in self._names}

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


def _send_bounded(
    pool: WorkerPool,
    owners: Mapping[str, int],
    names: Iterable[str],
    message: Callable[[str], tuple[Any, ...]],
    on_reply: Callable[[tuple[Any, ...]], None] = lambda reply: None,
    deadline: float | None = None,
) -> None:
    """Send ``message(name)`` to each stream's owner under the in-flight
    bound, handing every reply to ``on_reply``.

    Unread replies can fill the ~64KB pipe buffer at portfolio scale,
    blocking the worker's send and therefore its request drain — a
    deadlock with the sending parent.  So a worker at ``max_inflight``
    first yields its oldest reply (replies arrive in send order per
    worker); the rest are drained in worker order at the end.  Each
    message is built after that drain, just before its send.
    """
    inflight: dict[int, int] = {}
    for name in names:
        w = owners[name]
        if inflight.get(w, 0) >= pool.max_inflight:
            on_reply(pool.recv(w, deadline))
            inflight[w] -= 1
        pool.send(w, message(name))
        inflight[w] = inflight.get(w, 0) + 1
    for w in sorted(inflight):
        for _ in range(inflight[w]):
            on_reply(pool.recv(w, deadline))


def _finish_command() -> tuple[Any, ...]:
    return ("finish",)


def _counters_command() -> tuple[Any, ...]:
    return ("counters",)


def _carry_command() -> tuple[Any, ...]:
    return ("carry",)
