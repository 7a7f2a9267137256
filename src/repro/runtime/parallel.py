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

A shared fleet starts from fresh carries
(:func:`~repro.core.chunked.initial_carry`): :meth:`shared` is
:meth:`from_carries` at stream position zero, so workers build every
stream with the one ``restore`` command, as a resumed run and a
restarted worker do.

Fault policies (``faults=``):

* ``"raise"`` (default) — fail fast: any worker death, hang past the
  pool's ``recv_timeout``, or corrupt chunk aborts the run with a
  :class:`~repro.runtime.pool.WorkerError`.
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

All three policies share one round path, :meth:`_exchange`: one
command to each worker, one reply from each.  With a supervisor it
heals; without one every failure is final, and a failure the policy
cannot absorb closes the pool and unlinks the ring.

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

from ..core.aggregates import SUM, AggregateFunction
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
    """Everything needed to rebuild one stream's detector from a carry
    (which records the aggregate)."""

    structure: SATStructure
    thresholds: ThresholdModel
    refine: bool
    backend: str = "auto"

    def restore_command(
        self, name: str, carry: DetectorCarry
    ) -> tuple[Any, ...]:
        return (
            "restore",
            name,
            self.structure,
            self.thresholds,
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
        faults: str,
    ) -> None:
        self._names = names
        self._pool = pool
        self._ring = ring
        self._owners = owners
        self._serial = serial
        self._counters: dict[str, OpCounters] | None = None
        self._finished = False
        self._closed = False
        self._faults = faults
        # Fault-tolerance state; populated by _configure_faults.
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
        policy: SupervisorPolicy | None,
        plan: FaultPlan | None,
        configs: dict[str, _StreamConfig],
        carries: Mapping[str, DetectorCarry],
    ) -> None:
        """Arm the fault policy on a pool whose workers start from
        ``carries``, which become a supervisor's first checkpoints."""
        # Kept for every policy: refine_filter and structure read the
        # recipe even in fail-fast mode.
        self._configs = configs
        if plan is not None:
            self._injector = FaultInjector(plan)
        if self._faults == "raise":
            return
        self._policy = policy if policy is not None else SupervisorPolicy()
        self._supervisor = Supervisor(
            self._pool, self._policy, self._reprime
        )
        self._checkpoints = dict(carries)

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
        """Same structure and thresholds for every stream.

        :meth:`from_carries` at stream position zero: every stream
        starts from a fresh carry.
        """
        return cls.from_carries(
            structure,
            thresholds,
            {
                name: initial_carry(structure, aggregate)
                for name in cls._check_names(names)
            },
            workers=workers,
            refine_filter=refine_filter,
            backend=backend,
            faults=faults,
            supervision=supervision,
            fault_plan=fault_plan,
            recv_timeout=recv_timeout,
        )

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

        The durable layer's recovery path, and :meth:`shared` over fresh
        carries: each worker rebuilds its shard through the ``restore``
        command, so a recovered pool continues mid-stream with the exact
        engine tails and op counters the checkpoints hold.  The
        aggregate is taken from each carry (it was recorded at
        checkpoint time); supervision checkpoints start from the
        carries, not zero, so a first-round worker loss sees the
        resumed offsets.
        """
        carries = dict(carries)
        names = cls._check_names(carries)
        checksum = cls._check_faults(faults, fault_plan)
        # Fail fast in the parent on an unknown backend or a missing
        # numba install, before any worker process spawns.
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
            # Nothing can crash in process: the policy knob and any
            # plan are accepted for call-site symmetry.
            return cls(names, None, None, {}, serial, faults)
        config = _StreamConfig(structure, thresholds, refine_filter, backend)
        pool = WorkerPool(n_workers, recv_timeout=recv_timeout)
        try:
            owners = {
                name: i % n_workers for i, name in enumerate(names)
            }
            _send_bounded(
                pool,
                owners,
                names,
                lambda name: config.restore_command(name, carries[name]),
            )
        except Exception:
            pool.close()
            raise
        det = cls(
            names, pool, SharedChunkRing(checksum), owners, None, faults
        )
        det._configure_faults(
            supervision, fault_plan, dict.fromkeys(names, config), carries
        )
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
            return cls(names, None, None, {}, serial, faults)
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
        det = cls(names, pool, ring, owners, None, faults)
        det._configure_faults(
            supervision,
            fault_plan,
            {
                name: _StreamConfig(
                    structures[name], fitted[name], refine_filter, backend
                )
                for name in names
            },
            {
                name: initial_carry(structures[name], aggregate)
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
        """The structure detecting ``name``."""
        if self._serial is not None:
            return self._serial.detector(name).structure
        return self._configs[name].structure

    def counters(self, name: str) -> OpCounters:
        """Operation counters of one stream's detector."""
        return self.stream_counters()[name]

    def stream_counters(self) -> dict[str, OpCounters]:
        """Per-stream operation counters over the whole fleet, sorted.

        The durable layer snapshots these next to each checkpoint carry
        so a recovered run reports identical per-level op counts.  On a
        pool this is the counter gather: one exchange per call until
        :meth:`finish` has collected the final counters.
        """
        if self._serial is not None:
            return self._serial.stream_counters()
        counters = self._counters
        if counters is None:
            counters = {}
            replies = self._exchange(
                dict.fromkeys(self._worker_ids(), _counters_command),
                lambda exc: self._fold_back(
                    exc, "counters", lambda det: det.counters
                ),
            )
            for w in sorted(replies):
                counters.update(replies[w][1])
        return {name: counters[name] for name in sorted(counters)}

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
        replies = self._exchange(
            dict.fromkeys(self._worker_ids(), _carry_command),
            lambda exc: self._fold_back(exc, "carry", ChunkedDetector.carry),
        )
        carries: dict[str, DetectorCarry] = {}
        for w in sorted(replies):
            carries.update(replies[w][1])
        return {name: carries[name] for name in sorted(carries)}

    def merged_counters(self) -> OpCounters:
        """Per-level counters merged over all streams and workers.

        Levels are aligned from the bottom; totals are exact regardless
        of per-stream structure depth (see :meth:`OpCounters.merged`).
        """
        return OpCounters.merged(self.stream_counters().values())

    def total_operations(self) -> int:
        """RAM-model operations summed over all streams and workers."""
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

    def _worker_ids(self) -> list[int]:
        return sorted(set(self._owners.values()))

    def _streams_of(self, worker: int) -> list[str]:
        return [n for n in self._names if self._owners[n] == worker]

    # -- the round --------------------------------------------------------
    def _exchange(
        self,
        builders: Mapping[int, Callable[[], tuple[Any, ...]]],
        stand_in: Callable[
            [WorkerUnrecoverable], Mapping[int, tuple[Any, ...]]
        ],
    ) -> dict[int, tuple[Any, ...]]:
        """One command to each worker, one reply from each, in worker order.

        A supervisor heals crashes, hangs and corrupt chunks
        (:meth:`Supervisor.exchange`).  Without one (``faults="raise"``)
        every failure is final: a dead worker raises ``WorkerCrashed``,
        one silent past ``recv_timeout`` ``WorkerTimeout``, and a
        corrupt chunk ``WorkerError``.  Under ``faults="degrade"`` the
        replies of ``stand_in(exc)`` answer for workers beyond recovery;
        any other failure closes the pool and the ring, then propagates.
        """
        pool = self._pool
        assert pool is not None
        try:
            if self._supervisor is not None:
                return self._supervisor.exchange(builders)
            for w in sorted(builders):
                # Bounded: one command in flight per worker, and the
                # loop below drains every reply.
                pool.send(w, builders[w]())
            replies: dict[int, tuple[Any, ...]] = {}
            for w in sorted(builders):
                reply = pool.recv(w)
                if reply[0] == "corrupt":
                    raise WorkerError(
                        f"worker {w} rejected a corrupt chunk: {reply[1]}"
                    )
                replies[w] = reply
            return replies
        except WorkerUnrecoverable as exc:
            if self._faults != "degrade":
                self.close()
                raise
            return {**exc.partial, **stand_in(exc)}
        except Exception:
            self.close()
            raise

    # -- supervision internals --------------------------------------------
    def _reprime(self, worker: int) -> None:
        """Rebuild a (re)started worker's shard from the checkpoints.

        Called by the supervisor after every restart and before any
        resend; restores *all* streams the worker owns — the process
        lost everything — to their state at the last acknowledged round.
        """
        assert self._pool is not None
        _send_bounded(
            self._pool,
            self._owners,
            self._streams_of(worker),
            lambda name: self._configs[name].restore_command(
                name, self._checkpoints[name]
            ),
            deadline=self._policy.deadline if self._policy else None,
        )

    def _degrade_to_serial(self) -> MultiStreamDetector:
        """Fold the collapsed pool back into in-process execution.

        Every stream's detector is rebuilt from its checkpoint (the
        state at its last acknowledged round), and the pool and ring are
        torn down.  From here on every call delegates to the returned
        serial fleet, byte-identical to a run serial from the start.
        """
        serial = self._serial = MultiStreamDetector(
            {
                name: self._configs[name].from_carry(self._checkpoints[name])
                for name in self._names
            }
        )
        self._degraded = True
        self._release()
        self._pool = None
        self._ring = None
        return serial

    def _fold_back(
        self,
        exc: WorkerUnrecoverable,
        tag: str,
        read: Callable[[ChunkedDetector], Any],
    ) -> dict[int, tuple[Any, ...]]:
        """Degrade-mode stand-in for a ``carry`` or ``counters`` reply.

        Folds back to serial and answers for each lost worker from its
        streams' restored detectors.  Between rounds every stream sits
        at its last acknowledged checkpoint, which is also where the
        healthy workers' replies describe it.
        """
        detector = self._degrade_to_serial().detector
        return {
            w: (tag, {n: read(detector(n)) for n in self._streams_of(w)})
            for w in exc.failed
        }

    def _finish_lost(
        self, exc: WorkerUnrecoverable
    ) -> dict[int, tuple[Any, ...]]:
        """Degrade-mode stand-in for a ``finish`` reply.

        The lost workers' streams finish in-process from their
        checkpoints (finish is deterministic from carry state, so a lost
        or replayed finish cannot diverge).
        """
        self._degraded = True
        replies: dict[int, tuple[Any, ...]] = {}
        for w in exc.failed:
            detectors = {
                name: self._configs[name].from_carry(self._checkpoints[name])
                for name in self._streams_of(w)
            }
            tails = [(name, det.finish()) for name, det in detectors.items()]
            replies[w] = (
                "finished",
                tails,
                {name: det.counters for name, det in detectors.items()},
            )
        return replies

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
        ring = self._ring
        assert ring is not None
        per_worker: dict[int, list[tuple[str, np.ndarray]]] = {}
        for name, chunk in chunks.items():
            per_worker.setdefault(self._owners[name], []).append(
                (name, chunk)
            )
        round_index = self._round
        self._round += 1
        injector = self._injector
        corrupt = (
            injector.corrupted_streams(round_index)
            if injector is not None
            else set()
        )
        # Only a supervisor has checkpoints to advance.
        want_carry = self._supervisor is not None
        live_refs: dict[int, list[ChunkRef]] = {}

        def make_builder(w: int) -> Callable[[], tuple[Any, ...]]:
            def build() -> tuple[Any, ...]:
                # A retry rewrites the worker's chunks into fresh slots;
                # the previous attempt's slots go back to the pool.
                for old in live_refs.pop(w, []):
                    ring.release(old)
                work: list[tuple[str, ChunkRef]] = []
                for name, chunk in per_worker[w]:
                    ref = ring.put(chunk)
                    if name in corrupt:
                        # Injected once; the resend after detection gets
                        # a clean slot.
                        corrupt.discard(name)
                        corrupt_chunk(ref)
                    work.append((name, ref))
                live_refs[w] = [ref for _, ref in work]
                directive = (
                    injector.worker_directive(round_index, w)
                    if injector is not None
                    else None
                )
                return ("process", work, want_carry, directive)

            return build

        def replay_lost(
            exc: WorkerUnrecoverable,
        ) -> dict[int, tuple[Any, ...]]:
            # The healthy workers' carries are this round's checkpoints;
            # the lost workers' streams fold back at the last round's
            # and replay their chunks in this process.
            for reply in exc.partial.values():
                self._checkpoints.update(reply[2])
            serial = self._degrade_to_serial()
            return {
                w: ("bursts", serial.process(dict(per_worker[w])), None)
                for w in exc.failed
            }

        replies = self._exchange(
            {w: make_builder(w) for w in per_worker}, replay_lost
        )
        found: dict[str, list[Burst]] = {}
        for w in sorted(replies):
            _, pairs, carries = replies[w]
            found.update(pairs)
            if carries:
                self._checkpoints.update(carries)
        if self._ring is not None:
            # After a fold-back the ring is gone with its slots.
            for refs in live_refs.values():
                for ref in refs:
                    ring.release(ref)
        return {name: found[name] for name in chunks}

    def finish(self) -> dict[str, list[Burst]]:
        """Flush every stream, collect counters, and shut the pool down."""
        if self._finished:
            raise RuntimeError("finish() already called")
        self._finished = True
        if self._serial is not None:
            return self._serial.finish()
        try:
            replies = self._exchange(
                dict.fromkeys(self._worker_ids(), _finish_command),
                self._finish_lost,
            )
        finally:
            self.close()
        tails: dict[str, list[Burst]] = {}
        counters: dict[str, OpCounters] = {}
        for w in sorted(replies):
            _, worker_tails, worker_counters = replies[w]
            tails.update(worker_tails)
            counters.update(worker_counters)
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
        unknown = set(data) - set(self._names)
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
        self._release()

    def _release(self) -> None:
        """Stop the workers and unlink the ring, keeping what stats()
        reads after the pool is gone."""
        if self._supervisor is not None:
            self._total_restarts = self._supervisor.total_restarts
        self._supervisor = None
        if self._pool is not None:
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
