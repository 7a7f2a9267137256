"""Worker-pool plumbing: process lifecycle, routing, failure handling.

:class:`WorkerPool` owns N persistent worker processes, each driven by
:func:`repro.runtime.worker.worker_main` over its own duplex pipe.  One
pipe per worker keeps routing deterministic (replies are collected in
worker order, giving reproducible merges) and isolates a failed worker's
garbage from the others' channels.

Failure model: a command that raises inside a worker comes back as an
``("error", ...)`` reply and is re-raised here as :class:`WorkerError`
carrying the remote traceback; a worker that dies outright (killed,
segfaulted) raises :class:`WorkerCrashed`; a worker that is alive but
silent past the reply deadline raises :class:`WorkerTimeout`.  All parent
blocking on worker pipes goes through :func:`_recv_with_deadline` — the
one spot allowed to call raw ``Connection.poll``/``recv`` (lint rule
RL007) — so no code path can hang the parent forever when a deadline is
configured.  :meth:`close` escalates ``stop`` → ``terminate`` → ``kill``
(a worker whose reply timed out starts at ``terminate``);
:meth:`restart` replaces a dead worker with a fresh process so a
supervisor can rebuild its state and replay lost work.

Deadline accounting is clock-free (lint rule RL005 bans wall-clock reads
in the runtime): elapsed time is accumulated as a sum of poll intervals,
which is accurate to one interval and needs no ``time.monotonic``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from collections import deque
from multiprocessing.connection import Connection
from typing import Any

from .worker import worker_main

__all__ = [
    "WorkerError",
    "WorkerCrashed",
    "WorkerTimeout",
    "WorkerPool",
    "resolve_workers",
]

#: Seconds between liveness checks while waiting on a worker reply.
_POLL_INTERVAL = 0.1

#: Default bound on in-flight commands per worker (backpressure).
DEFAULT_MAX_INFLIGHT = 32

#: Recent latency samples kept for percentile reporting.
_LATENCY_WINDOW = 512


class WorkerError(RuntimeError):
    """A worker failed; carries the remote traceback in ``str(exc)``."""


class WorkerCrashed(WorkerError):
    """The worker process died (killed, segfaulted, or closed its pipe)."""


class WorkerTimeout(WorkerError):
    """A live worker sent no reply within the configured deadline."""


def resolve_workers(workers: int | str, n_streams: int) -> int:
    """Resolve a ``workers`` spec to a worker-process count (0 = serial).

    ``"serial"`` (or 0) forces in-process execution.  ``"auto"`` uses one
    worker per core, capped at the stream count, and degrades to serial
    when that leaves fewer than two workers — on a single-core box the
    pool's IPC overhead buys nothing.  An explicit integer is honoured
    as-is (capped at the stream count) so tests and benchmarks can force
    a pool even where ``auto`` would not.
    """
    if workers == "serial":
        return 0
    if workers == "auto":
        n = min(os.cpu_count() or 1, n_streams)
        return n if n >= 2 else 0
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(
            f"workers must be 'auto', 'serial', or an int, got {workers!r}"
        )
    if workers < 0:
        raise ValueError("workers must be >= 0")
    return min(workers, max(1, n_streams))


def _default_context() -> mp.context.BaseContext:
    # fork is markedly cheaper and inherits the imported library; spawn
    # is the portable fallback (Windows, macOS default).
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _recv_with_deadline(
    conn: Connection,
    proc: mp.process.BaseProcess,
    worker: int,
    timeout: float | None,
) -> tuple[tuple[Any, ...], float]:
    """Receive one reply, bounded by liveness *and* an optional deadline.

    This is the deadline-aware IPC helper every parent-side receive must
    go through (lint rule RL007): raw ``poll``/``recv`` loops detect dead
    peers but spin forever on a live-but-stuck one.  ``timeout=None``
    waits indefinitely for a live worker (legacy behaviour); a finite
    timeout raises :class:`WorkerTimeout` once the accumulated poll time
    reaches it, leaving escalation (terminate/kill + restart) to the
    caller.

    Returns ``(reply, waited)`` where ``waited`` is the accumulated poll
    time in seconds — the clock-free latency sample ``stats()`` reports
    (granularity one poll interval; an immediate reply reads as 0.0).
    """
    waited = 0.0
    while not conn.poll(_POLL_INTERVAL):
        if not proc.is_alive():
            # Drain anything flushed before death, then give up.
            if conn.poll(0):
                break
            raise WorkerCrashed(
                f"worker {worker} died (exitcode={proc.exitcode})"
            )
        waited += _POLL_INTERVAL
        if timeout is not None and waited >= timeout:
            raise WorkerTimeout(
                f"worker {worker} sent no reply within ~{timeout:g}s "
                "(process is alive but stuck)"
            )
    try:
        reply: tuple[Any, ...] = conn.recv()
    except (EOFError, ConnectionResetError) as exc:
        # A clean close raises EOFError; a peer that dies between the
        # readiness poll and the read resets the connection instead.
        raise WorkerCrashed(f"worker {worker} closed its pipe") from exc
    return reply, waited


class WorkerPool:
    """N persistent workers, one duplex pipe each.

    ``recv_timeout`` is the pool-wide default reply deadline applied by
    :meth:`recv` when the caller gives no per-call timeout; ``None``
    (the default) preserves the legacy wait-forever-while-alive
    behaviour.

    ``max_inflight`` bounds the commands outstanding per worker:
    :meth:`send` refuses to queue past the bound, so a producer that
    outruns its workers hits explicit backpressure instead of growing
    the pipe buffer without limit.  The pool also keeps clock-free
    telemetry — per-worker in-flight depth and a window of recent reply
    waits — which ``stats()`` turns into queue depth and latency
    percentiles.
    """

    def __init__(
        self,
        n_workers: int,
        context: mp.context.BaseContext | None = None,
        recv_timeout: float | None = None,
        max_inflight: int | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("a pool needs at least one worker")
        if max_inflight is None:
            max_inflight = DEFAULT_MAX_INFLIGHT
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self._ctx = context or _default_context()
        self._recv_timeout = recv_timeout
        self._max_inflight = max_inflight
        self._procs: list[mp.process.BaseProcess] = []
        self._conns: list[Connection] = []
        self._inflight: list[int] = [0] * n_workers
        # Workers whose last reply timed out: stuck, so deaf to "stop".
        self._timed_out: set[int] = set()
        self._latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._closed = False
        try:
            for i in range(n_workers):
                self._spawn(i)
        except Exception:
            self.close()
            raise

    def _spawn(self, index: int) -> None:
        """Start worker ``index``, creating or replacing its slot."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, index),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # parent keeps only its end
        if index == len(self._procs):
            self._procs.append(proc)
            self._conns.append(parent_conn)
        else:
            self._procs[index] = proc
            self._conns[index] = parent_conn

    @property
    def num_workers(self) -> int:
        return len(self._procs)

    @property
    def max_inflight(self) -> int:
        """The backpressure bound on outstanding commands per worker."""
        return self._max_inflight

    def alive(self, worker: int) -> bool:
        """Whether the worker process is currently running."""
        return self._procs[worker].is_alive()

    # -- telemetry ---------------------------------------------------------
    def queue_depths(self) -> tuple[int, ...]:
        """Current in-flight command count per worker."""
        return tuple(self._inflight)

    def latency_samples(self) -> tuple[float, ...]:
        """Recent reply waits (seconds), oldest first, bounded window."""
        return tuple(self._latencies)

    # -- messaging ---------------------------------------------------------
    def send(self, worker: int, message: tuple[Any, ...]) -> None:
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._inflight[worker] >= self._max_inflight:
            raise RuntimeError(
                f"backpressure: worker {worker} already has "
                f"{self._inflight[worker]} commands in flight "
                f"(max_inflight={self._max_inflight}); recv replies "
                "before sending more"
            )
        try:
            self._conns[worker].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(
                f"worker {worker} is gone (exitcode="
                f"{self._procs[worker].exitcode})"
            ) from exc
        self._inflight[worker] += 1

    def recv(
        self, worker: int, timeout: float | None = None
    ) -> tuple[Any, ...]:
        """Next reply from ``worker``.

        Raises :class:`WorkerError` on a remote exception reply,
        :class:`WorkerCrashed` on a dead worker, and
        :class:`WorkerTimeout` when a live worker stays silent past the
        deadline (``timeout``, falling back to the pool-wide
        ``recv_timeout``; ``None`` waits as long as the worker lives).
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if timeout is None:
            timeout = self._recv_timeout
        try:
            reply, waited = _recv_with_deadline(
                self._conns[worker], self._procs[worker], worker, timeout
            )
        except WorkerTimeout:
            self._timed_out.add(worker)
            raise
        # A reply arrived (even an error reply): the command is no
        # longer in flight.  Crash/timeout paths leave the count as-is;
        # restart() resets it with the worker's state.
        self._inflight[worker] = max(0, self._inflight[worker] - 1)
        self._latencies.append(waited)
        if reply and reply[0] == "error":
            _, err, tb = reply
            raise WorkerError(
                f"worker {worker} raised {err}\n--- remote traceback ---\n{tb}"
            )
        return reply

    # -- supervision -------------------------------------------------------
    def ensure_dead(self, worker: int, grace: float = 1.0) -> None:
        """Force a worker down: ``terminate``, then ``kill`` stragglers.

        Used to escalate on a hung worker before :meth:`restart`.  SIGTERM
        gets ``grace`` seconds; a worker that ignores it (stuck in
        uninterruptible state or masking the signal) is SIGKILLed, which
        cannot be masked.
        """
        proc = self._procs[worker]
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=grace)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)

    def restart(self, worker: int, grace: float = 1.0) -> None:
        """Replace a dead (or doomed) worker with a fresh process.

        The new process starts with empty detector state; the caller is
        responsible for rebuilding it (the supervisor replays per-stream
        checkpoints).  Any replies the old process left in the pipe are
        discarded with it.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        self.ensure_dead(worker, grace)
        try:
            self._conns[worker].close()
        except OSError:
            pass
        self._spawn(worker)
        # The replacement starts with an empty pipe: nothing in flight.
        self._inflight[worker] = 0
        self._timed_out.discard(worker)

    # -- lifecycle ---------------------------------------------------------
    def close(self, join_timeout: float = 5.0) -> None:
        """Stop all workers: ``stop``, then ``terminate``, then ``kill``.

        A worker whose reply timed out is stuck and would never read
        ``stop``, so it skips the graceful join: ``terminate``, then
        ``kill``.
        """
        if self._closed:
            return
        self._closed = True
        for worker in sorted(self._timed_out):
            self.ensure_dead(worker)
        for conn, proc in zip(self._conns, self._procs):
            try:
                if proc.is_alive():
                    # One bounded message per worker; replies are never
                    # expected during shutdown, so no ack loop is needed.
                    conn.send(("stop",))  # repro: noqa[RL002]
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=join_timeout)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for proc in self._procs:
            # A worker masking SIGTERM (or wedged in a non-interruptible
            # syscall) still has to go; SIGKILL cannot be ignored.
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
