"""The persistent worker process: a shard of detectors behind a pipe.

Each worker owns the :class:`~repro.core.chunked.ChunkedDetector` (and,
in per-stream mode, the threshold fitting and structure training) for a
fixed subset of streams.  Commands arrive as small tuples over a duplex
pipe; stream data arrives out-of-band through shared memory
(:mod:`repro.runtime.shm`), so the pipe only ever carries configuration,
:class:`ChunkRef` handles, bursts, counters, and (in supervised mode)
per-stream checkpoint carries.

Protocol (request -> reply):

* ``("restore", name, structure, thresholds, refine, backend, carry)``
  -> ``("restored", name)`` — build a stream's detector from a
  :class:`~repro.core.chunked.DetectorCarry` checkpoint, which records
  the aggregate (replacing any existing detector for that name).  A new
  stream starts from a fresh carry
  (:func:`~repro.core.chunked.initial_carry`); a resumed run or a
  restarted worker re-enters mid-stream the same way.
* ``("train", name, ref, burst_probability, window_sizes, params,
  aggregate_name, refine, backend)`` -> ``("trained", name, structure,
  thresholds)``
* ``("process", [(name, ref), ...][, want_carry[, fault]])`` ->
  ``("bursts", [(name, bursts)], carries)`` where ``carries`` is a
  ``{name: DetectorCarry}`` checkpoint of every stream just processed
  when ``want_carry`` is true, else ``None``.  All refs are mapped (and
  their checksums verified) *before* any detector state advances, so a
  corrupted slot leaves every detector untouched; it is answered with
  ``("corrupt", message)`` and the parent simply rewrites the chunks and
  resends.  ``fault`` is a fault-injection directive
  (:mod:`repro.runtime.faults`) executed before the command, used only by
  the deterministic chaos harness.
* ``("finish",)`` -> ``("finished", [(name, bursts)], {name: counters})``
* ``("counters",)`` -> ``("counters", {name: counters})``
* ``("carry",)`` -> ``("carry", {name: DetectorCarry})`` — a checkpoint
  of every stream this worker owns, taken between rounds.  The durable
  layer's snapshot hook: meaningful only at a round boundary, where no
  chunk is in flight.
* ``("stop",)`` -> worker exits (no reply)

Any other exception inside a command is answered with ``("error", repr,
traceback_text)``; the worker stays alive so the parent can still shut
it down in an orderly way.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from multiprocessing.connection import Connection
from typing import Any

from ..core.aggregates import aggregate_by_name
from ..core.chunked import ChunkedDetector, DetectorCarry
from ..core.search import train_structure
from ..core.thresholds import NormalThresholds
from .shm import ChunkCorruption, ChunkReader

__all__ = ["worker_main"]

#: How long an injected "hang" fault sleeps.  Far past any reasonable
#: reply deadline; the parent is expected to escalate terminate -> kill
#: long before it elapses.
_HANG_SECONDS = 600.0


def _inject_fault(directive: str | tuple[str, float]) -> None:
    """Execute a fault-injection directive (chaos testing only).

    ``kill`` SIGKILLs the process mid-command — the hard-crash case.
    ``hang`` goes silent while staying alive (terminate-able);
    ``hang_hard`` additionally masks SIGTERM so only SIGKILL works,
    exercising the full escalation ladder.  ``("delay", seconds)`` is
    the straggler: sleep, then run the command and reply normally —
    nothing fails, the reply is just late.  ``drop_reply`` is handled
    by the caller (the command runs, the reply is suppressed).
    """
    kind, seconds = (
        directive if isinstance(directive, tuple) else (directive, 0.0)
    )
    if kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind in ("hang", "hang_hard"):
        if kind == "hang_hard":
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(_HANG_SECONDS)
        # The parent should have killed us long ago; don't limp on with
        # state the supervisor has already replayed elsewhere.
        os._exit(3)
    elif kind == "delay":
        time.sleep(seconds)
    elif kind != "drop_reply":
        raise ValueError(f"unknown fault directive {kind!r}")


def worker_main(conn: Connection, worker_id: int) -> None:
    """Run the worker loop until a ``stop`` command or EOF."""
    reader = ChunkReader()
    detectors: dict[str, ChunkedDetector] = {}
    try:
        while True:
            try:
                # The worker blocks here for its next command by design:
                # deadlines are the parent's side of the contract.
                msg = conn.recv()  # repro: noqa[RL007]
            except EOFError:
                break
            cmd = msg[0]
            if cmd == "stop":
                break
            fault = (
                msg[3] if cmd == "process" and len(msg) > 3 else None
            )
            if fault is not None:
                _inject_fault(fault)
            try:
                reply = _dispatch(cmd, msg, detectors, reader)
            except ChunkCorruption as exc:
                # No detector advanced (refs are validated up front):
                # tell the parent so it can rewrite the slots and resend
                # without restarting or restoring this worker.
                conn.send(("corrupt", str(exc)))
                continue
            except Exception as exc:  # propagate, keep the loop alive
                conn.send(
                    ("error", repr(exc), traceback.format_exc())
                )
                continue
            if fault != "drop_reply":
                conn.send(reply)
    finally:
        reader.close()
        conn.close()


def _dispatch(
    cmd: str,
    msg: tuple[Any, ...],
    detectors: dict[str, ChunkedDetector],
    reader: ChunkReader,
) -> tuple[Any, ...]:
    if cmd == "restore":
        _, name, structure, thresholds, refine, backend, carry = msg
        detectors[name] = ChunkedDetector.from_carry(
            structure, thresholds, carry, refine_filter=refine, backend=backend
        )
        return ("restored", name)
    if cmd == "train":
        (
            _,
            name,
            ref,
            probability,
            window_sizes,
            params,
            agg_name,
            refine,
            backend,
        ) = msg
        data = reader.view(ref)
        thresholds = NormalThresholds.from_data(
            data, probability, window_sizes
        )
        structure = train_structure(data, thresholds, params=params)
        detectors[name] = ChunkedDetector(
            structure,
            thresholds,
            aggregate_by_name(agg_name),
            refine_filter=refine,
            backend=backend,
        )
        return ("trained", name, structure, thresholds)
    if cmd == "process":
        work = msg[1]
        want_carry = bool(msg[2]) if len(msg) > 2 else False
        # Map (and checksum-verify) every ref before touching any
        # detector: a corrupt slot must not leave a shard half-advanced.
        views = [(name, reader.view(ref)) for name, ref in work]
        results = [
            (name, detectors[name].process(chunk)) for name, chunk in views
        ]
        carries: dict[str, DetectorCarry] | None = None
        if want_carry:
            carries = {name: detectors[name].carry() for name, _ in work}
        return ("bursts", results, carries)
    if cmd == "finish":
        _, = msg
        tails = [
            (name, detectors[name].finish()) for name in sorted(detectors)
        ]
        counters = {
            name: det.counters for name, det in detectors.items()
        }
        return ("finished", tails, counters)
    if cmd == "counters":
        return ("counters", {n: d.counters for n, d in detectors.items()})
    if cmd == "carry":
        return ("carry", {n: d.carry() for n, d in detectors.items()})
    raise ValueError(f"unknown worker command {cmd!r}")
