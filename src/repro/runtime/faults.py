"""Deterministic fault injection for the parallel runtime.

Fault tolerance that is only exercised by real crashes is fault
tolerance that is never exercised.  This module gives the supervised
runtime a *seeded, replayable* failure schedule: a :class:`FaultPlan` is
a plain value listing exactly which worker fails how, before which
process round — so a differential test can run the same portfolio
serially and under a storm of crashes and demand byte-identical bursts
and :class:`~repro.core.opcount.OpCounters`.

Fault kinds (``Fault.kind``):

* ``"kill"`` — the worker SIGKILLs itself on receipt of the round's
  process command: the hard mid-chunk crash of the acceptance criteria.
* ``"hang"`` — the worker goes silent but stays alive; the parent's
  reply deadline expires and escalation (terminate) takes it down.
* ``"hang_hard"`` — like ``hang`` but the worker masks SIGTERM, forcing
  escalation all the way to SIGKILL.
* ``"drop_reply"`` — the worker processes the round fully but never
  replies; its (now divergent) state dies with it when the deadline
  escalation kills it, and the replay must still be byte-identical.
* ``"delay"`` — the straggler: the worker sleeps ``seconds`` before
  processing the round, then replies normally.  Nothing fails; the
  reply is just late, which makes reply latency visible in the
  runtime's ``stats()`` percentiles.  Keep the delay below the
  supervisor deadline to model a slow worker; push it past the
  deadline and it degenerates into a ``hang``.
* ``"corrupt"`` — the parent flips the bytes of one stream's
  shared-memory slot after writing it, exercising checksum detection
  and the rewrite-and-resend path (the worker stays alive).

The worker-side kinds travel *in-band* as the ``fault`` element of the
``process`` command (see :mod:`repro.runtime.worker`), so injection
needs no side channels and composes with any start method.  A
:class:`FaultInjector` arms a plan for one run and hands each fault out
exactly once — replayed rounds after recovery see a clean schedule, so
a killed worker is not killed again in an infinite loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .shm import ChunkRef, _attach

__all__ = [
    "WORKER_FAULT_KINDS",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "corrupt_chunk",
]

#: Kinds delivered to the worker as in-band directives.
WORKER_FAULT_KINDS = ("kill", "hang", "hang_hard", "drop_reply", "delay")
#: All kinds, including the parent-side shared-memory corruption.
FAULT_KINDS = WORKER_FAULT_KINDS + ("corrupt",)

#: Default straggler sleep when a ``delay`` fault gives no ``seconds``.
DEFAULT_DELAY_SECONDS = 0.25


@dataclass(frozen=True)
class Fault:
    """One scheduled failure.

    ``round_index`` counts supervised ``process`` rounds from 0.
    ``worker`` addresses worker-side kinds; ``stream`` addresses
    ``corrupt`` (the slot carrying that stream's chunk in that round);
    ``seconds`` is the straggler sleep for ``delay`` faults.
    """

    kind: str
    round_index: int
    worker: int = 0
    stream: str | None = None
    seconds: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}"
            )
        if self.round_index < 0:
            raise ValueError("round_index must be >= 0")
        if self.kind == "corrupt" and self.stream is None:
            raise ValueError("corrupt faults must name a stream")
        if self.kind == "delay":
            if self.seconds is None:
                object.__setattr__(self, "seconds", DEFAULT_DELAY_SECONDS)
            elif self.seconds <= 0.0:
                raise ValueError("delay faults need seconds > 0")
        elif self.seconds is not None:
            raise ValueError("only delay faults carry seconds")


@dataclass(frozen=True)
class FaultPlan:
    """A replayable failure schedule for one detection run."""

    faults: tuple[Fault, ...] = ()

    @classmethod
    def single(
        cls,
        kind: str,
        round_index: int,
        worker: int = 0,
        stream: str | None = None,
        seconds: float | None = None,
    ) -> "FaultPlan":
        """A plan with exactly one fault (the common test shape)."""
        return cls((Fault(kind, round_index, worker, stream, seconds),))

    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        n_workers: int,
        n_rounds: int,
        streams: tuple[str, ...],
        max_faults: int = 3,
    ) -> "FaultPlan":
        """Draw a seeded plan — the fuzzer's fault-sweep generator.

        Every draw comes from ``rng``, so a plan is fully determined by
        the generator state: the chaos suite replays mismatches from the
        seed alone.
        """
        if n_workers < 1 or n_rounds < 1 or not streams:
            raise ValueError("need at least one worker, round, and stream")
        n = int(rng.integers(1, max_faults + 1))
        faults = []
        for _ in range(n):
            kind = str(rng.choice(FAULT_KINDS))
            faults.append(
                Fault(
                    kind,
                    round_index=int(rng.integers(0, n_rounds)),
                    worker=int(rng.integers(0, n_workers)),
                    stream=(
                        str(rng.choice(streams))
                        if kind == "corrupt"
                        else None
                    ),
                    # Stragglers sleep well under typical supervisor
                    # deadlines so the reply is late, not lost.
                    seconds=(
                        float(rng.uniform(0.05, 0.3))
                        if kind == "delay"
                        else None
                    ),
                )
            )
        return cls(tuple(faults))

    def __str__(self) -> str:
        if not self.faults:
            return "FaultPlan(none)"
        parts = []
        for f in self.faults:
            where = (
                f"stream={f.stream!r}"
                if f.kind == "corrupt"
                else f"worker={f.worker}"
            )
            tag = f.kind
            if f.kind == "delay" and f.seconds is not None:
                tag = f"delay({f.seconds:.2f}s)"
            parts.append(f"{tag}@r{f.round_index}[{where}]")
        return "FaultPlan(" + ", ".join(parts) + ")"


@dataclass
class FaultInjector:
    """Arms a :class:`FaultPlan` for one run; hands out each fault once.

    The fired-once bookkeeping is what keeps recovery replays clean: the
    supervisor resends a failed round with the same round index, and the
    faults that caused the failure must not fire again.
    """

    plan: FaultPlan
    _fired: set[int] = field(default_factory=set)

    def worker_directive(
        self, round_index: int, worker: int
    ) -> str | tuple[str, float] | None:
        """The in-band fault (if any) to ship with this worker's command.

        Most kinds travel as a bare string; ``delay`` travels as
        ``("delay", seconds)`` so the straggler knows how long to sleep.
        """
        for i, f in enumerate(self.plan.faults):
            if (
                i not in self._fired
                and f.kind in WORKER_FAULT_KINDS
                and f.round_index == round_index
                and f.worker == worker
            ):
                self._fired.add(i)
                if f.kind == "delay":
                    assert f.seconds is not None  # set in __post_init__
                    return ("delay", f.seconds)
                return f.kind
        return None

    def corrupted_streams(self, round_index: int) -> set[str]:
        """Streams whose shm slot should be corrupted this round."""
        out: set[str] = set()
        for i, f in enumerate(self.plan.faults):
            if (
                i not in self._fired
                and f.kind == "corrupt"
                and f.round_index == round_index
                and f.stream is not None
            ):
                self._fired.add(i)
                out.add(f.stream)
        return out


def corrupt_chunk(ref: ChunkRef) -> None:
    """Flip the bytes of a shared chunk *after* its checksum was taken.

    Perturbs every element by +1.0 — values that still parse as a valid
    stream, so nothing but the checksum can catch the damage (that is
    the point).  Empty chunks have no bytes to damage and are left
    alone.
    """
    if ref.count == 0:
        return
    shm = _attach(ref.name)
    try:
        view = np.ndarray((ref.count,), dtype=np.float64, buffer=shm.buf)
        view += 1.0
        # The buffer export must be dropped before close(), or releasing
        # the mapping raises BufferError.
        del view
    finally:
        shm.close()
