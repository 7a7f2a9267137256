"""Adaptive detection for time-evolving streams (paper §7 future work).

A Shifted Aggregation Tree is tuned to the distribution it was trained
on; when the stream drifts (a web site gets popular, a stock's volume
regime changes), the structure's filtering assumptions erode and cost
creeps toward the naive method's.  "Applying this framework to
time-evolving time series" is the paper's named future work; this module
implements the natural design:

* :class:`DriftMonitor` — tracks per-chunk moments against the reference
  statistics the current structure was trained on and flags drift when
  the relative change in mean or deviation exceeds a tolerance (with a
  minimum era length so noise cannot thrash the structure);
* :class:`AdaptiveDetector` — wraps :class:`ChunkedDetector`, keeps a
  trailing window of recent data, and on drift (or on an optional fixed
  retraining period) re-runs the state-space search on recent data and
  hands the stream over to a detector built on the new structure.

The handover preserves exact detection semantics: the new detector is
*preloaded* with enough trailing history that windows spanning the
boundary aggregate correctly, the old detector is flushed, and reports
are split at the boundary so nothing is duplicated or lost.  Thresholds
are fixed throughout — adaptation changes *how fast* bursts are found,
never *what counts* as a burst — so the adaptive detector remains
burst-for-burst identical to the naive baseline (tested).

Retraining can run in two modes (``retrain=``):

* ``"blocking"`` (default) — the structure search runs inline on the
  ingest path; detection pauses for the duration of the search.
* ``"background"`` — the search is handed to a :class:`ProcessRetrainer`
  (a dedicated child process); ingest continues on the old structure
  and the new SAT is hot-swapped at the first chunk boundary after the
  search completes, via the same carry-the-history handover.  Because
  thresholds never change, the burst output is *identical* to blocking
  mode — only the era boundaries (cost accounting) land later.
  :class:`InlineRetrainer` is the deterministic stand-in for tests: it
  trains at submit time and delivers exactly one chunk later.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Protocol

import numpy as np

from .aggregates import SUM, AggregateFunction
from .chunked import ChunkedDetector
from .events import Burst, BurstSet
from .opcount import OpCounters
from .search import SearchParams, train_structure
from .structure import SATStructure
from .thresholds import ThresholdModel

__all__ = [
    "AdaptiveConfig",
    "DriftMonitor",
    "AdaptiveDetector",
    "Era",
    "Retrainer",
    "InlineRetrainer",
    "ProcessRetrainer",
]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive detector.

    ``relative_tolerance`` bounds the accepted drift of the stream mean
    and standard deviation relative to the current structure's training
    statistics; ``min_era_points`` stops statistical noise from forcing
    perpetual retraining; ``retrain_window`` is how much trailing data the
    search retrains on; ``retrain_period`` (optional) forces periodic
    retraining even without detected drift.
    """

    relative_tolerance: float = 0.3
    min_era_points: int = 20_000
    retrain_window: int = 10_000
    retrain_period: int | None = None
    search_params: SearchParams | None = None

    def __post_init__(self) -> None:
        if self.relative_tolerance <= 0:
            raise ValueError("relative_tolerance must be positive")
        if self.min_era_points < 1 or self.retrain_window < 2:
            raise ValueError("era and retrain windows must be positive")
        if self.retrain_period is not None and self.retrain_period < 1:
            raise ValueError("retrain_period must be positive")


class DriftMonitor:
    """Flags when recent stream moments leave the reference band.

    "Recent" is a sliding window of the last ``window_points`` observed
    values (approximated at chunk granularity), so a long stable era
    cannot dilute a genuine regime change away.
    """

    def __init__(
        self,
        reference_mu: float,
        reference_sigma: float,
        tolerance: float,
        window_points: int = 10_000,
    ) -> None:
        if window_points < 1:
            raise ValueError("window_points must be >= 1")
        self.reference_mu = float(reference_mu)
        self.reference_sigma = float(reference_sigma)
        self.tolerance = float(tolerance)
        self.window_points = int(window_points)
        # Per-chunk (count, sum, sum of squares), oldest first.
        self._chunks: list[tuple[int, float, float]] = []
        self._count = 0
        self._sum = 0.0
        self._sum_sq = 0.0

    def observe(self, chunk: np.ndarray) -> None:
        """Fold a chunk into the sliding recent-moments estimate."""
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.size == 0:
            return
        stats = (int(chunk.size), float(chunk.sum()), float(np.square(chunk).sum()))
        self._chunks.append(stats)
        self._count += stats[0]
        self._sum += stats[1]
        self._sum_sq += stats[2]
        # Evict whole old chunks while the window stays satisfied.
        while (
            len(self._chunks) > 1
            and self._count - self._chunks[0][0] >= self.window_points
        ):
            n, s, ss = self._chunks.pop(0)
            self._count -= n
            self._sum -= s
            self._sum_sq -= ss

    @property
    def observed_points(self) -> int:
        """Points currently inside the sliding window."""
        return self._count

    def recent_moments(self) -> tuple[float, float]:
        """Mean and standard deviation over the sliding window."""
        if self._count == 0:
            return (self.reference_mu, self.reference_sigma)
        mu = self._sum / self._count
        var = max(0.0, self._sum_sq / self._count - mu * mu)
        return (mu, float(np.sqrt(var)))

    def drifted(self) -> bool:
        """Whether recent moments left the reference tolerance band.

        Changes are measured relative to the reference deviation (for the
        mean — a shift of many sigmas matters even if the mean is small)
        and relative to the reference deviation itself.
        """
        if self._count == 0:
            return False
        mu, sigma = self.recent_moments()
        scale = max(self.reference_sigma, 1e-12)
        mean_shift = abs(mu - self.reference_mu) / max(
            abs(self.reference_mu), scale
        )
        sigma_shift = abs(sigma - self.reference_sigma) / scale
        return (
            mean_shift > self.tolerance or sigma_shift > self.tolerance
        )

    def reset(self, reference_mu: float, reference_sigma: float) -> None:
        """Re-anchor to new reference statistics (after retraining)."""
        self.reference_mu = float(reference_mu)
        self.reference_sigma = float(reference_sigma)
        self._chunks = []
        self._count = 0
        self._sum = 0.0
        self._sum_sq = 0.0


@dataclass
class Era:
    """One stretch of the stream detected under a single structure."""

    start: int
    structure: SATStructure
    counters: OpCounters
    reason: str  # "initial", "drift", or "periodic"
    end: int | None = field(default=None)


class Retrainer(Protocol):
    """Where a background structure search runs.

    One search at a time: :meth:`submit` while :attr:`busy` is an error.
    :meth:`poll` never blocks; it returns the finished structure once,
    then the retrainer is idle again.
    """

    @property
    def busy(self) -> bool: ...

    def submit(
        self,
        data: np.ndarray,
        thresholds: ThresholdModel,
        params: SearchParams | None,
    ) -> None: ...

    def poll(self) -> SATStructure | None: ...

    def close(self) -> None: ...


class InlineRetrainer:
    """Synchronous stand-in: trains at submit, delivers on the next poll.

    Not actually concurrent — the search still blocks the submitting
    call — but it exercises the exact background code path (submit,
    keep detecting, swap one chunk later) deterministically, which is
    what the identity tests need.
    """

    def __init__(self) -> None:
        self._result: SATStructure | None = None

    @property
    def busy(self) -> bool:
        return self._result is not None

    def submit(
        self,
        data: np.ndarray,
        thresholds: ThresholdModel,
        params: SearchParams | None,
    ) -> None:
        if self._result is not None:
            raise RuntimeError("a retrain is already pending")
        self._result = train_structure(data, thresholds, params=params)

    def poll(self) -> SATStructure | None:
        result, self._result = self._result, None
        return result

    def close(self) -> None:
        self._result = None


def _retrain_context() -> mp.context.BaseContext:
    # Mirrors the runtime pool's choice: fork is cheap and inherits the
    # imported library; spawn is the portable fallback.
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _retrainer_main(conn: Connection) -> None:
    """Loop of the retrain process: one search per request."""
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg[0] == "stop":
                break
            _, data, thresholds, params = msg
            try:
                structure = train_structure(data, thresholds, params=params)
            except Exception as exc:
                conn.send(("error", repr(exc), traceback.format_exc()))
                continue
            conn.send(("ok", structure))
    finally:
        conn.close()


class ProcessRetrainer:
    """Runs the structure search in a dedicated child process.

    The training slice crosses the pipe once per submit; the parent's
    :meth:`poll` is a zero-timeout check, so the ingest path never
    blocks on an unfinished search.  Use as a context manager or call
    :meth:`close` so the child is always reaped.
    """

    def __init__(self, context: mp.context.BaseContext | None = None) -> None:
        ctx = context or _retrain_context()
        self._conn, child = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=_retrainer_main,
            args=(child,),
            name="repro-retrainer",
            daemon=True,
        )
        self._proc.start()
        child.close()
        self._busy = False
        self._closed = False

    @property
    def busy(self) -> bool:
        return self._busy

    def submit(
        self,
        data: np.ndarray,
        thresholds: ThresholdModel,
        params: SearchParams | None,
    ) -> None:
        if self._closed:
            raise RuntimeError("retrainer is closed")
        if self._busy:
            raise RuntimeError("a retrain is already pending")
        self._conn.send(
            ("train", np.asarray(data, dtype=np.float64), thresholds, params)
        )
        self._busy = True

    def poll(self) -> SATStructure | None:
        if self._closed or not self._busy:
            return None
        if not self._conn.poll(0):
            if not self._proc.is_alive():
                self._busy = False
                raise RuntimeError(
                    "retrainer process died "
                    f"(exitcode={self._proc.exitcode})"
                )
            return None
        reply = self._conn.recv()
        self._busy = False
        if reply[0] == "error":
            raise RuntimeError(
                f"background retrain failed: {reply[1]}\n"
                f"--- remote traceback ---\n{reply[2]}"
            )
        structure: SATStructure = reply[1]
        return structure

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            if self._proc.is_alive():
                self._conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self._proc.join(timeout=5.0)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=1.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=5.0)
        try:
            self._conn.close()
        except OSError:
            pass

    def __enter__(self) -> "ProcessRetrainer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class AdaptiveDetector:
    """Structure-adaptive elastic burst detection over a drifting stream."""

    def __init__(
        self,
        thresholds: ThresholdModel,
        training: np.ndarray,
        config: AdaptiveConfig | None = None,
        aggregate: AggregateFunction = SUM,
        retrain: str = "blocking",
        retrainer: Retrainer | None = None,
    ) -> None:
        if retrain not in ("blocking", "background"):
            raise ValueError(
                f"retrain must be 'blocking' or 'background', got {retrain!r}"
            )
        if retrainer is not None and retrain != "background":
            raise ValueError("a retrainer requires retrain='background'")
        self.thresholds = thresholds
        self.config = config or AdaptiveConfig()
        self.aggregate = aggregate
        self._background = retrain == "background"
        self._retrainer = retrainer
        self._owns_retrainer = False
        # (reason, reference mu, reference sigma) of the search in flight.
        self._pending: tuple[str, float, float] | None = None
        training = np.asarray(training, dtype=np.float64)
        structure = train_structure(
            training, thresholds, params=self.config.search_params
        )
        self._detector = ChunkedDetector(structure, thresholds, aggregate)
        self._monitor = DriftMonitor(
            float(training.mean()),
            float(training.std(ddof=0)),
            self.config.relative_tolerance,
            window_points=self.config.retrain_window,
        )
        self.eras: list[Era] = [
            Era(0, structure, self._detector.counters, "initial")
        ]
        self._length = 0  # global points consumed
        self._era_start = 0
        self._detector_offset = 0  # global index of detector's local 0
        # Trailing buffer: enough for retraining plus warm handover
        # (a trained structure's top never exceeds twice the max window).
        self._keep = max(
            self.config.retrain_window, 4 * thresholds.max_window
        )
        self._buffer = np.empty(0, dtype=np.float64)
        self._finished = False

    # -- public API --------------------------------------------------------
    @property
    def length(self) -> int:
        """Global stream points consumed."""
        return self._length

    @property
    def structure(self) -> SATStructure:
        """The structure currently detecting."""
        return self.eras[-1].structure

    def total_operations(self) -> int:
        """RAM-model operations summed over all eras."""
        return self.merged_counters().total_operations

    def merged_counters(self) -> OpCounters:
        """Per-level counters merged over all eras (levels align bottom-up)."""
        return OpCounters.merged(era.counters for era in self.eras)

    def total_bursts(self) -> int:
        return self.merged_counters().bursts

    def process(self, chunk: np.ndarray) -> list[Burst]:
        """Consume a chunk; returns bursts with *global* end indices."""
        if self._finished:
            raise RuntimeError("detector already finished; create a new one")
        chunk = np.asarray(chunk, dtype=np.float64)
        out = self._emit(self._detector.process(chunk))
        self._length += chunk.size
        self._monitor.observe(chunk)
        self._buffer = np.concatenate((self._buffer, chunk))[-self._keep :]
        if self._background:
            out.extend(self._poll_background())
            if self._pending is None and self._should_retrain():
                self._submit_background()
        elif self._should_retrain():
            out.extend(self._retrain())
        return out

    def finish(self) -> list[Burst]:
        """Flush the current era's detector.

        A background search still in flight is abandoned: its structure
        would only govern data that will never arrive.
        """
        if self._finished:
            raise RuntimeError("finish() already called")
        self._finished = True
        out = self._emit(self._detector.finish())
        self.eras[-1].end = self._length
        self.close()
        return out

    def close(self) -> None:
        """Discard any pending background search and reap the retrainer.

        Only a retrainer this detector created itself is closed; an
        injected one belongs to the caller.  Idempotent.
        """
        self._pending = None
        retrainer, self._retrainer = self._retrainer, None
        if retrainer is not None and self._owns_retrainer:
            retrainer.close()

    def detect(self, data: np.ndarray, chunk_size: int = 1 << 15) -> BurstSet:
        """Convenience: run over a whole array in chunks."""
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        data = np.asarray(data, dtype=np.float64)
        bursts: list[Burst] = []
        for lo in range(0, data.size, chunk_size):
            bursts.extend(self.process(data[lo : lo + chunk_size]))
        bursts.extend(self.finish())
        return BurstSet(bursts)

    # -- internals -----------------------------------------------------------
    def _emit(self, bursts: list[Burst]) -> list[Burst]:
        """Translate detector-local bursts to global indices; drop any
        that fall before the current era (already reported by the
        previous detector)."""
        offset = self._detector_offset
        out = []
        for b in bursts:
            end = b.end + offset
            if end < self._era_start:
                # Covered by the previous era's flush; also undo the
                # double count in this era's burst counter.
                self.eras[-1].counters.bursts -= 1
                continue
            out.append(Burst(end, b.size, b.value))
        return out

    def _should_retrain(self) -> bool:
        era_points = self._length - self._era_start
        if era_points < self.config.min_era_points:
            return False
        # Enough data both to retrain on and to warm the next detector
        # past every window that could span the handover boundary (an
        # under-preloaded engine would clamp those windows and silently
        # under-report — see docs/THEORY.md §3 on clamping).
        # 3*maxw bounds s_top + maxw for any searchable structure (the
        # search caps candidate sizes at 2*maxw).
        needed = max(
            self.config.retrain_window, 3 * self.thresholds.max_window
        )
        if self._buffer.size < needed:
            return False
        if (
            self.config.retrain_period is not None
            and era_points >= self.config.retrain_period
        ):
            return True
        return self._monitor.drifted()

    def _retrain(self) -> list[Burst]:
        reason = "drift" if self._monitor.drifted() else "periodic"
        train = self._buffer[-self.config.retrain_window :]
        structure = train_structure(
            train, self.thresholds, params=self.config.search_params
        )
        return self._handover(
            structure,
            reason,
            float(train.mean()),
            float(train.std(ddof=0)),
        )

    def _submit_background(self) -> None:
        """Ship the current training slice to the background retrainer."""
        if self._retrainer is None:
            self._retrainer = ProcessRetrainer()
            self._owns_retrainer = True
        reason = "drift" if self._monitor.drifted() else "periodic"
        # Snapshot the slice: the buffer keeps rolling while the search
        # runs, and the monitor must re-anchor to the statistics of the
        # data the new structure was actually trained on.
        train = self._buffer[-self.config.retrain_window :].copy()
        self._retrainer.submit(
            train, self.thresholds, self.config.search_params
        )
        self._pending = (
            reason,
            float(train.mean()),
            float(train.std(ddof=0)),
        )

    def _poll_background(self) -> list[Burst]:
        """Hot-swap onto a finished background search, if one landed."""
        if self._retrainer is None or self._pending is None:
            return []
        structure = self._retrainer.poll()
        if structure is None:
            return []
        reason, mu, sigma = self._pending
        self._pending = None
        return self._handover(structure, reason, mu, sigma)

    def _handover(
        self,
        structure: SATStructure,
        reason: str,
        reference_mu: float,
        reference_sigma: float,
    ) -> list[Burst]:
        """Swap detection onto ``structure`` at the current boundary."""
        # Flush the outgoing era: it owns every window ending before the
        # boundary.
        tail = self._emit(self._detector.finish())
        self.eras[-1].end = self._length
        # Warm handover: preload enough history that windows spanning the
        # boundary aggregate exactly.
        detector = ChunkedDetector(structure, self.thresholds, self.aggregate)
        history = self._buffer  # already bounded to self._keep
        detector.preload(history)
        self._detector = detector
        self._detector_offset = self._length - history.size
        self._era_start = self._length
        self.eras.append(
            Era(self._length, structure, detector.counters, reason)
        )
        self._monitor.reset(reference_mu, reference_sigma)
        return tail

    def describe(self) -> str:
        """Human-readable era history."""
        lines = []
        for era in self.eras:
            end = era.end if era.end is not None else self._length
            lines.append(
                f"era @{era.start:>9,d}..{end:>9,d} ({era.reason:<8s}) "
                f"levels={era.structure.num_levels:<2d} "
                f"ops={era.counters.total_operations:,d}"
            )
        return "\n".join(lines)
