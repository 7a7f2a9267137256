"""Vectorized chunked detector — the high-throughput SAT implementation.

Semantically identical to :class:`repro.core.detector.StreamingDetector`
(same bursts, same operation counts), but node updates and trigger
comparisons for a whole chunk of the stream run through the fused scan
kernel in :mod:`repro.core.kernel`: one pass over a level-major packed
layout that performs the SAT node update, the threshold comparison, and
alarm-candidate collection together, in either a numba-compiled loop
(``backend="numba"``) or NumPy batch operations (``backend="numpy"``).
Python-level work happens only for nodes that actually alarm — since
the whole point of a good SAT is to make alarms rare, the detector
comfortably sustains hundreds of thousands of points per second even
for dense structures, and millions with the native kernel.

This is the detector the benchmark harness times: operation counts are the
hardware-independent cost metric (the paper's RAM model), wall time of this
detector is the hardware-dependent one.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType

import numpy as np

from .aggregates import SUM, AggregateFunction, aggregate_by_name
from .dsr import LevelPlan, build_plans, find_triggered, search_dsr
from .events import Burst, BurstSet
from .kernel import (
    KernelLayout,
    KernelScratch,
    grow_capacity,
    load_native,
    resolve_backend,
    scan_chunk,
)
from .opcount import OpCounters
from .structure import SATStructure
from .thresholds import ThresholdModel

__all__ = [
    "ChunkedDetector",
    "DetectorCarry",
    "initial_carry",
    "DEFAULT_CHUNK",
]

#: Default chunk length for :meth:`ChunkedDetector.detect`.
DEFAULT_CHUNK = 1 << 16


@dataclass(frozen=True)
class DetectorCarry:
    """Resumable snapshot of a :class:`ChunkedDetector` at a chunk boundary.

    The carry is everything a detector needs to continue a stream as if it
    had processed it from the start: the aggregate engine's trailing state
    (a ``history``-bounded tail of floats — a few KiB for realistic SATs)
    and the operation counters accumulated so far.  It is deliberately
    small and picklable: the fault-tolerant runtime ships one per stream
    over a pipe at every chunk boundary and replays from it after a worker
    crash (see :mod:`repro.runtime.supervisor`).

    ``tail`` holds prefix sums for ``sum`` engines and raw stream values
    for ``max`` engines; ``offset`` is the global index of its first entry.
    Restoring a carry and appending the same future chunks is proven
    byte-identical to never having stopped (tested per engine).
    """

    length: int
    aggregate: str
    offset: int
    tail: np.ndarray
    counters: OpCounters


def initial_carry(
    structure: SATStructure, aggregate: AggregateFunction
) -> DetectorCarry:
    """The carry of a detector that has not consumed any points yet."""
    engine = aggregate.make_engine(structure.top.size + structure.top.shift)
    offset, tail = engine.snapshot()
    return DetectorCarry(
        length=0,
        aggregate=aggregate.name,
        offset=offset,
        tail=tail,
        counters=OpCounters(structure.num_levels),
    )


class ChunkedDetector:
    """Elastic burst detector over a SAT, vectorized per chunk.

    The public interface mirrors :class:`StreamingDetector`: feed chunks
    with :meth:`process`, flush with :meth:`finish`, or use :meth:`detect`
    for a complete array.  ``counters`` carries the per-level operation
    counts of the run.

    ``backend`` selects the fused-scan implementation: ``"numba"`` (the
    compiled kernel, requires the ``speed`` extra), ``"numpy"`` (the
    pure-NumPy pass), or ``"auto"`` (numba when available, NumPy
    otherwise).  Both backends are byte-identical — bursts and counters
    — so the choice is purely about wall-clock speed.
    """

    def __init__(
        self,
        structure: SATStructure,
        thresholds: ThresholdModel,
        aggregate: AggregateFunction = SUM,
        refine_filter: bool = True,
        backend: str = "auto",
    ) -> None:
        self.structure = structure
        self.thresholds = thresholds
        self.aggregate = aggregate
        #: When False, an alarm searches the level's whole detailed search
        #: region instead of binary-searching for the largest triggered
        #: size first (paper §3.2) — kept as an ablation switch.
        self.refine_filter = refine_filter
        #: The backend as requested; :attr:`resolved_backend` is what runs.
        self.backend = backend
        self._resolved = resolve_backend(backend)
        self._native: ModuleType | None = (
            load_native() if self._resolved == "numba" else None
        )
        self.plans = build_plans(structure, thresholds)
        self.counters = OpCounters(structure.num_levels)
        history = structure.top.size + structure.top.shift
        self._engine = aggregate.make_engine(history)
        self._check_size_one = 1 in thresholds
        self._f1 = thresholds.threshold(1) if self._check_size_one else None
        self._finished = False
        self._layout = KernelLayout(
            self.plans, structure.num_levels, self._check_size_one, self._f1
        )
        # Kernel scratch, lazily sized to the largest chunk seen.
        self._scratch: KernelScratch | None = None

    @property
    def resolved_backend(self) -> str:
        """The backend actually running (``"numba"`` or ``"numpy"``)."""
        return self._resolved

    @property
    def length(self) -> int:
        """Stream points consumed so far."""
        return self._engine.length

    def preload(self, history: np.ndarray) -> None:
        """Warm the detector with history that must NOT be re-detected.

        Appends ``history`` to the aggregate engine without running any
        detection over it: subsequent :meth:`process` calls can then
        evaluate windows reaching back into the preloaded region.  Used
        when handing a live stream over to a freshly (re)trained detector
        — see :class:`repro.core.adaptive.AdaptiveDetector`.  Only legal
        before the first :meth:`process`.
        """
        if self._engine.length:
            raise RuntimeError("preload() must precede the first process()")
        history = np.asarray(history, dtype=np.float64)
        self._engine.append(history)

    def amend(self, index: int, value: float) -> None:
        """Rewrite the consumed stream value at ``index`` (set semantics).

        The out-of-order ingestion layer's straggler hook
        (:mod:`repro.ingest`): when a late record changes a bin the
        detector has already processed, windows *not yet* scanned must
        aggregate the corrected value.  Delegates to
        :meth:`~repro.core.aggregates.WindowEngine.amend`, so the effect
        is exactly as if the stream had carried ``value`` at ``index``
        all along for every window end processed after this call.
        Windows already reported are NOT re-detected here — re-checking
        sealed windows (and emitting amendment events for them) is the
        ingestion layer's job, where the sealed series lives.
        """
        if self._finished:
            raise RuntimeError("cannot amend() a finished detector")
        self._engine.amend(index, value)

    def carry(self) -> DetectorCarry:
        """Checkpoint the detector's resumable state at a chunk boundary."""
        if self._finished:
            raise RuntimeError("cannot carry() a finished detector")
        offset, tail = self._engine.snapshot()
        return DetectorCarry(
            length=self._engine.length,
            aggregate=self.aggregate.name,
            offset=offset,
            tail=tail,
            counters=self.counters.copy(),
        )

    def restore_carry(self, carry: DetectorCarry) -> None:
        """Resume from a :meth:`carry` checkpoint.

        Only legal on a fresh detector (before the first :meth:`process` or
        :meth:`preload`); subsequent chunks produce bursts and counters
        byte-identical to a detector that processed the whole stream.
        """
        if self._finished or self._engine.length:
            raise RuntimeError(
                "restore_carry() must precede the first process()"
            )
        if carry.aggregate != self.aggregate.name:
            raise ValueError(
                f"carry is for aggregate {carry.aggregate!r}, "
                f"detector uses {self.aggregate.name!r}"
            )
        self._engine.restore(carry.offset, carry.tail, carry.length)
        self.counters = carry.counters.copy()

    @classmethod
    def from_carry(
        cls,
        structure: SATStructure,
        thresholds: ThresholdModel,
        carry: DetectorCarry,
        refine_filter: bool = True,
        backend: str = "auto",
    ) -> "ChunkedDetector":
        """Build a detector resumed from ``carry``."""
        det = cls(
            structure,
            thresholds,
            aggregate_by_name(carry.aggregate),
            refine_filter,
            backend,
        )
        det.restore_carry(carry)
        return det

    def process(self, chunk: np.ndarray) -> list[Burst]:
        """Consume the next chunk of the stream; return bursts found in it."""
        if self._finished:
            raise RuntimeError("detector already finished; create a new one")
        chunk = np.asarray(chunk, dtype=np.float64)
        scratch = self._scratch
        if scratch is None or chunk.size > scratch.capacity:
            scratch = self._scratch = KernelScratch(
                self._layout, grow_capacity(chunk.size)
            )
        start = self._engine.length
        self._engine.append(chunk)
        if self._native is not None:
            self._scan_native(scratch, start, chunk)
        else:
            scan_chunk(self._engine, self._layout, scratch, start, chunk)
        return self._refine_candidates(scratch)

    def _scan_native(
        self, scratch: KernelScratch, start: int, chunk: np.ndarray
    ) -> None:
        """Run the compiled fused scan over the engine's raw state."""
        end = start + chunk.size
        kind, state, state_offset = self._engine.kernel_state()
        # The compiled loops index the state buffer unchecked; enforce
        # the engine's retained-history contract up front (the NumPy
        # path gets the same check inside WindowEngine.values).
        for plan in self.plans:
            shift = plan.shift
            first = ((start + shift) // shift) * shift - 1
            if first < end and max(0, first + 1 - plan.size) < state_offset:
                raise IndexError(
                    "window reaches behind retained history "
                    f"(oldest retained index {state_offset})"
                )
        layout = self._layout
        native = self._native
        assert native is not None
        if kind == "sum":
            native.scan_sum(
                state,
                state_offset,
                start,
                end,
                chunk,
                layout.check_size_one,
                layout.f1,
                layout.levels,
                layout.shifts,
                layout.sizes,
                layout.active,
                layout.min_thresholds,
                scratch.update_counts,
                scratch.filter_counts,
                scratch.cand_ends,
                scratch.cand_values,
                scratch.cand_offsets,
            )
        elif kind == "max":
            native.scan_max(
                state,
                state_offset,
                start,
                end,
                chunk,
                layout.check_size_one,
                layout.f1,
                layout.levels,
                layout.shifts,
                layout.sizes,
                layout.active,
                layout.min_thresholds,
                scratch.update_counts,
                scratch.filter_counts,
                scratch.cand_ends,
                scratch.cand_values,
                scratch.cand_offsets,
                scratch.deque_idx,
            )
        else:
            raise ValueError(
                f"no native kernel for engine state kind {kind!r}; "
                "use backend='numpy'"
            )

    def _refine_candidates(self, scratch: KernelScratch) -> list[Burst]:
        """Turn the kernel's candidate segments into bursts.

        Consumes the CSR candidate buffers in row order (level 0 first,
        then plans in order), charging counters exactly as the
        pre-kernel per-plan loop did: the kernel reports node updates
        and trigger comparisons; alarms and the detailed search stay in
        Python where :func:`search_dsr` refinement runs.
        """
        counters = self.counters
        # A detector restored from a carry taken under a deeper structure
        # keeps the carried counters, which then have MORE levels than
        # the current structure; the extra trailing levels simply stop
        # accumulating.
        n = scratch.update_counts.size
        counters.updates[:n] += scratch.update_counts
        counters.filter_comparisons[:n] += scratch.filter_counts
        offsets = scratch.cand_offsets
        out: list[Burst] = []
        for i in range(int(offsets[1])):
            out.append(
                Burst(
                    int(scratch.cand_ends[i]),
                    1,
                    float(scratch.cand_values[i]),
                )
            )
            counters.bursts += 1
        for r, plan in enumerate(self.plans):
            if not plan.active:
                continue
            lo = int(offsets[r + 1])
            hi = int(offsets[r + 2])
            counters.alarms[plan.level] += hi - lo
            if hi == lo:
                continue
            ends = scratch.cand_ends[lo:hi]
            values = scratch.cand_values[lo:hi]
            if plan.monotone:
                self._search_alarms_batched(plan, ends, values, out)
            else:
                # Non-monotone thresholds: rare; per-alarm linear scan.
                for k in range(hi - lo):
                    value = float(values[k])
                    sizes, size_thresholds = (
                        find_triggered(plan, value, counters)
                        if self.refine_filter
                        else (plan.sizes, plan.thresholds)
                    )
                    search_dsr(
                        self._engine,
                        plan,
                        int(ends[k]),
                        plan.shift,
                        sizes,
                        size_thresholds,
                        counters,
                        out,
                    )
        return out

    # Alarms per vectorized DSR batch; bounds the grid working set to
    # roughly BATCH * shift * |sizes| floats.
    _ALARM_BATCH = 2048

    def _search_alarms_batched(
        self,
        plan: LevelPlan,
        alarm_ends: np.ndarray,
        alarm_values: np.ndarray,
        out: list[Burst],
    ) -> None:
        """Detailed-search all alarmed nodes of one level in batch.

        Semantically identical to calling :func:`find_triggered` +
        :func:`search_dsr` per alarm (identical bursts and operation
        counts — see the equivalence tests), but one set of NumPy calls
        per level instead of per alarm.
        """
        counters = self.counters
        s = plan.shift
        level = plan.level
        n_sizes = int(plan.sizes.size)
        for lo in range(0, alarm_ends.size, self._ALARM_BATCH):
            ends = alarm_ends[lo : lo + self._ALARM_BATCH]
            values = alarm_values[lo : lo + self._ALARM_BATCH]
            a = ends.size
            if self.refine_filter:
                # Largest triggered size per alarm (binary search).
                cuts = np.searchsorted(
                    plan.thresholds, values, side="right"
                )
                counters.filter_comparisons[level] += a * n_sizes.bit_length()
            else:
                cuts = np.full(a, n_sizes, dtype=np.int64)
            max_cut = int(cuts.max())
            sizes = plan.sizes[:max_cut]
            fs = plan.thresholds[:max_cut]
            # Every DSR cell of every alarmed node: (size, alarm, offset).
            cell_ends = ends[:, None] + np.arange(1 - s, 1, dtype=np.int64)
            grid = self._engine.values_grid(cell_ends.ravel(), sizes)
            grid = grid.reshape(max_cut, a, s)
            valid = cell_ends[None, :, :] >= (sizes[:, None, None] - 1)
            allowed = np.arange(max_cut)[:, None] < cuts[None, :]
            mask = valid & allowed[:, :, None]
            counters.search_cells[level] += int(np.count_nonzero(mask))
            hits = mask & (grid >= fs[:, None, None])
            if not hits.any():
                continue
            for i, k, j in zip(*np.nonzero(hits)):
                out.append(
                    Burst(
                        int(cell_ends[k, j]),
                        int(sizes[i]),
                        float(grid[i, k, j]),
                    )
                )
                counters.bursts += 1

    def finish(self) -> list[Burst]:
        """Flush the stream tail (one final node per level, as needed)."""
        if self._finished:
            raise RuntimeError("finish() already called")
        self._finished = True
        n = self._engine.length
        out: list[Burst] = []
        if n == 0:
            return out
        last = n - 1
        counters = self.counters
        for plan in self.plans:
            if n % plan.shift == 0:
                continue
            tail_span = n % plan.shift
            value = self._engine.value(last, plan.size)
            counters.updates[plan.level] += 1
            if not plan.active:
                continue
            counters.filter_comparisons[plan.level] += 1
            if value < plan.min_threshold:
                continue
            counters.alarms[plan.level] += 1
            sizes, size_thresholds = (
                find_triggered(plan, value, counters)
                if self.refine_filter
                else (plan.sizes, plan.thresholds)
            )
            search_dsr(
                self._engine,
                plan,
                last,
                tail_span,
                sizes,
                size_thresholds,
                counters,
                out,
            )
        return out

    def detect(
        self, data: np.ndarray, chunk_size: int = DEFAULT_CHUNK
    ) -> BurstSet:
        """Process ``data`` in chunks of ``chunk_size`` and return all bursts."""
        data = np.asarray(data, dtype=np.float64)
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        bursts: list[Burst] = []
        for lo in range(0, data.size, chunk_size):
            bursts.extend(self.process(data[lo : lo + chunk_size]))
        bursts.extend(self.finish())
        return BurstSet(bursts)
