"""Brute-force oracles and cross-backend differential runners.

The oracles are deliberately dumb: every window (or box) is aggregated
from scratch, with no shared state, no trees and no incremental updates —
if a clever backend and the oracle disagree, the clever backend is wrong.

:func:`differential_check` is the harness core: it executes one
:class:`~repro.testkit.generators.FuzzCase` through every requested
backend and diffs the resulting burst sets (and, where the contract
promises it, the RAM-model operation counters) against the vectorized
naive reference.  Backends never share detector instances, so a stateful
bug in one cannot mask a bug in another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.adaptive import AdaptiveConfig, AdaptiveDetector
from ..core.aggregates import AggregateFunction
from ..core.chunked import ChunkedDetector
from ..core.detector import StreamingDetector
from ..core.kernel import numba_available
from ..core.events import Burst, BurstSet
from ..core.naive import NaiveDetector, naive_detect
from ..core.search import SearchParams
from ..core.thresholds import ThresholdModel
from ..ingest.ledger import BurstAmended, BurstRetracted
from .generators import FuzzCase

__all__ = [
    "BACKENDS",
    "Mismatch",
    "brute_force_bursts",
    "brute_force_spatial_bursts",
    "default_backends",
    "diff_burst_sets",
    "differential_check",
    "fault_plan_check",
    "reevaluate_windows",
    "run_backend",
    "spatial_differential_check",
    "worker_sweep_check",
]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def brute_force_bursts(data, thresholds, aggregate="sum"):
    """O(k*N*w) oracle: literally evaluate every window from scratch."""
    data = np.asarray(data, dtype=np.float64)
    out = set()
    for w in thresholds.window_sizes:
        w = int(w)
        f = thresholds.threshold(w)
        for end in range(w - 1, data.size):
            window = data[end - w + 1 : end + 1]
            value = window.sum() if aggregate == "sum" else window.max()
            if value >= f:
                out.add((end, w))
    return out


def brute_force_spatial_bursts(grid, thresholds):
    """O(k * H * W * w^2) 2-D oracle: sum every square region from scratch.

    Returns the set of ``(row, col, size)`` triples whose ``size x size``
    square (top-left corner at ``(row, col)``) meets its size's
    threshold.  No summed-area table, no lattice — just slicing.
    """
    grid = np.asarray(grid, dtype=np.float64)
    height, width = grid.shape
    out = set()
    for w in thresholds.window_sizes:
        w = int(w)
        f = thresholds.threshold(w)
        for r in range(height - w + 1):
            for c in range(width - w + 1):
                if grid[r : r + w, c : c + w].sum() >= f:
                    out.add((r, c, w))
    return out


def reevaluate_windows(
    series: np.ndarray,
    t: int,
    old_bin: float,
    frontier: int,
    thresholds: ThresholdModel,
    aggregate: AggregateFunction,
) -> tuple[
    list[BurstAmended | BurstRetracted],
    list[tuple[tuple[int, int], float | None]],
    int,
]:
    """Scalar oracle for an amendment re-check: one window at a time.

    ``series`` is the sealed series after bin ``t`` was revised from
    ``old_bin``; every window over ``t`` that ends below ``frontier`` is
    reduced from scratch, twice (new bin, then old bin restored), in
    size-then-end order, and run through the ingestor's three-way rule.
    Returns the events in order, the belief updates in order (``None``
    drops the belief), and the number of windows checked —
    :meth:`repro.ingest.StreamIngestor._reevaluate` must reproduce all
    three bit for bit.
    """
    events: list[BurstAmended | BurstRetracted] = []
    updates: list[tuple[tuple[int, int], float | None]] = []
    windows = 0
    for size in thresholds.window_sizes.tolist():
        f = thresholds.threshold(size)
        lo = max(t, size - 1)
        hi = min(t + size - 1, frontier - 1)
        for end in range(lo, hi + 1):
            start = end - size + 1
            window = series[start : end + 1]
            new_val = float(aggregate.reduce(window))
            restored = window.copy()
            restored[t - start] = old_bin
            old_val = float(aggregate.reduce(restored))
            windows += 1
            if old_val < f <= new_val:
                events.append(BurstAmended(end, size, None, new_val))
                updates.append(((end, size), new_val))
            elif new_val < f <= old_val:
                events.append(BurstRetracted(end, size, old_val, new_val))
                updates.append(((end, size), None))
            elif f <= old_val and old_val != new_val:
                events.append(BurstAmended(end, size, old_val, new_val))
                updates.append(((end, size), new_val))
    return events, updates, windows


# ---------------------------------------------------------------------------
# Backend runners
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mismatch:
    """One disagreement between a backend (or relation) and its reference."""

    kind: str  # "differential" | "counters" | "crash" | relation name
    backend: str
    detail: str
    missing: tuple[tuple[int, ...], ...] = ()
    extra: tuple[tuple[int, ...], ...] = ()

    def format(self) -> str:
        parts = [f"[{self.kind}] {self.backend}: {self.detail}"]
        if self.missing:
            parts.append(f"  missing: {sorted(self.missing)[:8]}")
        if self.extra:
            parts.append(f"  extra:   {sorted(self.extra)[:8]}")
        return "\n".join(parts)


def _run_naive(case: FuzzCase) -> BurstSet:
    spec = case.spec
    return naive_detect(case.stream, spec.thresholds, spec.aggregate)


def _run_naive_stream(case: FuzzCase) -> BurstSet:
    """Incremental naive detector fed through the case's chunk partition."""
    det = NaiveDetector(case.spec.thresholds, case.spec.aggregate)
    bursts = _feed(det, case)
    return BurstSet(bursts)


def _run_streaming(case: FuzzCase) -> BurstSet:
    det = _make(StreamingDetector, case)
    return BurstSet(_feed(det, case))


def _run_chunked(case: FuzzCase) -> BurstSet:
    det = _make(ChunkedDetector, case)
    return det.detect(case.stream)


def _run_chunked_sweep(case: FuzzCase) -> BurstSet:
    det = _make(ChunkedDetector, case)
    return BurstSet(_feed(det, case))


def _run_chunked_numba(case: FuzzCase) -> BurstSet:
    """Chunked detector forced onto the compiled numba kernel."""
    det = _make(ChunkedDetector, case, backend="numba")
    return BurstSet(_feed(det, case))


def _run_adaptive(case: FuzzCase) -> BurstSet:
    """Adaptive detector tuned to actually retrain mid-stream."""
    stream = case.stream
    if stream.size < 8:
        return _run_naive(case)  # nothing to adapt; trivially equal
    training = stream[: max(2, stream.size // 3)]
    config = AdaptiveConfig(
        relative_tolerance=0.25,
        min_era_points=8,
        retrain_window=max(2, training.size),
        retrain_period=max(16, stream.size // 3),
        search_params=SearchParams(
            max_same_size_states=6,
            max_final_states=6,
            max_expansions=40,
            patience=5,
        ),
    )
    det = AdaptiveDetector(
        case.spec.thresholds, training, config, case.spec.aggregate
    )
    return BurstSet(_feed(det, case))


def _make(cls, case: FuzzCase, backend: str | None = None):
    spec = case.spec
    kwargs = {} if backend is None else {"backend": backend}
    return cls(
        spec.structure,
        spec.thresholds,
        spec.aggregate,
        refine_filter=case.refine_filter,
        **kwargs,
    )


def _feed(det, case: FuzzCase) -> list[Burst]:
    """Drive a process/finish detector through the case's partition."""
    bursts: list[Burst] = []
    lo = 0
    for size in case.chunks:
        bursts.extend(det.process(case.stream[lo : lo + size]))
        lo += size
    if lo < case.stream.size:  # partition shorter than stream (shrunk)
        bursts.extend(det.process(case.stream[lo:]))
    bursts.extend(det.finish())
    return bursts


#: name -> runner.  "naive" is the reference; the rest must agree with it.
BACKENDS: dict[str, Callable[[FuzzCase], BurstSet]] = {
    "naive": _run_naive,
    "naive-stream": _run_naive_stream,
    "streaming": _run_streaming,
    "chunked": _run_chunked,
    "chunked-sweep": _run_chunked_sweep,
    "chunked-numba": _run_chunked_numba,
    "adaptive": _run_adaptive,
}

#: Backends cheap enough to run on every fuzz case.
DEFAULT_BACKENDS: tuple[str, ...] = (
    "naive-stream",
    "streaming",
    "chunked",
    "chunked-sweep",
)


def default_backends(numba: bool | None = None) -> tuple[str, ...]:
    """The cheap battery, optionally including the compiled kernel.

    ``numba=None`` (the default) includes ``chunked-numba`` exactly when
    numba is importable and not disabled via ``REPRO_DISABLE_NUMBA``, so
    every differential run automatically covers the native kernel on
    machines that have it without failing on machines that don't.
    """
    if numba is None:
        numba = numba_available()
    if numba:
        return DEFAULT_BACKENDS + ("chunked-numba",)
    return DEFAULT_BACKENDS


def run_backend(case: FuzzCase, backend: str) -> BurstSet:
    """Execute one backend on a case (fresh detector every call)."""
    return BACKENDS[backend](case)


def diff_burst_sets(
    reference: BurstSet,
    candidate: BurstSet,
    *,
    compare_values: bool = True,
) -> tuple[tuple, tuple, list[str]]:
    """(missing keys, extra keys, value disagreements on shared keys)."""
    ref_keys = reference.keys()
    cand_keys = candidate.keys()
    missing = tuple(sorted(ref_keys - cand_keys))
    extra = tuple(sorted(cand_keys - ref_keys))
    value_errors: list[str] = []
    if compare_values:
        ref_by_key = {b.key(): b.value for b in reference}
        for b in candidate:
            want = ref_by_key.get(b.key())
            if want is not None and b.value != want:
                value_errors.append(
                    f"value at {b.key()}: {b.value!r} != {want!r}"
                )
    return missing, extra, value_errors


def differential_check(
    case: FuzzCase,
    backends: Sequence[str] = DEFAULT_BACKENDS,
) -> list[Mismatch]:
    """Run every backend against the naive reference; collect disagreements.

    Also asserts the documented counter contract: the streaming and
    chunked detectors perform *identical* RAM-model operation counts on
    identical input, regardless of chunk partition.
    """
    out: list[Mismatch] = []
    reference = _run_naive(case)
    detectors: dict[str, object] = {}
    for name in backends:
        try:
            if name in _COUNTED:
                det = _make(
                    StreamingDetector if name == "streaming" else ChunkedDetector,
                    case,
                    backend="numba" if name == "chunked-numba" else None,
                )
                if name == "chunked":
                    got = det.detect(case.stream)
                else:
                    got = BurstSet(_feed(det, case))
                detectors[name] = det
            else:
                got = run_backend(case, name)
        except Exception as exc:  # noqa: BLE001 - crashes are findings
            out.append(
                Mismatch("crash", name, f"{type(exc).__name__}: {exc}")
            )
            continue
        missing, extra, value_errors = diff_burst_sets(reference, got)
        if missing or extra or value_errors:
            detail = f"{len(missing)} missing / {len(extra)} extra bursts"
            if value_errors:
                detail += f"; {value_errors[0]}"
            out.append(
                Mismatch("differential", name, detail, missing, extra)
            )
    out.extend(_counter_check(detectors))
    return out


#: Backends whose RAM-model counters must match the streaming detector
#: field-for-field (the kernel contract: candidates may be collected
#: natively, but every operation is still charged identically).
_COUNTED: tuple[str, ...] = (
    "streaming",
    "chunked",
    "chunked-sweep",
    "chunked-numba",
)


def _counter_check(detectors: dict[str, object]) -> list[Mismatch]:
    """Streaming/chunked counters must agree field-for-field."""
    names = [n for n in _COUNTED if n in detectors]
    if len(names) < 2:
        return []
    base = detectors[names[0]].counters
    out: list[Mismatch] = []
    for name in names[1:]:
        c = detectors[name].counters
        for fname in ("updates", "filter_comparisons", "alarms", "search_cells"):
            a = getattr(base, fname)
            b = getattr(c, fname)
            if not np.array_equal(a, b):
                out.append(
                    Mismatch(
                        "counters",
                        name,
                        f"{fname} diverges from {names[0]}: "
                        f"{b.tolist()} != {a.tolist()}",
                    )
                )
                break
        else:
            if base.bursts != c.bursts:
                out.append(
                    Mismatch(
                        "counters",
                        name,
                        f"bursts counter {c.bursts} != {base.bursts}",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# Worker-count sweep (parallel runtime)
# ---------------------------------------------------------------------------

def worker_sweep_check(
    case: FuzzCase,
    worker_counts: Iterable[int] = (1, 2),
    streams_per_portfolio: int = 3,
) -> list[Mismatch]:
    """Parallel shared-memory backend vs serial, across pool sizes.

    Builds a small portfolio from rotations of the case stream (distinct
    per-stream content, shared spec) and requires byte-identical bursts
    and per-stream counters between the serial manager and pools of every
    requested size.
    """
    from ..runtime.parallel import ParallelMultiStreamDetector

    spec = case.spec
    data = {
        f"s{i}": np.roll(case.stream, i * 7)
        for i in range(streams_per_portfolio)
    }

    def run(workers) -> tuple[dict[str, BurstSet], dict]:
        det = ParallelMultiStreamDetector.shared(
            list(data),
            spec.structure,
            spec.thresholds,
            workers=workers,
            aggregate=spec.aggregate,
            refine_filter=case.refine_filter,
        )
        with det:
            got = det.detect(data, chunk_size=max(1, case.stream.size // 3 or 1))
            merged = det.merged_counters()
        return got, merged

    out: list[Mismatch] = []
    try:
        ref_sets, ref_counters = run("serial")
    except Exception as exc:  # noqa: BLE001
        return [Mismatch("crash", "parallel/serial", f"{type(exc).__name__}: {exc}")]
    for w in worker_counts:
        try:
            got_sets, got_counters = run(int(w))
        except Exception as exc:  # noqa: BLE001
            out.append(
                Mismatch("crash", f"parallel/{w}", f"{type(exc).__name__}: {exc}")
            )
            continue
        for name in data:
            missing, extra, value_errors = diff_burst_sets(
                ref_sets[name], got_sets[name]
            )
            if missing or extra or value_errors:
                out.append(
                    Mismatch(
                        "differential",
                        f"parallel/{w}:{name}",
                        f"{len(missing)} missing / {len(extra)} extra",
                        missing,
                        extra,
                    )
                )
        for fname in ("updates", "filter_comparisons", "alarms", "search_cells"):
            if not np.array_equal(
                getattr(ref_counters, fname), getattr(got_counters, fname)
            ):
                out.append(
                    Mismatch(
                        "counters",
                        f"parallel/{w}",
                        f"merged {fname} diverges from serial",
                    )
                )
                break
    return out


# ---------------------------------------------------------------------------
# Fault-injection differential (supervised parallel runtime)
# ---------------------------------------------------------------------------

def fault_plan_check(
    case: FuzzCase,
    plan=None,
    rng: np.random.Generator | None = None,
    streams_per_portfolio: int = 3,
) -> list[Mismatch]:
    """Fault-injected parallel runs vs serial, under both recovery policies.

    Builds the same rotated portfolio as :func:`worker_sweep_check`,
    computes the serial reference, then replays the run through a
    two-worker pool with the given (or freshly drawn) ``FaultPlan``
    injected, once under ``faults="restart"`` (crashed/hung workers are
    revived and replayed from checkpoints) and once under
    ``faults="degrade"`` with a zero restart budget (the first fault
    folds the pool back to in-process serial mid-run).  Both must be
    byte-identical to the reference — bursts *and* merged counters — or
    the recovery path lost or duplicated work.
    """
    from ..runtime.parallel import ParallelMultiStreamDetector
    from ..runtime.supervisor import SupervisorPolicy
    from .generators import random_fault_plan

    spec = case.spec
    data = {
        f"s{i}": np.roll(case.stream, i * 7)
        for i in range(streams_per_portfolio)
    }
    chunk = max(1, case.stream.size // 3 or 1)
    n_rounds = max(1, -(-case.stream.size // chunk))
    if plan is None:
        if rng is None:
            raise ValueError("fault_plan_check needs a plan or an rng")
        plan = random_fault_plan(rng, n_rounds, 2, tuple(data))

    def run(faults, policy, inject) -> tuple[dict[str, BurstSet], dict]:
        det = ParallelMultiStreamDetector.shared(
            list(data),
            spec.structure,
            spec.thresholds,
            workers="serial" if faults is None else 2,
            aggregate=spec.aggregate,
            refine_filter=case.refine_filter,
            faults=faults or "raise",
            supervision=policy,
            fault_plan=plan if inject else None,
        )
        with det:
            got = det.detect(data, chunk_size=chunk)
            merged = det.merged_counters()
        return got, merged

    out: list[Mismatch] = []
    try:
        ref_sets, ref_counters = run(None, None, False)
    except Exception as exc:  # noqa: BLE001
        return [
            Mismatch("crash", "faults/serial", f"{type(exc).__name__}: {exc}")
        ]
    policies = {
        # Budget scaled to the plan: every drawn fault may cost one
        # restart of the same worker, and exhausting the budget is a
        # legitimate failure (degrade territory), not a finding.
        "restart": SupervisorPolicy(
            deadline=5.0,
            term_grace=0.5,
            max_restarts=max(2, len(plan.faults)),
            backoff_base=0.01,
            backoff_cap=0.05,
        ),
        "degrade": SupervisorPolicy(
            deadline=5.0,
            term_grace=0.5,
            max_restarts=0,
            backoff_base=0.01,
            backoff_cap=0.05,
        ),
    }
    for faults, policy in policies.items():
        label = f"faults/{faults}[{plan}]"
        try:
            got_sets, got_counters = run(faults, policy, True)
        except Exception as exc:  # noqa: BLE001
            out.append(
                Mismatch("crash", label, f"{type(exc).__name__}: {exc}")
            )
            continue
        for name in data:
            missing, extra, value_errors = diff_burst_sets(
                ref_sets[name], got_sets[name]
            )
            if missing or extra or value_errors:
                out.append(
                    Mismatch(
                        "differential",
                        f"{label}:{name}",
                        f"{len(missing)} missing / {len(extra)} extra",
                        missing,
                        extra,
                    )
                )
        for fname in ("updates", "filter_comparisons", "alarms", "search_cells"):
            if not np.array_equal(
                getattr(ref_counters, fname), getattr(got_counters, fname)
            ):
                out.append(
                    Mismatch(
                        "counters",
                        label,
                        f"merged {fname} diverges from serial",
                    )
                )
                break
        else:
            if ref_counters.bursts != got_counters.bursts:
                out.append(
                    Mismatch(
                        "counters",
                        label,
                        f"merged bursts counter {got_counters.bursts} "
                        f"!= {ref_counters.bursts}",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# Spatial differential
# ---------------------------------------------------------------------------

def spatial_differential_check(
    grid: np.ndarray,
    thresholds: ThresholdModel,
    *,
    max_brute_cells: int = 200_000,
) -> list[Mismatch]:
    """2-D detectors vs the literal square-summing oracle.

    Diffs :func:`~repro.spatial.detector2d.naive_spatial_detect` and
    :class:`~repro.spatial.detector2d.SpatialDetector` (refinement on and
    off) against :func:`brute_force_spatial_bursts`.
    """
    from ..spatial.detector2d import SpatialDetector, naive_spatial_detect
    from ..spatial.structure2d import spatial_binary_structure

    grid = np.asarray(grid, dtype=np.float64)
    cost = grid.size * int(thresholds.window_sizes.size)
    if cost > max_brute_cells:
        raise ValueError("grid too large for the brute-force oracle")
    reference = brute_force_spatial_bursts(grid, thresholds)

    candidates: dict[str, Callable[[], set]] = {
        "naive2d": lambda: set(
            b.key() for b in naive_spatial_detect(grid, thresholds)
        )
    }
    if thresholds.max_window >= 2:
        structure = spatial_binary_structure(thresholds.max_window)
        for refine in (True, False):
            name = f"spatial2d/refine={refine}"
            candidates[name] = (
                lambda refine=refine: set(
                    b.key()
                    for b in SpatialDetector(
                        structure, thresholds, refine_filter=refine
                    ).detect(grid)
                )
            )
    out: list[Mismatch] = []
    for name, runner in candidates.items():
        try:
            got = runner()
        except Exception as exc:  # noqa: BLE001
            out.append(Mismatch("crash", name, f"{type(exc).__name__}: {exc}"))
            continue
        missing = tuple(sorted(reference - got))
        extra = tuple(sorted(got - reference))
        if missing or extra:
            out.append(
                Mismatch(
                    "differential",
                    name,
                    f"{len(missing)} missing / {len(extra)} extra boxes",
                    missing,
                    extra,
                )
            )
    return out
