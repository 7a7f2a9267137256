"""Seeded random stream families and detector specs for the fuzz harness.

Everything here is driven by an explicit ``numpy`` ``Generator`` — the
testkit never touches global random state or the wall clock, so a
``(seed, case index)`` pair reproduces a case exactly.

Two design rules make the differential layer airtight:

* **Dyadic streams.** Every generated value is a non-negative multiple of
  ``QUANTUM`` (``2**-10``).  Sums of such values are *exact* in float64
  (until far beyond any stream the harness generates), so prefix-sum
  engines, sliding kernels, summed-area tables and literal Python loops
  all compute bit-identical aggregates — backends can be compared with
  ``==``, with no tolerance to hide real off-by-one bugs behind.

* **Adversarial ties are safe.** Because aggregates are exact, a
  threshold placed *exactly at* an observed window value (the ``tie``
  threshold mode) is met by every backend or by none — the ``>=``
  boundary is fuzzable instead of flaky.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..core.aggregates import sliding_aggregate
from ..core.sbt import shifted_binary_tree
from ..core.structure import SATStructure, single_level_structure
from ..core.thresholds import (
    FixedThresholds,
    NormalThresholds,
    all_sizes,
    stepped_sizes,
)
from ..io.spec import DetectorSpec

__all__ = [
    "QUANTUM",
    "FuzzCase",
    "STREAM_FAMILIES",
    "quantize",
    "random_case",
    "random_fault_plan",
    "random_partition",
    "random_sat",
    "random_spec",
    "random_spatial_thresholds",
    "random_stream",
    "random_grid",
    "refit_partition",
]

#: Streams are quantized to this grid so all aggregates are exact.
QUANTUM = float(2.0**-10)


def quantize(values: np.ndarray) -> np.ndarray:
    """Clamp to non-negative multiples of :data:`QUANTUM` (float64)."""
    values = np.asarray(values, dtype=np.float64)
    return np.maximum(np.round(values / QUANTUM), 0.0) * QUANTUM


@dataclass(frozen=True, eq=False)
class FuzzCase:
    """One differential-testing input: a stream plus a full detector spec.

    ``chunks`` is the partition (chunk lengths, summing to the stream
    length) used by the chunk-boundary-sweep backends; ``()`` for an
    empty stream.  ``label`` records the generating family and threshold
    mode for triage.
    """

    label: str
    stream: np.ndarray
    spec: DetectorSpec
    refine_filter: bool = True
    chunks: tuple[int, ...] = ()

    def with_stream(self, stream: np.ndarray) -> "FuzzCase":
        """Same spec over a different stream (partition re-fitted)."""
        stream = np.asarray(stream, dtype=np.float64)
        return replace(
            self, stream=stream, chunks=refit_partition(self.chunks, stream.size)
        )

    def with_spec(self, spec: DetectorSpec) -> "FuzzCase":
        """Same stream under a different spec."""
        return replace(self, spec=spec)


# ---------------------------------------------------------------------------
# Stream families
# ---------------------------------------------------------------------------

def _poisson(rng: np.random.Generator, n: int) -> np.ndarray:
    lam = float(10.0 ** rng.uniform(-0.7, 0.9))
    return rng.poisson(lam, n).astype(np.float64)


def _exponential(rng: np.random.Generator, n: int) -> np.ndarray:
    beta = float(10.0 ** rng.uniform(-0.3, 0.6))
    return quantize(rng.exponential(beta, n))


def _bursty(rng: np.random.Generator, n: int) -> np.ndarray:
    """Poisson background with a few planted rectangular bumps."""
    data = rng.poisson(2.0, n).astype(np.float64)
    for _ in range(int(rng.integers(1, 4))):
        width = int(rng.integers(1, max(2, n // 4) + 1))
        start = int(rng.integers(0, max(1, n - width + 1)))
        data[start : start + width] += float(rng.integers(3, 30))
    return data


def _spiky(rng: np.random.Generator, n: int) -> np.ndarray:
    """Mostly zeros with rare tall spikes — exercises the MAX engine."""
    data = np.zeros(n, dtype=np.float64)
    hits = rng.random(n) < 0.05
    data[hits] = rng.integers(1, 200, int(hits.sum())).astype(np.float64)
    return data


def _constant(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.full(n, float(rng.integers(0, 6)), dtype=np.float64)


def _zeros(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.float64)


def _ramp(rng: np.random.Generator, n: int) -> np.ndarray:
    """Sawtooth ramps — adjacent windows differ by exactly one step."""
    period = int(rng.integers(2, 17))
    return np.arange(n, dtype=np.float64) % period


#: name -> (rng, n) -> non-negative dyadic float64 stream
STREAM_FAMILIES: dict[str, Callable[[np.random.Generator, int], np.ndarray]] = {
    "poisson": _poisson,
    "exponential": _exponential,
    "bursty": _bursty,
    "spiky": _spiky,
    "constant": _constant,
    "zeros": _zeros,
    "ramp": _ramp,
}

#: Sampling weights: the structured families carry most of the budget.
_FAMILY_WEIGHTS = {
    "poisson": 0.24,
    "exponential": 0.18,
    "bursty": 0.22,
    "spiky": 0.14,
    "constant": 0.08,
    "zeros": 0.06,
    "ramp": 0.08,
}


def random_stream(
    rng: np.random.Generator, max_points: int = 768
) -> tuple[str, np.ndarray]:
    """Draw a family and a stream of random length (including tiny ones)."""
    names = list(_FAMILY_WEIGHTS)
    weights = np.array([_FAMILY_WEIGHTS[k] for k in names])
    family = str(rng.choice(names, p=weights / weights.sum()))
    # Length: mostly mid-sized, with deliberate mass on degenerate sizes.
    u = rng.random()
    if u < 0.06:
        n = int(rng.integers(0, 4))
    elif u < 0.80:
        n = int(rng.integers(16, max(17, max_points // 3)))
    else:
        n = int(rng.integers(max_points // 3, max_points + 1))
    return family, STREAM_FAMILIES[family](rng, n)


def random_spatial_thresholds(
    rng: np.random.Generator, grid: np.ndarray
) -> FixedThresholds:
    """A per-size threshold table for a 2-D grid (quantiles + exact ties)."""
    from ..spatial.aggregates2d import sliding_box_sum

    side = int(min(grid.shape))
    max_size = int(rng.integers(1, min(side, 12) + 1))
    count = int(rng.integers(1, min(6, max_size) + 1))
    sizes = np.unique(rng.integers(1, max_size + 1, count))
    q = float(rng.uniform(0.85, 1.0))
    table: dict[int, float] = {}
    for w in sizes:
        w = int(w)
        sums = sliding_box_sum(grid, w)
        if sums.size == 0:
            table[w] = float(w * w)
            continue
        if rng.random() < 0.3:  # exact tie on an observed box sum
            table[w] = float(sums.flat[int(rng.integers(0, sums.size))])
        else:
            table[w] = float(np.quantile(sums, q))
    return FixedThresholds(table)


def random_grid(
    rng: np.random.Generator, max_side: int = 20
) -> np.ndarray:
    """A small non-negative integer 2-D grid with optional planted blocks."""
    h = int(rng.integers(1, max_side + 1))
    w = int(rng.integers(1, max_side + 1))
    grid = rng.poisson(1.5, (h, w)).astype(np.float64)
    for _ in range(int(rng.integers(0, 3))):
        side = int(rng.integers(1, max(1, min(h, w) // 2) + 1))
        r = int(rng.integers(0, h - side + 1))
        c = int(rng.integers(0, w - side + 1))
        grid[r : r + side, c : c + side] += float(rng.integers(2, 20))
    return grid


# ---------------------------------------------------------------------------
# Structures, thresholds, specs
# ---------------------------------------------------------------------------

def random_sat(rng: np.random.Generator, max_window: int) -> SATStructure:
    """A random *valid* SAT covering ``max_window``.

    Levels are stacked respecting the three structural constraints
    (strictly growing sizes, dividing shifts, child coverage) until the
    top level's coverage ``size - shift + 1`` reaches ``max_window``.
    """
    pairs: list[tuple[int, int]] = []
    size, shift = 1, 1
    while size - shift + 1 < max_window and len(pairs) < 16:
        mult = int(rng.choice([1, 1, 2, 2, 3]))
        new_shift = shift * mult
        lo = max(size + 1, size + new_shift - 1)
        new_size = lo + int(rng.integers(0, max(2, size)))
        pairs.append((new_size, new_shift))
        size, shift = new_size, new_shift
    if size - shift + 1 < max_window:
        pairs.append((max_window + shift - 1, shift))
    return SATStructure.from_pairs(pairs)


def _random_sizes(rng: np.random.Generator, max_window: int) -> np.ndarray:
    mode = rng.random()
    if mode < 0.45:
        sizes = np.asarray(all_sizes(max_window), dtype=np.int64)
    elif mode < 0.70:
        step = int(rng.integers(2, max(3, max_window // 2) + 1))
        step = min(step, max_window)
        sizes = np.asarray(stepped_sizes(step, max_window), dtype=np.int64)
    else:
        count = int(rng.integers(1, min(12, max_window) + 1))
        sizes = np.unique(rng.integers(1, max_window + 1, count))
        sizes[-1] = max_window  # keep the nominal max in the grid
        sizes = np.unique(sizes)
    return sizes


def _tie_thresholds(
    rng: np.random.Generator,
    stream: np.ndarray,
    sizes: np.ndarray,
    aggregate_name: str,
) -> dict[int, float]:
    """Thresholds placed exactly at (or one ULP above) observed values."""
    from ..core.aggregates import aggregate_by_name

    agg = aggregate_by_name(aggregate_name)
    table: dict[int, float] = {}
    for w in sizes:
        w = int(w)
        values = sliding_aggregate(agg, stream, w)
        if values.size == 0:
            table[w] = float(w)  # no full window; arbitrary but exact
            continue
        pick = float(values[int(rng.integers(0, values.size))])
        if rng.random() < 0.5:
            table[w] = pick  # exact tie: >= must include it
        else:
            # Just above the observed value, but on the dyadic grid:
            # half a quantum stays exact under power-of-two scaling
            # (np.nextafter(0.0, ...) would underflow to 0 when scaled).
            table[w] = pick + QUANTUM / 2.0
    return table


def _quantile_thresholds(
    rng: np.random.Generator,
    stream: np.ndarray,
    sizes: np.ndarray,
    aggregate_name: str,
) -> dict[int, float]:
    from ..core.aggregates import aggregate_by_name

    agg = aggregate_by_name(aggregate_name)
    q = float(rng.uniform(0.80, 1.0))
    table: dict[int, float] = {}
    for w in sizes:
        w = int(w)
        values = sliding_aggregate(agg, stream, w)
        if values.size == 0:
            table[w] = float(w)
            continue
        base = float(np.quantile(values, q))
        jitter = float(rng.normal(0.0, 0.05 * (abs(base) + 1.0)))
        table[w] = base + jitter
    return table


def random_spec(
    rng: np.random.Generator, stream: np.ndarray
) -> tuple[str, DetectorSpec, bool]:
    """Draw a (threshold-mode label, spec, refine_filter) for ``stream``."""
    max_window = int(rng.choice([4, 6, 8, 12, 16, 24, 32, 48, 64]))
    sizes = _random_sizes(rng, max_window)
    aggregate_name = "sum" if rng.random() < 0.7 else "max"

    mode = rng.random()
    if mode < 0.30 and stream.size >= 2:
        kind = "normal"
        prefix = stream[: max(2, stream.size // 2)]
        thresholds = NormalThresholds.from_data(
            prefix, float(rng.choice([1e-2, 1e-3, 1e-4])), sizes
        )
    elif mode < 0.60 and stream.size > 0:
        kind = "tie"
        thresholds = FixedThresholds(
            _tie_thresholds(rng, stream, sizes, aggregate_name)
        )
    elif mode < 0.90 and stream.size > 0:
        kind = "quantile"
        thresholds = FixedThresholds(
            _quantile_thresholds(rng, stream, sizes, aggregate_name)
        )
    else:
        # Synthetic non-monotone table: exercises the linear-scan
        # refinement path and per-level monotone flags.
        kind = "nonmono"
        values = rng.uniform(1.0, 50.0, sizes.size)
        thresholds = FixedThresholds(
            {int(w): float(f) for w, f in zip(sizes, values)}
        )

    pick = rng.random()
    if pick < 0.40:
        structure = shifted_binary_tree(max(2, thresholds.max_window))
    elif pick < 0.85:
        structure = random_sat(rng, thresholds.max_window)
    else:
        structure = single_level_structure(thresholds.max_window)
    refine = bool(rng.random() < 0.8)
    spec = DetectorSpec(
        structure=structure,
        thresholds=thresholds,
        aggregate_name=aggregate_name,
        provenance={"testkit": kind},
    )
    return kind, spec, refine


# ---------------------------------------------------------------------------
# Chunk partitions
# ---------------------------------------------------------------------------

def random_partition(
    rng: np.random.Generator, n: int
) -> tuple[int, ...]:
    """Chunk lengths summing to ``n``; may include empty chunks."""
    if n == 0:
        return ()
    mode = rng.random()
    if mode < 0.15:
        return (n,)  # one shot
    if mode < 0.35 and n <= 256:
        # Tiny chunks stress every boundary.
        size = int(rng.integers(1, 4))
        chunks = [size] * (n // size)
        if n % size:
            chunks.append(n % size)
        return tuple(chunks)
    cuts = np.sort(rng.integers(0, n + 1, int(rng.integers(1, 9))))
    bounds = np.concatenate(([0], cuts, [n]))
    return tuple(int(b - a) for a, b in zip(bounds[:-1], bounds[1:]))


def refit_partition(chunks: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Clip a partition to a shrunken stream of ``n`` points."""
    if n == 0:
        return ()
    out: list[int] = []
    remaining = n
    for c in chunks:
        take = min(c, remaining)
        out.append(take)
        remaining -= take
        if remaining == 0:
            break
    if remaining:
        out.append(remaining)
    return tuple(out)


def random_case(
    rng: np.random.Generator, max_points: int = 768
) -> FuzzCase:
    """One complete differential-testing input."""
    family, stream = random_stream(rng, max_points)
    kind, spec, refine = random_spec(rng, stream)
    return FuzzCase(
        label=f"{family}/{kind}/{spec.aggregate_name}",
        stream=stream,
        spec=spec,
        refine_filter=refine,
        chunks=random_partition(rng, stream.size),
    )


def random_fault_plan(
    rng: np.random.Generator,
    n_rounds: int,
    n_workers: int = 2,
    *,
    streams: tuple[str, ...],
    max_faults: int = 3,
):
    """A seeded fault schedule for the fault-injection differential.

    Thin wrapper over :meth:`repro.runtime.faults.FaultPlan.random` so
    the testkit draws its fault plans from the same explicit ``rng`` as
    everything else.  Each fault's kind is drawn uniformly from
    :data:`~repro.runtime.faults.FAULT_KINDS`: the five worker kinds
    (kill, hang, hang_hard, drop_reply, delay) and chunk corruption,
    which hits one of ``streams``.  ``streams`` must name at least one
    stream; ``FaultPlan.random`` raises ``ValueError`` otherwise.
    """
    from ..runtime.faults import FaultPlan

    return FaultPlan.random(
        rng, n_workers, max(1, n_rounds), streams, max_faults=max_faults
    )
