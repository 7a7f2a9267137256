"""Detecting over many parallel streams.

The paper's mining application (§5.4) runs one detector per stock; any
deployment monitoring a portfolio, a server fleet, or a sensor grid has
the same shape.  :class:`MultiStreamDetector` manages one
:class:`~repro.core.chunked.ChunkedDetector` per named stream — either
sharing a single (thresholds, structure) pair across streams, or fitting
thresholds and adapting a structure per stream — and exposes chunked
feeding and combined results.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .aggregates import SUM, AggregateFunction
from .chunked import DEFAULT_CHUNK, ChunkedDetector, DetectorCarry
from .events import Burst, BurstSet
from .opcount import OpCounters
from .search import SearchParams, train_structure
from .structure import SATStructure
from .thresholds import NormalThresholds, ThresholdModel

__all__ = ["MultiStreamDetector"]


class MultiStreamDetector:
    """One elastic burst detector per named stream.

    Construct with :meth:`shared` (one structure and threshold table for
    every stream — cheap, appropriate when streams are statistically
    alike) or :meth:`per_stream` (thresholds fitted and a structure
    adapted to each stream's own training data — the §5.4 setup).
    """

    def __init__(self, detectors: Mapping[str, ChunkedDetector]) -> None:
        if not detectors:
            raise ValueError("at least one stream is required")
        self._detectors = dict(detectors)
        self._finished = False

    # -- constructors -----------------------------------------------------
    @classmethod
    def shared(
        cls,
        names: Iterable[str],
        structure: SATStructure,
        thresholds: ThresholdModel,
        *,
        aggregate: AggregateFunction = SUM,
        refine_filter: bool = True,
        backend: str = "auto",
    ) -> "MultiStreamDetector":
        """Same structure and thresholds for every stream."""
        return cls(
            {
                name: ChunkedDetector(
                    structure,
                    thresholds,
                    aggregate,
                    refine_filter=refine_filter,
                    backend=backend,
                )
                for name in names
            }
        )

    @classmethod
    def per_stream(
        cls,
        training: Mapping[str, np.ndarray],
        burst_probability: float,
        window_sizes: Iterable[int],
        search_params: SearchParams | None = None,
        *,
        aggregate: AggregateFunction = SUM,
        refine_filter: bool = True,
        backend: str = "auto",
    ) -> "MultiStreamDetector":
        """Fit thresholds and adapt a structure to each stream."""
        detectors = {}
        for name, data in training.items():
            data = np.asarray(data, dtype=np.float64)
            thresholds = NormalThresholds.from_data(
                data, burst_probability, window_sizes
            )
            structure = train_structure(
                data, thresholds, params=search_params
            )
            detectors[name] = ChunkedDetector(
                structure,
                thresholds,
                aggregate,
                refine_filter=refine_filter,
                backend=backend,
            )
        return cls(detectors)

    # -- access -----------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """Stream names, sorted."""
        return tuple(sorted(self._detectors))

    def detector(self, name: str) -> ChunkedDetector:
        """The underlying detector of one stream."""
        return self._detectors[name]

    @property
    def refine_filter(self) -> bool:
        """Whether the streams' detectors run the refinement filter."""
        settings = {det.refine_filter for det in self._detectors.values()}
        if len(settings) > 1:
            raise ValueError("streams disagree on refine_filter")
        return settings.pop()

    def total_operations(self) -> int:
        """RAM-model operations summed over all streams."""
        return self.merged_counters().total_operations

    def amend(self, name: str, index: int, value: float) -> None:
        """Rewrite one consumed stream value of stream ``name``.

        Straggler plumbing for the ingestion layer — see
        :meth:`repro.core.chunked.ChunkedDetector.amend`.
        """
        self._detectors[name].amend(index, value)

    def merged_counters(self) -> OpCounters:
        """Per-level counters merged over all streams.

        Levels align from the bottom; streams with shallower structures
        contribute zero to the levels they lack (totals stay exact).
        """
        return OpCounters.merged(
            d.counters for d in self._detectors.values()
        )

    def stream_counters(self) -> dict[str, OpCounters]:
        """Per-stream operation counters (live references, not copies)."""
        return {
            name: det.counters
            for name, det in sorted(self._detectors.items())
        }

    def checkpoints(self) -> dict[str, "DetectorCarry"]:
        """Resumable carry per stream — the durable layer's snapshot hook.

        Serial detectors are always at a consistent boundary between
        calls; the parallel runtime exposes the same method, meaningful
        between its rounds.
        """
        return {
            name: det.carry()
            for name, det in sorted(self._detectors.items())
        }

    @classmethod
    def from_carries(
        cls,
        structure: SATStructure,
        thresholds: ThresholdModel,
        carries: Mapping[str, "DetectorCarry"],
        *,
        refine_filter: bool = True,
        backend: str = "auto",
    ) -> "MultiStreamDetector":
        """Resume a shared-structure fleet from per-stream carries."""
        return cls(
            {
                name: ChunkedDetector.from_carry(
                    structure,
                    thresholds,
                    carry,
                    refine_filter,
                    backend,
                )
                for name, carry in carries.items()
            }
        )

    # -- feeding ------------------------------------------------------------
    def process(
        self, chunks: Mapping[str, np.ndarray]
    ) -> dict[str, list[Burst]]:
        """Feed one chunk per stream; returns new bursts per stream.

        Streams absent from ``chunks`` simply receive nothing this round
        (they may tick at different rates).
        """
        if self._finished:
            raise RuntimeError("detector already finished; create a new one")
        unknown = set(chunks) - set(self._detectors)
        if unknown:
            raise KeyError(f"unknown streams: {sorted(unknown)}")
        return {
            name: self._detectors[name].process(chunk)
            for name, chunk in chunks.items()
        }

    def finish(self) -> dict[str, list[Burst]]:
        """Flush every stream's detector."""
        if self._finished:
            raise RuntimeError("finish() already called")
        self._finished = True
        return {
            name: detector.finish()
            for name, detector in self._detectors.items()
        }

    def detect(
        self,
        data: Mapping[str, np.ndarray],
        chunk_size: int = DEFAULT_CHUNK,
    ) -> dict[str, BurstSet]:
        """Run every stream to completion; returns a BurstSet per stream."""
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        data = {k: np.asarray(v, dtype=np.float64) for k, v in data.items()}
        unknown = set(data) - set(self._detectors)
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
