"""Input-validation tests: bad data must fail loudly, never silently.

Monotonic filtering (the entire soundness argument of the paper) assumes
non-negative data.  A negative value would not crash anything — it would
make node aggregates under-bound their shaded windows and *silently drop
bursts*, the worst possible failure mode for a detector.  So the engines
reject it at the door, and these tests pin that behaviour across every
entry point.
"""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveDetector
from repro.core.chunked import ChunkedDetector
from repro.core.detector import StreamingDetector
from repro.core.multi import MultiStreamDetector
from repro.core.sbt import shifted_binary_tree
from repro.core.thresholds import FixedThresholds, NormalThresholds, all_sizes
from repro.runtime import ParallelMultiStreamDetector
from repro.spatial import (
    SpatialDetector,
    SummedAreaTable,
    spatial_binary_structure,
)

TH = FixedThresholds({2: 100.0, 4: 200.0})


class TestStreamValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            np.array([1.0, -0.5, 2.0]),
            np.array([1.0, np.nan, 2.0]),
            np.array([1.0, np.inf]),
            np.array([-np.inf, 1.0]),
        ],
        ids=["negative", "nan", "inf", "-inf"],
    )
    def test_chunked_rejects(self, bad):
        d = ChunkedDetector(shifted_binary_tree(4), TH)
        with pytest.raises(ValueError, match="finite and non-negative"):
            d.process(bad)

    def test_streaming_rejects(self):
        d = StreamingDetector(shifted_binary_tree(4), TH)
        with pytest.raises(ValueError, match="finite and non-negative"):
            d.process(np.array([1.0, -1.0]))

    def test_preload_rejects(self):
        d = ChunkedDetector(shifted_binary_tree(4), TH)
        with pytest.raises(ValueError, match="finite and non-negative"):
            d.preload(np.array([np.nan]))

    def test_good_data_still_accepted(self):
        d = ChunkedDetector(shifted_binary_tree(4), TH)
        d.process(np.array([0.0, 1.5, 3.0]))
        d.finish()

    def test_rejected_chunk_leaves_detector_usable(self):
        d = ChunkedDetector(shifted_binary_tree(4), TH)
        d.process(np.ones(8))
        with pytest.raises(ValueError):
            d.process(np.array([-1.0]))
        # The bad chunk was rejected before ingestion: continuing works.
        d.process(np.ones(8))
        d.finish()


class TestChunkSizeValidation:
    """A non-positive chunk size must raise, not quietly feed nothing."""

    ENTRY_POINTS = {
        "chunked": lambda st, th, train, data: (
            ChunkedDetector(st, th),
            data,
        ),
        "multi": lambda st, th, train, data: (
            MultiStreamDetector.shared(["s"], st, th),
            {"s": data},
        ),
        "parallel": lambda st, th, train, data: (
            ParallelMultiStreamDetector.shared(
                ["s"], st, th, workers="serial"
            ),
            {"s": data},
        ),
        "adaptive": lambda st, th, train, data: (
            AdaptiveDetector(th, train),
            data,
        ),
    }

    @pytest.mark.parametrize("chunk_size", [0, -1])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_detect_rejects_chunk_size_below_one(
        self, rng, entry, chunk_size
    ):
        train = rng.poisson(5.0, 600).astype(float)
        thresholds = NormalThresholds.from_data(train, 1e-3, all_sizes(8))
        data = rng.poisson(5.0, 3000).astype(float)
        det, arg = self.ENTRY_POINTS[entry](
            shifted_binary_tree(8), thresholds, train, data
        )
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            det.detect(arg, chunk_size=chunk_size)


class TestSpatialValidation:
    def test_summed_area_table_rejects(self):
        with pytest.raises(ValueError, match="finite and non-negative"):
            SummedAreaTable(np.array([[1.0, -2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="finite and non-negative"):
            SummedAreaTable(np.array([[np.nan, 2.0], [0.0, 1.0]]))

    def test_spatial_detector_rejects(self):
        th = FixedThresholds({2: 100.0})
        d = SpatialDetector(spatial_binary_structure(2), th)
        with pytest.raises(ValueError, match="finite and non-negative"):
            d.detect(np.full((4, 4), -1.0))
