"""Tests for the diagnose() report and the batched-alarm DSR path."""

import numpy as np
import pytest

from repro.core.aggregates import MAX, SUM
from repro.core.analysis import diagnose
from repro.core.chunked import ChunkedDetector
from repro.core.detector import StreamingDetector
from repro.core.sbt import shifted_binary_tree
from repro.core.structure import SATStructure
from repro.core.thresholds import FixedThresholds, NormalThresholds, all_sizes


class TestDiagnose:
    @pytest.fixture
    def run(self, rng):
        data = rng.poisson(8.0, 10_000).astype(float)
        th = NormalThresholds.from_data(data[:3000], 1e-4, all_sizes(32))
        structure = shifted_binary_tree(32)
        d = ChunkedDetector(structure, th)
        d.detect(data)
        return structure, th, d

    def test_one_line_per_level(self, run):
        structure, th, d = run
        text = diagnose(structure, th, d.counters)
        assert len(text.splitlines()) == structure.num_levels + 1

    def test_prediction_column_optional(self, run):
        structure, th, d = run
        without = diagnose(structure, th, d.counters)
        with_pred = diagnose(
            structure, th, d.counters, mu=8.0, sigma=np.sqrt(8.0)
        )
        assert "pred" not in without
        assert "pred" in with_pred

    def test_prediction_tracks_measurement(self, run):
        # The per-level prediction should be close to the measured alarm
        # probability on well-behaved Poisson data (spot-check one level).
        structure, th, d = run
        from repro.core.analysis import level_alarm_probabilities

        predicted = level_alarm_probabilities(
            structure, th, 8.0, np.sqrt(8.0)
        )
        measured = d.counters.alarm_probabilities()
        mid = structure.num_levels // 2
        assert measured[mid] == pytest.approx(predicted[mid], abs=0.1)

    def test_ops_shares_sum_to_about_one(self, run):
        structure, th, d = run
        text = diagnose(structure, th, d.counters)
        shares = [
            float(line.rsplit(None, 1)[-1].rstrip("%"))
            for line in text.splitlines()[1:]
        ]
        # Level 0 ops are excluded from the listing, so <= 100.
        assert 0 < sum(shares) <= 100.0


class TestAlarmBatching:
    def test_batch_boundary_parity(self, rng):
        # Force tiny alarm batches so a single chunk spans many batches;
        # results must not depend on the batch size.
        data = rng.poisson(10.0, 4000).astype(float)
        th = NormalThresholds.from_data(data[:1000], 1e-2, all_sizes(24))
        structure = shifted_binary_tree(24)
        normal = ChunkedDetector(structure, th)
        want = normal.detect(data)
        tiny = ChunkedDetector(structure, th)
        tiny._ALARM_BATCH = 3
        got = tiny.detect(data)
        assert got == want
        assert tiny.counters.as_dict() == normal.counters.as_dict()

    def test_batched_path_matches_streaming_under_alarm_saturation(self):
        # Every node alarms: the batched path must still agree exactly.
        data = np.full(1200, 10.0)
        th = FixedThresholds({w: 2.0 * w for w in range(2, 16)})
        structure = shifted_binary_tree(15)
        ref = StreamingDetector(structure, th)
        want = ref.detect(data)
        chk = ChunkedDetector(structure, th)
        got = chk.detect(data, chunk_size=100)
        assert got == want
        assert chk.counters.as_dict() == ref.counters.as_dict()

    def test_single_alarm_batch(self, rng):
        # One isolated alarm exercises the batch path with a == 1.
        data = np.zeros(600)
        data[400:404] = 50.0
        # 160 excludes the 3-of-4 overlap windows (sum 150), leaving only
        # the exact injected window (sum 200).
        th = FixedThresholds({4: 160.0})
        structure = shifted_binary_tree(4)
        chk = ChunkedDetector(structure, th)
        got = chk.detect(data)
        assert got.keys() == {(403, 4)}
        assert chk.counters.total_alarms >= 1


def _burst_bits(bursts):
    return sorted((b.end, b.size, b.value.hex()) for b in bursts)


class TestTwoTierSearch:
    """Both levels hold more alarms than one tier-1 grid takes, their
    cuts spread over every responsible size, and windows meet f(w) with
    equality at a level's smallest size and past it."""

    STRUCTURE = SATStructure.from_pairs([(4, 1), (8, 2)])
    # Dyadic data and thresholds: every window aggregate is exact.
    THRESHOLDS = {
        "sum": {1: 3.5, 2: 6.0, 3: 7.5, 4: 9.0, 5: 12.5, 6: 15.5, 7: 18.0},
        "max": {1: 3.75, 2: 2.0, 3: 2.5, 4: 3.0, 5: 3.25, 6: 3.5, 7: 3.75},
    }

    @staticmethod
    def _data(n):
        return 0.25 * np.random.default_rng(7).integers(0, 16, n)

    @pytest.mark.parametrize("agg", [SUM, MAX], ids=["sum", "max"])
    def test_premise(self, agg):
        data = self._data(8064)
        th = FixedThresholds(self.THRESHOLDS[agg.name])
        ref = StreamingDetector(self.STRUCTURE, th, agg)
        bursts = ref.detect(data)
        for plan in ChunkedDetector(self.STRUCTURE, th, agg).plans:
            ends = np.arange(plan.size - 1, data.size, plan.shift)
            nodes = agg.sliding(data, plan.size)[ends + 1 - plan.size]
            alarms = nodes[nodes >= plan.min_threshold]
            cuts = np.searchsorted(plan.thresholds, alarms, side="right")
            assert alarms.size > ChunkedDetector._ALARM_BATCH
            assert set(cuts.tolist()) == set(range(1, plan.sizes.size + 1))
            exact = {
                b.size
                for b in bursts
                if plan.lo <= b.size <= plan.hi
                and b.value == th.threshold(b.size)
            }
            assert plan.sizes[0] in exact and len(exact) > 1

    @pytest.mark.parametrize("agg", [SUM, MAX], ids=["sum", "max"])
    @pytest.mark.parametrize("refine", [True, False], ids=["refine", "dense"])
    # (64, 8000): the big chunk runs both tiers only; (8064,): it starts
    # at index 0, so its first alarms run the masked grid too.
    @pytest.mark.parametrize("chunks", [(64, 8000), (8064,)])
    def test_matches_streaming_detector(self, agg, refine, chunks):
        data = self._data(sum(chunks))
        th = FixedThresholds(self.THRESHOLDS[agg.name])
        ref = StreamingDetector(self.STRUCTURE, th, agg, refine_filter=refine)
        chk = ChunkedDetector(self.STRUCTURE, th, agg, refine_filter=refine)
        want, got = [], []
        lo = 0
        for n in chunks:
            before = chk.counters.alarms.copy()
            want += ref.process(data[lo : lo + n])
            bursts = chk.process(data[lo : lo + n])
            # Within a level bursts come in (size, end) order, and levels
            # come in order of their (disjoint, ascending) size ranges.
            keys = [(b.size, b.end) for b in bursts]
            assert keys == sorted(keys)
            got += bursts
            lo += n
        assert np.all(
            (chk.counters.alarms - before)[1:] > ChunkedDetector._ALARM_BATCH
        )
        want += ref.finish()
        got += chk.finish()
        assert _burst_bits(got) == _burst_bits(want)
        assert chk.counters.as_dict() == ref.counters.as_dict()
