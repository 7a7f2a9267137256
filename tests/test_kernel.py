"""Tests of the fused detection kernel layer (:mod:`repro.core.kernel`).

Three groups:

* backend policy — ``auto``/``numba``/``numpy`` resolution, the one-time
  fallback warning, the actionable error when numba is requested but
  missing, and the ``REPRO_DISABLE_NUMBA`` escape hatch;
* scratch management — buffers are reused across same-size chunks
  (object identity, not just equal shapes) and grown geometrically;
* parity — the kernel's pure-Python scan bodies (exactly what numba
  compiles) driven through :class:`ChunkedDetector` must be
  byte-identical to :class:`StreamingDetector` in bursts *and* operation
  counters, and a forced-fallback subprocess must reproduce the same
  corpus digests as the default backend.
"""

from __future__ import annotations

import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro.core.kernel as kernel
from repro.core.aggregates import MAX, SUM, WindowEngine
from repro.core.chunked import ChunkedDetector
from repro.core.detector import StreamingDetector
from repro.core.kernel import (
    KernelScratch,
    grow_capacity,
    numba_available,
    resolve_backend,
)
from repro.testkit import random_case

SRC = Path(__file__).parent.parent / "src"
NATIVE_SRC = SRC / "repro" / "core" / "kernel" / "native.py"
CORPUS = Path(__file__).parent / "corpus"


def _case(seed: int, min_points: int = 200, max_points: int = 600):
    """A testkit case with a reasonably long stream."""
    index = 0
    while True:
        case = random_case(
            np.random.default_rng([seed, index]), max_points=max_points
        )
        if case.stream.size >= min_points:
            return case
        index += 1


def _detector(case, backend: str = "auto") -> ChunkedDetector:
    spec = case.spec
    return ChunkedDetector(
        spec.structure,
        spec.thresholds,
        spec.aggregate,
        refine_filter=case.refine_filter,
        backend=backend,
    )


def _feed(det, case):
    bursts = []
    lo = 0
    for size in case.chunks:
        bursts.extend(det.process(case.stream[lo : lo + size]))
        lo += size
    if lo < case.stream.size:
        bursts.extend(det.process(case.stream[lo:]))
    bursts.extend(det.finish())
    return bursts


def _burst_bytes(bursts):
    return tuple(
        (b.end, b.size, float(b.value).hex()) for b in sorted(bursts)
    )


def _counter_bytes(c):
    return (
        c.updates.tobytes(),
        c.filter_comparisons.tobytes(),
        c.alarms.tobytes(),
        c.search_cells.tobytes(),
        c.bursts,
    )


# ---------------------------------------------------------------------------
# Backend policy
# ---------------------------------------------------------------------------


class TestBackendPolicy:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("cython")
        case = _case(11)
        with pytest.raises(ValueError, match="unknown backend"):
            _detector(case, backend="fast")

    def test_numpy_always_resolves(self):
        assert resolve_backend("numpy") == "numpy"
        det = _detector(_case(12), backend="numpy")
        assert det.resolved_backend == "numpy"
        assert det._native is None

    @pytest.mark.skipif(numba_available(), reason="numba is installed")
    def test_numba_missing_is_actionable(self):
        with pytest.raises(RuntimeError, match=r"repro\[speed\]"):
            resolve_backend("numba")
        with pytest.raises(RuntimeError, match=r"repro\[speed\]"):
            _detector(_case(13), backend="numba")

    @pytest.mark.skipif(not numba_available(), reason="numba missing")
    def test_numba_resolves_when_available(self):
        assert resolve_backend("numba") == "numba"
        assert resolve_backend("auto") == "numba"

    @pytest.mark.skipif(numba_available(), reason="numba is installed")
    def test_auto_degrades_with_one_time_warning(self, monkeypatch):
        monkeypatch.setattr(kernel, "_warned_fallback", False)
        with pytest.warns(RuntimeWarning, match=r"repro\[speed\]"):
            assert resolve_backend("auto") == "numpy"
        with warnings.catch_warnings():  # second call is silent
            warnings.simplefilter("error")
            assert resolve_backend("auto") == "numpy"

    def test_env_disable_forces_numpy_silently(self, monkeypatch):
        monkeypatch.setenv(kernel.ENV_DISABLE, "1")
        monkeypatch.setattr(kernel, "_warned_fallback", False)
        assert not numba_available()
        with warnings.catch_warnings():  # deliberate, so no warning
            warnings.simplefilter("error")
            assert resolve_backend("auto") == "numpy"
        with pytest.raises(RuntimeError, match=kernel.ENV_DISABLE):
            resolve_backend("numba")

    def test_base_engine_has_no_kernel_state(self):
        with pytest.raises(NotImplementedError, match="backend='numpy'"):
            WindowEngine(4).kernel_state()

    def test_kernel_state_exposes_live_buffers(self):
        eng = SUM.make_engine(8)
        eng.append(np.array([1.0, 2.0, 4.0], dtype=np.float64))
        kind, buf, offset = eng.kernel_state()
        assert kind == "sum" and offset == 0
        assert eng.kernel_state()[1] is buf  # live array, not a copy
        eng = MAX.make_engine(8)
        eng.append(np.array([1.0, 3.0, 2.0], dtype=np.float64))
        kind, buf, offset = eng.kernel_state()
        assert kind == "max" and offset == 0
        assert eng.kernel_state()[1] is buf


# ---------------------------------------------------------------------------
# Scratch management
# ---------------------------------------------------------------------------


class TestScratch:
    def test_grow_capacity_is_geometric(self):
        assert grow_capacity(0) == 1024
        assert grow_capacity(1) == 1024
        assert grow_capacity(1024) == 1024
        assert grow_capacity(1025) == 2048
        assert grow_capacity(5000) == 8192
        for n in (1, 7, 100, 1023, 1024, 1025, 70_000):
            cap = grow_capacity(n)
            assert cap >= max(n, 1024)
            assert cap & (cap - 1) == 0  # a power of two

    def test_same_size_chunks_reuse_the_same_buffers(self):
        case = _case(21, min_points=300)
        det = _detector(case, backend="numpy")
        size = 48
        det.process(case.stream[:size])
        scratch = det._scratch
        assert scratch is not None
        assert scratch.capacity == grow_capacity(size)
        held = (
            scratch.cand_ends,
            scratch.cand_values,
            scratch.update_counts,
            scratch.filter_counts,
        )
        for lo in range(size, min(case.stream.size, 6 * size), size):
            det.process(case.stream[lo : lo + size])
            assert det._scratch is scratch  # object identity, no realloc
        assert (
            scratch.cand_ends,
            scratch.cand_values,
            scratch.update_counts,
            scratch.filter_counts,
        ) == held

    def test_larger_chunk_replaces_scratch_geometrically(self):
        case = _case(22, min_points=300)
        det = _detector(case, backend="numpy")
        det.process(case.stream[:16])
        # Shrink the scratch below the next chunk to force one regrow.
        det._scratch = KernelScratch(det._layout, 16)
        small = det._scratch
        det.process(case.stream[16:116])
        assert det._scratch is not small
        assert det._scratch.capacity == grow_capacity(100) == 1024
        # Smaller follow-up chunks keep the regrown scratch.
        grown = det._scratch
        det.process(case.stream[116:140])
        assert det._scratch is grown


# ---------------------------------------------------------------------------
# Parity: kernel scan bodies vs the streaming reference
# ---------------------------------------------------------------------------


def _load_pure_native() -> types.ModuleType:
    """The native module with ``@njit`` stubbed out to the identity.

    ``scan_sum``/``scan_max`` then run the exact Python bodies numba
    compiles, so this parity suite exercises the native code path — call
    signatures, layout packing, candidate segments, count charging —
    without requiring numba.
    """
    src = NATIVE_SRC.read_text()
    stubbed = src.replace(
        "from numba import njit",
        "njit = lambda **kw: (lambda f: f)",
    )
    assert stubbed != src, "njit import not found in native.py"
    mod = types.ModuleType("repro_kernel_native_pure")
    exec(compile(stubbed, str(NATIVE_SRC), "exec"), mod.__dict__)
    return mod


_PURE_NATIVE = _load_pure_native()


def _native_detector(case) -> ChunkedDetector:
    det = _detector(case, backend="numpy")
    det._native = _PURE_NATIVE
    det._resolved = "numba"
    return det


class TestKernelParity:
    @pytest.mark.parametrize("seed", range(40, 70))
    def test_scan_bodies_match_streaming_detector(self, seed):
        case = _case(seed, min_points=64)
        spec = case.spec
        ref = StreamingDetector(
            spec.structure,
            spec.thresholds,
            spec.aggregate,
            refine_filter=case.refine_filter,
        )
        want = _feed(ref, case)
        got = _feed(_native_detector(case), case)
        assert _burst_bytes(got) == _burst_bytes(want)

    @pytest.mark.parametrize("seed", range(70, 80))
    def test_scan_bodies_match_streaming_counters(self, seed):
        case = _case(seed, min_points=64)
        spec = case.spec
        ref = StreamingDetector(
            spec.structure,
            spec.thresholds,
            spec.aggregate,
            refine_filter=case.refine_filter,
        )
        _feed(ref, case)
        det = _native_detector(case)
        _feed(det, case)
        assert _counter_bytes(det.counters) == _counter_bytes(ref.counters)

    @pytest.mark.parametrize("seed", range(90, 100))
    def test_candidate_rows_ascend(self, seed):
        # The batched refinement reads a row's first candidate as its
        # level's smallest alarm end: every CSR row must ascend, on both
        # backends.
        case = _case(seed, min_points=64)
        for det in (_detector(case, backend="numpy"), _native_detector(case)):
            rows = 0
            lo = 0
            for size in case.chunks + (case.stream.size,):
                if lo >= case.stream.size:
                    break
                det.process(case.stream[lo : lo + size])
                lo += size
                scratch = det._scratch
                offsets = scratch.cand_offsets
                for r in range(offsets.size - 1):
                    row = scratch.cand_ends[offsets[r] : offsets[r + 1]]
                    assert np.all(np.diff(row) > 0)
                    rows += row.size > 1
            assert rows > 0

    @pytest.mark.skipif(not numba_available(), reason="numba missing")
    @pytest.mark.parametrize("seed", range(80, 90))
    def test_compiled_kernel_matches_numpy_fallback(self, seed):
        case = _case(seed, min_points=64)
        a = _detector(case, backend="numba")
        b = _detector(case, backend="numpy")
        assert _burst_bytes(_feed(a, case)) == _burst_bytes(_feed(b, case))
        assert _counter_bytes(a.counters) == _counter_bytes(b.counters)


# ---------------------------------------------------------------------------
# Forced fallback (REPRO_DISABLE_NUMBA) — subprocess parity on the corpus
# ---------------------------------------------------------------------------


_CORPUS_DIGEST_SCRIPT = """
import hashlib, json, sys
from pathlib import Path
from repro.core.chunked import ChunkedDetector
from repro.testkit import CASE_FORMAT, corpus_paths, load_case

h = hashlib.sha256()
for path in corpus_paths(Path(sys.argv[1])):
    if json.loads(path.read_text()).get("format") != CASE_FORMAT:
        continue  # spatial reproducers have no chunked backend
    case = load_case(path)
    spec = case.spec
    det = ChunkedDetector(
        spec.structure,
        spec.thresholds,
        spec.aggregate,
        refine_filter=case.refine_filter,
        backend="auto",
    )
    h.update(path.name.encode())
    for b in sorted(det.detect(case.stream)):
        h.update(f"{b.end},{b.size},{float(b.value).hex()};".encode())
    c = det.counters
    for arr in (c.updates, c.filter_comparisons, c.alarms, c.search_cells):
        h.update(arr.tobytes())
    h.update(str(c.bursts).encode())
print(h.hexdigest())
"""


def _corpus_digest(disable_numba: bool) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(kernel.ENV_DISABLE, None)
    if disable_numba:
        env[kernel.ENV_DISABLE] = "1"
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", _CORPUS_DIGEST_SCRIPT,
         str(CORPUS)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_forced_fallback_is_byte_identical_on_seed_corpus():
    """``REPRO_DISABLE_NUMBA=1`` must not change a single corpus byte.

    With numba installed this diffs the compiled kernel against the
    NumPy fallback over the whole seed corpus; without it, it still
    pins the fallback's determinism across processes.
    """
    assert _corpus_digest(True) == _corpus_digest(False)


def test_env_disable_subprocess_resolves_numpy():
    code = (
        "import repro.core.kernel as k;"
        "print(k.resolve_backend('auto'), k.numba_available())"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env[kernel.ENV_DISABLE] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["numpy", "False"]


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------


class TestBackendCLI:
    @pytest.fixture
    def trained_spec(self, tmp_path):
        from repro.__main__ import main as cli_main

        rng = np.random.default_rng(5)
        train = rng.poisson(5.0, 1500).astype(float)
        live = rng.poisson(5.0, 2000).astype(float)
        live[900:903] += 40.0
        train_path = tmp_path / "train.csv"
        live_path = tmp_path / "live.csv"
        train_path.write_text("\n".join(f"{x:g}" for x in train) + "\n")
        live_path.write_text("\n".join(f"{x:g}" for x in live) + "\n")
        spec_path = tmp_path / "spec.json"
        assert cli_main(
            ["train", str(train_path), "--max-window", "16",
             "-o", str(spec_path)]
        ) == 0
        return spec_path, live_path

    @pytest.mark.skipif(numba_available(), reason="numba is installed")
    def test_detect_backend_numba_missing_exits_actionably(
        self, trained_spec, tmp_path
    ):
        from repro.__main__ import main as cli_main

        spec_path, live_path = trained_spec
        with pytest.raises(SystemExit) as exc:
            cli_main(
                ["detect", str(spec_path), str(live_path),
                 "--backend", "numba",
                 "-o", str(tmp_path / "bursts.csv")]
            )
        assert "repro[speed]" in str(exc.value)

    def test_detect_backend_numpy_runs(self, trained_spec, tmp_path):
        from repro.__main__ import main as cli_main

        spec_path, live_path = trained_spec
        out = tmp_path / "bursts.csv"
        assert cli_main(
            ["detect", str(spec_path), str(live_path),
             "--backend", "numpy", "-o", str(out)]
        ) == 0
        assert out.read_text().startswith("end,size,value")

    @pytest.mark.skipif(numba_available(), reason="numba is installed")
    def test_testkit_fuzz_backend_numba_missing_exits(self, capsys):
        from repro.testkit.__main__ import main as tk_main

        assert tk_main(["fuzz", "--budget", "1", "--backend", "numba"]) == 2
        assert "repro[speed]" in capsys.readouterr().err
