"""repro.testkit — differential fuzzing and metamorphic testing harness.

The paper's central correctness claim is that every detector in the
Aggregation Pyramid family is a *lossless filter*: for any stream, any
threshold model and any monotone aggregate, the trained detector reports
exactly the bursts the naive ``O(kN)`` method reports.  This package
verifies that claim mechanically across every backend in the repository
(naive, streaming, chunked, adaptive, parallel shared-memory, spatial
2-D), with four layers:

* :mod:`~repro.testkit.generators` — seeded random streams, specs,
  structures and chunk partitions (dyadic values, so aggregates are
  exact and differential comparison needs no tolerance);
* :mod:`~repro.testkit.oracles` — brute-force oracles and cross-backend
  differential runners, including chunk-boundary and worker-count
  sweeps;
* :mod:`~repro.testkit.relations` — metamorphic invariants (prefix,
  chunking, scaling, threshold monotonicity, concatenation);
* :mod:`~repro.testkit.shrink` / :mod:`~repro.testkit.corpus` —
  reproducer minimization and the JSON regression corpus replayed by
  tier-1 tests;
* :mod:`~repro.testkit.ooo` — arrival-order invariance: streams
  re-delivered through the watermark ingestion layer under seeded
  watermark-consistent permutations (``--ooo-every``), plus the
  out-of-order reproducer corpus format with pinned ledgers;
* :mod:`~repro.testkit.crash` — crash-anywhere recovery equivalence:
  the durable pipeline killed at seeded traced-IO offsets (boundary
  kills and mid-write tears) and recovered under both policies
  (``--crash-every``), plus the crash reproducer corpus format with
  pinned fingerprints and outcomes.

Run it from the command line::

    python -m repro.testkit fuzz --budget 500 --seed 0
    python -m repro.testkit replay tests/corpus

Everything is deterministic given ``--seed``; the harness reads neither
the wall clock nor global random state.
"""

from .corpus import (
    CASE_FORMAT,
    SPATIAL_FORMAT,
    case_from_dict,
    case_to_dict,
    corpus_paths,
    load_case,
    replay_case,
    replay_path,
    save_reproducer,
    save_spatial_reproducer,
)
from .crash import (
    CRASH_FORMAT,
    crash_payload,
    crash_recover,
    replay_crash_payload,
    save_crash_reproducer,
)
from .fuzzer import FailureRecord, FuzzConfig, FuzzReport, fuzz_once, run_fuzz
from .ooo import (
    OOO_FORMAT,
    ooo_payload,
    ooo_shuffle,
    replay_ooo_payload,
    save_ooo_reproducer,
    watermark_consistent_arrival,
)
from .generators import (
    QUANTUM,
    STREAM_FAMILIES,
    FuzzCase,
    quantize,
    random_case,
    random_fault_plan,
    random_grid,
    random_partition,
    random_sat,
    random_spatial_thresholds,
    random_spec,
    random_stream,
)
from .oracles import (
    BACKENDS,
    DEFAULT_BACKENDS,
    Mismatch,
    brute_force_bursts,
    brute_force_spatial_bursts,
    default_backends,
    diff_burst_sets,
    differential_check,
    fault_plan_check,
    reevaluate_windows,
    run_backend,
    spatial_differential_check,
    worker_sweep_check,
)
from .relations import RELATIONS, run_relations
from .shrink import ShrinkBudget, shrink_case

__all__ = [
    # generators
    "QUANTUM",
    "STREAM_FAMILIES",
    "FuzzCase",
    "quantize",
    "random_case",
    "random_fault_plan",
    "random_grid",
    "random_partition",
    "random_sat",
    "random_spatial_thresholds",
    "random_spec",
    "random_stream",
    # oracles
    "BACKENDS",
    "DEFAULT_BACKENDS",
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
    # relations
    "RELATIONS",
    "run_relations",
    # shrinking + corpus
    "ShrinkBudget",
    "shrink_case",
    "CASE_FORMAT",
    "SPATIAL_FORMAT",
    "case_from_dict",
    "case_to_dict",
    "corpus_paths",
    "load_case",
    "replay_case",
    "replay_path",
    "save_reproducer",
    "save_spatial_reproducer",
    # crash-recovery leg
    "CRASH_FORMAT",
    "crash_payload",
    "crash_recover",
    "replay_crash_payload",
    "save_crash_reproducer",
    # out-of-order ingestion leg
    "OOO_FORMAT",
    "ooo_payload",
    "ooo_shuffle",
    "replay_ooo_payload",
    "save_ooo_reproducer",
    "watermark_consistent_arrival",
    # fuzzer
    "FailureRecord",
    "FuzzConfig",
    "FuzzReport",
    "fuzz_once",
    "run_fuzz",
]
