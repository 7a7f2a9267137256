"""Command-line interface: train, detect, inspect.

Usage::

    # Fit thresholds and adapt a structure from a training stream (CSV,
    # one non-negative value per line), saving a detector spec.
    python -m repro train train.csv --max-window 250 -p 1e-6 -o spec.json

    # Detect bursts in a stream with a saved spec (CSV out: end,size,value).
    # Plain stream CSVs are one value per line, rows in time order.
    python -m repro detect spec.json stream.csv -o bursts.csv

    # Detect over a directory of streams (one CSV per stream), sharding
    # the streams across worker processes.  Rows must be in time order.
    python -m repro detect-many spec.json streams/ -o results/ --workers auto

    # Out-of-order feeds: 'timestamp,value' rows in arbitrary order,
    # reordered by the watermark ingestion layer (repro.ingest).
    python -m repro detect spec.json feed.csv --timestamped \
        --max-lateness 8 --late-policy drop

    # Durable ingestion: write-ahead-log every record and snapshot
    # periodically, so a crash mid-run can be resumed exactly.
    python -m repro detect spec.json feed.csv --timestamped \
        --durable-dir run/ --snapshot-every 100

    # Resume a crashed durable run: replay the WAL tail onto the newest
    # snapshot, then re-feed the not-yet-durable records and finish.
    python -m repro recover run/ --recovery trim --stream feed.csv

    # Show what a spec contains.
    python -m repro inspect spec.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .core.chunked import DEFAULT_CHUNK
from .core.thresholds import all_sizes, stepped_sizes
from .io import DetectorSpec, load_spec, save_spec
from .streams.source import CSVSource, TimestampedCSVSource


def _read_csv(path: str, skip_bad_records: bool = False) -> np.ndarray:
    source = CSVSource(path, skip_bad_records=skip_bad_records)
    chunks = list(source.chunks(DEFAULT_CHUNK))
    _report_skipped(path, source)
    if not chunks:
        raise SystemExit(f"error: {path} contains no values")
    return np.concatenate(chunks)


def _report_skipped(path: str | Path, source: CSVSource) -> None:
    if source.skipped:
        print(
            f"# {path}: skipped {source.skipped} bad record(s)",
            file=sys.stderr,
        )


def _cmd_train(args: argparse.Namespace) -> int:
    data = _read_csv(args.training, args.skip_bad_records)
    sizes = (
        stepped_sizes(args.step, args.max_window)
        if args.step > 1
        else all_sizes(args.max_window)
    )
    spec = DetectorSpec.train(
        data,
        burst_probability=args.probability,
        window_sizes=sizes,
        threshold_kind=args.thresholds,
    )
    save_spec(spec, args.output)
    print(f"wrote {args.output}")
    print(spec.describe())
    return 0


def _parse_workers(value: str) -> int | str:
    """``--workers`` values: ``auto``, ``serial``, or a count."""
    if value in ("auto", "serial"):
        return value
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be 'auto', 'serial', or an integer, got {value!r}"
        ) from None
    if n <= 0:
        # 0 used to silently mean serial; insist on the explicit
        # spelling so a typo'd count never changes the backend quietly.
        raise argparse.ArgumentTypeError(
            f"workers must be a positive count, got {n} "
            "(use 'serial' for in-process execution)"
        )
    return n


def _add_skip_bad_records(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--skip-bad-records", action="store_true",
        help="drop unparsable/NaN/inf/negative records (counted on "
        "stderr) instead of failing the stream",
    )


def _add_ingestion(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timestamped", action="store_true",
        help="rows are 'timestamp,value' in arbitrary order; the "
        "watermark ingestion layer reorders them before detection "
        "(without this flag, rows MUST be in time order)",
    )
    parser.add_argument(
        "--max-lateness", type=int, default=0, metavar="BINS",
        help="with --timestamped: how many bins a record may trail the "
        "largest timestamp seen before it counts as late (default 0)",
    )
    parser.add_argument(
        "--late-policy", choices=("raise", "drop", "amend"),
        default="raise",
        help="with --timestamped: late records raise (fail the stream, "
        "default), drop (discard, counted in the ledger), or amend "
        "(revise sealed history, re-check affected windows and emit "
        "amendment events; requires --workers serial)",
    )


def _add_durable(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--durable-dir", default=None, metavar="DIR",
        help="with --timestamped: write-ahead-log every record to DIR "
        "and snapshot the full resumable state periodically, so a "
        "crashed run can be resumed exactly with `recover` (the "
        "directory must not already hold a run)",
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=256, metavar="N",
        help="with --durable-dir: publish a snapshot every N logged "
        "operations (default 256); recovery replays at most N WAL "
        "entries on top of the newest snapshot",
    )


def _add_backend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=("auto", "numba", "numpy"), default="auto",
        help="detection kernel: auto (numba when installed, default), "
        "numba (require the compiled kernel; install the 'speed' "
        "extra), or numpy (pure-NumPy fallback)",
    )


def _make_fleet(args: argparse.Namespace, names, spec):
    """Build the detection fleet, turning backend errors actionable."""
    from .runtime import ParallelMultiStreamDetector

    try:
        return ParallelMultiStreamDetector.shared(
            names,
            spec.structure,
            spec.thresholds,
            workers=args.workers,
            aggregate=spec.aggregate,
            backend=args.backend,
            faults=args.faults,
        )
    except RuntimeError as exc:
        # e.g. --backend numba without numba installed.
        raise SystemExit(f"error: {exc}") from None


def _add_faults(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", choices=("raise", "restart", "degrade"),
        default="raise",
        help="worker-failure policy: raise (fail fast, default), "
        "restart (checkpoint/replay crashed or hung workers), or "
        "degrade (fall back to in-process serial execution)",
    )


def _burst_csv(bursts) -> str:
    lines = ["end,size,value"]
    lines += [f"{b.end},{b.size},{b.value:g}" for b in sorted(bursts)]
    return "\n".join(lines) + "\n"


def _make_ingestor(args: argparse.Namespace, fleet, spec):
    """The fleet-wide ingestor for --timestamped runs, gated for amend."""
    from .ingest import MultiStreamIngestor

    if args.late_policy == "amend" and fleet.num_workers:
        raise SystemExit(
            "error: --late-policy amend rewrites sealed detector state, "
            "which only the in-process fleet supports; add --workers serial"
        )
    return MultiStreamIngestor(
        fleet,
        spec.thresholds,
        spec.aggregate,
        max_lateness=args.max_lateness,
        late_policy=args.late_policy,
    )


def _finish_durable(dur, output) -> int:
    """Write a durable run's final bursts and ledger/WAL accounting."""
    bursts = sorted(dur.final_bursts())
    text = _burst_csv(bursts)
    if output:
        Path(output).write_text(text)
        print(f"{len(bursts)} bursts -> {output}")
    else:
        sys.stdout.write(text)
    ledger = dur.ledger
    counters = dur.counters
    print(
        f"# {ledger.records} records, {counters.total_operations} "
        f"operations ({counters.total_operations / max(1, ledger.records):.1f}"
        f"/record)",
        file=sys.stderr,
    )
    print(f"# ingest: {ledger.summary()}", file=sys.stderr)
    print(
        f"# durable: {dur.next_lsn} WAL entries in {dur.durable_dir}",
        file=sys.stderr,
    )
    return 0


def _cmd_detect_durable(args: argparse.Namespace, spec, name) -> int:
    """Single-stream detection over a write-ahead-logged ingestion run."""
    from .durable import DurableStreamIngestor
    from .ingest import LateRecordError

    try:
        dur = DurableStreamIngestor(
            spec,
            args.durable_dir,
            max_lateness=args.max_lateness,
            late_policy=args.late_policy,
            snapshot_every=args.snapshot_every,
            backend=args.backend,
        )
    except (FileExistsError, ValueError, RuntimeError) as exc:
        raise SystemExit(f"error: {exc}") from None
    source = TimestampedCSVSource(
        args.stream, skip_bad_records=args.skip_bad_records
    )
    try:
        for ts, vals in source.batches(DEFAULT_CHUNK):
            dur.push_batch(ts, vals)
    except LateRecordError as exc:
        raise SystemExit(f"error: {args.stream}: {exc}") from None
    dur.finish()
    _report_skipped(args.stream, source)
    return _finish_durable(dur, args.output)


def _cmd_recover(args: argparse.Namespace) -> int:
    """Resume a durable run; optionally re-feed the lost tail and finish."""
    from .durable import CorruptWalError, DurableStreamIngestor
    from .ingest import LateRecordError

    try:
        dur, report = DurableStreamIngestor.recover(
            args.durable_dir,
            recovery=args.recovery,
            backend=args.backend,
        )
    except FileNotFoundError as exc:
        raise SystemExit(f"error: {exc}") from None
    except CorruptWalError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(f"# {report.summary()}", file=sys.stderr)
    if args.stream and not report.finished:
        # At-least-once resume: skip the records the report says were
        # durably applied, re-push the rest (including any trimmed off
        # the torn tail), then finish.
        source = TimestampedCSVSource(
            args.stream, skip_bad_records=args.skip_bad_records
        )
        skip = report.records_applied
        seen = 0
        try:
            for ts, vals in source.batches(DEFAULT_CHUNK):
                n = int(ts.size)
                if seen + n > skip:
                    off = max(0, skip - seen)
                    dur.push_batch(ts[off:], vals[off:])
                seen += n
        except LateRecordError as exc:
            raise SystemExit(f"error: {args.stream}: {exc}") from None
        _report_skipped(args.stream, source)
        dur.finish()
    if not dur.finished:
        print(
            "# run is not finished; pass --stream FEED.csv to re-feed "
            "the remaining records and finish it",
            file=sys.stderr,
        )
        print(
            f"# durable: {dur.next_lsn} WAL entries in {dur.durable_dir}",
            file=sys.stderr,
        )
        return 0
    return _finish_durable(dur, args.output)


def _cmd_detect_timestamped(args: argparse.Namespace, spec, name) -> int:
    from .ingest import LateRecordError

    if args.durable_dir is not None:
        return _cmd_detect_durable(args, spec, name)
    fleet = _make_fleet(args, [name], spec)
    ingest = _make_ingestor(args, fleet, spec)
    source = TimestampedCSVSource(
        args.stream, skip_bad_records=args.skip_bad_records
    )
    with fleet:
        try:
            for ts, vals in source.batches(DEFAULT_CHUNK):
                ingest.push_batch(name, ts, vals)
        except LateRecordError as exc:
            raise SystemExit(f"error: {args.stream}: {exc}") from None
        ingest.finish()
        counters = fleet.merged_counters()
        stats = fleet.stats().describe()
    _report_skipped(args.stream, source)
    ledger = ingest.ledger()
    bursts = sorted(ingest.ingestor(name).final_bursts())
    text = _burst_csv(bursts)
    if args.output:
        Path(args.output).write_text(text)
        print(f"{len(bursts)} bursts -> {args.output}")
    else:
        sys.stdout.write(text)
    points = ledger.records
    print(
        f"# {points} records, {counters.total_operations} "
        f"operations ({counters.total_operations / max(1, points):.1f}"
        f"/record)",
        file=sys.stderr,
    )
    print(f"# ingest: {ledger.summary()}", file=sys.stderr)
    print(f"# stats: {stats}", file=sys.stderr)
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    name = Path(args.stream).stem
    if args.durable_dir is not None and not args.timestamped:
        raise SystemExit(
            "error: --durable-dir wraps the watermark ingestion layer; "
            "add --timestamped (rows as 'timestamp,value')"
        )
    if args.timestamped:
        return _cmd_detect_timestamped(args, spec, name)
    fleet = _make_fleet(args, [name], spec)
    bursts = []
    points = 0
    source = CSVSource(args.stream, skip_bad_records=args.skip_bad_records)
    with fleet:
        for chunk in source.chunks(DEFAULT_CHUNK):
            points += chunk.size
            bursts.extend(fleet.process({name: chunk})[name])
        bursts.extend(fleet.finish()[name])
        counters = fleet.merged_counters()
    _report_skipped(args.stream, source)
    text = _burst_csv(bursts)
    if args.output:
        Path(args.output).write_text(text)
        print(f"{len(bursts)} bursts -> {args.output}")
    else:
        sys.stdout.write(text)
    print(
        f"# {points} points, {counters.total_operations} "
        f"operations ({counters.total_operations / max(1, points):.1f}"
        f"/point)",
        file=sys.stderr,
    )
    print(f"# stats: {fleet.stats().describe()}", file=sys.stderr)
    return 0


def _cmd_detect_many(args: argparse.Namespace) -> int:
    directory = Path(args.streams)
    # Skip our own outputs: without -o they land in the stream directory,
    # and a rerun must not ingest them as streams.
    paths = sorted(
        p
        for p in directory.glob("*.csv")
        if not p.name.endswith(".bursts.csv")
    )
    if not paths:
        raise SystemExit(f"error: no *.csv streams in {directory}")
    names = [p.stem for p in paths]
    if len(set(names)) != len(names):
        raise SystemExit(f"error: duplicate stream stems in {directory}")
    spec = load_spec(args.spec)
    out_dir = Path(args.output) if args.output else directory
    out_dir.mkdir(parents=True, exist_ok=True)

    fleet = _make_fleet(args, names, spec)
    if args.timestamped:
        return _detect_many_timestamped(
            args, fleet, spec, names, paths, out_dir
        )
    collected: dict[str, list] = {name: [] for name in names}
    points = {name: 0 for name in names}
    errors: dict[str, str] = {}
    sources = {
        name: CSVSource(path, skip_bad_records=args.skip_bad_records)
        for name, path in zip(names, paths)
    }
    with fleet:
        # Round-robin over per-file chunk iterators: memory stays bounded
        # by one chunk per live stream regardless of file sizes.  A file
        # that turns out malformed mid-read fails alone: its stream is
        # dropped from the batch, everyone else runs to completion, and
        # the failure is reported in the summary (and the exit code).
        iters = {
            name: sources[name].chunks(DEFAULT_CHUNK) for name in names
        }
        while iters:
            round_chunks = {}
            for name in list(iters):
                try:
                    chunk = next(iters[name], None)
                except (ValueError, OSError) as exc:
                    errors[name] = str(exc)
                    del iters[name]
                    continue
                if chunk is None:
                    del iters[name]
                else:
                    round_chunks[name] = chunk
                    points[name] += chunk.size
            if not round_chunks:
                break
            for name, bursts in fleet.process(round_chunks).items():
                collected[name].extend(bursts)
        for name, bursts in fleet.finish().items():
            collected[name].extend(bursts)
        counters = fleet.merged_counters()
    ok_names = [name for name in names if name not in errors]
    for name in ok_names:
        _report_skipped(sources[name].path, sources[name])
        out_path = out_dir / f"{name}.bursts.csv"
        out_path.write_text(_burst_csv(collected[name]))
        print(
            f"{name}: {points[name]} points, "
            f"{len(collected[name])} bursts -> {out_path}"
        )
    total_points = sum(points[name] for name in ok_names)
    print(
        f"# {len(ok_names)} streams, {total_points} points, "
        f"{counters.total_operations} operations "
        f"({counters.total_operations / max(1, total_points):.1f}/point), "
        f"workers={fleet.num_workers or 'serial'}",
        file=sys.stderr,
    )
    print(f"# stats: {fleet.stats().describe()}", file=sys.stderr)
    for name in sorted(errors):
        print(f"error: {name}: {errors[name]}", file=sys.stderr)
    if errors:
        print(
            f"error: {len(errors)} of {len(names)} streams failed; "
            "their outputs were not written",
            file=sys.stderr,
        )
        return 1
    return 0


def _detect_many_timestamped(
    args: argparse.Namespace, fleet, spec, names, paths, out_dir: Path
) -> int:
    """detect-many over out-of-order 'timestamp,value' feeds.

    Same round-robin shape as the in-order path — bounded memory, one
    failing stream never takes down the batch — but batches go through
    the per-stream watermark ingestors, and the outputs are each
    stream's *final* bursts (amendments and retractions applied).
    """
    from .ingest import LateRecordError

    ingest = _make_ingestor(args, fleet, spec)
    sources = {
        name: TimestampedCSVSource(
            path, skip_bad_records=args.skip_bad_records
        )
        for name, path in zip(names, paths)
    }
    errors: dict[str, str] = {}
    with fleet:
        iters = {
            name: sources[name].batches(DEFAULT_CHUNK) for name in names
        }
        while iters:
            for name in list(iters):
                try:
                    batch = next(iters[name], None)
                except (ValueError, OSError) as exc:
                    errors[name] = str(exc)
                    del iters[name]
                    continue
                if batch is None:
                    del iters[name]
                    continue
                try:
                    ingest.push_batch(name, *batch)
                except LateRecordError as exc:
                    errors[name] = str(exc)
                    del iters[name]
        ingest.finish()
        counters = fleet.merged_counters()
        stats = fleet.stats().describe()
    ok_names = [name for name in names if name not in errors]
    total_points = 0
    for name in ok_names:
        _report_skipped(sources[name].path, sources[name])
        stream_ingestor = ingest.ingestor(name)
        bursts = sorted(stream_ingestor.final_bursts())
        records = stream_ingestor.ledger.records
        total_points += records
        out_path = out_dir / f"{name}.bursts.csv"
        out_path.write_text(_burst_csv(bursts))
        print(
            f"{name}: {records} records, {len(bursts)} bursts -> {out_path}"
        )
    print(
        f"# {len(ok_names)} streams, {total_points} records, "
        f"{counters.total_operations} operations "
        f"({counters.total_operations / max(1, total_points):.1f}/record), "
        f"workers={fleet.num_workers or 'serial'}",
        file=sys.stderr,
    )
    print(f"# ingest: {ingest.ledger().summary()}", file=sys.stderr)
    print(f"# stats: {stats}", file=sys.stderr)
    for name in sorted(errors):
        print(f"error: {name}: {errors[name]}", file=sys.stderr)
    if errors:
        print(
            f"error: {len(errors)} of {len(names)} streams failed; "
            "their outputs were not written",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    print(load_spec(args.spec).describe())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Elastic burst detection with Shifted Aggregation Trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit thresholds + adapt a structure")
    p_train.add_argument("training", help="training stream CSV (one value/line)")
    p_train.add_argument("--max-window", type=int, required=True)
    p_train.add_argument(
        "-p", "--probability", type=float, default=1e-6,
        help="target burst probability (default 1e-6)",
    )
    p_train.add_argument(
        "--step", type=int, default=1,
        help="window size step (detect sizes step, 2*step, ...; default 1)",
    )
    p_train.add_argument(
        "--thresholds", choices=("normal", "empirical"), default="normal"
    )
    p_train.add_argument("-o", "--output", default="detector-spec.json")
    _add_skip_bad_records(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_detect = sub.add_parser("detect", help="detect bursts in a stream")
    p_detect.add_argument("spec", help="detector spec JSON from `train`")
    p_detect.add_argument(
        "stream",
        help="stream CSV: one value per line, rows in time order "
        "(or 'timestamp,value' rows in any order with --timestamped)",
    )
    p_detect.add_argument(
        "-o", "--output", default=None, help="bursts CSV (default: stdout)"
    )
    p_detect.add_argument(
        "--workers", type=_parse_workers, default="auto",
        help="worker processes: auto, serial, or a count (default auto; "
        "a single stream always degrades to serial)",
    )
    _add_skip_bad_records(p_detect)
    _add_ingestion(p_detect)
    _add_durable(p_detect)
    _add_backend(p_detect)
    _add_faults(p_detect)
    p_detect.set_defaults(func=_cmd_detect)

    p_recover = sub.add_parser(
        "recover",
        help="resume a crashed --durable-dir run (snapshot + WAL replay)",
    )
    p_recover.add_argument(
        "durable_dir",
        help="directory a previous `detect --durable-dir` run wrote",
    )
    p_recover.add_argument(
        "--recovery", choices=("strict", "trim"), default="strict",
        help="torn-WAL-tail policy: strict (refuse and report, default) "
        "or trim (quarantine the damaged tail, recover the valid "
        "prefix, and report exactly what was lost)",
    )
    p_recover.add_argument(
        "--stream", default=None, metavar="FEED.csv",
        help="the original 'timestamp,value' feed; records past the "
        "reported resume offset are re-pushed and the run is finished",
    )
    p_recover.add_argument(
        "-o", "--output", default=None, help="bursts CSV (default: stdout)"
    )
    _add_skip_bad_records(p_recover)
    _add_backend(p_recover)
    p_recover.set_defaults(func=_cmd_recover)

    p_many = sub.add_parser(
        "detect-many",
        help="detect bursts in every *.csv of a directory, in parallel",
    )
    p_many.add_argument("spec", help="detector spec JSON from `train`")
    p_many.add_argument(
        "streams",
        help="directory of stream CSVs, one stream per file; rows must "
        "be in time order ('timestamp,value' rows in any order with "
        "--timestamped)",
    )
    p_many.add_argument(
        "-o", "--output", default=None,
        help="output directory for <stream>.bursts.csv files "
        "(default: the stream directory)",
    )
    p_many.add_argument(
        "--workers", type=_parse_workers, default="auto",
        help="worker processes: auto, serial, or a count (default auto)",
    )
    _add_skip_bad_records(p_many)
    _add_ingestion(p_many)
    _add_backend(p_many)
    _add_faults(p_many)
    p_many.set_defaults(func=_cmd_detect_many)

    p_inspect = sub.add_parser("inspect", help="describe a detector spec")
    p_inspect.add_argument("spec")
    p_inspect.set_defaults(func=_cmd_inspect)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
