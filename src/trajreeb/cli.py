"""Command-line interface.

Commands: build, metrics, sweep, compare, export-schedule.  Everything is
configured with explicit flags (no environment variables, no config files)
and outputs carry an input content hash instead of timestamps, so identical
invocations produce identical bytes.  `build` and `export-schedule` write
their output a chunk at a time as it is formatted, so the whole document is
never held in memory.

Exit codes: 0 success, 1 input error, 2 internal contract violation.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import sys
from contextlib import nullcontext

from .errors import ContractError, TrajreebError
from .events import detect_all_events
from .geometry import Config, TrajectorySet, _check_epsilon
from .io import _CHUNK, FileFormat, format_from_path, parse, prepare
from .metrics import (
    compare_cohorts,
    comparison_to_json,
    compute_metrics,
    report_to_json,
    reports_from_csv,
    reports_to_csv,
    sweep,
)
from .reeb import build_reeb
from .serialize import _graph_chunks


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="trajreeb", description="Reeb graphs of trajectory grouping structure")
    sub = p.add_subparsers(dest="command", required=True)

    def add_input(sp, with_epsilon=True):
        sp.add_argument("--input", required=True, help="trajectory file (tck, csv, json)")
        sp.add_argument("--format", choices=[f.value for f in FileFormat],
                        help="input format (default: by file extension)")
        if with_epsilon:
            sp.add_argument("--epsilon", type=float, required=True,
                            help="grouping radius, millimeters")
        sp.add_argument("--resample", type=float, metavar="DELTA",
                        help="resample to uniform arc-length spacing before analysis")
        sp.add_argument("--orient-align", action="store_true",
                        help="flip streamlines to match trajectory 0's orientation")

    sp = sub.add_parser("build", help="construct the Reeb graph")
    add_input(sp)
    sp.add_argument("--output", help="output path (default: stdout)")
    grp = sp.add_mutually_exclusive_group()
    grp.add_argument("--graphml", action="store_true", help="write GraphML instead of JSON")
    grp.add_argument("--dot", action="store_true", help="write DOT instead of JSON")

    sp = sub.add_parser("metrics", help="compute the feature report of one graph")
    add_input(sp)
    sp.add_argument("--output", help="output path; .csv for a CSV row, else JSON")

    sp = sub.add_parser("sweep", help="feature reports across a range of epsilons")
    add_input(sp, with_epsilon=False)
    sp.add_argument("--epsilon-range", required=True, metavar="A:B:STEP",
                    help="inclusive range of epsilons, e.g. 0.5:3.0:0.5")
    sp.add_argument("--output", help="output CSV path (default: stdout)")

    sp = sub.add_parser("compare", help="compare two cohorts of report CSVs")
    sp.add_argument("--cohort-a", required=True, help="report CSV, one row per subject")
    sp.add_argument("--cohort-b", required=True, help="report CSV, one row per subject")
    sp.add_argument("--output", help="output JSON path (default: stdout)")

    sp = sub.add_parser("export-schedule", help="dump the event schedule as JSON lines")
    add_input(sp)
    sp.add_argument("--output", help="output path (default: stdout)")
    return p


# sweep keeps per-epsilon state through its detect pass, so the count of
# epsilons bounds its memory
_MAX_EPSILONS = 10_000


def _parse_range(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"epsilon range must be A:B:STEP, got {spec!r}")
    try:
        a, b, step = (float(x) for x in parts)
    except ValueError:
        raise ValueError(f"epsilon range must be numeric, got {spec!r}") from None
    if not all(map(math.isfinite, (a, b, step))):
        raise ValueError(f"epsilon range needs finite A, B and STEP, got {spec!r}")
    if a <= 0 or step <= 0 or b < a:
        raise ValueError("epsilon range needs 0 < A <= B and STEP > 0")
    if a + step == a:
        raise ValueError(f"epsilon range STEP is too small to change A, got {spec!r}")
    count = (b - a) / step + 1e-9
    if count >= _MAX_EPSILONS:
        raise ValueError(f"epsilon range holds more than {_MAX_EPSILONS} epsilons")
    return [a + i * step for i in range(int(count) + 1)]


def _load(args) -> TrajectorySet:
    """The prepared set of the input file, which is hashed and decoded a
    chunk at a time."""
    digest = hashlib.sha256()
    try:
        with open(args.input, "rb") as fh:
            fmt = FileFormat(args.format) if args.format else format_from_path(args.input)
            # a pipe cannot be read twice, so its bytes are held instead
            source = fh if fh.seekable() else io.BytesIO(fh.read())
            for chunk in iter(lambda: source.read(_CHUNK), b""):
                digest.update(chunk)
            s = parse(source, fmt)
    except OSError as exc:
        raise TrajreebError(f"cannot read {args.input}: {exc.strerror}") from None
    if len(s) == 0:
        raise TrajreebError(f"{args.input}: no usable trajectories")
    config = Config(
        epsilon=getattr(args, "epsilon", None) or 1.0,
        resample_delta=args.resample,
        orient_align=args.orient_align,
    )
    s = prepare(s, config)
    # the set is this call's own, so its metadata is filled in place
    s.metadata["input"] = args.input
    s.metadata["input_sha256"] = digest.hexdigest()
    if args.resample is not None:
        s.metadata["resample_delta"] = repr(float(args.resample))
    if args.orient_align:
        s.metadata["orient_align"] = "true"
    return s


def _emit(chunks, output: str | None) -> None:
    """Write text chunks, each encoded as it comes, to the output file or
    to stdout; the file is opened once the result to write exists."""
    with open(output, "wb") if output is not None else nullcontext(sys.stdout.buffer) as fh:
        # each chunk and its bytes are dropped once written
        fh.writelines(map(str.encode, chunks))
        fh.flush()


def _run(args) -> int:
    if "epsilon" in vars(args):
        _check_epsilon(args.epsilon)  # before the input is read
    if args.command == "build":
        s = _load(args)
        r = build_reeb(s, args.epsilon)
        fmt = "graphml" if args.graphml else "dot" if args.dot else "json"
        _emit(_graph_chunks(r, fmt), args.output)
        return 0

    if args.command == "metrics":
        s = _load(args)
        report = compute_metrics(build_reeb(s, args.epsilon))
        if args.output and args.output.lower().endswith(".csv"):
            text = reports_to_csv([report])
        else:
            text = report_to_json(report)
        _emit([text], args.output)
        return 0

    if args.command == "sweep":
        epsilons = _parse_range(args.epsilon_range)
        s = _load(args)
        reports = sweep(s, epsilons)
        _emit([reports_to_csv(reports)], args.output)
        return 0

    if args.command == "compare":
        cohorts = []
        for path in (args.cohort_a, args.cohort_b):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    cohorts.append(reports_from_csv(fh.read()))
            except OSError as exc:
                raise TrajreebError(f"cannot read {path}: {exc.strerror}") from None
        comparison = compare_cohorts(cohorts[0], cohorts[1])
        _emit([comparison_to_json(comparison)], args.output)
        return 0

    if args.command == "export-schedule":
        s = _load(args)
        schedule = detect_all_events(s, args.epsilon)
        _emit(schedule._jsonl_chunks(), args.output)
        return 0

    raise ContractError(f"unhandled command {args.command!r}")


def run(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return _run(args)
    except _CliError as exc:
        print(f"trajreeb: {exc}", file=sys.stderr)
        return 1
    except ContractError as exc:
        print(f"trajreeb: internal error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"trajreeb: internal error: {exc}", file=sys.stderr)
        return 2
    except (TrajreebError, ValueError, OSError, MemoryError) as exc:
        print(f"trajreeb: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
