"""trajreeb CLI benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's input from the seed (untimed, cached under
``.bench_cache/``), then runs the workload's CLI command again and again,
each time as a fresh child process, one at a time (a closed loop with one
client), for about S seconds.  Every output is checked.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
children: wall time, set-up time (spawn until ``trajreeb.cli`` is
imported), input points per second and peak RSS.  With ``--trace 1``
untraced and traced children alternate, and the metrics are per-layer self
times and counts from the traced children (see ``tracer.py``), plus the
tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from inputs import BundleSpec, Input, materialize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"

DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 170.0  # a run must end within 180 s


@dataclass(frozen=True)
class Workload:
    spec: BundleSpec
    stream: int  # keeps workloads that share a seed from sharing draws
    command: tuple[str, ...]
    epsilons: tuple[float, ...]
    kind: str  # "reeb" or "sweep": which output checks apply


# Sizes are scaled from 4000x132, 2000x1500 and 160x132 so that one child
# takes ~4-6 s on a 2-vCPU Xeon and a run holds several; each keeps its
# dominant layer.
WORKLOADS = {
    # ~180 events per step: replay (connectivity engine + Reeb builder)
    # dominates, where the engine choice and JSON size show
    "dense-bundle": Workload(
        BundleSpec(2000, 132, wobble=0.35), 1,
        ("build", "--epsilon", "1.2"), (1.2,), "reeb"),
    # ~12 events per step over 600 steps, ragged lengths and half the fibers
    # reversed: detect dominates through the per-step ragged path
    "long-ragged": Workload(
        BundleSpec(1500, 600, wobble=0.1, max_cut=0.1, reverse_half=True), 2,
        ("build", "--orient-align", "--epsilon", "1.2"), (1.2,), "reeb"),
    # six epsilons across the percolation transition: metrics dominate and
    # detect runs six times on one input
    "eps-sweep": Workload(
        BundleSpec(100, 132, wobble=0.35), 3,
        ("sweep", "--epsilon-range", "0.9:1.4:0.1"),
        (0.9, 1.0, 1.1, 1.2, 1.3, 1.4), "sweep"),
}

# per-layer metric -> (span name, "total" or "self") summed over its spans
LAYER_TIMES = {
    "events.detect_s": ("events.detect", "total"),
    "reeb.replay_self_s": ("reeb.build", "self"),
    "metrics.compute_self_s": ("metrics.compute", "self"),
    "metrics.betweenness_s": ("metrics.betweenness", "total"),
    "metrics.modularity_s": ("metrics.modularity", "total"),
    "metrics.efficiency_s": ("metrics.efficiency", "total"),
    "metrics.clustering_s": ("metrics.clustering", "total"),
    "io.parse_s": ("io.parse", "total"),
    "io.prepare_s": ("io.prepare", "total"),
    "serialize.write_s": ("serialize.write", "total"),
    "cli.self_s": ("cli", "self"),
}
AGGREGATE_TIMES = {
    "connectivity.update_s": "connectivity.update",
    "connectivity.query_s": "connectivity.query",
}
AGGREGATE_COUNTS = {
    "connectivity.update_s": "connectivity.updates",
    "connectivity.query_s": "connectivity.queries",
}
COUNTS = (
    "io.points", "events.connect", "events.disconnect", "events.per_step",
    "connectivity.updates", "connectivity.queries",
    "reeb.vertices", "reeb.merge", "reeb.split", "reeb.edges",
    "reeb.split_per_disconnect", "serialize.bytes",
    "metrics.graphs", "metrics.vertices_max",
)
COUNT_UNITS = {"events.per_step": "1/step", "reeb.split_per_disconnect": "ratio"}


@dataclass
class Child:
    wall_s: float
    setup_s: float | None
    rss_mb: float | None
    code: int | None  # None: killed at the timeout
    output: bytes | None
    report: dict | None


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(argv: list[str], timeout: float) -> tuple[float, float, int | None]:
    """Run argv to its exit; (spawn time, wall s, exit code or None if
    killed at the timeout)."""
    t0 = time.monotonic()
    p = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                         stdout=sys.stderr)
    try:
        code = p.wait(timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        code = None
    return t0, time.monotonic() - t0, code


def run_child(w: Workload, inp: Input, trace: bool, timeout: float) -> Child:
    out = CACHE / "out" / ("sweep.csv" if w.kind == "sweep" else "reeb.json")
    report = CACHE / "out" / "report.json"
    for path in (out, report):
        path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), str(report)]
    argv += ["--trace"] if trace else []
    argv += ["--", *w.command, "--input", str(inp.path.relative_to(ROOT)),
             "--output", str(out.relative_to(ROOT))]
    t0, wall, code = spawn(argv, timeout)
    rep = json.loads(report.read_text()) if code == 0 and report.exists() else None
    setup = rep["imported_at"] - t0 if rep else None
    rss = rep["peak_rss_kb"] / 1024.0 if rep else None
    return Child(wall, setup, rss, code, out.read_bytes() if out.exists() else None, rep)


class Checker:
    """Checks each distinct output once; identical bytes share the verdict."""

    def __init__(self, name: str, w: Workload, inp: Input, seed: int):
        self.w, self.inp, self.seed = w, inp, seed
        self.verdicts: dict[str, str | None] = {}
        self.reference = None
        if seed == DEFAULT_SEED:
            ref = json.loads((BENCH / "reference.json").read_text())[name]
            self.reference = ref
            if ref["input_sha256"] != inp.sha256:
                raise SystemExit(f"bench: {name} input differs from the reference input")

    def __call__(self, data: bytes) -> str | None:
        """None if `data` passes, else the reason it fails."""
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self.verdicts:
            self.verdicts[digest] = self._check(data)
        return self.verdicts[digest]

    def _check(self, data: bytes) -> str | None:
        import checks  # imports trajreeb, so only once SRC is on sys.path

        try:
            if self.w.kind == "reeb":
                checks.check_reeb(data, self.w.epsilons[0], self.inp.end_steps,
                                  self._trajectories(), np.random.default_rng(self.seed))
            else:
                checks.check_sweep(data, list(self.w.epsilons))
            if self.reference is not None:
                checks.check_reference(self.w.kind, data, self.reference)
        except Exception as exc:  # any failure to check counts as a failed run
            return f"{type(exc).__name__}: {exc}"
        return None

    def _trajectories(self):
        from trajreeb.geometry import Config
        from trajreeb.io import FileFormat, parse, prepare

        s = parse(self.inp.path.read_bytes(), FileFormat.TCK)
        return prepare(s, Config(epsilon=self.w.epsilons[0],
                                 orient_align="--orient-align" in self.w.command))


def layer_metrics(report: dict) -> dict[str, float | None]:
    """Per-layer times and counts of one traced child; None where the
    traced function no longer exists."""
    absent = set(report["absent"])
    out: dict[str, float | None] = {}
    for metric, (span, field) in LAYER_TIMES.items():
        if span in absent:
            out[metric] = None
            continue
        out[metric] = sum(s["end"] - s["start"] if field == "total" else s["self"]
                          for s in report["spans"] if s["name"] == span)
    for metric, agg in AGGREGATE_TIMES.items():
        gone = any(a.startswith(agg + ".") for a in absent)
        out[metric] = None if gone else report["aggregates"][agg]["seconds"]
        count = AGGREGATE_COUNTS[metric]
        out[count] = None if gone else report["counts"][count]
    out.update({k: report["counts"][k] for k in COUNTS if k not in out})
    return out


def median(values):
    return statistics.median(values) if values else None


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    inp = materialize(w.spec, seed, w.stream, CACHE / "inputs")
    print(f"input {name} seed {seed} sha256 {inp.sha256} points {inp.n_points} bytes {inp.n_bytes}")
    check = Checker(name, w, inp, seed)
    (CACHE / "out").mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    # untimed warm-up: byte-compile the package and fill the page cache
    spawn([sys.executable, "-c", "import trajreeb.cli"], CHILD_TIMEOUT_S)

    children: list[tuple[bool, Child, str | None]] = []
    plain_output = None
    first_counts = None  # of the first traced child that passed
    while True:
        traced = trace and len(children) % 2 == 1
        left = RUN_DEADLINE_S - (time.monotonic() - started)
        c = run_child(w, inp, traced, min(CHILD_TIMEOUT_S, left))
        if c.code is None:
            problem = "timed out"
        elif c.code != 0:
            problem = f"exit code {c.code}"
        elif c.output is None or c.report is None:
            problem = "no output"
        else:
            problem = check(c.output)
        if problem is None and traced:
            got = layer_metrics(c.report)
            got = {k: got[k] for k in COUNTS}
            if c.output != plain_output:
                problem = "traced output differs from untraced output"
            elif first_counts is None:
                first_counts = got
            elif got != first_counts:
                diff = sorted(k for k in got if got[k] != first_counts[k])
                problem = f"counts differ from the first traced child: {', '.join(diff)}"
        if problem is None and not traced and plain_output is None:
            plain_output = c.output
        children.append((traced, c, problem))
        print(f"child {len(children)} {'traced' if traced else 'plain'} wall {c.wall_s:.3f} s"
              + (f" FAILED: {problem}" if problem else f" rss {c.rss_mb:.1f} MB"))
        walls = [ch.wall_s for _, ch, _ in children]
        if c.code is None or time.monotonic() - started + 2 * max(walls) > RUN_DEADLINE_S:
            break
        # with --trace, at least two traced children, so that counts can repeat
        if sum(walls) + statistics.median(walls) > seconds and (not trace or len(children) >= 4):
            break

    ok = [(t, c) for t, c, p in children if p is None]
    failed = len(children) - len(ok)
    plain = [c for t, c in ok if not t]
    if not trace:
        wall = median([c.wall_s for c in plain])
        values = {
            "wall_s": (wall, "s"),
            "setup_s": (median([c.setup_s for c in plain]), "s"),
            "points_per_s": (inp.n_points / wall if wall else None, "1/s"),
            "peak_rss_mb": (median([c.rss_mb for c in plain]), "MB"),
        }
    else:
        traced_reports = [layer_metrics(c.report) for t, c in ok if t]
        values = {}
        for metric in [*LAYER_TIMES, *AGGREGATE_TIMES]:
            got = [r[metric] for r in traced_reports]
            values[metric] = (None if not got or None in got else median(got), "s")
        for metric in COUNTS:
            got = traced_reports[0][metric] if traced_reports else None
            values[metric] = (got, COUNT_UNITS.get(metric, "count"))
        values["io.input_bytes"] = (inp.n_bytes, "count")
        walls_traced = [c.wall_s for t, c in ok if t]
        overhead = (median(walls_traced) - median([c.wall_s for c in plain])
                    if walls_traced and plain else None)
        values["trace.overhead_s"] = (overhead, "s")
    return {
        "correct": failed == 0 and bool(ok),
        "attempted": len(children),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "trajreeb" / "cli.py").is_file():
        print(f"bench: no trajreeb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
