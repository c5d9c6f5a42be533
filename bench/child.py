"""One benchmark child: a trajreeb CLI command in a fresh process.

    python3 bench/child.py REPORT.json [--trace] -- CLI_ARGS...

Records the moment ``trajreeb.cli`` has been imported (``time.monotonic``,
which the parent's clock shares), runs ``trajreeb.cli.run(CLI_ARGS)`` and
writes a JSON report with that moment and the process's peak RSS.  With
``--trace`` the call runs under the tracer and the report also holds the
spans and the counts read from the traced calls' return values.  Exits with
the CLI's exit code.
"""

import json
import sys
import time


def counts(results: dict) -> dict:
    """Work and structure counts from the traced calls' return values."""
    connect = disconnect = steps = 0
    for schedule in results.get("events.detect", []):
        kinds = [e.kind.name for e in schedule]
        connect += kinds.count("CONNECT")
        disconnect += kinds.count("DISCONNECT")
        steps += schedule.steps[-1] - schedule.steps[0] + 1
    graphs = results.get("reeb.build", [])
    vertex_kinds = [str(v.kind) for r in graphs for v in r.vertices]
    split = vertex_kinds.count("split")
    reports = results.get("metrics.compute", [])
    return {
        "io.points": sum(len(t) for s in results.get("io.parse", []) for t in s),
        "events.connect": connect,
        "events.disconnect": disconnect,
        "events.per_step": (connect + disconnect) / steps if steps else 0.0,
        "reeb.vertices": len(vertex_kinds),
        "reeb.merge": vertex_kinds.count("merge"),
        "reeb.split": split,
        "reeb.edges": sum(len(r.edges) for r in graphs),
        "reeb.split_per_disconnect": split / disconnect if disconnect else 0.0,
        "serialize.bytes": sum(len(b) for b in results.get("serialize.write", [])),
        "metrics.graphs": len(reports),
        "metrics.vertices_max": max((m.n_vertices for m in reports), default=0),
    }


def peak_rss_kb() -> int:
    """This process's own RSS high-water mark.  Not ru_maxrss: Linux carries
    that across exec from the process that spawned this one, so it would
    report the parent's peak whenever that is larger."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def main(argv: list[str]) -> int:
    report_path, options = argv[0], argv[1:argv.index("--")]
    cli_args = argv[argv.index("--") + 1:]

    import trajreeb.cli

    report = {"imported_at": time.monotonic()}
    if "--trace" in options:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        code = tracer.run_root(trajreeb.cli.run, cli_args)
        report.update(tracer.report())
        report["counts"] = counts(tracer.results)
        report["counts"]["connectivity.updates"] = tracer.aggregates["connectivity.update"][1]
        report["counts"]["connectivity.queries"] = tracer.aggregates["connectivity.query"][1]
    else:
        code = trajreeb.cli.run(cli_args)
    report["peak_rss_kb"] = peak_rss_kb()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
