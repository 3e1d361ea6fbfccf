"""One benchmark process: `python3 worker.py <job.json>`.

run.py starts a fresh interpreter on this file for each measurement, with
`src/` on PYTHONPATH and one thread per numerical library. The job names the
mode:

- setup: import the package and CLI, load and validate the config, then
  record the monotonic clock, so the parent can time process start to ready.
- run:   call `battbank.cli.main` in a loop, timing each call, until the next
  call would end past `seconds` (at least one call).
- trace: as `run`, after installing the span tracer.

The job's result is written as JSON to the job's `result` path.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time


def setup(job: dict) -> dict:
    from battbank import cli, core  # noqa: F401  (cli pulls in every layer)

    bank, chain = core.load_config(job["config"])
    report = core.validate_config(bank, chain)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    return {"ready": ready, "valid": report.passed}


def _capture_tables(harness, sink: list) -> None:
    """Keep each comparison table `compare` builds, for the output checks."""
    compare = harness.compare_policies

    def capture(*args, **kwargs):
        table = compare(*args, **kwargs)
        sink.append(table)
        return table

    harness.compare_policies = capture


def _invoke(cli, argv: list[str], tables: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    del tables[:]
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    wall = time.perf_counter() - start
    inv = {"wall": wall, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if tables:
        totals: dict = {}
        for row in tables[0].rows:
            key = "x".join(map(str, row.sizes))
            totals.setdefault(key, {})[row.policy] = [float(t).hex() for t in row.totals]
        inv["totals"] = totals
    out_path = argv[argv.index("--out") + 1]
    if os.path.exists(out_path):
        with open(out_path) as fh:
            inv["csv_lines"] = sum(1 for _ in fh)
        os.remove(out_path)
    return inv


def run(job: dict) -> dict:
    from battbank import cli, harness

    tables: list = []
    _capture_tables(harness, tables)
    invocations = []
    begin = time.perf_counter()
    while True:
        invocations.append(_invoke(cli, job["argv"], tables))
        typical = statistics.median(inv["wall"] for inv in invocations)
        if time.perf_counter() - begin + typical > job["seconds"]:
            break
    return {"invocations": invocations}


def trace(job: dict) -> dict:
    from tracer import Tracer  # this file's directory is first on sys.path

    tracer = Tracer()
    tracer.install()
    result = run(job)
    result["layers"] = tracer.metrics()
    result["spans"] = tracer.span_table()
    result["missing"] = tracer.missing
    return result


def provenance() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def main() -> None:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    result = {"setup": setup, "run": run, "trace": trace}[job["mode"]](job)
    if job["mode"] != "setup":
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = (self_kb + child_kb) / 1024.0
        result["provenance"] = provenance()
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
