"""battbank benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload seed generates the
instance (see workloads.py); the program receives only the generated config
and CLI flags, and runs in fresh single-threaded worker processes
(worker.py) that import it from `src/`.

--trace 0 measures the end-to-end metrics with tracing off: `setup_s` is the
median over several fresh processes of process start to config loaded and
validated, `command_s` the median wall time of one `battbank compare` or
`battbank solve-exact` call over the calls that fit in `--seconds`, and
`peak_rss_mb` the peak resident memory of the measuring process plus its
largest child. --trace 1 makes one untraced and two traced calls, reports the
per-layer metrics, the tracing overhead, and checks that the exact counts
of the two traced calls agree.

Every call's outputs are checked outside the timed region. Human-readable
lines come first; the last line of standard output is the JSON result. A full
record, with provenance, goes to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, check_invocation, make_instance

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 9
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def unit_of(name: str) -> str:
    """Unit of a reported metric, from its name: `layer.quantity[.part]`."""
    quantity = name.split(".")[1] if "." in name else name
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_pct", "%"), ("_mb", "MB"), ("ratio", "ratio"),
                         ("coverage", "ratio"), ("redundancy", "ratio")):
        if quantity.endswith(suffix):
            return unit
    return "count"


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def call_worker(work: str, tag: str, job: dict) -> tuple[float, dict]:
    """Run one worker process; returns (monotonic start time, result)."""
    job = dict(job, result=os.path.join(work, f"{tag}.out.json"))
    job_path = os.path.join(work, f"{tag}.job.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "worker.py"), job_path],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {tag} did not finish in {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(job["result"]) as fh:
        return started, json.load(fh)


def measure_setup(work: str, config_path: str) -> list[float]:
    job = {"mode": "setup", "config": config_path}
    call_worker(work, "setup-warm", job)   # fills the file cache and bytecode
    times = []
    for i in range(SETUP_REPEATS):
        started, res = call_worker(work, f"setup-{i}", job)
        if not res["valid"]:
            raise BenchError("generated config failed validation")
        times.append(res["ready"] - started)
    return times


def source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_all(inst, invocations: list[dict], reference) -> tuple[int, list[str]]:
    attempted, failures = 0, []
    for inv in invocations:
        n, bad = check_invocation(inst, inv, reference)
        attempted += n
        failures.extend(bad)
    return attempted, failures


def run_plain(work, inst, config_path, argv, seconds, reference) -> dict:
    setups = measure_setup(work, config_path)
    _, res = call_worker(work, "run", {"mode": "run", "argv": argv, "seconds": seconds})
    walls = [inv["wall"] for inv in res["invocations"]]
    attempted, failures = check_all(inst, res["invocations"], reference)
    metrics = {
        "setup_s": statistics.median(setups),
        "command_s": statistics.median(walls),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    detail = {"setup_s": setups, "command_walls": walls,
              "totals": [inv.get("totals") for inv in res["invocations"]]}
    return dict(metrics=metrics, attempted=attempted, failures=failures,
                mismatches=[], detail=detail, provenance=res["provenance"])


def run_traced(work, inst, argv, reference) -> dict:
    from tracer import EXACT_COUNTS

    job = {"argv": argv, "seconds": 0}
    _, plain = call_worker(work, "run", dict(job, mode="run"))
    _, first = call_worker(work, "trace-1", dict(job, mode="trace"))
    _, second = call_worker(work, "trace-2", dict(job, mode="trace"))
    invocations = plain["invocations"] + first["invocations"] + second["invocations"]
    attempted, failures = check_all(inst, invocations, reference)
    a, b = first["layers"], second["layers"]
    mismatches = [f"exact count {name} differs between traced runs: {a[name]} vs {b[name]}"
                  for name in EXACT_COUNTS if a[name] != b[name]]
    metrics = {k: a[k] if a[k] == b[k] else (a[k] + b[k]) / 2 for k in a}
    traced_walls = [first["invocations"][0]["wall"], second["invocations"][0]["wall"]]
    untraced_wall = plain["invocations"][0]["wall"]
    metrics["trace.overhead_pct"] = 100.0 * (statistics.fmean(traced_walls) / untraced_wall - 1.0)
    detail = {"untraced_wall": untraced_wall, "traced_walls": traced_walls,
              "spans": first["spans"], "not_traced": first["missing"]}
    return dict(metrics=metrics, attempted=attempted, failures=failures,
                mismatches=mismatches, detail=detail, provenance=first["provenance"])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "battbank", "cli.py")):
        print(f"error: no battbank sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    reference = load_json(os.path.join(BENCH, "reference.json")).get(
        args.workload, {}).get(str(args.seed))

    inst = make_instance(args.workload, args.seed)
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    work = os.path.join(STATE, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        config_path = os.path.join(work, "config.json")
        with open(config_path, "w") as fh:
            json.dump(inst.config, fh, indent=1)
        cli_argv = inst.argv(config_path, os.path.join(work, "out.csv"))
        if args.trace:
            out = run_traced(work, inst, cli_argv, reference)
        else:
            out = run_plain(work, inst, config_path, cli_argv, args.seconds, reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = out["metrics"]
    failed_rows = len(out["failures"])
    provenance = dict(out["provenance"], git_sha=git_sha(), src_sha256=source_digest(),
                      workload=args.workload, seed=args.seed, instance=inst.describe())
    print(f"battbank benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name in sorted(metrics):
        print(f"  {name:<34} {metrics[name]:>16.6g} {unit_of(name)}")
    print(f"  {'fail_rate':<34} {failed_rows / out['attempted']:>16.6g} ratio "
          f"({failed_rows} of {out['attempted']} rows)")
    for msg in out["failures"] + out["mismatches"]:
        print(f"  FAILED: {msg}")
    for entry in out["detail"].get("not_traced", []):
        print(f"  not traced: {entry} no longer exists")

    result = {
        "correct": not (out["failures"] or out["mismatches"]),
        "attempted": out["attempted"],
        "failed": failed_rows,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    record = dict(result, provenance=provenance, all_metrics=metrics,
                  failures=out["failures"] + out["mismatches"], detail=out["detail"],
                  trace=args.trace, seconds=args.seconds)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(STATE, "results", name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
