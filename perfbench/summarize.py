"""Summarise benchmark result records and optionally record a baseline.

    python3 perfbench/summarize.py [RECORD.json ...] [--baseline] [--reference]

With no paths it reads every record under `.perfbench/results/`. For each
workload it prints each end-to-end metric's median, quartiles and spread
(the distance between the quartiles as a share of the median, as
`statistics.quantiles(values, n=4)` gives them) against the metric's bound.

--baseline  writes perfbench/baseline.json: those end-to-end figures plus the
            per-layer metrics and span table (calls, total and self time per
            span name) of the newest traced record of each workload.
--reference writes perfbench/reference.json: the greedy and naive totals of
            every compare record, keyed by workload seed, which later runs
            on those seeds must reproduce bit for bit.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
from collections import defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def load(paths: list[str]) -> list[dict]:
    if not paths:
        paths = glob.glob(os.path.join(ROOT, ".perfbench", "results", "*.json"))
    records = []
    for path in sorted(paths, key=os.path.getmtime):
        with open(path) as fh:
            records.append(json.load(fh))
    return records


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("records", nargs="*")
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--reference", action="store_true")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    records = load(args.records)
    plain, traced = defaultdict(list), {}
    for rec in records:
        wl = rec["provenance"]["workload"]
        if rec["trace"]:
            traced[wl] = rec
        else:
            plain[wl].append(rec)

    summary = {}
    for wl, recs in sorted(plain.items()):
        seeds = sorted({r["provenance"]["seed"] for r in recs})
        bad = sum(not r["correct"] for r in recs)
        print(f"{wl}: {len(recs)} runs, seeds {seeds}, {bad} not correct")
        summary[wl] = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in recs]
            if len(values) < 2:
                continue
            s = summary[wl][m["name"]] = spread(values)
            flag = "ok" if s["spread"] < m["bound"] / 3 else (
                "within bound" if s["spread"] <= m["bound"] else "OVER BOUND")
            print(f"  {m['name']:<12} median {s['median']:10.4f} {m['unit']:<3} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} "
                  f"spread {s['spread']:7.2%} (bound {m['bound']:.0%}) {flag}")

    if args.baseline:
        prov = records[-1]["provenance"] if records else {}
        doc = {
            "git_sha": prov.get("git_sha"), "src_sha256": prov.get("src_sha256"),
            "machine": {k: prov.get(k) for k in ("python", "numpy", "scipy", "nproc")},
            "end_to_end": summary,
            "per_layer": {wl: rec["all_metrics"] for wl, rec in sorted(traced.items())},
            "spans": {wl: rec["detail"]["spans"] for wl, rec in sorted(traced.items())},
        }
        with open(os.path.join(BENCH, "baseline.json"), "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.reference:
        ref: dict = defaultdict(dict)
        for wl, recs in plain.items():
            for rec in recs:
                totals = rec["detail"]["totals"][0]
                if totals:
                    ref[wl][str(rec["provenance"]["seed"])] = {
                        size: {p: per[p] for p in ("greedy", "naive")}
                        for size, per in totals.items()}
        with open(os.path.join(BENCH, "reference.json"), "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
