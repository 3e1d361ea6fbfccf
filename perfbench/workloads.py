"""Benchmark workloads: instances generated from a workload seed, the CLI
arguments that run them, and the checks on their outputs.

The program only ever sees the generated config file and CLI flags; the
workload seed itself stays inside the benchmark.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

# The shipped toy instance, copied so the benchmark does not move when the
# repository's example config changes.
TOY_CHAIN = {
    "labels": [-4, -1, 1, 5],
    "transition": [
        [0.0, 0.5, 0.3, 0.2],
        [0.5, 0.0, 0.1, 0.4],
        [0.3, 0.2, 0.0, 0.5],
        [0.3, 0.3, 0.4, 0.0],
    ],
    "net_gen": [-4, -1, 1, 5],
}
TOY_WEIGHTS = (0.1, 1.0)

TRAIN_STEPS = 100_000
RL_GAP_LIMIT = 0.02          # compare-free: |rl - greedy| / |greedy|
PASS_MARK = "[PASS at 1e-8"  # solve-exact verdict for lossless, unconstrained banks


@dataclass(frozen=True)
class Workload:
    name: str
    command: str               # "compare" or "solve-exact"
    sizes: tuple               # capacity tuples (compare) or the one bank (solve)
    ramps: tuple
    n_seeds: int = 0           # compare rows per size
    eval_steps: int = 0        # rollout length T (compare)
    gamma: float = 0.9
    tol: float = 0.0           # solve-exact tolerance
    weights: tuple = TOY_WEIGHTS


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="compare-free",
            command="compare", sizes=((6, 10), (10, 10)), ramps=(25, 25),
            n_seeds=2, eval_steps=100_000),
        Workload(
            name="compare-ramped-long",
            command="compare", sizes=((20, 20),), ramps=(2, 2),
            n_seeds=1, eval_steps=400_000),
        Workload(
            name="solve-3bat",
            command="solve-exact", sizes=((8, 8, 8),), ramps=(25, 25, 25),
            gamma=0.95, tol=1e-12, weights=(0.1, 1.0, 0.5)),
    )
}


@dataclass
class Instance:
    workload: Workload
    config: dict
    row_seeds: tuple           # compare seeds handed to the CLI

    @property
    def n_states(self) -> int:
        n = len(self.config["chain"]["labels"])
        for B in self.workload.sizes[0]:
            n *= B + 1
        return n

    def describe(self) -> dict:
        w = self.workload
        out = {"command": w.command, "sizes": [list(s) for s in w.sizes],
               "ramps": list(w.ramps), "gamma": w.gamma,
               "chain_transition": self.config["chain"]["transition"]}
        if w.command == "compare":
            out.update(row_seeds=list(self.row_seeds), T=w.eval_steps,
                       training_steps=TRAIN_STEPS)
        else:
            out.update(tol=w.tol, n_states=self.n_states)
        return out

    def argv(self, config_path: str, out_path: str) -> list[str]:
        w = self.workload
        if w.command == "compare":
            return ["compare", config_path,
                    "--sizes", *(",".join(map(str, s)) for s in w.sizes),
                    "--seeds", *map(str, self.row_seeds),
                    "--ramp", ",".join(map(str, w.ramps)),
                    "--eval-steps", str(w.eval_steps),
                    "--steps", str(TRAIN_STEPS),
                    "--out", out_path]
        return ["solve-exact", config_path, "--tol", repr(w.tol), "--out", out_path]

    def rows_per_invocation(self) -> int:
        w = self.workload
        return len(w.sizes) * w.n_seeds if w.command == "compare" else 1


def make_instance(name: str, seed: int) -> Instance:
    w = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    chain = json.loads(json.dumps(TOY_CHAIN))
    if w.command == "solve-exact":
        # a dense positive matrix is irreducible; rows normalised in float
        rows = []
        for _ in chain["labels"]:
            raw = [rng.uniform(0.05, 1.0) for _ in chain["labels"]]
            total = math.fsum(raw)
            rows.append([v / total for v in raw])
        chain["transition"] = rows
    row_seeds = tuple(rng.sample(range(1_000_000), w.n_seeds))
    batteries = [
        {"capacity": B, "ramp": c, "dissipation": 1.0, "penalty_weight": wt,
         "lower_frac": 0.2, "upper_frac": 0.8}
        for B, c, wt in zip(w.sizes[0], w.ramps, w.weights)
    ]
    config = {"batteries": batteries, "chain": chain, "gamma": w.gamma,
              "initial_occupancy": "half"}
    return Instance(workload=w, config=config, row_seeds=row_seeds)


# ---------------------------------------------------------------------------
# Output checks. Each returns (rows attempted, list of failure messages, one
# per failed row); they run outside the timed region.

def check_invocation(inst: Instance, inv: dict, reference: dict | None) -> tuple[int, list[str]]:
    attempted = inst.rows_per_invocation()
    if inv["rc"] != 0:
        return attempted, [f"exit status {inv['rc']}: {inv['stderr'].strip()[-300:]}"] * attempted
    if inst.workload.command == "compare":
        return attempted, _check_compare(inst, inv, reference)
    return attempted, _check_solve(inst, inv)


def _check_compare(inst: Instance, inv: dict, reference: dict | None) -> list[str]:
    w = inst.workload
    totals = inv.get("totals") or {}
    bad = []
    for size in w.sizes:
        key = "x".join(map(str, size))
        per = totals.get(key)
        for i, row_seed in enumerate(inst.row_seeds):
            row = f"sizes {key} seed {row_seed}"
            try:
                g, n, r = (float.fromhex(per[p][i]) for p in ("greedy", "naive", "rl"))
            except (TypeError, KeyError, IndexError):
                bad.append(f"{row}: missing from the table")
                continue
            problems = []
            if w.name == "compare-free":
                if not g >= n:
                    problems.append(f"greedy {g} below naive {n}")
                if not abs(r - g) <= RL_GAP_LIMIT * abs(g):
                    problems.append(f"rl {r} more than 2% from greedy {g}")
            elif not r > g:
                problems.append(f"rl {r} does not beat greedy {g}")
            if reference is not None:
                problems.extend(
                    f"{p} total {per[p][i]} differs from the recorded {reference[key][p][i]}"
                    for p in ("greedy", "naive") if per[p][i] != reference[key][p][i])
            if problems:
                bad.append(f"{row}: " + "; ".join(problems))
    return bad


def _check_solve(inst: Instance, inv: dict) -> list[str]:
    problems = []
    if PASS_MARK not in inv["stdout"]:
        problems.append("no PASS verdict at 1e-8 in the solve-exact output")
    if inv.get("csv_lines") != inst.n_states + 1:
        problems.append(f"solution CSV has {inv.get('csv_lines')} lines, expected "
                        f"{inst.n_states} states plus a header")
    return ["; ".join(problems)] if problems else []
