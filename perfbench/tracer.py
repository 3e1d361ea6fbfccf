"""In-memory span tracer for the benchmark's traced run.

`install` replaces the public functions each layer exposes with wrappers
that record a span (name, start, end, parent) and a few counts taken from
the call's arguments and result. Nothing inside the program changes; the
wrappers sit at the module attributes the callers look up. Per-layer
metrics, including self times (a span's duration minus the time its child
spans cover), are computed from the spans after the run.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict

POLICIES = ("greedy", "naive", "rl")
TABLE_CALLERS = ("learner", "policies", "oracle")

# Counts that must repeat exactly across two traced runs with one seed.
EXACT_COUNTS = (
    "env.table_builds", *(f"env.table_builds.{c}" for c in TABLE_CALLERS),
    "oracle.sweeps", "oracle.model_builds", "learner.states_visited",
    *(f"policies.fresh_calls.{p}" for p in POLICIES),
)


def _n_states(bank, chain) -> int:
    return chain.n_states * math.prod(B + 1 for B in bank.capacities)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self.tabulated: set = set()      # distinct (bank, x, b) given a table
        self.missing: list[str] = []     # wrap points the program no longer has

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            # a refactor removed this entry point; its metrics then read 0
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if after is not None:
                after(*args, result=result, **kwargs)
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        from battbank import core, harness, learner, oracle, policies

        counts = self.counts

        def on_table(bank, chain, s, result):
            counts["env.actions"] += len(result.actions)
            self.tabulated.add((bank.capacities, bank.ramps, s.x, s.b))

        def on_train(bank, chain, schedule, result, **_):
            counts["learner.steps"] += schedule.t_train
            counts["learner.states_total"] += _n_states(bank, chain)

        def on_traj(chain, x0, T, seed, result):
            counts["chain.steps"] += T

        def on_rollout(bank, chain, policies_, traj, b0, result):
            steps = len(policies_) * (len(traj.x_path) - 1)
            counts["harness.rollout_steps"] += steps
            counts["policies.calls"] += steps

        def on_eval(bank, chain, policy, result, **_):
            counts["policies.calls"] += _n_states(bank, chain)

        def on_model(model, *_, **__):
            self.peaks["oracle.n_states"] = max(self.peaks.get("oracle.n_states", 0),
                                                model.n_states)
            self.peaks["oracle.n_sa"] = max(self.peaks.get("oracle.n_sa", 0), model.n_sa)

        self.wrap(core, "load_config", "core.load")
        self.wrap(core, "validate_config", "core.load")
        self.wrap(harness, "train", "learner.train", on_train)
        self.wrap(harness, "generate_trajectory", "chain.traj", on_traj)
        self.wrap(harness, "coupled_rollout", "harness.rollout", on_rollout)
        for caller, module in zip(TABLE_CALLERS, (learner, policies, oracle)):
            self.wrap(module, "state_actions", f"env.table.{caller}", on_table)
        for module in (learner, policies):
            self.wrap(module, "kernel_matrix", "features.kernel")
        for p in POLICIES:
            self.wrap(policies, f"{p}_action", f"policies.fresh.{p}")
        self.wrap(oracle.ExactModel, "__init__", "oracle.build", on_model)
        self.wrap(oracle.ExactModel, "backup", "oracle.sweep")
        self.wrap(oracle, "solve_q_iteration", "oracle.solve")
        self.wrap(oracle, "evaluate_policy_exact", "oracle.eval", on_eval)
        self.wrap(oracle, "write_solution_csv", "cli.csv")
        self.wrap(harness.ComparisonTable, "write_csv", "cli.csv")

    def span_table(self) -> dict[str, dict]:
        """Calls, total time and self time per span name."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return table

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts."""
        table = self.span_table()
        n = defaultdict(int, {k: v["calls"] for k, v in table.items()})
        total = defaultdict(float, {k: v["total_s"] for k, v in table.items()})
        own = defaultdict(float, {k: v["self_s"] for k, v in table.items()})

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        builds = sum(n[f"env.table.{k}"] for k in TABLE_CALLERS)
        fresh = sum(n[f"policies.fresh.{p}"] for p in POLICIES)
        out = {
            "core.load_s": total["core.load"],
            "chain.traj_s": total["chain.traj"],
            "chain.steps_per_s": ratio(c["chain.steps"], total["chain.traj"]),
            "env.table_builds": builds,
            **{f"env.table_builds.{k}": n[f"env.table.{k}"] for k in TABLE_CALLERS},
            "env.table_s": sum(total[f"env.table.{k}"] for k in TABLE_CALLERS),
            "env.actions_per_table": ratio(c["env.actions"], builds),
            "env.build_redundancy": ratio(builds, len(self.tabulated)),
            "features.kernel_calls": n["features.kernel"],
            "features.kernel_s": total["features.kernel"],
            "learner.train_s": total["learner.train"],
            "learner.steps_per_s": ratio(c["learner.steps"], total["learner.train"]),
            "learner.self_s": own["learner.train"],
            "learner.states_visited": n["env.table.learner"],
            "learner.coverage": ratio(n["env.table.learner"], c["learner.states_total"]),
            **{f"policies.fresh_calls.{p}": n[f"policies.fresh.{p}"] for p in POLICIES},
            **{f"policies.fresh_s.{p}": total[f"policies.fresh.{p}"] for p in POLICIES},
            "policies.memo_hit_ratio": ratio(c["policies.calls"] - fresh, c["policies.calls"]),
            "harness.rollout_s": total["harness.rollout"],
            "harness.rollout_steps_per_s": ratio(c["harness.rollout_steps"],
                                                 total["harness.rollout"]),
            "harness.rollout_self_s": own["harness.rollout"],
            "oracle.model_builds": n["oracle.build"],
            "oracle.build_s": total["oracle.build"],
            "oracle.sweeps": n["oracle.sweep"],
            "oracle.sweep_ms": 1000.0 * ratio(total["oracle.sweep"], n["oracle.sweep"]),
            "oracle.solve_s": total["oracle.solve"],
            "oracle.eval_s": total["oracle.eval"],
            "oracle.n_states": self.peaks.get("oracle.n_states", 0),
            "oracle.n_sa": self.peaks.get("oracle.n_sa", 0),
            "cli.csv_s": total["cli.csv"],
        }
        return out
