# Coupled-trajectory evaluation of multiple policies and multi-seed
# comparison tables.

from __future__ import annotations

import csv
import dataclasses
import statistics
from dataclasses import dataclass, field

import numpy as np

from .chain import Trajectory, check_count, generate_trajectory
from .core import BankConfig, BackgroundChain, is_index, validate_config
from .env import bank_model
from .learner import LearnSchedule, train
from .policies import make_policy

# offset separating training-schedule seeds from trajectory seeds, so a
# comparison row never reuses one stream for both phases
TRAIN_SEED_OFFSET = 0x5EED


def coupled_rollout(bank: BankConfig, chain: BackgroundChain,
                    policies: list[tuple[str, object]], traj: Trajectory,
                    b0: tuple[int, ...]) -> dict[str, float]:
    """Evaluate each deterministic policy on the identical x-path, starting
    from the same occupancy vector; returns each policy's total reward by
    name.

    Each policy is an array as policies.make_policy returns. The reward and
    next occupancy id of every state's choice are gathered from the compiled
    table once, so a step reads two lists, and the totals equal the
    step-by-step loop over env.reward and env.apply_action bit for bit.
    The lists are indexed occupancy first, `bid * n_bg + x`, with each
    successor stored as `bid' * n_bg`, so a step adds x to find its entry.
    """
    bank.check_occupancy(b0, "b0")
    model = bank_model(bank, chain)
    n_bg = chain.n_states
    # a state outside the chain's would land in another occupancy's entry
    path = np.asarray(traj.x_path)
    for x in (path.min(initial=0), path.max(initial=0)):
        if not 0 <= x < n_bg:
            raise ValueError(f"traj: state {x} outside the {n_bg}-state chain")
    totals = {}
    for name, policy in policies:
        # state ids run x * num_b + bid: the transpose puts bid first
        pairs = model.pairs(policy, f"policy {name}").reshape(n_bg, -1).T.ravel()
        rewards = model.table.post_reward[model.table.post[pairs]].tolist()
        nxt = (model.table.post_next[model.table.post[pairs]] * n_bg).tolist()
        total = 0.0
        s = model.occupancy_id(b0) * n_bg
        for x in traj.x_path[:-1]:
            s += x
            total += rewards[s]
            s = nxt[s]
        totals[name] = total
    return totals


@dataclass
class ComparisonRow:
    sizes: tuple[int, ...]
    policy: str
    mean: float
    stddev: float
    totals: list[float]


@dataclass
class ComparisonTable:
    rows: list[ComparisonRow] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def row(self, sizes: tuple[int, ...], policy: str) -> ComparisonRow:
        for r in self.rows:
            if r.sizes == tuple(sizes) and r.policy == policy:
                return r
        raise KeyError((sizes, policy))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["sizes", "policy", "seed_mean", "seed_stddev", "totals"])
            for r in self.rows:
                wr.writerow([
                    "x".join(map(str, r.sizes)), r.policy,
                    f"{r.mean:.6f}", f"{r.stddev:.6f}",
                    " ".join(f"{t:.6f}" for t in r.totals),
                ])

    def format(self) -> str:
        lines = [f"{'sizes':>10} {'policy':>8} {'mean total':>16} {'stddev':>12}"]
        for r in self.rows:
            lines.append(f"{'x'.join(map(str, r.sizes)):>10} {r.policy:>8} "
                         f"{r.mean:>16.1f} {r.stddev:>12.1f}")
        lines.extend(f"FAILED: {f}" for f in self.failures)
        return "\n".join(lines)


def resize_bank(bank: BankConfig, sizes: tuple[int, ...],
                ramps: tuple[int, ...] | None = None) -> BankConfig:
    """Same bank with capacities (and optionally ramps) replaced; the
    initial occupancy reverts to the half-full default. A float or bool
    size or ramp is rejected, not truncated."""
    ramps = bank.ramps if ramps is None else ramps
    for name, vals in (("sizes", sizes), ("ramps", ramps)):
        if len(vals) != bank.n:
            raise ValueError(f"{len(vals)} {name} for {bank.n} batteries")
        if not all(map(is_index, vals)):
            raise ValueError(f"{name}: expected integers, got {tuple(vals)}")
    batteries = tuple(dataclasses.replace(bat, capacity=int(B), ramp=int(c))
                      for bat, B, c in zip(bank.batteries, sizes, ramps))
    return dataclasses.replace(bank, batteries=batteries, initial_occupancy="half")


def compare_policies(bank: BankConfig, chain: BackgroundChain,
                     sizes: list[tuple[int, ...]], seeds: list[int], T: int,
                     schedule: LearnSchedule | None = None,
                     ramps: tuple[int, ...] | None = None,
                     x0: int = 0) -> ComparisonTable:
    """For each size tuple and seed: train RL with a fresh schedule seed,
    then run a coupled rollout of greedy / naive / rl on one shared
    trajectory. Rows that fail are recorded and the rest continue."""
    if schedule is None:
        schedule = LearnSchedule()
    table = ComparisonTable()

    for i, size in enumerate(sizes):
        size = tuple(size)
        totals: dict[str, list[float]] = {"greedy": [], "naive": [], "rl": []}
        try:
            # before any training, so a bad T, size or seed fails the row at
            # once: a repeated size would repeat a row table.row cannot find
            check_count(T, "T")
            if size in map(tuple, sizes[:i]):
                raise ValueError(f"sizes: {size} given twice")
            if not seeds:
                raise ValueError("seeds: must name at least one seed, got []")
            # a repeated seed repeats its run: the mean would count it twice
            for k, seed in enumerate(seeds):
                check_count(seed, "seed")
                if seed in seeds[:k]:
                    raise ValueError(f"seeds: {seed} given twice")
            sized = resize_bank(bank, size, ramps)
            report = validate_config(sized, chain)
            if not report.passed:
                raise ValueError("; ".join(report.violations))
            b0 = sized.start_occupancy()
            # greedy and naive do not depend on the seed; rl is trained per seed
            fixed = [(name, make_policy(name, sized, chain))
                     for name in ("greedy", "naive")]
            for seed in seeds:
                sched = dataclasses.replace(schedule, seed=seed + TRAIN_SEED_OFFSET)
                w, _ = train(sized, chain, sched, x0=x0)
                traj = generate_trajectory(chain, x0, T, seed)
                rl = make_policy("rl", sized, chain, weights=w)
                for name, total in coupled_rollout(
                        sized, chain, [*fixed, ("rl", rl)], traj, b0).items():
                    totals[name].append(total)
        except (ValueError, FloatingPointError) as exc:
            # a size or ramp the bank cannot take, an x0, T or seed out of
            # range, or diverged training: record the row and keep the rest;
            # any other error is a bug and propagates
            table.failures.append(f"sizes {size}: {type(exc).__name__}: {exc}")
            continue
        for name, vals in totals.items():
            table.rows.append(ComparisonRow(
                sizes=size, policy=name,
                mean=statistics.fmean(vals),
                stddev=statistics.stdev(vals) if len(vals) > 1 else 0.0,
                totals=vals,
            ))
    return table
