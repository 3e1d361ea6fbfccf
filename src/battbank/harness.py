# Coupled-trajectory evaluation of multiple policies and multi-seed
# comparison tables.

from __future__ import annotations

import csv
import dataclasses
import itertools
import statistics
from dataclasses import dataclass, field

from .chain import Trajectory, check_length, check_seed, generate_trajectory
from .core import BankConfig, BackgroundChain, validate_config
from .env import bank_model
from .learner import LearnSchedule, train
from .policies import make_policy

# offset separating training-schedule seeds from trajectory seeds, so a
# comparison row never reuses one stream for both phases
TRAIN_SEED_OFFSET = 0x5EED


@dataclass
class PolicyStats:
    total_reward: float
    penalty_events: int


def coupled_rollout(bank: BankConfig, chain: BackgroundChain,
                    policies: list[tuple[str, object]], traj: Trajectory,
                    b0: tuple[int, ...]) -> dict[str, PolicyStats]:
    """Evaluate each deterministic policy on the identical x-path, starting
    from the same occupancy vector; returns each policy's stats by name.

    A policy is called once per distinct state it visits, and the reward
    and next occupancy id of its choice are read from the state's compiled
    row; every later visit reuses them, so the totals equal the step-by-step
    loop over env.reward and env.apply_action bit for bit.
    """
    model = bank_model(bank, chain)
    num_b = model.num_b
    T = len(traj.x_path) - 1
    stats = {}
    for name, policy in policies:
        seen: dict[int, tuple[float, int]] = {}   # state id -> (reward, next occupancy id)
        total = 0.0
        events = 0
        bid = model.occupancy_id(b0)
        for x in itertools.islice(traj.x_path, T):
            sid = x * num_b + bid
            hit = seen.get(sid)
            if hit is None:
                e, i = model.row(sid), policy(sid)
                hit = seen[sid] = (float(e.rewards[i]), e.next_bid[i])
            r, bid = hit
            total += r
            if r < 0:
                events += 1
        stats[name] = PolicyStats(total_reward=total, penalty_events=events)
    return stats


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
    initial occupancy reverts to the half-full default."""
    if len(sizes) != bank.n:
        raise ValueError(f"{len(sizes)} sizes for {bank.n} batteries")
    if ramps is not None and len(ramps) != bank.n:
        raise ValueError(f"{len(ramps)} ramps for {bank.n} batteries")
    batteries = tuple(
        dataclasses.replace(
            bat, capacity=int(B),
            ramp=int(ramps[i]) if ramps is not None else bat.ramp)
        for i, (bat, B) in enumerate(zip(bank.batteries, sizes))
    )
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

    for size in sizes:
        size = tuple(int(v) for v in size)
        totals: dict[str, list[float]] = {"greedy": [], "naive": [], "rl": []}
        try:
            # before any training, so a bad T or seed fails the row at once
            check_length(T)
            if not seeds:
                raise ValueError("seeds: must name at least one seed, got []")
            for seed in seeds:
                check_seed(seed)
            sized = resize_bank(bank, size, ramps)
            report = validate_config(sized, chain)
            if not report.passed:
                raise ValueError("; ".join(report.violations))
            b0 = sized.start_occupancy()
            for seed in seeds:
                sched = dataclasses.replace(schedule, seed=seed + TRAIN_SEED_OFFSET)
                w, _ = train(sized, chain, sched, x0=x0)
                traj = generate_trajectory(chain, x0, T, seed)
                stats = coupled_rollout(
                    sized, chain,
                    [(name, make_policy(name, sized, chain,
                                        weights=w if name == "rl" else None))
                     for name in ("greedy", "naive", "rl")],
                    traj, b0)
                for name, st in stats.items():
                    totals[name].append(st.total_reward)
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
