# Exact finite-MDP solver for small instances: Q-value iteration and exact
# policy evaluation. Ground truth for optimality checks.
#
# The only stochasticity is the background transition x -> x', so a backup
# sums over |S_e| successors rather than the whole state space.

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .core import BankConfig, BackgroundChain, State
from .env import apply_action, bank_model, reward

STATE_CAP = 10**6
DEFAULT_TOL = 1e-9
DEFAULT_MAX_SWEEPS = 10**5


class StateSpaceTooLarge(ValueError):
    pass


class IterationLimitExceeded(RuntimeError):
    def __init__(self, residual: float, sweeps: int):
        super().__init__(f"no convergence after {sweeps} sweeps; residual {residual:.3e}")
        self.residual = residual
        self.sweeps = sweeps


def enumerate_states(bank: BankConfig, chain: BackgroundChain) -> list[State]:
    """Deterministic bijective enumeration: background index major, then
    occupancy vectors in mixed-radix (first battery slowest) order."""
    num_b = 1
    for B in bank.capacities:
        num_b *= B + 1
    total = num_b * chain.n_states
    if total > STATE_CAP:
        raise StateSpaceTooLarge(
            f"state space has {total} states, exceeding the cap of {STATE_CAP}")
    occupancies = list(itertools.product(*(range(B + 1) for B in bank.capacities)))
    return [State(x=x, b=b)
            for x in range(chain.n_states)
            for b in occupancies]


class ExactModel:
    """Flattened (state, action) arrays over every row of the bank's
    compiled model (env.bank_model), for vectorized Bellman sweeps."""

    def __init__(self, bank: BankConfig, chain: BackgroundChain):
        self.bank = bank
        self.chain = chain
        self.states = enumerate_states(bank, chain)
        self.compiled = bank_model(bank, chain)
        self.num_b = self.compiled.num_b

        rows = [self.compiled.row(i) for i in range(len(self.states))]
        self.actions = [row.actions for row in rows]
        counts = np.array([len(a) for a in self.actions], dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(counts)))
        self.sa_rewards = np.concatenate([row.rewards for row in rows])
        self.sa_x = np.repeat(np.arange(len(rows), dtype=np.int64) // self.num_b,
                              counts)
        self.sa_bnext = np.fromiter(
            itertools.chain.from_iterable(row.next_bid for row in rows),
            dtype=np.int64, count=len(self.sa_rewards))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_sa(self) -> int:
        return len(self.sa_rewards)

    def state_values(self, q: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(q, self.offsets[:-1])

    def backup(self, q: np.ndarray) -> tuple[np.ndarray, float]:
        """One synchronous sweep; returns (q', sup-norm change)."""
        V = self.state_values(q).reshape(self.chain.n_states, self.num_b)
        PV = self.chain.transition @ V
        q_new = self.sa_rewards + self.bank.gamma * PV[self.sa_x, self.sa_bnext]
        return q_new, float(np.abs(q_new - q).max())

    def greedy_actions(self, q: np.ndarray) -> list:
        out = []
        for i in range(self.n_states):
            seg = q[self.offsets[i]:self.offsets[i + 1]]
            out.append(self.actions[i][int(np.argmax(seg))])
        return out


@dataclass
class ExactSolution:
    q: np.ndarray
    residual: float
    iterations: int
    model: ExactModel

    def values(self) -> np.ndarray:
        return self.model.state_values(self.q)

    def suboptimality_bound(self) -> float:
        g = self.model.bank.gamma
        return 2 * g * self.residual / (1 - g)


def solve_q_iteration(bank: BankConfig, chain: BackgroundChain,
                      tol: float = DEFAULT_TOL,
                      max_sweeps: int = DEFAULT_MAX_SWEEPS) -> ExactSolution:
    model = ExactModel(bank, chain)
    q = np.zeros(model.n_sa)
    for sweep in range(1, max_sweeps + 1):
        q, delta = model.backup(q)
        if delta <= tol:
            return ExactSolution(q=q, residual=delta, iterations=sweep, model=model)
    raise IterationLimitExceeded(delta, max_sweeps)


def evaluate_policy_exact(bank: BankConfig, chain: BackgroundChain, policy,
                          tol: float = DEFAULT_TOL,
                          model: ExactModel | None = None) -> np.ndarray:
    """Fixed point of the policy's evaluation operator, as a value vector in
    enumeration order. `policy` maps State -> feasible Action. Pass the
    `model` of an earlier solve of this bank and chain to reuse it."""
    if model is None:
        model = ExactModel(bank, chain)

    r_pi = np.empty(model.n_states)
    bnext = np.empty(model.n_states, dtype=np.int64)
    xs = np.empty(model.n_states, dtype=np.int64)
    for i, s in enumerate(model.states):
        a = policy(s)
        r_pi[i] = reward(bank, s, a)
        bnext[i] = model.compiled.occupancy_id(apply_action(bank, s.b, a))
        xs[i] = s.x

    V = np.zeros(model.n_states)
    for sweep in range(1, DEFAULT_MAX_SWEEPS + 1):
        PV = chain.transition @ V.reshape(chain.n_states, model.num_b)
        V_new = r_pi + bank.gamma * PV[xs, bnext]
        delta = float(np.abs(V_new - V).max())
        V = V_new
        if delta <= tol:
            return V
    raise IterationLimitExceeded(delta, DEFAULT_MAX_SWEEPS)


def write_solution_csv(sol: ExactSolution, path) -> None:
    model = sol.model
    V = sol.values()
    best = model.greedy_actions(sol.q)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["state_index", "x", "b", "best_action", "optimal_value"])
        for i, s in enumerate(model.states):
            wr.writerow([i, s.x,
                         " ".join(map(str, s.b)),
                         " ".join(map(str, best[i])),
                         f"{V[i]:.12g}"])
