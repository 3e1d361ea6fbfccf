# Exact finite-MDP solver for small instances: Q-value iteration and exact
# policy evaluation. Ground truth for optimality checks.
#
# The only stochasticity is the background transition x -> x', so a backup
# sums over |S_e| successors rather than the whole state space.

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import BankConfig, BackgroundChain
from .env import bank_model, state_count

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


def check_tol(tol: float) -> None:
    """Reject a NaN or negative tol, which no sweep meets, and an infinite
    one, which any first sweep meets."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol: must be finite and >= 0, got {tol}")


def _fixed_point(sweep, v: np.ndarray, tol: float, max_sweeps: int):
    """Iterate v, change = sweep(v) until change <= tol; returns (v, change, sweeps)."""
    for n in range(1, max_sweeps + 1):
        v, delta = sweep(v)
        if delta <= tol:
            return v, delta, n
    raise IterationLimitExceeded(delta, max_sweeps)


class ExactModel:
    """Flattened (state, action) arrays over every row of the bank's
    compiled model (env.bank_model), for vectorized Bellman sweeps. State i
    is `compiled.state(i)` and its actions are `compiled.row(i)`'s."""

    def __init__(self, bank: BankConfig, chain: BackgroundChain):
        n = state_count(bank, chain)
        if n > STATE_CAP:
            raise StateSpaceTooLarge(
                f"state space has {n} states, exceeding the cap of {STATE_CAP}")
        self.bank = bank
        self.chain = chain
        self.compiled = bank_model(bank, chain)
        self.num_b = self.compiled.num_b

        rows = [self.compiled.row(i) for i in range(n)]
        counts = np.array([len(row.actions) for row in rows], dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(counts)))
        self.sa_rewards = np.concatenate([row.rewards for row in rows])
        self.sa_x = np.repeat(np.arange(n, dtype=np.int64) // self.num_b, counts)
        self.sa_bnext = np.fromiter(
            itertools.chain.from_iterable(row.next_bid for row in rows),
            dtype=np.int64, count=len(self.sa_rewards))

    @property
    def n_states(self) -> int:
        return self.compiled.n_states

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
    check_tol(tol)
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps: must be >= 1, got {max_sweeps}")
    model = ExactModel(bank, chain)
    q, delta, sweeps = _fixed_point(model.backup, np.zeros(model.n_sa), tol, max_sweeps)
    return ExactSolution(q=q, residual=delta, iterations=sweeps, model=model)


def evaluate_policy_exact(bank: BankConfig, chain: BackgroundChain, policy,
                          tol: float = DEFAULT_TOL,
                          model: ExactModel | None = None) -> np.ndarray:
    """Fixed point of the policy's evaluation operator, as a value vector
    indexed by state id. `policy` maps a state id to the index of its action
    in that state's compiled row (see policies.make_policy). Pass the
    `model` of an earlier solve of this bank and chain to reuse it."""
    check_tol(tol)
    if model is None:
        model = ExactModel(bank, chain)

    n = model.n_states
    sa = model.offsets[:-1] + np.fromiter(map(policy, range(n)),
                                          dtype=np.int64, count=n)
    r_pi = model.sa_rewards[sa]
    bnext = model.sa_bnext[sa]
    xs = model.sa_x[sa]

    def sweep(V):
        PV = chain.transition @ V.reshape(chain.n_states, model.num_b)
        V_new = r_pi + bank.gamma * PV[xs, bnext]
        return V_new, float(np.abs(V_new - V).max())

    return _fixed_point(sweep, np.zeros(n), tol, DEFAULT_MAX_SWEEPS)[0]


def write_solution_csv(sol: ExactSolution, path) -> None:
    model = sol.model
    compiled = model.compiled
    V = sol.values()
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["state_index", "x", "b", "best_action", "optimal_value"])
        for i in range(model.n_states):
            s = compiled.state(i)
            best = np.argmax(sol.q[model.offsets[i]:model.offsets[i + 1]])
            wr.writerow([i, s.x,
                         " ".join(map(str, s.b)),
                         " ".join(map(str, compiled.row(i).actions[best])),
                         f"{V[i]:.12g}"])
