# Exact finite-MDP solver for small instances: Howard policy iteration
# (Puterman 1994, sec. 6.4), Q-value iteration and exact policy evaluation.
# Ground truth for optimality checks.
#
# Policy iteration starts from V = 0, whose first improvement is the greedy
# rule (the first argmax of each state's rewards), so on a bank where greedy
# is optimal it stops after one step. Each policy is evaluated on its own
# n-state chain by sweeps that stop at a change of at most `tol`; one final
# Q backup gives the reported residual.
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
MAX_PI_STEPS = 1000


class StateSpaceTooLarge(ValueError):
    pass


class IterationLimitExceeded(RuntimeError):
    def __init__(self, residual: float, iterations: int, unit: str = "sweeps"):
        super().__init__(
            f"no convergence after {iterations} {unit}; residual {residual:.3e}")
        self.residual = residual
        self.iterations = iterations


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

    def first_argmax(self, q: np.ndarray) -> np.ndarray:
        """Flat index of each state's first best (state, action) pair under q."""
        counts = np.diff(self.offsets)
        best = np.flatnonzero(q == np.repeat(self.state_values(q), counts))
        return best[np.searchsorted(best, self.offsets[:-1])]

    def lookahead(self, V: np.ndarray) -> np.ndarray:
        """r(s, a) + gamma * E[V(x', b')] for every (state, action) pair."""
        PV = self.chain.transition @ V.reshape(self.chain.n_states, self.num_b)
        return self.sa_rewards + self.bank.gamma * PV[self.sa_x, self.sa_bnext]

    def backup(self, q: np.ndarray) -> tuple[np.ndarray, float]:
        """One synchronous sweep; returns (q', sup-norm change)."""
        q_new = self.lookahead(self.state_values(q))
        return q_new, float(np.abs(q_new - q).max())


@dataclass
class ExactSolution:
    q: np.ndarray
    residual: float
    iterations: int
    model: ExactModel

    def values(self) -> np.ndarray:
        return self.model.state_values(self.q)

    def policy(self):
        """State id -> index, in that state's compiled row, of its first best
        action under q: the policy the solution CSV writes out."""
        return (self.model.first_argmax(self.q) - self.model.offsets[:-1]).__getitem__

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


def _evaluate(model: ExactModel, sa: np.ndarray, V: np.ndarray,
              tol: float) -> np.ndarray:
    """Sweep from V the evaluation operator of the policy that takes flat
    pair sa[i] in state i, until a sweep changes V by at most tol."""
    r_pi = model.sa_rewards[sa]
    bnext = model.sa_bnext[sa]
    xs = model.sa_x[sa]
    P, gamma = model.chain.transition, model.bank.gamma

    def sweep(V):
        PV = P @ V.reshape(model.chain.n_states, model.num_b)
        V_new = r_pi + gamma * PV[xs, bnext]
        return V_new, float(np.abs(V_new - V).max())

    return _fixed_point(sweep, V, tol, DEFAULT_MAX_SWEEPS)[0]


def solve_policy_iteration(bank: BankConfig, chain: BackgroundChain,
                           tol: float = DEFAULT_TOL) -> ExactSolution:
    """Howard policy iteration from the greedy rule. `iterations` counts
    evaluate-and-improve steps, the last of which switches no state; each
    evaluation is warm-started from the previous one and stops at a sweep
    change of at most `tol`. A state switches action only when its first
    argmax beats the current action by more than the evaluation error and
    rounding could account for, so every switch is a true improvement and
    near-ties cannot cycle. Raises IterationLimitExceeded after
    MAX_PI_STEPS steps."""
    check_tol(tol)
    model = ExactModel(bank, chain)
    g = bank.gamma
    sa = model.first_argmax(model.sa_rewards)    # the improvement of V = 0
    V = np.zeros(model.n_states)
    for step in range(1, MAX_PI_STEPS + 1):
        V = _evaluate(model, sa, V, tol)
        q = model.lookahead(V)
        best = model.first_argmax(q)
        gain = q[best] - q[sa]
        # V is within g * tol / (1 - g) of the policy's value, so q within g
        # times that; rounding is bounded relative to the largest |q|
        margin = (2 * g * g * tol
                  + 64 * np.finfo(float).eps * float(np.abs(q).max())) / (1 - g)
        switch = gain > margin
        if not switch.any():
            q, residual = model.backup(q)
            return ExactSolution(q=q, residual=residual, iterations=step, model=model)
        sa = np.where(switch, best, sa)
    raise IterationLimitExceeded(float(gain.max()), MAX_PI_STEPS,
                                 "policy-iteration steps")


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
    return _evaluate(model, sa, np.zeros(n), tol)


def write_solution_csv(sol: ExactSolution, path) -> None:
    model = sol.model
    compiled = model.compiled
    V = sol.values()
    best = sol.policy()
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["state_index", "x", "b", "best_action", "optimal_value"])
        for i in range(model.n_states):
            s = compiled.state(i)
            wr.writerow([i, s.x,
                         " ".join(map(str, s.b)),
                         " ".join(map(str, compiled.row(i).actions[best(i)])),
                         f"{V[i]:.12g}"])
