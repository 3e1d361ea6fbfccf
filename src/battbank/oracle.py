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

import math
from dataclasses import dataclass

import numpy as np

from .core import BankConfig, BackgroundChain
from .env import bank_model, first_argmax, state_count

STATE_CAP = 10**6
DEFAULT_TOL = 1e-9
MAX_SWEEPS = 10**5   # per Q iteration, and per policy evaluation
MAX_PI_STEPS = 1000
# states per solution-CSV write: at most this many rows are held as text
_CSV_BLOCK = 1 << 14
# pairs per piece of a Q lookahead or backup: what a piece allocates
_PIECE = 1 << 14


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


def _fixed_point(sweep, v: np.ndarray, tol: float):
    """Iterate v, change = sweep(v) until change <= tol, for at most
    MAX_SWEEPS sweeps; returns (v, change, sweeps)."""
    for n in range(1, MAX_SWEEPS + 1):
        v, delta = sweep(v)
        if delta <= tol:
            return v, delta, n
    raise IterationLimitExceeded(delta, MAX_SWEEPS)


class ExactModel:
    """The bank's compiled table (env.bank_model) read as flat (state,
    action) arrays for vectorized Bellman sweeps: `offsets`, `sa_actions`,
    `sa_rewards`, `post` and `post_next` are the table's own arrays, not
    copies, and the model adds no pair-sized array of its own. State i owns
    the pairs offsets[i]:offsets[i + 1], in feasible_actions order, as in
    `compiled.rows[i]`. State ids put the background state first, so
    background state x owns contiguous pairs, all of whose successors are
    read from the same row of expected next values; `blocks` cuts them
    into pieces `(x, slice)` of at most _PIECE pairs each.
    STATE_CAP bounds the states, not the pairs: a (16,16,16) bank with free
    ramps has 2% of the cap in states and 3.0M pairs."""

    def __init__(self, bank: BankConfig, chain: BackgroundChain):
        n = state_count(bank, chain)
        if n > STATE_CAP:
            raise StateSpaceTooLarge(
                f"state space has {n} states, exceeding the cap of {STATE_CAP}")
        self.bank = bank
        self.chain = chain
        self.compiled = bank_model(bank, chain)
        self.num_b = self.compiled.num_b
        table = self.compiled.table
        (self.offsets, self.sa_actions, self.sa_rewards, self.post,
         self.post_next) = table
        ends = self.offsets[::self.num_b].tolist()
        self.blocks = [(x, slice(lo, min(lo + _PIECE, hi)))
                       for x, (start, hi) in enumerate(zip(ends, ends[1:]))
                       for lo in range(start, hi, _PIECE)]
        # (pairs, tol, value) of the latest evaluate_from_zero
        self._from_zero = None

    @property
    def n_states(self) -> int:
        return self.compiled.n_states

    @property
    def n_sa(self) -> int:
        return len(self.sa_rewards)

    def state_values(self, q: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(q, self.offsets[:-1])

    def expected_next(self, V: np.ndarray) -> np.ndarray:
        """PV[x, b'] = sum over x' of P[x, x'] V(x', b'): the expected value
        of successor occupancy b' from background state x."""
        return self.chain.transition @ V.reshape(self.chain.n_states, self.num_b)

    def lookahead(self, V: np.ndarray) -> np.ndarray:
        """r(s, a) + gamma * E[V(x', b')] for every (state, action) pair,
        built in one output vector: expected_next(V) is read once per
        post-action occupancy, and each block of background state x's
        pairs gathers from row x of that by its pairs' post-action ids."""
        PV = self.expected_next(V)[:, self.post_next]
        q = np.empty(self.n_sa)
        for x, blk in self.blocks:
            # post-action ids lie in the row, so "clip" clips nothing;
            # unlike the default "raise", it writes into `out` without a
            # buffer. take copies a read-only index, as the table's post
            # is, so that copy is the piece's one temporary
            PV[x].take(self.post[blk], out=q[blk], mode="clip")
        q *= self.bank.gamma
        q += self.sa_rewards
        return q

    def backup(self, q: np.ndarray) -> tuple[np.ndarray, float]:
        """One synchronous sweep; returns (q', sup-norm change)."""
        q_new = self.lookahead(self.state_values(q))
        # one block at a time: no pair-sized difference is held beside q
        # and q_new, and q is not written
        change = np.empty(len(self.blocks))
        for j, (_, blk) in enumerate(self.blocks):
            diff = q_new[blk] - q[blk]
            change[j] = np.abs(diff, out=diff).max()
            del diff   # freed before the next block's difference is taken
        return q_new, float(change.max())

    def evaluate_from_zero(self, sa: np.ndarray, tol: float) -> np.ndarray:
        """The value of the policy that takes flat pair sa[i] in state i,
        swept from V = 0 until a sweep changes it by at most tol; read-only.
        The latest is kept, so asking again for the same policy and tol
        returns it without a sweep: policy iteration's first step evaluates
        the greedy rule so, and solve-exact's optimality check asks again."""
        last = self._from_zero
        if last is None or last[1] != tol or not np.array_equal(last[0], sa):
            V = _evaluate(self, sa, np.zeros(self.n_states), tol)
            V.flags.writeable = False
            self._from_zero = last = sa, tol, V
        return last[2]


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
                      tol: float = DEFAULT_TOL) -> ExactSolution:
    check_tol(tol)
    model = ExactModel(bank, chain)
    q, delta, sweeps = _fixed_point(model.backup, np.zeros(model.n_sa), tol)
    return ExactSolution(q=q, residual=delta, iterations=sweeps, model=model)


def _evaluate(model: ExactModel, sa: np.ndarray, V: np.ndarray,
              tol: float) -> np.ndarray:
    """Sweep from V the evaluation operator of the policy that takes flat
    pair sa[i] in state i, until a sweep changes V by at most tol."""
    r_pi = model.sa_rewards[sa]
    # x * num_b + b' of each state's pair: where expected_next(V) holds its
    # next value
    nxt = (np.arange(len(sa)) // model.num_b * model.num_b
           + model.post_next[model.post[sa]])
    gamma = model.bank.gamma

    def sweep(V):
        V_new = r_pi + gamma * model.expected_next(V).take(nxt)
        return V_new, float(np.abs(V_new - V).max())

    return _fixed_point(sweep, V, tol)[0]


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
    sa = first_argmax(model.sa_rewards, model.offsets)   # the improvement of V = 0
    V = model.evaluate_from_zero(sa, tol)
    for step in range(1, MAX_PI_STEPS + 1):
        q = model.lookahead(V)
        best = first_argmax(q, model.offsets)
        gain = q[best] - q[sa]
        # V is within g * tol / (1 - g) of the policy's value, so q within g
        # times that; rounding is bounded relative to the largest |q|
        top = float(max(q.max(), -q.min()))   # max |q|, without an |q| array
        margin = (2 * g * g * tol + 64 * np.finfo(float).eps * top) / (1 - g)
        switch = gain > margin
        if not switch.any():
            q, residual = model.backup(q)
            return ExactSolution(q=q, residual=residual, iterations=step, model=model)
        sa = np.where(switch, best, sa)
        V = _evaluate(model, sa, V, tol)
    raise IterationLimitExceeded(float(gain.max()), MAX_PI_STEPS,
                                 "policy-iteration steps")


def evaluate_policy_exact(bank: BankConfig, chain: BackgroundChain, policy,
                          tol: float = DEFAULT_TOL,
                          model: ExactModel | None = None) -> np.ndarray:
    """Fixed point of the policy's evaluation operator, as a value vector
    indexed by state id. `policy` is an array as policies.make_policy
    returns: entry sid indexes state sid's compiled row. Pass the `model`
    of an earlier solve of this bank and chain to reuse it, and with it the
    value of the greedy rule, which policy iteration's first step holds;
    a model of other batteries, another gamma or another chain object is
    rejected. The result is read-only."""
    check_tol(tol)
    if model is None:
        model = ExactModel(bank, chain)
    elif (model.bank.batteries != bank.batteries or model.bank.gamma != bank.gamma
          or model.chain is not chain):
        raise ValueError("model: built for another bank or chain than the "
                         "one given")
    return model.evaluate_from_zero(model.compiled.pairs(policy), tol)


def write_solution_csv(sol: ExactSolution, path) -> None:
    """One CRLF-ended row per state id, as csv.writer's excel dialect writes
    them (no field needs quoting): the id, its background index, its
    occupancies and best action space-joined, and its value in %.12g. Each
    block of states is formatted with one % operation."""
    model = sol.model
    n, num_b, k = model.n_states, model.num_b, model.bank.n + 4
    ints = " ".join(["%d"] * model.bank.n)
    occ = np.array([ints % tuple(b) for b in
                    model.compiled.decode(np.arange(num_b))[1].tolist()], dtype=object)
    best = model.sa_actions[first_argmax(sol.q, model.offsets)]
    values = sol.values()
    row = "%d,%d,%s," + ints + ",%.12g\r\n"
    with open(path, "w", newline="") as fh:
        fh.write("state_index,x,b,best_action,optimal_value\r\n")
        for lo in range(0, n, _CSV_BLOCK):
            hi = min(lo + _CSV_BLOCK, n)
            x, b = np.divmod(np.arange(lo, hi), num_b)
            args = [None] * (k * (hi - lo))
            args[0::k] = range(lo, hi)
            args[1::k] = x.tolist()
            args[2::k] = occ[b].tolist()
            for j, col in enumerate(best[lo:hi].T.tolist(), 3):
                args[j::k] = col
            args[k - 1::k] = values[lo:hi].tolist()
            fh.write(row * (hi - lo) % tuple(args))
