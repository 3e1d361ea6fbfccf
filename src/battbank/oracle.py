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
# sums over |S_e| successors rather than the whole state space. A pair acts
# only through its post-decision state (x, b + a), so Q-values are held per
# (x, b'), an (n_bg, num_b) array, and every row argmax or maximum gathers
# them through the table's post-action ids a chunk of states at a time
# (env.first_argmax): the solver forms no pair-sized float array.

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BankConfig, BackgroundChain
from .env import bank_model, first_argmax, row_max, state_count

STATE_CAP = 10**6
DEFAULT_TOL = 1e-9
MAX_SWEEPS = 10**5   # per Q iteration, and per policy evaluation
MAX_PI_STEPS = 1000
# states per solution-CSV write: a block's rows are held as Python objects
# and as text, about 0.3 MiB for 1024 states of three batteries
_CSV_BLOCK = 1 << 10


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
    """The bank's compiled table (env.bank_model) read for vectorized
    Bellman sweeps: `table` is `compiled.table` itself, and the model adds
    no pair-sized array of its own. State i owns the pairs
    table.offsets[i]:offsets[i + 1], in feasible_actions order, as in
    `compiled.rows[i]`. Q-values are held per post-decision state, an
    (n_bg, num_b) array Q whose entry Q[x, b'] is the value of every pair of
    background state x's block that leads to occupancy b'; a maximum over
    the pairs is a maximum over `compiled.reached`.
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
        self.table = self.compiled.table
        # (pairs, tol, value) of the latest evaluate_from_zero
        self._from_zero = None

    @property
    def n_states(self) -> int:
        return self.compiled.n_states

    @property
    def n_sa(self) -> int:
        return len(self.table.post)

    def state_values(self, q: np.ndarray) -> np.ndarray:
        """Each state's largest Q-value, from per-(x, b') values or from a
        pair-sized q."""
        t = self.table
        return row_max(q, t.offsets, t.post if q.ndim == 2 else None)

    def expected_next(self, V: np.ndarray) -> np.ndarray:
        """PV[x, b'] = sum over x' of P[x, x'] V(x', b'): the expected value
        of successor occupancy b' from background state x."""
        return self.chain.transition @ V.reshape(-1, self.compiled.num_b)

    def lookahead(self, V: np.ndarray) -> np.ndarray:
        """r(b') + gamma * E[V(x', eta b')] of every post-decision state
        (x, b'), (n_bg, num_b): the Q-value of each pair leading there."""
        PV = self.expected_next(V)[:, self.table.post_next]
        PV *= self.bank.gamma
        PV += self.table.post_reward
        return PV

    def backup(self, q: np.ndarray) -> tuple[np.ndarray, float]:
        """One synchronous sweep; returns (q', sup-norm change over the
        pairs). q is per (x, b'), whose change is the largest over the
        reached entries, or pair-sized, and q' takes q's form."""
        Q = self.lookahead(self.state_values(q))
        if q.ndim == 1:   # each pair reads its (x, b')
            t, num_b = self.table, self.compiled.num_b
            Q = Q[np.repeat(np.arange(len(Q)), np.diff(t.offsets[::num_b])), t.post]
            return Q, float(np.abs(Q - q).max())
        return Q, float(np.abs(Q - q).max(where=self.compiled.reached,
                                          initial=0.0))

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
    q: np.ndarray   # (n_bg, num_b): a pair's Q-value is q[x, post]
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
    q, delta, sweeps = _fixed_point(
        model.backup, np.zeros((chain.n_states, model.compiled.num_b)), tol)
    return ExactSolution(q=q, residual=delta, iterations=sweeps, model=model)


def _evaluate(model: ExactModel, sa: np.ndarray, V: np.ndarray,
              tol: float) -> np.ndarray:
    """Sweep from V the evaluation operator of the policy that takes flat
    pair sa[i] in state i, until a sweep changes V by at most tol."""
    t, num_b = model.table, model.compiled.num_b
    r_pi = t.post_reward[t.post[sa]]
    # x * num_b + b' of each state's pair: where expected_next(V) holds its
    # next value
    nxt = np.arange(len(sa)) // num_b * num_b + t.post_next[t.post[sa]]
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
    t = model.table
    x = np.arange(model.n_states) // model.compiled.num_b   # of each state
    sa = first_argmax(t.post_reward, t.offsets, t.post)   # V = 0 improved
    V = model.evaluate_from_zero(sa, tol)
    for step in range(1, MAX_PI_STEPS + 1):
        q = model.lookahead(V)
        best = first_argmax(q, t.offsets, t.post)
        gain = q[x, t.post[best]] - q[x, t.post[sa]]
        # V is within g * tol / (1 - g) of the policy's value, so q within g
        # times that; rounding is bounded relative to the largest |q| of a
        # pair
        top = float(np.abs(q).max(where=model.compiled.reached, initial=0.0))
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
    occupancies and best action space-joined, and its value in %.12g, the
    Q-value of its first argmax. Each block of states is formatted with one
    % operation."""
    model, t = sol.model, sol.model.table
    n, num_b, k = model.n_states, model.compiled.num_b, model.bank.n + 4
    ints = " ".join(["%d"] * model.bank.n)
    occ = np.array([ints % tuple(b) for b in
                    model.compiled.decode(np.arange(num_b))[1].tolist()], dtype=object)
    best = first_argmax(sol.q, t.offsets, t.post)
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
            for j, col in enumerate(t.actions[best[lo:hi]].T.tolist(), 3):
                args[j::k] = col
            args[k - 1::k] = sol.q[x, t.post[best[lo:hi]]].tolist()
            fh.write(row * (hi - lo) % tuple(args))
