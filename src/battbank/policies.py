# Deployable controllers: greedy, naive-proportional, learned-weights RL.
#
# Tie-breaking everywhere: the lexicographically smallest action. Feasible
# sets are enumerated in lexicographic order, so "first maximizer" does it.
#
# A policy is an array: entry sid indexes state sid's compiled row. Each rule
# is written once; the *_action functions apply it to a freshly tabulated row
# and are the reference that make_policy is tested against.

from __future__ import annotations

import math

import numpy as np

from .core import Action, BankConfig, BackgroundChain, State
from .env import StateActions, bank_model, first_argmax, state_actions
from .features import feature_dim, kernel_matrix, q_values

POLICY_NAMES = ("greedy", "naive", "rl")


def _round_half_toward_zero(t: float) -> int:
    a = math.floor(abs(t))
    if abs(t) - a > 0.5:
        a += 1
    return -a if t < 0 else a


def _naive(bank: BankConfig, row: StateActions) -> int:
    """Apportion the clipped target proportionally to capacities; repair to
    feasibility by minimal L1 local search when rounding breaks it."""
    target = int(row.actions[0].sum())   # every feasible action sums to it
    total_cap = sum(bank.capacities)
    t = [target * B / total_cap for B in bank.capacities]
    rounded = [_round_half_toward_zero(v) for v in t]

    hit = np.flatnonzero((row.actions == rounded).all(axis=1))
    if len(hit):
        return int(hit[0])

    dist = np.abs(row.actions - np.array(t)).sum(axis=1)
    return int(np.argmin(dist))


def _rl(bank: BankConfig, x: int, row: StateActions, w: np.ndarray) -> int:
    """Maximize the linear Q estimate; the row's `kmat` must be filled."""
    return int(np.argmax(q_values(bank, x, row.rewards, row.kmat, w)))


def greedy_action(bank: BankConfig, chain: BackgroundChain, s: State) -> Action:
    """Maximize the instantaneous reward over the feasible set."""
    row = state_actions(bank, chain, s)
    return tuple(row.actions[np.argmax(row.rewards)].tolist())


def naive_action(bank: BankConfig, chain: BackgroundChain, s: State) -> Action:
    row = state_actions(bank, chain, s)
    return tuple(row.actions[_naive(bank, row)].tolist())


def rl_action(bank: BankConfig, chain: BackgroundChain, s: State,
              w: np.ndarray) -> Action:
    row = state_actions(bank, chain, s)
    row.kmat = kernel_matrix(bank, row.actions + s.b)
    return tuple(row.actions[_rl(bank, s.x, row, w)].tolist())


def make_policy(name: str, bank: BankConfig, chain: BackgroundChain,
                weights: np.ndarray | None = None) -> np.ndarray:
    """Deterministic stationary policy as a read-only (n_states,) index
    array: entry sid is the index of state sid's action in
    `bank_model(bank, chain).row(sid)`.

    It reads the bank's shared compiled model (env.bank_model), so a state's
    feasible set is tabulated once for every policy, learner and oracle
    that visits it; each choice equals the matching *_action function's.
    Naive and rl take one row at a time: a matrix-vector product over many
    rows can round the rl Q values differently from the per-row one.
    """
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
    if name == "rl" and weights is None:
        raise ValueError("rl policy needs a weight vector")
    d = feature_dim(bank.n, chain.n_states)
    if name == "rl" and np.shape(weights) != (d,):
        raise ValueError(f"weights: expected shape ({d},), got {np.shape(weights)}")

    model = bank_model(bank, chain)
    t, row, sids = model.table, model.row, range(model.n_states)
    if name == "greedy":
        policy = first_argmax(t.rewards, t.offsets) - t.offsets[:-1]
    elif name == "naive":
        policy = np.array([_naive(bank, row(sid)) for sid in sids])
    else:
        policy = np.array([_rl(bank, sid // model.num_b, row(sid), weights)
                           for sid in sids])
    policy.flags.writeable = False
    return policy
