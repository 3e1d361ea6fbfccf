# Deployable controllers: greedy, naive-proportional, learned-weights RL.
#
# Tie-breaking everywhere: the lexicographically smallest action. Feasible
# sets are enumerated in lexicographic order, so "first maximizer" does it.
#
# A policy is an array: entry sid indexes state sid's row of the compiled
# table. Each rule is written once: greedy and naive over the whole table, rl
# as q_argmax of each features.q_rows entry. The *_action functions apply them
# to a freshly tabulated row and are the reference make_policy is tested on.

from __future__ import annotations

import numpy as np

from .core import Action, BankConfig, BackgroundChain, State
from .env import bank_model, first_argmax, state_actions
from .features import (block_slice, check_finite, feature_dim, kernel_matrix,
                       q_argmax, q_rows, width_forms)

POLICY_NAMES = ("greedy", "naive", "rl")


def _naive(bank: BankConfig, offsets: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Row index of each state's naive action, where state i owns
    actions[offsets[i]:offsets[i + 1]]. Apportion the clipped target
    proportionally to capacities, rounded half toward zero; repair to
    feasibility by minimal L1 distance when rounding breaks it."""
    target = actions[offsets[:-1]].sum(axis=1)   # every feasible action sums to it
    caps = np.array(bank.capacities)
    t = np.repeat(target[:, None] * caps / caps.sum(), np.diff(offsets), axis=0)
    a = np.floor(np.abs(t))
    a += np.abs(t) - a > 0.5
    hit = (actions == np.where(t < 0, -a, a)).all(axis=1)
    dist = np.abs(actions - t).sum(axis=1)
    # the first exact hit, else the first action of least distance
    return first_argmax(np.where(hit, np.inf, -dist), offsets) - offsets[:-1]


def greedy_action(bank: BankConfig, chain: BackgroundChain, s: State) -> Action:
    """Maximize the instantaneous reward over the feasible set."""
    row = state_actions(bank, chain, s)
    return tuple(row.actions[np.argmax(row.rewards)].tolist())


def naive_action(bank: BankConfig, chain: BackgroundChain, s: State) -> Action:
    row = state_actions(bank, chain, s)
    idx = _naive(bank, np.array([0, len(row.actions)]), row.actions)[0]
    return tuple(row.actions[idx].tolist())


def rl_action(bank: BankConfig, chain: BackgroundChain, s: State,
              w: np.ndarray) -> Action:
    row = state_actions(bank, chain, s)
    blk = w[block_slice(s.x, bank.n)].tolist()
    kernels = kernel_matrix(bank, row.actions + s.b).tolist()
    q = width_forms(bank.n).row(float(w[0]), row.rewards, blk[0], kernels,
                                blk[1:])
    return tuple(row.actions[q_argmax(q)].tolist())


def make_policy(name: str, bank: BankConfig, chain: BackgroundChain,
                weights: np.ndarray | None = None) -> np.ndarray:
    """Deterministic stationary policy as a read-only (n_states,) index
    array: entry sid is the index of state sid's action in its row of
    `bank_model(bank, chain).table`.

    It reads the bank's shared compiled model (env.bank_model), so a state's
    feasible set is tabulated once for every policy, learner and oracle
    that visits it; each choice equals the matching *_action function's.
    Greedy and naive read the whole table at once; rl values it with
    features.q_rows, one state at a time as the learner does.
    """
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
    if name == "rl":
        if weights is None:
            raise ValueError("rl policy needs a weight vector")
        d = feature_dim(bank.n, chain.n_states)
        if np.shape(weights) != (d,):
            raise ValueError(f"weights: expected shape ({d},), got {np.shape(weights)}")
        check_finite(np.asarray(weights))

    model = bank_model(bank, chain)
    t = model.table
    if name == "greedy":
        policy = first_argmax(t.rewards, t.offsets) - t.offsets[:-1]
    elif name == "naive":
        policy = _naive(bank, t.offsets, t.actions)
    else:
        policy = np.array([q_argmax(q) for q in q_rows(model, weights)])
    policy.flags.writeable = False
    return policy
