# Deployable controllers: greedy, naive-proportional, learned-weights RL.
#
# Tie-breaking everywhere: the lexicographically smallest action. Feasible
# sets are enumerated in lexicographic order, so "first maximizer" does it.
#
# The *_action functions tabulate the state afresh and are the reference
# that the model-backed policies of make_policy are tested against.

from __future__ import annotations

import math

import numpy as np

from .core import Action, BankConfig, BackgroundChain, State
from .env import action_bounds, bank_model, state_actions
from .features import kernel_matrix, q_values

POLICY_NAMES = ("greedy", "naive", "rl")


def greedy_action(bank: BankConfig, chain: BackgroundChain, s: State) -> Action:
    """Maximize the instantaneous reward over the feasible set."""
    ent = state_actions(bank, chain, s)
    return ent.actions[int(np.argmax(ent.rewards))]


def _round_half_toward_zero(t: float) -> int:
    a = math.floor(abs(t))
    if abs(t) - a > 0.5:
        a += 1
    return -a if t < 0 else a


def _naive(bank: BankConfig, chain: BackgroundChain, s: State,
           feasible) -> Action:
    """naive_action, with `feasible()` supplying the state's feasible set
    when the rounded split needs repair."""
    target = action_bounds(bank, chain, s).target
    total_cap = sum(bank.capacities)
    t = [target * B / total_cap for B in bank.capacities]
    rounded = tuple(_round_half_toward_zero(v) for v in t)

    if sum(rounded) == target and all(
        abs(a) <= c and 0 <= a + b <= B
        for a, c, b, B in zip(rounded, bank.ramps, s.b, bank.capacities)
    ):
        return rounded

    actions = feasible()
    dist = np.abs(np.array(actions, dtype=float) - np.array(t)).sum(axis=1)
    return actions[int(np.argmin(dist))]


def naive_action(bank: BankConfig, chain: BackgroundChain, s: State) -> Action:
    """Apportion the clipped target proportionally to capacities; repair to
    feasibility by minimal L1 local search when rounding breaks it."""
    return _naive(bank, chain, s, lambda: state_actions(bank, chain, s).actions)


def rl_action(bank: BankConfig, chain: BackgroundChain, s: State,
              w: np.ndarray) -> Action:
    ent = state_actions(bank, chain, s)
    kmat = kernel_matrix(bank, ent.posts)
    q = q_values(bank, s.x, ent.rewards, kmat, w)
    return ent.actions[int(np.argmax(q))]


def make_policy(name: str, bank: BankConfig, chain: BackgroundChain,
                weights: np.ndarray | None = None):
    """Deterministic stationary policy as a State -> Action callable.

    It reads the bank's shared compiled model (env.bank_model), so a state's
    feasible set is tabulated once for every policy, learner and oracle
    that visits it; each choice equals the matching *_action function's.
    """
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
    if name == "rl" and weights is None:
        raise ValueError("rl policy needs a weight vector")

    model = bank_model(bank, chain)

    if name == "greedy":
        def policy(s: State) -> Action:
            row = model.row(model.state_id(s))
            return row.actions[int(np.argmax(row.rewards))]
    elif name == "naive":
        def policy(s: State) -> Action:
            return _naive(bank, chain, s,
                          lambda: model.row(model.state_id(s)).actions)
    else:
        def policy(s: State) -> Action:
            row = model.row(model.state_id(s), kernels=True)
            q = q_values(bank, s.x, row.rewards, row.kmat, weights)
            return row.actions[int(np.argmax(q))]

    return policy
