# MDP mechanics: feasible action sets, battery evolution, cycling penalty.

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Action, BankConfig, BackgroundChain, State, clip


@dataclass(frozen=True)
class ActionBounds:
    m: int        # max total drain, negated (<= 0)
    M: int        # max total injection (>= 0)
    target: int   # net generation clipped onto [m, M]


def action_bounds(bank: BankConfig, chain: BackgroundChain, s: State) -> ActionBounds:
    """Bank-wide charge/drain limits and the clipped net-generation target."""
    m = -sum(min(b, c) for b, c in zip(s.b, bank.ramps))
    M = sum(min(B - b, c) for b, B, c in zip(s.b, bank.capacities, bank.ramps))
    target = clip(chain.net_gen[s.x], m, M)
    return ActionBounds(m=m, M=M, target=target)


def feasible_actions(bank: BankConfig, chain: BackgroundChain, s: State) -> list[Action]:
    """All integer action vectors satisfying ramp, capacity, and sum
    constraints, in lexicographic order. Never empty: the clipped target is
    reachable by construction."""
    target = action_bounds(bank, chain, s).target
    lo = [max(-c, -b) for c, b in zip(bank.ramps, s.b)]
    hi = [min(c, B - b) for c, B, b in zip(bank.ramps, bank.capacities, s.b)]

    n = bank.n
    # suffix_lo[i] / suffix_hi[i]: attainable sum over components i..n-1
    suffix_lo = [0] * (n + 1)
    suffix_hi = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_lo[i] = suffix_lo[i + 1] + lo[i]
        suffix_hi[i] = suffix_hi[i + 1] + hi[i]

    out: list[Action] = []
    prefix = [0] * n

    def rec(i: int, remaining: int) -> None:
        if i == n:
            out.append(tuple(prefix))
            return
        a_lo = max(lo[i], remaining - suffix_hi[i + 1])
        a_hi = min(hi[i], remaining - suffix_lo[i + 1])
        for a in range(a_lo, a_hi + 1):
            prefix[i] = a
            rec(i + 1, remaining - a)

    rec(0, target)
    return out


def reward(bank: BankConfig, s: State, a: Action) -> float:
    """Cycling penalty: nonpositive, zero iff every post-action occupancy
    lands inside [lower_frac*B, upper_frac*B]."""
    total = 0.0
    for bat, b_i, a_i in zip(bank.batteries, s.b, a):
        post = b_i + a_i
        lo = bat.lower_frac * bat.capacity
        hi = bat.upper_frac * bat.capacity
        total += bat.penalty_weight * (max(lo - post, 0.0) + max(post - hi, 0.0))
    return -total


def apply_action(bank: BankConfig, b: tuple[int, ...], a: Action) -> tuple[int, ...]:
    """Post-action occupancies with dissipation: floor(eta * (b + a))."""
    out = []
    for bat, b_i, a_i in zip(bank.batteries, b, a):
        post = b_i + a_i
        if not (0 <= post <= bat.capacity):
            raise ValueError(f"occupancy {post} outside [0, {bat.capacity}]")
        out.append(math.floor(bat.dissipation * post))
    return tuple(out)


@dataclass
class StateActions:
    """Vectorized view of one state's feasible action set, for fast argmax
    scans. Row order matches feasible_actions (lexicographic)."""

    actions: list[Action]
    posts: np.ndarray     # (n_actions, N) int, b + a
    rewards: np.ndarray   # (n_actions,)
    next_b: np.ndarray    # (n_actions, N) int, floor(eta * posts)


def state_actions(bank: BankConfig, chain: BackgroundChain, s: State) -> StateActions:
    acts = feasible_actions(bank, chain, s)
    posts = np.array(acts, dtype=np.int64) + np.array(s.b, dtype=np.int64)
    caps = np.array(bank.capacities, dtype=float)
    lo = np.array([bat.lower_frac for bat in bank.batteries]) * caps
    hi = np.array([bat.upper_frac for bat in bank.batteries]) * caps
    wts = np.array([bat.penalty_weight for bat in bank.batteries])
    pen = np.maximum(lo - posts, 0.0) + np.maximum(posts - hi, 0.0)
    rewards = -(pen * wts).sum(axis=1)
    etas = np.array([bat.dissipation for bat in bank.batteries])
    next_b = np.floor(etas * posts).astype(np.int64)
    return StateActions(actions=acts, posts=posts, rewards=rewards, next_b=next_b)


class ModelRow:
    """One state's compiled feasible set, in feasible_actions order.

    `next_bid[i]` is the occupancy id reached by action i; `kmat` holds the
    action's kernel features and stays None until a caller asks for it.
    """

    __slots__ = ("actions", "rewards", "next_bid", "posts", "kmat")

    def __init__(self, ent: StateActions, next_bid: list[int]):
        self.actions = ent.actions
        self.rewards = ent.rewards
        self.next_bid = next_bid
        self.posts = ent.posts
        self.kmat = None


class BankModel:
    """The MDP of one bank and chain, tabulated once per state on demand.

    A state's id is `x * num_b + occupancy_id(b)`, where the occupancy id is
    mixed-radix with the first battery slowest, so ids follow the order of
    `oracle.enumerate_states`. Each row is filled from `state_actions` the
    first time it is requested, and then shared by every caller.
    """

    def __init__(self, batteries, chain: BackgroundChain):
        self.bank = BankConfig(batteries=batteries)
        self.chain = chain
        strides = []
        num_b = 1
        for B in reversed(self.bank.capacities):
            strides.append(num_b)
            num_b *= B + 1
        self.strides = tuple(reversed(strides))
        self._stride_vec = np.array(self.strides, dtype=np.int64)
        self.num_b = num_b
        self._rows: dict[int, ModelRow] = {}

    def occupancy_id(self, b: tuple[int, ...]) -> int:
        return sum(v * m for v, m in zip(b, self.strides))

    def state_id(self, s: State) -> int:
        return s.x * self.num_b + self.occupancy_id(s.b)

    def state(self, sid: int) -> State:
        x, rest = divmod(sid, self.num_b)
        b = []
        for m in self.strides:
            v, rest = divmod(rest, m)
            b.append(v)
        return State(x=x, b=tuple(b))

    def row(self, sid: int, kernels: bool = False) -> ModelRow:
        """State sid's row; with kernels=True its `kmat` is filled too."""
        r = self._rows.get(sid)
        if r is None:
            ent = state_actions(self.bank, self.chain, self.state(sid))
            next_bid = (ent.next_b @ self._stride_vec).tolist()
            r = self._rows[sid] = ModelRow(ent, next_bid)
        if kernels and r.kmat is None:
            from .features import kernel_matrix  # features imports this module
            r.kmat = kernel_matrix(self.bank, r.posts)
        return r


# One entry: callers work through one bank at a time, and a larger cache
# would keep the models of finished runs, each as big as the state space.
@functools.lru_cache(maxsize=1)
def _compiled(batteries, chain: BackgroundChain) -> BankModel:
    return BankModel(batteries, chain)


def bank_model(bank: BankConfig, chain: BackgroundChain) -> BankModel:
    """The shared compiled model of this bank's batteries and this chain.

    Chains compare by identity, so a config loaded again gets a new model.
    """
    return _compiled(bank.batteries, chain)
