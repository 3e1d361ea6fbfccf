# MDP mechanics: feasible action sets, battery evolution, cycling penalty.

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

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


@dataclass(slots=True, eq=False)
class StateActions:
    """One state's feasible set, in feasible_actions (lexicographic) order.
    `next_bid[i]` is the occupancy id action i leads to. `kernels[i]` holds
    the 2N kernel features of b + a_i as a tuple of Python floats, the one
    tuple of that post-action occupancy, which every pair reaching it
    shares; BankModel.rows fills it, state_actions does not."""

    actions: np.ndarray   # (n_actions, N) int
    # Python numbers: the learner's step works in Python floats and ints
    rewards: list[float]
    next_bid: list[int]
    kernels: list[tuple[float, ...]] | None = None


class Table(NamedTuple):
    """Every state's row, flattened: state sid owns the pairs
    offsets[sid]:offsets[sid + 1], in feasible_actions order. A pair acts
    on the rest of the MDP only through its post-action occupancy b + a,
    whose id `post` holds; `post_next[post]` is the pair's successor id."""

    offsets: np.ndarray    # (n_states + 1,) int
    actions: np.ndarray    # (n_pairs, N) int, of _action_dtype
    rewards: np.ndarray    # (n_pairs,)
    post: np.ndarray       # (n_pairs,) unsigned, the narrowest for num_b ids
    post_next: np.ndarray  # (num_b,) int64, floor(eta * b) of each occupancy


def occupancy_strides(capacities: tuple[int, ...]) -> tuple[int, ...]:
    """Place values of the mixed-radix occupancy id, first battery slowest:
    the id of b is sum(b_i * stride_i)."""
    return tuple(math.prod(B + 1 for B in capacities[i + 1:])
                 for i in range(len(capacities)))


def state_count(bank: BankConfig, chain: BackgroundChain) -> int:
    """Number of states (x, b): background states times occupancy vectors."""
    return chain.n_states * math.prod(B + 1 for B in bank.capacities)


def _action_dtype(bank: BankConfig) -> np.dtype:
    """The narrowest signed integer type that holds every action component:
    |a_i| <= min(ramp_i, B_i)."""
    top = max(min(bat.ramp, bat.capacity) for bat in bank.batteries)
    return np.min_scalar_type(-top - 1)   # a type holding -top - 1 holds top


# states per first_argmax chunk: its float repeat, equality mask and match
# list are chunk-sized, not pair-sized
_ARGMAX_STATES = 256


def first_argmax(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Flat index of each state's first largest value, where state i owns
    values[offsets[i]:offsets[i + 1]]."""
    out = np.empty(len(offsets) - 1, dtype=np.intp)
    for lo in range(0, len(out), _ARGMAX_STATES):
        ends = offsets[lo:lo + _ARGMAX_STATES + 1]
        vals = values[ends[0]:ends[-1]]
        starts = ends[:-1] - ends[0]
        best = np.flatnonzero(vals == np.repeat(
            np.maximum.reduceat(vals, starts), np.diff(ends)))
        out[lo:lo + _ARGMAX_STATES] = best[np.searchsorted(best, starts)] + ends[0]
    return out


def state_actions(bank: BankConfig, chain: BackgroundChain, s: State) -> StateActions:
    """One state's row from the scalar spec alone (feasible_actions, reward
    and apply_action): the reference that BankModel's table is tested
    against."""
    acts = feasible_actions(bank, chain, s)
    strides = occupancy_strides(bank.capacities)
    return StateActions(
        np.array(acts, dtype=np.int64), [reward(bank, s, a) for a in acts],
        [sum(map(operator.mul, apply_action(bank, s.b, a), strides))
         for a in acts])


class BankModel:
    """The MDP of one bank and chain, tabulated once, on first use.

    This is the one definition of the state space: state id
    `x * num_b + occupancy_id(b)`, for ids in `range(n_states)`. `table`
    holds every state's feasible actions, rewards and post-action occupancy
    ids, and each occupancy's successor id, as one set of flat arrays, which
    every caller shares: the exact solver's arrays and the actions of each
    of `rows` are views of it.
    """

    def __init__(self, batteries, chain: BackgroundChain):
        self.bank = BankConfig(batteries=batteries)
        self.chain = chain
        self.strides = occupancy_strides(self.bank.capacities)
        self.n_states = state_count(self.bank, chain)
        self.num_b = self.n_states // chain.n_states
        self._caps = np.array(self.bank.capacities, dtype=np.int64)
        self._ramps = np.array(self.bank.ramps, dtype=np.int64)
        self._net_gen = np.array(chain.net_gen, dtype=np.int64)

    def occupancy_id(self, b: tuple[int, ...]) -> int:
        return sum(v * m for v, m in zip(b, self.strides))

    def decode(self, sids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Background states (n,) and occupancies (n, N) of state ids."""
        x, occ = np.divmod(sids, self.num_b)
        return x, occ[:, None] // np.array(self.strides) % (self._caps + 1)

    def tabulate(self) -> Table:
        """Every state's row, equal to its state_actions: feasible_actions'
        recursion on all states at once. Each of the first N-1 levels spreads
        every partial action over its component's interval, and the last
        component is the remainder. The post-action occupancy id grows as
        components are fixed; rewards are looked up by it, and it is kept,
        beside each occupancy's successor id. Actions and post-action ids
        are stored in the narrowest integer types that hold them, and so is
        each level's column of fixed components while the levels are
        spread; what is scaled by a stride stays int64."""
        n = self.bank.n
        # bounds and attainable sums of components i.. of each occupancy;
        # a partial action's occupancy id still holds b_j for j >= i
        b = self.decode(np.arange(self.num_b))[1]
        lo = -np.minimum(self._ramps, b)
        hi = np.minimum(self._ramps, self._caps - b)
        sum_lo = np.cumsum(lo[:, ::-1], axis=1)[:, ::-1]
        sum_hi = np.cumsum(hi[:, ::-1], axis=1)[:, ::-1]
        x, post = np.divmod(np.arange(self.n_states), self.num_b)
        rem = np.clip(self._net_gen[x], sum_lo[post, 0], sum_hi[post, 0])
        first = np.arange(self.n_states)   # each state's first node
        dtype = _action_dtype(self.bank)
        columns = []   # each node's components fixed so far
        for i in range(n - 1):
            a_lo = np.maximum(lo[post, i], rem - sum_hi[post, i + 1])
            counts = np.minimum(hi[post, i], rem - sum_lo[post, i + 1]) - a_lo + 1
            starts = np.cumsum(counts) - counts
            first = starts[first]
            parent = np.repeat(np.arange(
                len(counts), dtype=np.min_scalar_type(len(counts) - 1)), counts)
            value = np.repeat(a_lo - starts, counts)
            value += np.arange(len(value))
            del a_lo, counts, starts   # not held beside the pair-sized gathers
            columns = [c[parent] for c in columns] + [value.astype(dtype)]
            post = post[parent]
            value *= self.strides[i]
            post += value
            del value
            rem = rem[parent]
            rem -= columns[-1]
            del parent
        actions = np.empty((len(rem), n), dtype=dtype)
        for i, c in enumerate(columns):
            actions[:, i] = c
        actions[:, -1] = rem
        post += rem   # the last stride is 1
        del columns, rem
        offsets = np.append(first, len(post))
        # each occupancy's reward and successor id, as reward and
        # apply_action give them: the penalty is summed battery by battery
        bats = self.bank.batteries
        caps = np.array(self.bank.capacities, dtype=float)
        low = np.array([bat.lower_frac for bat in bats]) * caps
        high = np.array([bat.upper_frac for bat in bats]) * caps
        wts = np.array([bat.penalty_weight for bat in bats])
        pen = (np.maximum(low - b, 0.0) + np.maximum(b - high, 0.0)) * wts
        rewards = -functools.reduce(operator.add, pen.T)
        etas = np.array([bat.dissipation for bat in bats])
        post_next = np.floor(etas * b).astype(np.int64).dot(self.strides)
        return Table(offsets, actions, rewards[post],
                     post.astype(np.min_scalar_type(self.num_b - 1)), post_next)

    @functools.cached_property
    def table(self) -> Table:
        """tabulate's arrays, built on first use and read-only, as every
        row and the exact solver share them."""
        table = self.tabulate()
        for arr in table:
            arr.flags.writeable = False
        return table

    @functools.cached_property
    def rows(self) -> list[StateActions]:
        """Every state's row, in state-id order, built on first use beside
        the table: views of its actions, lists of its rewards and successor
        ids, and a list of its kernel tuples. One kernel_matrix call over
        every occupancy makes num_b tuples, and a pair's entry is the tuple
        of its post-action occupancy, table.post, so a pair costs one
        pointer."""
        from .features import kernel_matrix  # features imports this module
        t, ends = self.table, self.table.offsets.tolist()
        shared = np.fromiter(
            map(tuple, kernel_matrix(
                self.bank, self.decode(np.arange(self.num_b))[1]).tolist()),
            dtype=object, count=self.num_b)
        pair_kernels = shared[t.post]
        kernels = [pair_kernels[lo:hi].tolist() for lo, hi in zip(ends, ends[1:])]
        del pair_kernels   # not held while the rows' other lists are built
        rewards, next_bid = t.rewards.tolist(), t.post_next[t.post].tolist()
        return [StateActions(t.actions[lo:hi], rewards[lo:hi],
                             next_bid[lo:hi], ks)
                for lo, hi, ks in zip(ends, ends[1:], kernels)]

    def pairs(self, policy: np.ndarray, name: str = "policy") -> np.ndarray:
        """Flat table index of each state's chosen pair under a policy
        array, whose entry sid indexes state sid's row."""
        policy = np.asarray(policy)
        counts = np.diff(self.table.offsets)
        if policy.shape != counts.shape:
            raise ValueError(f"{name}: expected shape {counts.shape}, one index "
                             f"per state, got {policy.shape}")
        if not np.issubdtype(policy.dtype, np.integer):   # bool included
            raise ValueError(f"{name}: expected integer indices, got dtype "
                             f"{policy.dtype}")
        bad = np.flatnonzero((policy < 0) | (policy >= counts))
        if len(bad):
            raise ValueError(f"{name}: index {policy[bad[0]]} outside state "
                             f"{bad[0]}'s row of {counts[bad[0]]} actions")
        return self.table.offsets[:-1] + policy


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
