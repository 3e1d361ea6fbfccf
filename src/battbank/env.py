# MDP mechanics: feasible action sets, battery evolution, cycling penalty.

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Action, BankConfig, BackgroundChain, State, clip, is_index


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
    """One state's feasible set from the scalar spec, in feasible_actions
    (lexicographic) order, as state_actions returns it: `rewards[i]` is
    action i's reward and `next_bid[i]` the occupancy id it leads to."""

    actions: np.ndarray   # (n_actions, N) int64
    rewards: list[float]
    next_bid: list[int]


class Table(NamedTuple):
    """Every state's row, flattened: state sid owns the pairs
    offsets[sid]:offsets[sid + 1], in feasible_actions order. A pair acts
    on the MDP only through its post-action occupancy id, `post`: its
    reward is post_reward[post] and its successor id post_next[post]."""

    offsets: np.ndarray      # (n_states + 1,) int
    actions: np.ndarray      # (n_pairs, N) int, of _action_dtype
    post: np.ndarray         # (n_pairs,) unsigned, the narrowest for num_b ids
    post_reward: np.ndarray  # (num_b,) float64, the reward of each occupancy
    post_next: np.ndarray    # (num_b,) int64, floor(eta * b) of each occupancy


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


# states per chunk of a row argmax or maximum, of the table build and of the
# reached mask: their gathers, masks and level arrays are chunk-sized, not
# pair-sized
_CHUNK_STATES = 256


def _chunks(offsets: np.ndarray, n_blocks: int):
    """(block, first state, offsets[first:last + 1]) of each run of at most
    _CHUNK_STATES states, where the states fall into n_blocks equal blocks
    and no run crosses one: a run of a background state's block reads one
    row of values held per post-decision state."""
    per = (len(offsets) - 1) // n_blocks
    for j in range(n_blocks):
        for lo in range(j * per, (j + 1) * per, _CHUNK_STATES):
            yield j, lo, offsets[lo:min(lo + _CHUNK_STATES, (j + 1) * per) + 1]


def _gathered(values: np.ndarray, offsets: np.ndarray, post: np.ndarray | None):
    """(first state, offsets[first:last + 1], the pairs' values) of each
    chunk of states, where state i owns the pairs offsets[i]:offsets[i + 1].
    Without `post`, values holds one value per pair. With the table's
    post-action ids, values are held per post-decision state: pair p of
    state i reads values[post[p]] from a (num_b,) array, or values[x,
    post[p]] from an (n_bg, num_b) one, x being i's background state."""
    rows = values[None] if post is None else values.reshape(-1, values.shape[-1])
    for x, lo, ends in _chunks(offsets, len(rows)):
        pairs = slice(ends[0], ends[-1])
        # take copies a read-only index, as post is, but only a chunk of it
        yield lo, ends, rows[x][pairs] if post is None else rows[x].take(post[pairs])


def first_argmax(values: np.ndarray, offsets: np.ndarray,
                 post: np.ndarray | None = None) -> np.ndarray:
    """Flat index of each state's first largest value, a NaN counting as
    largest, over the values _gathered reads: nothing pair-sized is formed."""
    out = np.empty(len(offsets) - 1, dtype=np.intp)
    for lo, ends, vals in _gathered(values, offsets, post):
        starts = ends[:-1] - ends[0]
        # a row holding a NaN has a NaN maximum, which equals nothing
        best = np.flatnonzero(np.isnan(vals) | (vals == np.repeat(
            np.maximum.reduceat(vals, starts), np.diff(ends))))
        out[lo:lo + len(starts)] = best[np.searchsorted(best, starts)] + ends[0]
    return out


def row_max(values: np.ndarray, offsets: np.ndarray,
            post: np.ndarray | None = None) -> np.ndarray:
    """Each state's largest value, np.maximum.reduceat over the values
    _gathered reads."""
    out = np.empty(len(offsets) - 1)
    for lo, ends, vals in _gathered(values, offsets, post):
        out[lo:lo + len(ends) - 1] = np.maximum.reduceat(vals, ends[:-1] - ends[0])
    return out


def _fixed_sum_counts(widths: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Number of integer vectors a with 0 <= a_i <= widths[:, i] and sum
    total, per row: stars and bars, C(total + n - 1, n - 1), less the
    vectors whose components in J exceed their widths, by inclusion and
    exclusion over the sets J. Written in integer ufuncs the table build
    runs anyway: an integer matmul or a bool cast would map numpy code that
    nothing else runs, which raised compare-free's peak RSS by 0.2 MB."""
    n = widths.shape[1]
    out = np.zeros(len(total), dtype=np.int64)
    for J in itertools.product((0, 1), repeat=n):
        m = total - ((widths + 1) * J).sum(axis=1)
        c = np.clip(m + 1, 0, 1)   # C(m, 0): 1 for m >= 0, else 0
        for j in range(1, n):   # C(m + j, j) from C(m + j - 1, j - 1)
            c = c * (m + j) // j
        out += (-1) ** sum(J) * c
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
    holds every state's feasible actions and post-action occupancy ids, and
    each occupancy's reward and successor id, as one set of flat arrays, which
    every caller shares: the exact solver reads it, and `rows` gathers each
    occupancy's entry by its post-action ids.
    """

    def __init__(self, batteries, chain: BackgroundChain):
        # tabulate takes net_gen as int64: a fraction would be truncated
        for j, g in enumerate(chain.net_gen):
            if not is_index(g):
                raise ValueError(f"chain.net_gen[{j}]: expected an integer, got {g!r}")
        self.bank = BankConfig(batteries=batteries)
        self.chain = chain
        self.strides = occupancy_strides(self.bank.capacities)
        self.n_states = state_count(self.bank, chain)
        self.num_b = self.n_states // chain.n_states

    def occupancy_id(self, b: tuple[int, ...]) -> int:
        return sum(v * m for v, m in zip(b, self.strides))

    def decode(self, sids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Background states (n,) and occupancies (n, N) of state ids."""
        x, occ = np.divmod(sids, self.num_b)
        caps = np.array(self.bank.capacities, dtype=np.int64)
        return x, occ[:, None] // np.array(self.strides) % (caps + 1)

    def tabulate(self) -> Table:
        """Every state's row, equal to its state_actions: feasible_actions'
        recursion on a chunk of states at a time. Each state's pair count
        is known beforehand (_fixed_sum_counts), so the rows are written
        into arrays of the table's size, and only a chunk's level arrays
        are held beside them. Each of the first N-1 levels spreads every
        partial action over its component's interval, and the last
        component is the remainder. The post-action occupancy id grows as
        components are fixed, and it is kept, beside each occupancy's
        reward and successor id. Actions and post-action ids are stored in
        the narrowest integer types that hold them, and so is each level's
        column of fixed components while the levels are spread; what is
        scaled by a stride stays int64."""
        n = self.bank.n
        # bounds and attainable sums of components i.. of each occupancy;
        # a partial action's occupancy id still holds b_j for j >= i
        b = self.decode(np.arange(self.num_b))[1]
        ramps = np.array(self.bank.ramps, dtype=np.int64)
        lo = -np.minimum(ramps, b)
        hi = np.minimum(ramps, np.array(self.bank.capacities) - b)
        sum_lo = np.cumsum(lo[:, ::-1], axis=1)[:, ::-1]
        sum_hi = np.cumsum(hi[:, ::-1], axis=1)[:, ::-1]
        x, occ = np.divmod(np.arange(self.n_states), self.num_b)
        net_gen = np.array(self.chain.net_gen, dtype=np.int64)
        target = np.clip(net_gen[x], sum_lo[occ, 0], sum_hi[occ, 0])
        offsets = np.zeros(self.n_states + 1, dtype=np.int64)
        np.cumsum(_fixed_sum_counts((hi - lo)[occ], target - sum_lo[occ, 0]),
                  out=offsets[1:])
        actions = np.empty((offsets[-1], n), dtype=_action_dtype(self.bank))
        posts = np.empty(offsets[-1], dtype=np.min_scalar_type(self.num_b - 1))
        for _, first, ends in _chunks(offsets, 1):
            post = occ[first:first + len(ends) - 1]
            rem = target[first:first + len(ends) - 1]
            columns = []   # each node's components fixed so far
            for i in range(n - 1):
                a_lo = np.maximum(lo[post, i], rem - sum_hi[post, i + 1])
                counts = np.minimum(hi[post, i], rem - sum_lo[post, i + 1]) - a_lo + 1
                starts = np.cumsum(counts) - counts
                parent = np.repeat(np.arange(
                    len(counts), dtype=np.min_scalar_type(len(counts) - 1)), counts)
                value = np.repeat(a_lo - starts, counts)
                value += np.arange(len(value))
                del a_lo, counts, starts   # not held beside the chunk's gathers
                columns = [c[parent] for c in columns] + [value.astype(actions.dtype)]
                post = post[parent]
                value *= self.strides[i]
                post += value
                del value
                rem = rem[parent]
                rem -= columns[-1]
                del parent
            pairs = slice(ends[0], ends[-1])
            for i, c in enumerate(columns):
                actions[pairs, i] = c
            actions[pairs, -1] = rem
            posts[pairs] = post + rem   # the last stride is 1
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
        return Table(offsets, actions, posts, rewards, post_next)

    @functools.cached_property
    def table(self) -> Table:
        """tabulate's arrays, built on first use and read-only, as every
        caller shares them."""
        table = self.tabulate()
        for arr in table:
            arr.flags.writeable = False
        return table

    @functools.cached_property
    def reached(self) -> np.ndarray:
        """(n_bg, num_b) bool, read-only, built on first use: whether some
        pair of a state in background state x's block leads to occupancy
        b'. A maximum over the pairs of a value held per (x, b') is its
        maximum over these entries."""
        t = self.table
        out = np.zeros((self.chain.n_states, self.num_b), dtype=bool)
        for x, _, ends in _chunks(t.offsets, self.chain.n_states):
            out[x, t.post[ends[0]:ends[-1]]] = True
        out.flags.writeable = False
        return out

    @functools.cached_property
    def min_reward(self) -> float:
        """The least reward of any pair: over the reached occupancies, as an
        occupancy no pair reaches can carry a lower reward."""
        return float(self.table.post_reward.min(
            where=self.reached.any(axis=0), initial=math.inf))

    @functools.cached_property
    def post_kernel_matrix(self) -> np.ndarray:
        """Each occupancy's 2N kernel features, (num_b, 2N) float64 and
        read-only, built on first use: features.q_table's columns."""
        from .features import kernel_matrix  # features imports this module
        kmat = kernel_matrix(self.bank, self.decode(np.arange(self.num_b))[1])
        kmat.flags.writeable = False
        return kmat

    @functools.cached_property
    def post_entries(self) -> np.ndarray:
        """Each occupancy's (reward, successor id, k_0, ..., k_{2N-1}) as one
        tuple of Python numbers, built on first use: a pair's entry is
        post_entries[table.post], shared by every pair reaching it."""
        t = self.table
        return np.fromiter(
            ((r, nxt, *ks) for r, nxt, ks in zip(
                t.post_reward.tolist(), t.post_next.tolist(),
                self.post_kernel_matrix.tolist())), object, self.num_b)

    @functools.cached_property
    def rows(self) -> list[list[tuple]]:
        """Every state's row in state-id order, built on first use: the list
        of its pairs' post_entries, gathered by table.post."""
        ends = self.table.offsets.tolist()
        pairs = self.post_entries[self.table.post].tolist()
        return [pairs[lo:hi] for lo, hi in zip(ends, ends[1:])]

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
