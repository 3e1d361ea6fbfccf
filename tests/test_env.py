import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from battbank import env
from battbank.core import BackgroundChain, State, clip
from battbank.env import (action_bounds, apply_action, feasible_actions,
                          first_argmax, reward, state_actions)

from conftest import make_bank, make_chain

# values where a row's largest and np.argmax's pick are hard to get right
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0]


def brute_force_actions(bank, chain, s):
    """Reference enumeration: filter the full ramp box by every constraint."""
    bounds = action_bounds(bank, chain, s)
    boxes = [range(-c, c + 1) for c in bank.ramps]
    out = []
    for a in itertools.product(*boxes):
        if sum(a) != bounds.target:
            continue
        if all(0 <= ai + bi <= B
               for ai, bi, B in zip(a, s.b, bank.capacities)):
            out.append(a)
    return out


class TestActionBounds:
    def test_direct_formula(self, toy_chain):
        bank = make_bank(capacities=(3, 5), ramps=(2, 2))
        bd = action_bounds(bank, toy_chain, State(x=0, b=(1, 4)))
        assert (bd.m, bd.M) == (-3, 3)

    def test_empty_bank_cannot_drain(self, toy_chain):
        bank = make_bank(capacities=(3, 5), ramps=(2, 2))
        bd = action_bounds(bank, toy_chain, State(x=0, b=(0, 0)))
        assert bd.m == 0

    def test_target_clipped(self, toy_chain):
        bank = make_bank(capacities=(3, 5), ramps=(2, 2))
        bd = action_bounds(bank, toy_chain, State(x=3, b=(1, 4)))  # f = 5
        assert bd.target == 3


class TestFeasibleActions:
    def test_single_battery_forced(self):
        chain = BackgroundChain(labels=(1,), transition=np.array([[1.0]]),
                                net_gen=(1,))
        bank = make_bank(capacities=(3,), ramps=(2,), weights=(1.0,))
        assert feasible_actions(bank, chain, State(x=0, b=(1,))) == [(1,)]

    def test_six_way_split(self, toy_chain):
        bank = make_bank(capacities=(10, 10))  # ramps 25: unconstrained
        acts = feasible_actions(bank, toy_chain, State(x=3, b=(5, 5)))
        assert acts == [(a1, 5 - a1) for a1 in range(0, 6)]

    def test_empty_bank_deficit(self, toy_chain):
        bank = make_bank(capacities=(2, 3), ramps=(2, 2))
        assert feasible_actions(bank, toy_chain, State(x=0, b=(0, 0))) == [(0, 0)]

    def test_lexicographic_order_and_common_sum(self, toy_chain):
        bank = make_bank(capacities=(4, 6), ramps=(3, 3))
        s = State(x=2, b=(2, 3))
        acts = feasible_actions(bank, toy_chain, s)
        assert acts == sorted(acts)
        target = action_bounds(bank, toy_chain, s).target
        assert all(sum(a) == target for a in acts)

    def test_matches_brute_force_randomized(self):
        # acceptance criterion 5 runs 200 instances; this is the module-level
        # smoke version of the same property
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            caps = tuple(int(rng.integers(1, 7)) for _ in range(n))
            ramps = tuple(int(rng.integers(1, 5)) for _ in range(n))
            f = int(rng.integers(-8, 9))
            chain = BackgroundChain(labels=(0,), transition=np.array([[1.0]]),
                                    net_gen=(f,))
            bank = make_bank(caps, ramps, weights=(1.0,) * n)
            b = tuple(int(rng.integers(0, B + 1)) for B in caps)
            s = State(x=0, b=b)
            assert feasible_actions(bank, chain, s) == \
                brute_force_actions(bank, chain, s)


class TestReward:
    def test_empty_bank_penalty(self, toy_chain):
        bank = make_bank(capacities=(2, 3), weights=(0.1, 1.0))
        r = reward(bank, State(x=0, b=(0, 0)), (0, 0))
        assert r == pytest.approx(-0.64, abs=1e-12)

    def test_interior_zero(self, toy_chain):
        bank = make_bank(capacities=(10, 10))
        assert reward(bank, State(x=0, b=(5, 5)), (2, 3)) == 0.0

    def test_upper_overflow_penalty(self, toy_chain):
        bank = make_bank(capacities=(10, 10), weights=(0.1, 1.0))
        r = reward(bank, State(x=0, b=(8, 8)), (1, 1))
        assert r == pytest.approx(-1.1, abs=1e-12)

    def test_nonpositive_everywhere(self, toy_chain):
        bank = make_bank(capacities=(3, 5), ramps=(2, 2))
        rng = np.random.default_rng(1)
        for _ in range(200):
            b = tuple(int(rng.integers(0, B + 1)) for B in bank.capacities)
            s = State(x=int(rng.integers(0, 4)), b=b)
            for a in feasible_actions(bank, make_chain(), s):
                assert reward(bank, s, a) <= 0.0


class TestApplyAction:
    def test_lossless(self):
        bank = make_bank(capacities=(10,), ramps=(10,), weights=(1.0,))
        assert apply_action(bank, (5,), (2,)) == (7,)

    def test_dissipation_floor(self):
        bank = make_bank(capacities=(10,), ramps=(10,), weights=(1.0,),
                         dissipation=(0.9,))
        assert apply_action(bank, (7,), (2,)) == (8,)

    def test_empty_stays_empty(self):
        bank = make_bank(capacities=(10,), ramps=(10,), weights=(1.0,),
                         dissipation=(0.9,))
        assert apply_action(bank, (0,), (0,)) == (0,)

    def test_capacity_violation_raises(self):
        bank = make_bank(capacities=(3,), ramps=(5,), weights=(1.0,))
        with pytest.raises(ValueError):
            apply_action(bank, (3,), (1,))
        with pytest.raises(ValueError):
            apply_action(bank, (0,), (-1,))


class TestStep:
    # one MDP step: reward(s, a), then the next occupancy apply_action(b, a)
    def test_zero_penalty_composition(self, toy_chain):
        bank = make_bank(capacities=(10, 10))
        s, a = State(x=3, b=(5, 5)), (2, 3)   # net generation 5
        assert a in feasible_actions(bank, toy_chain, s)
        assert reward(bank, s, a) == 0.0
        assert apply_action(bank, s.b, a) == (7, 8)

    def test_forced_noop_at_empty(self, toy_chain):
        bank = make_bank(capacities=(2, 3), ramps=(2, 2), weights=(0.1, 1.0))
        s = State(x=0, b=(0, 0))
        assert feasible_actions(bank, toy_chain, s) == [(0, 0)]
        assert apply_action(bank, s.b, (0, 0)) == (0, 0)
        assert reward(bank, s, (0, 0)) == pytest.approx(-0.64, abs=1e-12)

    def test_mixed_dissipation(self, toy_chain):
        bank = make_bank(capacities=(10, 10), ramps=(10, 10),
                         dissipation=(0.9, 1.0))
        assert apply_action(bank, (7, 5), (2, 0)) == (8, 5)


def test_energy_conservation_lossless_unconstrained(toy_chain):
    # with eta = 1 and non-binding ramps the bank absorbs exactly the clipped
    # target each step, so occupancy totals follow the running target sum
    bank = make_bank(capacities=(6, 10))
    b = bank.start_occupancy()
    total = sum(b)
    rng = np.random.default_rng(8)
    for _ in range(300):
        x = int(rng.integers(0, 4))
        s = State(x=x, b=b)
        acts = feasible_actions(bank, toy_chain, s)
        a = acts[int(rng.integers(len(acts)))]
        total += action_bounds(bank, toy_chain, s).target
        b = apply_action(bank, b, a)
        assert sum(b) == total


def test_state_actions_tables_consistent(toy_chain):
    bank = make_bank(capacities=(3, 5), ramps=(2, 2), dissipation=(0.9, 1.0))
    s = State(x=1, b=(2, 4))
    ent = state_actions(bank, toy_chain, s)
    acts = feasible_actions(bank, toy_chain, s)
    assert ent.actions.tolist() == [list(a) for a in acts]
    for i, a in enumerate(acts):
        assert (ent.actions[i] + s.b).tolist() == [bi + ai for bi, ai in zip(s.b, a)]
        assert ent.rewards[i] == reward(bank, s, a)
        nb = apply_action(bank, s.b, a)
        assert ent.next_bid[i] == nb[0] * 6 + nb[1]   # mixed radix (4, 6)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.one_of(st.integers(-2, 2).map(float),
                                   st.sampled_from(SPECIAL)),
                         min_size=1, max_size=6),
                min_size=1, max_size=40),
       st.integers(1, 5))
@example([[1.0, math.nan, 0.5], [2.0, 3.0]], 256)
def test_first_argmax_matches_argmax_per_state(rows, chunk):
    # few distinct values, so rows tie often, among NaNs, infinities and
    # zeros of either sign, where np.argmax counts a NaN as largest; chunks
    # of a few states, so several chunks run and the last may be short
    values = np.array([v for row in rows for v in row], dtype=float)
    offsets = np.cumsum([0] + [len(row) for row in rows])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(env, "_CHUNK_STATES", chunk)
        got = first_argmax(values, offsets)
    first = [lo + np.argmax(values[lo:hi])
             for lo, hi in zip(offsets[:-1], offsets[1:])]
    np.testing.assert_array_equal(got, first)


def random_banks(rng, count):
    """Banks of 1-3 batteries, each lossy or lossless and with ramps that
    bind or that never do, under the toy chain."""
    for i in range(count):
        n = i % 3 + 1
        caps = rng.integers(1, 6, size=n)
        free = i // 3 % 2 == 0
        ramps = caps + rng.integers(0, 3, size=n) if free else rng.integers(1, 3, size=n)
        yield make_bank(capacities=tuple(caps.tolist()), ramps=tuple(ramps.tolist()),
                        weights=tuple(rng.uniform(0.0, 2.0, size=n).tolist()),
                        dissipation=tuple(rng.choice([0.75, 1.0], size=n).tolist()))


@pytest.mark.parametrize("chunk", [1, 7, "num_b - 1"])
def test_first_argmax_gathers_per_post_decision_values(chunk):
    # values held per (x, b'), (n_bg, num_b), and per occupancy, (num_b,):
    # each state's pick is np.argmax of its row's values gathered through
    # post, among ties, NaNs, infinities and zeros of either sign. The last
    # chunk size divides no block of num_b states, so chunks end short at
    # every block's end
    rng = np.random.default_rng(11)
    pool = np.array([-1.0, 0.0, 1.0] + SPECIAL)
    for bank in random_banks(rng, 24):
        model = env.BankModel(bank.batteries, make_chain())
        t, num_b = model.table, model.num_b
        size = chunk if isinstance(chunk, int) else num_b - 1 if num_b > 2 else 3
        for values in (rng.choice(pool, size=(4, num_b)), rng.choice(pool, size=num_b)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(env, "_CHUNK_STATES", size)
                got = first_argmax(values, t.offsets, t.post)
            rows = values.reshape(-1, num_b)
            for sid, (lo, hi) in enumerate(zip(t.offsets[:-1], t.offsets[1:])):
                row = rows[sid // num_b if len(rows) > 1 else 0]
                assert got[sid] == lo + np.argmax(row[t.post[lo:hi]])


def test_reached_is_the_set_of_pairs_post_decision_states():
    rng = np.random.default_rng(12)
    unreached = 0
    for bank in random_banks(rng, 12):
        model = env.BankModel(bank.batteries, make_chain())
        t = model.table
        pairs = {(sid // model.num_b, int(p))
                 for sid, (lo, hi) in enumerate(zip(t.offsets[:-1], t.offsets[1:]))
                 for p in t.post[lo:hi]}
        assert set(zip(*np.nonzero(model.reached))) == pairs
        unreached += model.reached.size - len(pairs)
        assert not model.reached.flags.writeable
        assert model.min_reward == t.post_reward[t.post].min()
    assert unreached   # the mask is not all True
