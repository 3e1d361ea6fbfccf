import itertools

import numpy as np
import pytest

from battbank.core import BackgroundChain, State, clip
from battbank.env import (action_bounds, apply_action, feasible_actions,
                          reward, state_actions)

from conftest import make_bank, make_chain


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
