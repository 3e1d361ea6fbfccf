import numpy as np
import pytest

from battbank.core import BackgroundChain, State
from battbank.env import action_bounds, feasible_actions, reward
from battbank.features import feature_dim
from battbank.policies import (epsilon_greedy_action, greedy_action,
                               make_policy, naive_action, rl_action)

from conftest import make_bank, make_chain


def const_chain(f):
    return BackgroundChain(labels=(f,), transition=np.array([[1.0]]),
                           net_gen=(f,))


class TestGreedy:
    def test_zero_penalty_split_lexicographic(self, toy_chain):
        bank = make_bank(capacities=(10, 10))
        # feasible splits of 5 are a1 in 0..5; zero-penalty ones a1 in {2,3}
        assert greedy_action(bank, toy_chain, State(x=3, b=(5, 5))) == (2, 3)

    def test_single_feasible_forced(self):
        bank = make_bank(capacities=(3,), ramps=(2,), weights=(1.0,))
        chain = const_chain(1)
        assert greedy_action(bank, chain, State(x=0, b=(1,))) == (1,)

    def test_empty_bank_deficit(self, toy_chain):
        bank = make_bank(capacities=(2, 3), ramps=(2, 2))
        assert greedy_action(bank, toy_chain, State(x=0, b=(0, 0))) == (0, 0)

    def test_argmax_against_brute_force(self, toy_chain):
        bank = make_bank(capacities=(3, 5), ramps=(2, 2))
        rng = np.random.default_rng(2)
        for _ in range(100):
            b = tuple(int(rng.integers(0, B + 1)) for B in bank.capacities)
            s = State(x=int(rng.integers(0, 4)), b=b)
            a = greedy_action(bank, toy_chain, s)
            best = max(reward(bank, s, a2)
                       for a2 in feasible_actions(bank, toy_chain, s))
            assert reward(bank, s, a) == pytest.approx(best, abs=1e-12)


class TestNaive:
    def test_exact_proportional(self):
        bank = make_bank(capacities=(10, 10))
        chain = const_chain(4)
        assert naive_action(bank, chain, State(x=0, b=(5, 5))) == (2, 2)

    def test_rounded_proportional(self):
        bank = make_bank(capacities=(3, 5), ramps=(5, 5))
        chain = const_chain(5)
        # t = (1.875, 3.125) rounds to (2, 3), which is feasible
        assert naive_action(bank, chain, State(x=0, b=(0, 0))) == (2, 3)

    def test_ramp_feasible_proportional(self):
        bank = make_bank(capacities=(10, 10), ramps=(2, 2))
        chain = const_chain(4)
        assert naive_action(bank, chain, State(x=0, b=(5, 5))) == (2, 2)

    def test_repair_minimizes_l1_distance(self):
        # target clips to 4 and t = (1.5, 2.5) rounds to (1, 2), which sums
        # to 3: the repair step must search the feasible set instead
        bank = make_bank(capacities=(3, 5), ramps=(5, 5))
        chain = const_chain(5)
        s = State(x=0, b=(0, 4))
        target = action_bounds(bank, chain, s).target
        assert target == 4
        a = naive_action(bank, chain, s)
        assert a in feasible_actions(bank, chain, s)
        t = np.array([target * 3 / 8, target * 5 / 8])
        dists = {a2: np.abs(np.array(a2) - t).sum()
                 for a2 in feasible_actions(bank, chain, s)}
        assert dists[a] == pytest.approx(min(dists.values()))

    def test_always_feasible_randomized(self, toy_chain):
        bank = make_bank(capacities=(4, 7), ramps=(3, 2))
        rng = np.random.default_rng(6)
        for _ in range(100):
            b = tuple(int(rng.integers(0, B + 1)) for B in bank.capacities)
            s = State(x=int(rng.integers(0, 4)), b=b)
            assert naive_action(bank, toy_chain, s) in \
                feasible_actions(bank, toy_chain, s)


class TestRlAction:
    def test_zero_weights_lexicographic_first(self, toy_bank, toy_chain):
        d = feature_dim(toy_bank.n, toy_chain.n_states)
        s = State(x=2, b=(1, 1))
        acts = feasible_actions(toy_bank, toy_chain, s)
        assert len(acts) > 1
        assert rl_action(toy_bank, toy_chain, s, np.zeros(d)) == acts[0]

    def test_reward_unit_weight_matches_greedy(self, toy_chain):
        bank = make_bank(capacities=(3, 5), ramps=(2, 2))
        d = feature_dim(bank.n, toy_chain.n_states)
        w = np.zeros(d)
        w[0] = 1.0
        for x in range(4):
            for b1 in range(4):
                for b2 in range(6):
                    s = State(x=x, b=(b1, b2))
                    assert rl_action(bank, toy_chain, s, w) == \
                        greedy_action(bank, toy_chain, s)


class TestEpsilonGreedy:
    def test_eps_zero_is_rl_action(self, toy_bank, toy_chain):
        rng = np.random.default_rng(0)
        d = feature_dim(toy_bank.n, toy_chain.n_states)
        w = np.random.default_rng(1).normal(size=d)
        for x in range(4):
            s = State(x=x, b=(1, 2))
            assert epsilon_greedy_action(toy_bank, toy_chain, s, w, 0.0, rng) \
                == rl_action(toy_bank, toy_chain, s, w)

    def test_eps_one_uniform(self, toy_chain):
        bank = make_bank(capacities=(10, 10))
        s = State(x=3, b=(5, 5))   # 6 feasible actions
        acts = feasible_actions(bank, toy_chain, s)
        assert len(acts) == 6
        d = feature_dim(bank.n, toy_chain.n_states)
        w = np.zeros(d)
        rng = np.random.default_rng(9)
        counts = {a: 0 for a in acts}
        n = 10_000
        for _ in range(n):
            counts[epsilon_greedy_action(bank, toy_chain, s, w, 1.0, rng)] += 1
        for a in acts:
            assert abs(counts[a] / n - 1 / 6) < 0.02

    def test_singleton_forced(self):
        bank = make_bank(capacities=(3,), ramps=(2,), weights=(1.0,))
        chain = const_chain(1)
        s = State(x=0, b=(1,))
        w = np.zeros(feature_dim(1, 1))
        rng = np.random.default_rng(0)
        for eps in (0.0, 0.5, 1.0):
            assert epsilon_greedy_action(bank, chain, s, w, eps, rng) == (1,)


class TestMakePolicy:
    def test_memoized_policies_match_fresh_calls(self, toy_bank, toy_chain):
        d = feature_dim(toy_bank.n, toy_chain.n_states)
        w = np.random.default_rng(3).normal(size=d)
        pols = {
            "greedy": (make_policy("greedy", toy_bank, toy_chain),
                       lambda s: greedy_action(toy_bank, toy_chain, s)),
            "naive": (make_policy("naive", toy_bank, toy_chain),
                      lambda s: naive_action(toy_bank, toy_chain, s)),
            "rl": (make_policy("rl", toy_bank, toy_chain, weights=w),
                   lambda s: rl_action(toy_bank, toy_chain, s, w)),
        }
        for x in range(4):
            for b1 in range(3):
                for b2 in range(4):
                    s = State(x=x, b=(b1, b2))
                    for cached, fresh in pols.values():
                        assert cached(s) == fresh(s)
                        assert cached(s) == fresh(s)  # row already filled

    def test_unknown_name_rejected(self, toy_bank, toy_chain):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("optimal", toy_bank, toy_chain)

    def test_rl_requires_weights(self, toy_bank, toy_chain):
        with pytest.raises(ValueError, match="weight"):
            make_policy("rl", toy_bank, toy_chain)
