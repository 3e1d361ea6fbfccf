import hashlib
from pathlib import Path

import numpy as np
import pytest

from battbank.core import BackgroundChain, State, load_config
from battbank.env import (action_bounds, bank_model, feasible_actions,
                          reward)
from battbank.features import feature_dim, feature_vector
from battbank.harness import resize_bank
from battbank.learner import LearnSchedule, TrainLog, train, update_weights
from battbank.policies import (greedy_action, make_policy, naive_action,
                               rl_action)

from conftest import make_bank, make_chain

TOY_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "toy_bank.json"


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
    """Exploration of train's behavior policy, seen through one-step runs.

    With w = 0 the first TD error is the reward, so a one-step log's
    cumulative reward names the action train took.
    """

    def test_eps_one_uniform(self, toy_chain, monkeypatch):
        # both batteries end above the band: rewards are distinct per action
        s = State(x=3, b=(25, 25))   # 6 feasible actions
        bank = make_bank(capacities=(30, 30), occupancy=s.b)
        monkeypatch.setattr(TrainLog, "EVERY", 1)
        acts = feasible_actions(bank, toy_chain, s)
        assert len(acts) == 6
        rewards = np.array([reward(bank, s, a) for a in acts])
        assert len(set(rewards.tolist())) == 6
        counts = np.zeros(len(acts), dtype=int)
        n = 10_000
        for seed in range(n):
            sched = LearnSchedule(t_train=1, eps0=1.0, eps_min=1.0, seed=seed)
            _, log = train(bank, toy_chain, sched, x0=s.x)
            gaps = np.abs(rewards - log.rows[0][4])
            assert gaps.min() < 1e-12
            counts[int(np.argmin(gaps))] += 1
        for c in counts:
            assert abs(c / n - 1 / 6) < 0.02

    def test_singleton_forced(self, monkeypatch):
        s = State(x=0, b=(2,))
        bank = make_bank(capacities=(3,), ramps=(2,), weights=(1.0,),
                         occupancy=s.b)
        chain = const_chain(1)
        monkeypatch.setattr(TrainLog, "EVERY", 1)
        assert feasible_actions(bank, chain, s) == [(1,)]
        r = reward(bank, s, (1,))
        assert r < 0
        phi = feature_vector(bank, chain, s, (1,))
        for eps in (0.0, 0.5, 1.0):
            sched = LearnSchedule(t_train=1, eps0=eps, eps_min=eps)
            w, log = train(bank, chain, sched, x0=s.x)
            assert log.rows[0][4] == pytest.approx(r, abs=1e-12)
            np.testing.assert_allclose(
                w, update_weights(np.zeros_like(w), phi, r, sched.beta0),
                rtol=1e-9, atol=1e-12)


class TestMakePolicy:
    def test_policy_arrays_match_reference_actions(self, toy_bank, toy_chain):
        d = feature_dim(toy_bank.n, toy_chain.n_states)
        w = np.random.default_rng(3).normal(size=d)
        model = bank_model(toy_bank, toy_chain)
        t = model.table
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
                    sid = x * model.num_b + model.occupancy_id(s.b)
                    lo, hi = t.offsets[sid:sid + 2]
                    actions = list(map(tuple, t.actions[lo:hi].tolist()))
                    for policy, fresh in pols.values():
                        assert actions[policy[sid]] == fresh(s)
        for policy, _ in pols.values():
            assert policy.shape == (model.n_states,)
            assert not policy.flags.writeable

    def test_unknown_name_rejected(self, toy_bank, toy_chain):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("optimal", toy_bank, toy_chain)

    def test_non_integer_net_gen_rejected(self, toy_bank):
        # the table would take 1.7 as 1 and build greedy on the wrong target
        chain = BackgroundChain(labels=(0, 1), transition=np.full((2, 2), 0.5),
                                net_gen=(1.7, -1))
        with pytest.raises(ValueError,
                           match=r"chain\.net_gen\[0\]: expected an integer, got 1\.7"):
            make_policy("greedy", toy_bank, chain)

    def test_rl_requires_weights(self, toy_bank, toy_chain):
        with pytest.raises(ValueError, match="weight"):
            make_policy("rl", toy_bank, toy_chain)

    @pytest.mark.parametrize("shape", [(29,), (18,), (0,), (21, 1)],
                             ids=["too-long", "too-short", "empty", "2-d"])
    def test_rl_weights_of_wrong_shape_rejected(self, shape, toy_bank,
                                                toy_chain):
        # d = 21 on the toy bank; a longer vector and a column used to be
        # accepted, a shorter one failed inside numpy
        assert feature_dim(toy_bank.n, toy_chain.n_states) == 21
        with pytest.raises(ValueError, match=r"weights: expected shape \(21,\)"):
            make_policy("rl", toy_bank, toy_chain, weights=np.zeros(shape))

    @pytest.mark.parametrize("bad, match", [
        (np.full(21, np.nan), r"weights\[0\]: expected a finite number, got nan"),
        (np.r_[np.zeros(3), np.inf, np.zeros(17)],
         r"weights\[3\]: expected a finite number, got inf"),
        (np.array(["a"] * 21), "^weights: expected numbers")],
        ids=["nan", "inf", "not-numeric"])
    def test_rl_weights_not_finite_rejected(self, bad, match, toy_bank,
                                            toy_chain):
        # NaN weights used to give a policy of first actions, and strings
        # a bare TypeError from inside numpy
        with pytest.raises(ValueError, match=match):
            make_policy("rl", toy_bank, toy_chain, weights=bad)

    def test_rl_weights_as_list_accepted(self, toy_bank, toy_chain):
        w = np.random.default_rng(0).normal(size=21)
        np.testing.assert_array_equal(
            make_policy("rl", toy_bank, toy_chain, weights=w.tolist()),
            make_policy("rl", toy_bank, toy_chain, weights=w))

    # sha256 of the int64 bytes of make_policy's arrays, recorded before
    # naive and rl read the table through their current code paths
    @pytest.mark.parametrize("sizes, ramp, naive_sha, rl_sha", [
        ((10, 10), 25,
         "717d0dc7cf80ce46d857d01559095d1ea0987d4d3e2b762389c35150af335d27",
         "f6502a88afed286950896b9a83e841fe0fc627d5a33a4789ecc182934e9fd9bd"),
        ((20, 20), 2,
         "c34dafb98b760727d8f05ff84ccc18602b5d92386e52cabca10677ee48469cc6",
         "abcbb126a11845f7fd541ec1ccd45f2a7a4b4a4844b0919e8202a9346653f293"),
    ], ids=["10x10-ramp25", "20x20-ramp2"])
    def test_picks_pinned(self, sizes, ramp, naive_sha, rl_sha):
        toy, chain = load_config(TOY_CONFIG)
        bank = resize_bank(toy, sizes, (ramp, ramp))
        w, _ = train(bank, chain, LearnSchedule(t_train=20_000, seed=0x5EED))
        for name, kw, sha in [("naive", {}, naive_sha),
                              ("rl", {"weights": w}, rl_sha)]:
            policy = make_policy(name, bank, chain, **kw)
            digest = hashlib.sha256(policy.astype(np.int64).tobytes())
            assert digest.hexdigest() == sha, name
