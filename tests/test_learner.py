import numpy as np
import pytest

from battbank.chain import cumulative_transition
from battbank.core import State
from battbank.env import apply_action, feasible_actions, reward
from battbank.features import feature_dim, feature_vector
from battbank.learner import LearnSchedule, train, update_weights

from conftest import make_bank

# weights of train(make_bank(), toy chain, LearnSchedule(seed=0, t_train=5000)),
# recorded before training moved onto the compiled bank model
PINNED_WEIGHTS_SEED0_5000 = [
    "0x1.24619cdbd61f0p+1",
    "-0x1.6f4eb8a38b408p+2",
    "0x1.b89275c9e7092p-1",
    "0x1.4d0d3dc6b9ffap-2",
    "0x1.d54aa04e055c6p-4",
    "0x1.626fcee6b849bp-4",
    "-0x1.40efb09835b2ep+2",
    "0x1.32b244ceb4886p+0",
    "0x1.3956bdd0eafa1p+1",
    "0x1.5acaed2fd30cap-1",
    "0x1.d5ef0d11f9715p+0",
    "-0x1.7084fbb5f51e5p+2",
    "0x1.d260e9d856f55p+0",
    "-0x1.ec456f3c5515dp-4",
    "0x1.20b166e524da9p+0",
    "0x1.3a247e4eb61eap-1",
    "-0x1.09a3d09f1bcf4p+1",
    "0x0.0p+0",
    "0x1.09a3d09f1bcf4p+1",
    "0x0.0p+0",
    "0x1.09a3d09f1bcf4p+1",
]


class TestSchedule:
    def test_initial_values(self):
        sched = LearnSchedule(beta0=0.1, beta_tau=1e4, eps0=0.3,
                              eps_min=0.02, eps_decay=2e4)
        assert sched.beta(0) == pytest.approx(0.1)
        assert sched.eps(0) == pytest.approx(0.3)

    def test_eps_floor(self):
        sched = LearnSchedule(eps0=0.3, eps_min=0.02, eps_decay=2e4)
        assert sched.eps(10**7) == pytest.approx(0.02)

    def test_robbins_monro_partial_sums(self):
        # sum beta_k diverges (logarithmic growth), sum beta_k^2 converges
        sched = LearnSchedule()
        k = np.arange(2_000_000)
        beta = sched.beta0 * sched.beta_tau / (sched.beta_tau + k)
        s = np.cumsum(beta)
        assert s[1_999_999] > 2 * s[19_999]  # keeps growing by decades
        sq = np.cumsum(beta**2)
        tail = sq[1_999_999] - sq[999_999]
        assert tail < 0.05 * sq[999_999]     # square sum has flattened


def replay_train(bank, chain, schedule, log_every):
    """train() restated on the dense spec: feasible_actions, feature_vector,
    reward, apply_action and update_weights, drawing from PCG64(seed) in the
    documented order (per step the exploration coin, then the action index
    only when exploring, then the chain uniform)."""
    rng = np.random.default_rng(schedule.seed)
    cum = cumulative_transition(chain)
    w = np.zeros(feature_dim(bank.n, chain.n_states))
    s = State(x=0, b=bank.start_occupancy())
    rows, cum_reward, abs_td = [], 0.0, 0.0
    for k in range(schedule.t_train):
        acts = feasible_actions(bank, chain, s)
        phis = [feature_vector(bank, chain, s, a) for a in acts]
        q = [phi @ w for phi in phis]
        if rng.random() < schedule.eps(k):
            i = int(rng.integers(len(acts)))
        else:
            i = int(np.argmax(q))
        r = reward(bank, s, acts[i])
        x_next = int(np.searchsorted(cum[s.x], rng.random(), side="right"))
        s_next = State(x=x_next, b=apply_action(bank, s.b, acts[i]))
        q_next = max(feature_vector(bank, chain, s_next, a) @ w
                     for a in feasible_actions(bank, chain, s_next))
        delta = r + bank.gamma * q_next - q[i]
        w = update_weights(w, phis[i], delta, schedule.beta(k))
        cum_reward += r
        abs_td += abs(delta)
        if (k + 1) % log_every == 0:
            rows.append((k + 1, abs_td / log_every, cum_reward))
            abs_td = 0.0
        s = s_next
    return w, rows


REPLAY_CASES = {
    "toy-default": (make_bank(), LearnSchedule(t_train=3000, seed=2)),
    "annealed-eps": (make_bank(capacities=(4, 6)),
                     LearnSchedule(t_train=3000, seed=5, eps0=0.5,
                                   eps_min=0.05, eps_decay=500)),
    "lossy-ramp-bound": (make_bank(capacities=(6, 9), ramps=(2, 3),
                                   weights=(0.5, 1.0), dissipation=(0.9, 0.95)),
                         LearnSchedule(t_train=3000, seed=7, eps0=0.8,
                                       eps_min=0.2, eps_decay=1000)),
}


class TestTrainReplay:
    # train()'s compiled, block-sparse loop against the dense reference
    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    def test_matches_dense_reference(self, case, toy_chain):
        bank, sched = REPLAY_CASES[case]
        w, log = train(bank, toy_chain, sched, log_every=100)
        w_ref, rows_ref = replay_train(bank, toy_chain, sched, log_every=100)
        np.testing.assert_allclose(w, w_ref, rtol=1e-9, atol=1e-12)
        assert [row[0] for row in log.rows] == [row[0] for row in rows_ref]
        # mean |TD error| and cumulative reward of every logged block
        np.testing.assert_allclose([row[3:] for row in log.rows],
                                   [row[1:] for row in rows_ref],
                                   rtol=1e-9, atol=1e-12)


class TestTdError:
    def test_zero_weights_give_reward(self, toy_bank, toy_chain):
        # train starts from w = 0, where both Q-hat terms of its first TD
        # error vanish: delta_0 = R(s_0, a_0)
        _, log = train(toy_bank, toy_chain, LearnSchedule(t_train=1), log_every=1)
        (_, _, _, mean_abs_td, cum_reward), = log.rows
        assert cum_reward < 0
        assert mean_abs_td == abs(cum_reward)


class TestUpdateWeights:
    def test_single_step_hand_arithmetic(self, toy_bank, toy_chain):
        phi = feature_vector(toy_bank, toy_chain, State(x=0, b=(0, 0)), (0, 0))
        assert phi[0] == pytest.approx(-0.64)
        w = update_weights(np.zeros_like(phi), phi, delta=-1.0, beta=0.1)
        assert abs(w[0] - 0.064) <= 1e-12
        assert abs(w[1] + 0.1) <= 1e-12
        assert not w[6:].any()  # inactive blocks untouched

    def test_zero_delta_fixed_point(self, toy_bank, toy_chain):
        phi = feature_vector(toy_bank, toy_chain, State(x=1, b=(1, 2)), (0, 0))
        w0 = np.random.default_rng(4).normal(size=phi.shape)
        np.testing.assert_array_equal(update_weights(w0, phi, 0.0, 0.1), w0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            update_weights(np.zeros(3), np.zeros(4), 1.0, 0.1)


class TestTrain:
    def test_zero_steps_noop(self, toy_bank, toy_chain):
        w, log = train(toy_bank, toy_chain, LearnSchedule(t_train=0))
        assert not w.any()
        assert log.rows == []

    def test_seed_determinism(self, toy_bank, toy_chain):
        sched = LearnSchedule(t_train=5000, seed=13)
        w1, log1 = train(toy_bank, toy_chain, sched)
        w2, log2 = train(toy_bank, toy_chain, sched)
        np.testing.assert_array_equal(w1, w2)
        assert log1.rows == log2.rows
        w3, _ = train(toy_bank, toy_chain,
                      LearnSchedule(t_train=5000, seed=14))
        assert (w1 != w3).any()

    def test_weights_pinned_bit_for_bit(self, toy_bank, toy_chain):
        # the training RNG stream and update arithmetic: per step the coin,
        # then the action index when exploring, then the chain uniform
        w, _ = train(toy_bank, toy_chain, LearnSchedule(seed=0, t_train=5000))
        assert [float(v).hex() for v in w] == PINNED_WEIGHTS_SEED0_5000

    def test_td_errors_shrink(self, toy_bank, toy_chain):
        _, log = train(toy_bank, toy_chain, LearnSchedule(t_train=30_000))
        td = [row[3] for row in log.rows]
        assert np.mean(td[-5:]) < np.mean(td[:5])

    def test_weights_finite_and_log_shape(self, toy_bank, toy_chain):
        w, log = train(toy_bank, toy_chain,
                       LearnSchedule(t_train=4000), log_every=500)
        assert np.isfinite(w).all()
        assert len(log.rows) == 8
        steps = [row[0] for row in log.rows]
        assert steps == list(range(500, 4001, 500))
        # cumulative reward column is nonincreasing (rewards are <= 0)
        cum = [row[4] for row in log.rows]
        assert all(b <= a + 1e-12 for a, b in zip(cum, cum[1:]))

    def test_log_csv_round_trip(self, tmp_path, toy_bank, toy_chain):
        import csv
        _, log = train(toy_bank, toy_chain, LearnSchedule(t_train=2000))
        path = tmp_path / "log.csv"
        log.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(log.HEADER)
        assert len(rows) == 1 + len(log.rows)
