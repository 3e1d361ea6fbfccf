import dataclasses
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from battbank import learner
from battbank.chain import cumulative_transition
from battbank.core import (BackgroundChain, BankConfig, BatteryConfig, State,
                           load_config)
from battbank.env import apply_action, bank_model, feasible_actions, reward
from battbank.features import block_slice, feature_dim, feature_vector, q_table
from battbank.harness import resize_bank
from battbank.learner import (LearnSchedule, RawDraws, TrainLog, check_q_bound,
                              train, update_weights)

from conftest import TOY_LABELS, make_bank, make_chain

TOY_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "toy_bank.json"

# weights of train(make_bank(), toy chain, LearnSchedule(seed=0, t_train=5000)),
# recorded once Q-hat was summed left to right in Python floats; they are the
# same bits under OpenBLAS's SkylakeX, Haswell and Sandybridge cores
# (OPENBLAS_CORETYPE), as training makes no BLAS call
PINNED_WEIGHTS_SEED0_5000 = [
    "0x1.24619cdbd61fcp+1",
    "-0x1.6f4eb8a38b406p+2",
    "0x1.b89275c9e708fp-1",
    "0x1.4d0d3dc6b9ff7p-2",
    "0x1.d54aa04e054c2p-4",
    "0x1.626fcee6b849ep-4",
    "-0x1.40efb09835b2dp+2",
    "0x1.32b244ceb4885p+0",
    "0x1.3956bdd0eaf9fp+1",
    "0x1.5acaed2fd30a9p-1",
    "0x1.d5ef0d11f9700p+0",
    "-0x1.7084fbb5f51e1p+2",
    "0x1.d260e9d856f5dp+0",
    "-0x1.ec456f3c5518ap-4",
    "0x1.20b166e524da3p+0",
    "0x1.3a247e4eb61ddp-1",
    "-0x1.09a3d09f1bcefp+1",
    "0x0.0p+0",
    "0x1.09a3d09f1bcefp+1",
    "0x0.0p+0",
    "0x1.09a3d09f1bcefp+1",
]

# a chain with self-transitions, so training meets x' == x, where the block
# just updated is the next state's block too
SELF_P = [[0.4, 0.3, 0.2, 0.1],
          [0.25, 0.25, 0.25, 0.25],
          [0.1, 0.2, 0.3, 0.4],
          [0.5, 0.0, 0.0, 0.5]]


def make_self_chain():
    return BackgroundChain(labels=TOY_LABELS, transition=np.array(SELF_P),
                           net_gen=TOY_LABELS)


def make_lossy_bank():
    return make_bank(capacities=(6, 9), ramps=(2, 3), weights=(0.5, 1.0),
                     dissipation=(0.9, 0.95))


SELF_SCHEDULE = LearnSchedule(t_train=20_000, seed=0, eps0=0.8, eps_min=0.2,
                              eps_decay=1000)

# weights and log of train(make_lossy_bank(), make_self_chain(),
# SELF_SCHEDULE) with TrainLog.EVERY = 4000, recorded with
# PINNED_WEIGHTS_SEED0_5000 and under the same cores; log rows are (step,
# eps, beta, mean_abs_td, cum_reward)
PINNED_SELF_WEIGHTS = [
    "-0x1.152fda16b2dcap+0",
    "-0x1.5f4c5b9c67f31p+4",
    "0x1.12c7646c8aee8p+1",
    "-0x1.cad11819eaf4bp+0",
    "0x1.4965347509047p+2",
    "-0x1.0e7b2dfce9c25p+0",
    "-0x1.557a4d9553dcdp+4",
    "0x1.1aa03efd0882fp+1",
    "0x1.451b40ac61800p-1",
    "0x1.437b8f43e2ad1p+2",
    "0x1.fd48d8189eb71p-3",
    "-0x1.3c596ca0c96a5p+4",
    "0x1.34c4e5baf2b1fp+1",
    "0x1.10d2e8d597d4dp-1",
    "0x1.998df5f1ffda7p+2",
    "0x1.304dfc00acbe5p-1",
    "-0x1.56e6f6aba17f6p+4",
    "0x1.4e37f738982aep+2",
    "0x1.da6b890ea0b15p+0",
    "0x1.37c2623717160p+2",
    "0x1.492c928b4d011p+1",
]
PINNED_SELF_LOG = [
    (4000, "0x1.999999999999ap-3", "0x1.696c221066485p-5",
     "0x1.0a16710fe3517p+1", "-0x1.5d066666665d8p+12"),
    (8000, "0x1.999999999999ap-3", "0x1.43607e8c55057p-5",
     "0x1.a8021719bd016p+0", "-0x1.5a2999999974dp+13"),
    (12000, "0x1.999999999999ap-3", "0x1.249411ad3666cp-5",
     "0x1.702382737a6e5p+0", "-0x1.04a8ccccccae0p+14"),
    (16000, "0x1.999999999999ap-3", "0x1.0b22e0c3026bcp-5",
     "0x1.5d76fc994f821p+0", "-0x1.5c75999999bb6p+14"),
    (20000, "0x1.999999999999ap-3", "0x1.eb87a2fa5cde5p-6",
     "0x1.4ab140e806cffp+0", "-0x1.b0053333338fdp+14"),
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

    @pytest.mark.parametrize("field, value", [
        ("t_train", -3), ("seed", -1),
        ("t_train", 2.5), ("t_train", True), ("seed", 1.5),
        ("beta0", 0.0), ("beta0", -0.1), ("beta0", float("nan")),
        ("beta0", float("inf")),
        ("beta_tau", 0.0), ("beta_tau", float("nan")),
        ("eps_decay", 0.0), ("eps_decay", -5.0), ("eps_decay", float("inf")),
        ("eps0", -0.1), ("eps0", 1.5), ("eps0", float("nan")),
        ("eps_min", -0.1), ("eps_min", 1.5),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            LearnSchedule(**{field: value})

    @pytest.mark.parametrize("field", ["beta0", "beta_tau", "eps0", "eps_min",
                                       "eps_decay"])
    @pytest.mark.parametrize("value", [True, False, "x", None],
                             ids=["true", "false", "str", "none"])
    def test_float_field_not_a_number_rejected(self, field, value):
        # a bool used to pass as 1 or 0, and a string failed in a comparison
        with pytest.raises(ValueError,
                           match=f"{field}: expected a number, got {value!r}"):
            LearnSchedule(**{field: value})

    def test_boundary_values_accepted(self):
        LearnSchedule(t_train=0, eps0=0.0, eps_min=0.0)
        LearnSchedule(eps0=1.0, eps_min=1.0)

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


def phi_dot(phi, w):
    """Q-hat's spec form: phi . w summed left to right over phi's nonzero
    entries."""
    terms = [p * v for p, v in zip(phi.tolist(), w.tolist()) if p != 0.0]
    q = terms[0]
    for t in terms[1:]:
        q += t
    return q


def replay_train(bank, chain, schedule, log_every):
    """train() restated on the dense spec: feasible_actions, feature_vector,
    reward, apply_action, phi_dot and update_weights, drawing from
    PCG64(seed) in the documented order (per step the exploration coin, then
    the action index only when exploring, then the chain uniform)."""
    rng = np.random.default_rng(schedule.seed)
    cum = cumulative_transition(chain)
    w = np.zeros(feature_dim(bank.n, chain.n_states))
    s = State(x=0, b=bank.start_occupancy())
    rows, cum_reward, abs_td = [], 0.0, 0.0
    for k in range(schedule.t_train):
        acts = feasible_actions(bank, chain, s)
        phis = [feature_vector(bank, chain, s, a) for a in acts]
        q = [phi_dot(phi, w) for phi in phis]
        if rng.random() < schedule.eps(k):
            i = int(rng.integers(len(acts)))
        else:
            i = int(np.argmax(q))
        r = reward(bank, s, acts[i])
        x_next = int(np.searchsorted(cum[s.x], rng.random(), side="right"))
        s_next = State(x=x_next, b=apply_action(bank, s.b, acts[i]))
        q_next = np.max([phi_dot(feature_vector(bank, chain, s_next, a), w)
                         for a in feasible_actions(bank, chain, s_next)])
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
    "toy-default": (make_bank(), make_chain(),
                    LearnSchedule(t_train=3000, seed=2)),
    "annealed-eps": (make_bank(capacities=(4, 6)), make_chain(),
                     LearnSchedule(t_train=3000, seed=5, eps0=0.5,
                                   eps_min=0.05, eps_decay=500)),
    "lossy-ramp-bound": (make_lossy_bank(), make_chain(),
                         LearnSchedule(t_train=3000, seed=7, eps0=0.8,
                                       eps_min=0.2, eps_decay=1000)),
    "self-transitions": (make_lossy_bank(), make_self_chain(),
                         LearnSchedule(t_train=3000, seed=0, eps0=0.8,
                                       eps_min=0.2, eps_decay=1000)),
    # widths other than the toy's N = 2: width_forms' K = 2 and K = 6 forms
    "one-battery": (make_bank(capacities=(5,), ramps=(2,), weights=(0.5,)),
                    make_self_chain(),
                    LearnSchedule(t_train=3000, seed=3, eps0=0.8,
                                  eps_min=0.2, eps_decay=1000)),
    "three-batteries": (make_bank(capacities=(2, 3, 2), ramps=(2, 25, 1),
                                  weights=(0.1, 1.0, 0.5),
                                  dissipation=(1.0, 0.95, 0.9)),
                        make_chain(),
                        LearnSchedule(t_train=3000, seed=4, eps0=0.8,
                                      eps_min=0.2, eps_decay=1000)),
}


class TestTrainReplay:
    # train()'s compiled, block-sparse loop against the dense reference
    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    def test_matches_dense_reference(self, case, monkeypatch):
        bank, chain, sched = REPLAY_CASES[case]
        monkeypatch.setattr(TrainLog, "EVERY", 100)
        # bit for bit: both sum Q-hat in the same order
        w, log = train(bank, chain, sched)
        w_ref, rows_ref = replay_train(bank, chain, sched, log_every=100)
        np.testing.assert_array_equal(w, w_ref)
        # step, mean |TD error| and cumulative reward of every logged block
        assert [(row[0], *row[3:]) for row in log.rows] == rows_ref


class TestTdError:
    def test_zero_weights_give_reward(self, toy_bank, toy_chain, monkeypatch):
        # train starts from w = 0, where both Q-hat terms of its first TD
        # error vanish: delta_0 = R(s_0, a_0)
        monkeypatch.setattr(TrainLog, "EVERY", 1)
        _, log = train(toy_bank, toy_chain, LearnSchedule(t_train=1))
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


def assert_same_draws(seed, script):
    """RawDraws(seed).step against np.random.default_rng(seed) over a script
    of (n, eps) steps: the coin, then integers(n) only when the coin is
    below eps, then the chain uniform."""
    gen, draws = np.random.default_rng(seed), RawDraws(seed)
    for k, (n, eps) in enumerate(script):
        a_idx = int(gen.integers(n)) if gen.random() < eps else None
        assert draws.step(n, eps) == (a_idx, gen.random()), (k, n, eps)


def training_ops(seed, steps, ns, eps):
    """A script of `steps` training steps, each with an action count drawn
    from ns."""
    pick = np.random.default_rng(seed + 99)
    return [(int(n), eps) for n in pick.choice(ns, size=steps)]


# 2**31 + 5 and 3e9 reject about 50% and 30% of their 32-bit draws
LARGE_NS = [2**31 + 5, 3 * 10**9, 2**32 - 1, 2**32]

# eps 1.0 explores at every step
EXPLORE = (7, 1.0)


class TestRawDraws:
    # train() decodes its draws from PCG64 words; they must stay the
    # Generator calls of the stream contract, value for value
    @pytest.mark.parametrize("ns, eps", [
        (list(range(2, 60)), 1.0),
        ([1, 2, 3], 1.0),
        (LARGE_NS, 1.0),
        ([1, 2, 7, 59] + LARGE_NS, 0.3),
    ], ids=["2-59", "with-1", "large", "coin-only-steps"])
    @pytest.mark.parametrize("seed", [0, 12345])
    def test_matches_generator_over_training_draws(self, seed, ns, eps):
        assert_same_draws(seed, training_ops(seed, 30_000, ns, eps))

    def test_one_draws_nothing(self):
        # not a word, and not the high half cached by the draw before it
        assert_same_draws(7, [(5, 1.0), (1, 1.0), (1, 1.0), (5, 1.0),
                              (1, 0.0), (5, 1.0), (1, 1.0), (5, 1.0)])
        draws, gen = RawDraws(7), np.random.default_rng(7)
        assert ([draws.step(1, 1.0) for _ in range(5)]
                == [(0, u) for u in gen.random(10)[1::2].tolist()])

    # Words of a run of exploring steps at n = 7 (seed 3 rejects none of
    # these draws): coin 0, low half 1, chain 2 | coin 3, high half of 1,
    # chain 4 | coin 5, low half 6, chain 7 | coin 8, high half of 6, chain 9.
    # A block of RAW_BLOCK words refills at each word index it divides.
    @pytest.mark.parametrize("block, script", [
        (2, [EXPLORE] * 4),               # the chain uniform 2, a random()
                                          # draw of the contract, refills
        (3, [EXPLORE] * 4),               # the coin 3 refills
        (6, [EXPLORE] * 4),               # the low half 6 refills
        (3, [(3 * 10**9, 1.0)] * 300),    # runs of rejections across blocks
    ], ids=["refill-by-random", "refill-by-coin", "refill-by-integers",
            "rejections"])
    def test_cached_high_half_at_a_refill(self, block, script, monkeypatch):
        # the high half of 1 is read after the refill at 2 or 3, and the
        # high half of 6 after the refill at 6
        monkeypatch.setattr(learner, "RAW_BLOCK", block)
        assert_same_draws(3, script)


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

    def test_self_transitions_pinned_bit_for_bit(self, monkeypatch):
        # x' == x values the next step's row with the block just updated,
        # and eps < 1 takes the exploiting branch
        monkeypatch.setattr(TrainLog, "EVERY", 4000)
        w, log = train(make_lossy_bank(), make_self_chain(), SELF_SCHEDULE)
        assert [float(v).hex() for v in w] == PINNED_SELF_WEIGHTS
        assert [(row[0], *(float(v).hex() for v in row[1:]))
                for row in log.rows] == PINNED_SELF_LOG

    @pytest.mark.parametrize("sched", [
        LearnSchedule(t_train=3000, seed=1),
        LearnSchedule(t_train=3000, seed=1, eps0=0.9, eps_min=0.05,
                      eps_decay=700, beta0=0.2, beta_tau=500.0),
    ], ids=["default", "annealed"])
    def test_logged_schedule_is_learn_schedule(self, sched, toy_bank,
                                               toy_chain, monkeypatch):
        # the loop's hoisted eps and beta against LearnSchedule, the spec;
        # a row logged at step k + 1 carries the values used at step k
        monkeypatch.setattr(TrainLog, "EVERY", 97)
        _, log = train(toy_bank, toy_chain, sched)
        assert len(log.rows) == 3000 // 97
        for step, eps, beta, *_ in log.rows:
            assert eps == sched.eps(step - 1)
            assert beta == sched.beta(step - 1)

    @pytest.mark.parametrize("b0", [(9, 9), (-1, 0), (1,), (1.5, 1), (1, True)])
    def test_occupancy_outside_bank_rejected(self, b0, toy_bank, toy_chain):
        # each used to decode as some other state and train silently
        bank = dataclasses.replace(toy_bank, initial_occupancy=b0)
        with pytest.raises(ValueError, match="initial_occupancy: must be 2 "):
            train(bank, toy_chain, LearnSchedule(t_train=100))

    def test_td_errors_shrink(self, toy_bank, toy_chain):
        _, log = train(toy_bank, toy_chain, LearnSchedule(t_train=30_000))
        td = [row[3] for row in log.rows]
        assert np.mean(td[-5:]) < np.mean(td[:5])

    def test_weights_finite_and_log_shape(self, toy_bank, toy_chain,
                                          monkeypatch):
        monkeypatch.setattr(TrainLog, "EVERY", 500)
        w, log = train(toy_bank, toy_chain, LearnSchedule(t_train=4000))
        assert np.isfinite(w).all()
        assert len(log.rows) == 8
        steps = [row[0] for row in log.rows]
        assert steps == list(range(500, 4001, 500))
        # cumulative reward column is nonincreasing (rewards are <= 0)
        cum = [row[4] for row in log.rows]
        assert all(b <= a + 1e-12 for a, b in zip(cum, cum[1:]))

    def test_log_rows_are_python_numbers(self, toy_bank, toy_chain):
        for sched in (LearnSchedule(t_train=3000),
                      LearnSchedule(t_train=3000, eps0=0.9, eps_min=0.1)):
            _, log = train(toy_bank, toy_chain, sched)
            assert len(log.rows) == 3
            for row in log.rows:
                assert [type(v) for v in row] == [int] + [float] * 4

    def test_log_csv_round_trip(self, tmp_path, toy_bank, toy_chain):
        import csv
        _, log = train(toy_bank, toy_chain, LearnSchedule(t_train=2000))
        path = tmp_path / "log.csv"
        log.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(log.HEADER)
        assert len(rows) == 1 + len(log.rows)


class TestDivergence:
    # the shipped toy bank resized to (40, 40), ramps 25: one training seed
    # diverges and its neighbour does not. The step the divergence is raised
    # at pins how a step's max meets NaN and infinite estimates.
    @staticmethod
    def big_bank():
        return resize_bank(make_bank(gamma=0.9), (40, 40), (25, 25))

    def test_raised_at_pinned_step(self):
        with pytest.raises(FloatingPointError,
                           match=r"^non-finite TD error at step 10942, "
                                 r"training seed 24302$"):
            train(self.big_bank(), make_chain(),
                  LearnSchedule(seed=0x5EED + 1))

    def test_neighbouring_seed_runs_its_steps(self):
        # no TD error turns non-finite in its 1e5 steps, but its weights
        # diverge all the same: the bound check after the last step says so
        with pytest.raises(FloatingPointError, match=(
                r"^max\|Q-hat\| = \S+ after 100000 training steps exceeds "
                r"the bound ")):
            train(self.big_bank(), make_chain(), LearnSchedule(seed=0x5EED))


class TestQBound:
    # the shipped toy config resized to (30, 30), ramps 25, trained with the
    # default schedule: seed 0x5EED runs every step with finite TD errors
    # and ends at ~1e62 times the bound; seed 0x5EED + 2 ends at ~0.54 times
    @staticmethod
    def bank_and_chain():
        toy, chain = load_config(TOY_CONFIG)
        return resize_bank(toy, (30, 30), (25, 25)), chain

    def test_min_r_counts_only_the_pairs(self):
        # net generation 5 and ramp 2 charge the battery by 2 whenever it
        # has room, so occupancies 0 and 1 (rewards -4 and -3) are never
        # reached, and over the pairs min r is -2: the bound is
        # 10 * 2 / (1 - 0.9) = 200, not 400
        chain = BackgroundChain(labels=(5,), transition=np.array([[1.0]]),
                                net_gen=(5,))
        bank = BankConfig(batteries=(BatteryConfig(
            capacity=10, ramp=2, penalty_weight=1.0, lower_frac=0.4,
            upper_frac=0.9),), gamma=0.9)
        rewards = bank_model(bank, chain).table.post_reward
        assert rewards[:3].tolist() == [-4.0, -3.0, -2.0]
        w = np.zeros(feature_dim(1, 1))
        w[1] = 300.0   # the bias: Q-hat is 300 on every pair
        with pytest.raises(FloatingPointError,
                           match=r"= 300 after 0 training steps exceeds the "
                                 r"bound 200 \("):
            check_q_bound(bank, chain, w, LearnSchedule(t_train=0))

    def test_largest_estimate_counts_only_the_pairs(self):
        # net generation -4 empties the toy bank as far as it can, so in
        # background state 0 no pair leads to the full occupancy (2, 3),
        # where both full-side kernels are -1. Weighting them by the bound
        # puts max|Q-hat| = 2 x bound there, while over the pairs it stays
        # at bound / 16, at occupancy (1, 0)
        bank, chain = make_bank(gamma=0.9), make_chain()
        model = bank_model(bank, chain)
        bound = 10 * -model.table.post_reward[model.table.post].min() / 0.1
        w = np.zeros(feature_dim(bank.n, chain.n_states))
        blk = block_slice(0, bank.n)
        w[blk.start + 2] = w[blk.start + 4] = bound
        full = model.occupancy_id((2, 3))
        assert not model.reached[0, full]
        q = q_table(model, w)
        assert np.abs(q).max() == -q[0, full] == 2 * bound
        check_q_bound(bank, chain, w, LearnSchedule(t_train=0))

    def test_silent_divergence_fails_naming_the_bound(self):
        bank, chain = self.bank_and_chain()
        with pytest.raises(FloatingPointError) as info:
            train(bank, chain, LearnSchedule(seed=0x5EED))
        msg = str(info.value)
        # -min r = 1 * (0.2 * 30) + 0.1 * (0.2 * 30) = 6.6, gamma = 0.9
        assert re.fullmatch(
            r"max\|Q-hat\| = (\S+) after 100000 training steps exceeds the "
            r"bound 660 \(10 x -min r / \(1 - gamma\)\), training seed 24301",
            msg), msg
        assert float(msg.split()[2]) > 1e60 * 660

    def test_healthy_run_passes(self):
        bank, chain = self.bank_and_chain()
        w, log = train(bank, chain, LearnSchedule(seed=0x5EED + 2))
        assert np.isfinite(w).all()
        assert log.rows[-1][0] == 100_000

    @pytest.mark.parametrize("scale", [0.5, 1.5])
    def test_rows_decide_where_weight_sums_cannot(self, scale):
        # bias and kernel weights all equal: Q-hat = c * (1 + sum of
        # kernels) stays within c on the rows, while a block's weights sum
        # to 5c, above the bound, so only valuing the pairs decides
        bank, chain = make_bank(gamma=0.9), make_chain()
        t = bank_model(bank, chain).table
        bound = 10 * -t.post_reward[t.post].min() / 0.1
        w = np.zeros(feature_dim(bank.n, chain.n_states))
        w[1:] = 1.0
        top = max(abs(feature_vector(bank, chain, State(x, b), a) @ w)
                  for x in range(chain.n_states)
                  for b in itertools.product(range(3), range(4))
                  for a in feasible_actions(bank, chain, State(x, b)))
        w *= scale * bound / top
        sched = LearnSchedule(t_train=0, seed=7)
        if scale < 1:
            check_q_bound(bank, chain, w, sched)
            return
        with pytest.raises(FloatingPointError) as info:
            check_q_bound(bank, chain, w, sched)
        assert str(info.value).endswith("training seed 7")
        assert float(str(info.value).split()[2]) == pytest.approx(
            scale * bound, rel=1e-2)
