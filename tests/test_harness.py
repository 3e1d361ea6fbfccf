import csv

import numpy as np
import pytest

from battbank import harness
from battbank.chain import generate_trajectory
from battbank.core import State
from battbank.env import apply_action, reward
from battbank.harness import (TRAIN_SEED_OFFSET, compare_policies,
                              coupled_rollout, resize_bank)
from battbank.learner import LearnSchedule, train
from battbank.policies import make_policy, naive_action

from conftest import make_bank, make_chain


class TestCoupledRollout:
    def test_zero_length(self, toy_bank, toy_chain):
        traj = generate_trajectory(toy_chain, 0, 0, seed=0)
        rep = coupled_rollout(
            toy_bank, toy_chain,
            [("greedy", make_policy("greedy", toy_bank, toy_chain))],
            traj, toy_bank.start_occupancy())
        assert rep["greedy"].total_reward == 0.0

    def test_zero_penalty_config(self, toy_chain):
        bank = make_bank(weights=(0.0, 0.0))
        traj = generate_trajectory(toy_chain, 0, 500, seed=1)
        rep = coupled_rollout(
            bank, toy_chain,
            [(n, make_policy(n, bank, toy_chain)) for n in ("greedy", "naive")],
            traj, bank.start_occupancy())
        for st in rep.values():
            assert st.total_reward == 0.0
            assert st.penalty_events == 0

    def test_matches_manual_loop(self, toy_bank, toy_chain):
        traj = generate_trajectory(toy_chain, 0, 400, seed=3)
        pol = make_policy("naive", toy_bank, toy_chain)
        rep = coupled_rollout(toy_bank, toy_chain, [("naive", pol)], traj,
                              toy_bank.start_occupancy())
        total = 0.0
        events = 0
        b = toy_bank.start_occupancy()
        for k in range(400):
            s = State(x=traj.x_path[k], b=b)
            a = naive_action(toy_bank, toy_chain, s)
            r = reward(toy_bank, s, a)
            total += r
            events += r < 0
            b = apply_action(toy_bank, b, a)
        assert rep["naive"].total_reward == total
        assert rep["naive"].penalty_events == events

    def test_deterministic_repeat(self, toy_bank, toy_chain):
        traj = generate_trajectory(toy_chain, 0, 1000, seed=4)
        pols = [(n, make_policy(n, toy_bank, toy_chain))
                for n in ("greedy", "naive")]
        r1 = coupled_rollout(toy_bank, toy_chain, pols, traj,
                             toy_bank.start_occupancy())
        r2 = coupled_rollout(toy_bank, toy_chain, pols, traj,
                             toy_bank.start_occupancy())
        for n in ("greedy", "naive"):
            assert r1[n] == r2[n]

    def test_trained_rl_matches_greedy_when_greedy_optimal(self, toy_bank,
                                                           toy_chain):
        # with lossless batteries and non-binding ramps the greedy policy is
        # optimal, and a trained controller should tie it on a shared path
        w, _ = train(toy_bank, toy_chain, LearnSchedule(seed=0))
        traj = generate_trajectory(toy_chain, 0, 20_000, seed=0)
        rep = coupled_rollout(
            toy_bank, toy_chain,
            [("greedy", make_policy("greedy", toy_bank, toy_chain)),
             ("rl", make_policy("rl", toy_bank, toy_chain, weights=w))],
            traj, toy_bank.start_occupancy())
        g = rep["greedy"].total_reward
        r = rep["rl"].total_reward
        assert r == pytest.approx(g, rel=1e-9, abs=1e-9)


class TestResizeBank:
    def test_capacity_and_ramp_override(self, toy_bank):
        sized = resize_bank(toy_bank, (15, 15), ramps=(2, 2))
        assert sized.capacities == (15, 15)
        assert sized.ramps == (2, 2)
        assert sized.start_occupancy() == (7, 7)
        # penalty weights carry over unchanged
        assert [b.penalty_weight for b in sized.batteries] == [0.1, 1.0]

    def test_ramps_kept_when_not_given(self, toy_bank):
        sized = resize_bank(toy_bank, (6, 10))
        assert sized.ramps == toy_bank.ramps

    def test_length_mismatch(self, toy_bank):
        with pytest.raises(ValueError, match="3 sizes for 2 batteries"):
            resize_bank(toy_bank, (2, 3, 4))
        with pytest.raises(ValueError, match="1 ramps for 2 batteries"):
            resize_bank(toy_bank, (2, 3), ramps=(2,))


@pytest.fixture(scope="module")
def small_table():
    sched = LearnSchedule(t_train=2000)
    return compare_policies(make_bank(), make_chain(), [(2, 3)],
                            seeds=[0, 1], T=1000, schedule=sched)


class TestComparePolicies:
    def test_shape_and_stats(self, small_table):
        assert {r.policy for r in small_table.rows} == {"greedy", "naive", "rl"}
        for r in small_table.rows:
            assert len(r.totals) == 2
            assert r.mean == pytest.approx(sum(r.totals) / 2)
        assert small_table.failures == []

    def test_deterministic_repeat(self, small_table):
        bank = make_bank()
        chain = make_chain()
        again = compare_policies(bank, chain, [(2, 3)], seeds=[0, 1],
                                 T=1000, schedule=LearnSchedule(t_train=2000))
        for r1, r2 in zip(small_table.rows, again.rows):
            assert r1 == r2

    def test_zero_penalty_rows_are_zero(self, toy_chain):
        bank = make_bank(weights=(0.0, 0.0))
        table = compare_policies(bank, toy_chain, [(2, 3)], seeds=[0],
                                 T=500, schedule=LearnSchedule(t_train=500))
        for r in table.rows:
            assert r.totals == [0.0]

    def test_failure_captured_without_killing_table(self, toy_bank, toy_chain):
        table = compare_policies(toy_bank, toy_chain, [(2, 3, 4), (2, 3)],
                                 seeds=[0], T=200,
                                 schedule=LearnSchedule(t_train=200))
        assert len(table.failures) == 1
        assert "(2, 3, 4)" in table.failures[0]
        assert "ValueError" in table.failures[0]
        assert len(table.rows) == 3  # surviving size still reported

    def test_programming_error_propagates(self, monkeypatch, toy_bank,
                                          toy_chain):
        def broken(*args, **kwargs):
            raise TypeError("bug in the rollout path")

        monkeypatch.setattr(harness, "coupled_rollout", broken)
        with pytest.raises(TypeError, match="bug in the rollout path"):
            compare_policies(toy_bank, toy_chain, [(2, 3)], seeds=[0], T=50,
                             schedule=LearnSchedule(t_train=50))

    def test_negative_T_fails_rows_before_training(self, monkeypatch,
                                                   toy_bank, toy_chain):
        def no_training(*args, **kwargs):
            raise AssertionError("train called for a row with T < 0")

        monkeypatch.setattr(harness, "train", no_training)
        table = compare_policies(toy_bank, toy_chain, [(2, 3), (3, 3)],
                                 seeds=[0, 1], T=-5)
        assert table.rows == []
        assert table.failures == [
            f"sizes {size}: ValueError: T: must be >= 0, got -5"
            for size in [(2, 3), (3, 3)]]

    def test_negative_seed_fails_rows_before_training(self, monkeypatch,
                                                      toy_bank, toy_chain):
        # seed -1 trains with the valid schedule seed -1 + TRAIN_SEED_OFFSET,
        # so the row used to fail only at its trajectory, after training
        def no_training(*args, **kwargs):
            raise AssertionError("train called for a row with a seed < 0")

        monkeypatch.setattr(harness, "train", no_training)
        table = compare_policies(toy_bank, toy_chain, [(2, 3), (3, 3)],
                                 seeds=[0, -1], T=50)
        assert table.rows == []
        assert table.failures == [
            f"sizes {size}: ValueError: seed: must be >= 0, got -1"
            for size in [(2, 3), (3, 3)]]

    def test_empty_seed_list_fails_each_row(self, toy_bank, toy_chain):
        # used to raise statistics.StatisticsError from fmean, out of the table
        table = compare_policies(toy_bank, toy_chain, [(2, 3), (3, 3)],
                                 seeds=[], T=50)
        assert table.rows == []
        assert table.failures == [
            f"sizes {size}: ValueError: seeds: must name at least one seed, got []"
            for size in [(2, 3), (3, 3)]]

    def test_csv_export(self, tmp_path, small_table):
        path = tmp_path / "table.csv"
        small_table.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["sizes", "policy"]
        assert len(rows) == 1 + len(small_table.rows)

    def test_row_lookup(self, small_table):
        r = small_table.row((2, 3), "rl")
        assert r.policy == "rl"
        with pytest.raises(KeyError):
            small_table.row((9, 9), "rl")


def test_train_seed_offset_separates_streams(toy_chain):
    # the schedule seed for row seed k must not equal k itself, so the
    # training stream and the evaluation trajectory stream never coincide
    assert TRAIN_SEED_OFFSET != 0
    np.testing.assert_array_less(0, TRAIN_SEED_OFFSET)
