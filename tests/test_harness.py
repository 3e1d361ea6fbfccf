import csv

import numpy as np
import pytest

from battbank import harness
from battbank.chain import Trajectory, generate_trajectory
from battbank.core import BackgroundChain, State
from battbank.env import apply_action, bank_model, reward
from battbank.harness import (TRAIN_SEED_OFFSET, compare_policies,
                              coupled_rollout, resize_bank)
from battbank.learner import LearnSchedule, train
from battbank.policies import greedy_action, make_policy, naive_action

from conftest import make_bank, make_chain


class TestCoupledRollout:
    def test_zero_length(self, toy_bank, toy_chain):
        traj = generate_trajectory(toy_chain, 0, 0, seed=0)
        rep = coupled_rollout(
            toy_bank, toy_chain,
            [("greedy", make_policy("greedy", toy_bank, toy_chain))],
            traj, toy_bank.start_occupancy())
        assert rep["greedy"] == 0.0

    def test_zero_penalty_config(self, toy_chain):
        bank = make_bank(weights=(0.0, 0.0))
        traj = generate_trajectory(toy_chain, 0, 500, seed=1)
        rep = coupled_rollout(
            bank, toy_chain,
            [(n, make_policy(n, bank, toy_chain)) for n in ("greedy", "naive")],
            traj, bank.start_occupancy())
        assert rep == {"greedy": 0.0, "naive": 0.0}

    def test_matches_manual_loop(self, toy_bank, toy_chain):
        traj = generate_trajectory(toy_chain, 0, 400, seed=3)
        pol = make_policy("naive", toy_bank, toy_chain)
        rep = coupled_rollout(toy_bank, toy_chain, [("naive", pol)], traj,
                              toy_bank.start_occupancy())
        total = 0.0
        b = toy_bank.start_occupancy()
        for k in range(400):
            s = State(x=traj.x_path[k], b=b)
            a = naive_action(toy_bank, toy_chain, s)
            total += reward(toy_bank, s, a)
            b = apply_action(toy_bank, b, a)
        assert rep["naive"] == total

    def test_matches_manual_loop_on_two_byte_path(self):
        # 257 background states do not fit in a byte, so the path is stored
        # two bytes a step
        rng = np.random.default_rng(0)
        P = rng.random((257, 257))
        chain = BackgroundChain(labels=range(257),
                                transition=P / P.sum(axis=1, keepdims=True),
                                net_gen=rng.integers(-2, 3, 257))
        bank = make_bank(capacities=(1,), ramps=(1,), weights=(1.0,))
        traj = generate_trajectory(chain, 0, 3000, seed=5)
        assert traj.x_path.itemsize == 2 and max(traj.x_path) >= 256
        spec = {"greedy": greedy_action, "naive": naive_action}
        rep = coupled_rollout(bank, chain,
                              [(n, make_policy(n, bank, chain)) for n in spec],
                              traj, bank.start_occupancy())
        for name, action in spec.items():
            total = 0.0
            b = bank.start_occupancy()
            for k in range(3000):
                s = State(x=traj.x_path[k], b=b)
                a = action(bank, chain, s)
                total += reward(bank, s, a)
                b = apply_action(bank, b, a)
            assert rep[name] == total
            assert total < 0

    @pytest.mark.parametrize("pick, match", [
        (lambda counts: counts, r"policy bad: .* state 0's row of {n} actions"),
        (lambda counts: counts * 0 - 1, r"policy bad: .* state 0's row of {n} actions"),
        (lambda counts: counts[1:] * 0, r"policy bad: expected shape \(48,\)"),
        (lambda counts: counts * 0.0,
         r"policy bad: expected integer indices, got dtype float64"),
        (lambda counts: np.zeros(len(counts), bool),
         r"policy bad: expected integer indices, got dtype bool")],
        ids=["past-end", "negative", "wrong-length", "float", "bool"])
    def test_index_outside_row_rejected(self, toy_bank, toy_chain, pick, match):
        # every state's index is checked before the first step, visited or not
        counts = np.diff(bank_model(toy_bank, toy_chain).table.offsets)
        traj = generate_trajectory(toy_chain, 0, 10, seed=0)
        with pytest.raises(ValueError, match=match.format(n=counts[0])):
            coupled_rollout(toy_bank, toy_chain, [("bad", pick(counts))], traj,
                            toy_bank.start_occupancy())

    @pytest.mark.parametrize("b0", [(0, 4), (-1, 0), (1,), (1.0, 2), (True, 2)])
    def test_start_occupancy_outside_bank_rejected(self, toy_bank, toy_chain, b0):
        # each of these used to map onto another state's id and roll out
        traj = generate_trajectory(toy_chain, 0, 10, seed=0)
        with pytest.raises(ValueError, match=r"b0: must be 2 occupancies"):
            coupled_rollout(toy_bank, toy_chain,
                            [("greedy", make_policy("greedy", toy_bank, toy_chain))],
                            traj, b0)

    @pytest.mark.parametrize("path, top", [([0, 4, 0, 1], 4), ([0, 1, 250], 250),
                                           ([0, -1, 0, 1], -1)])
    def test_path_outside_chain_rejected(self, toy_bank, toy_chain, path, top):
        # state 4 of the 4-state chain read another occupancy's entry, and
        # so did state -1 of a path built from a signed array; a state past
        # the last entry raised a bare IndexError
        dtype = np.int64 if min(path) < 0 else np.uint8
        traj = Trajectory(x_path=np.array(path, dtype=dtype).data)
        with pytest.raises(ValueError,
                           match=rf"traj: state {top} outside the 4-state chain"):
            coupled_rollout(toy_bank, toy_chain,
                            [("greedy", make_policy("greedy", toy_bank, toy_chain))],
                            traj, toy_bank.start_occupancy())

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
        assert rep["rl"] == pytest.approx(rep["greedy"], rel=1e-9, abs=1e-9)


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

    @pytest.mark.parametrize("sizes, ramps, match", [
        ((2.5, 3), None, r"sizes: expected integers, got \(2.5, 3\)"),
        ((True, 3), None, r"sizes: expected integers, got \(True, 3\)"),
        ((2, 3), (2.7, 3), r"ramps: expected integers, got \(2.7, 3\)")])
    def test_non_integer_rejected(self, toy_bank, sizes, ramps, match):
        # each used to be truncated by int()
        with pytest.raises(ValueError, match=match):
            resize_bank(toy_bank, sizes, ramps)


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

    def test_divergence_recorded_whatever_the_warning_filters(self, toy_bank,
                                                              toy_chain):
        # the suite turns warnings into errors; numpy's overflow warning
        # used to escape the table before the TD-error check could see it
        table = compare_policies(toy_bank, toy_chain, [(2, 3)], seeds=[0],
                                 T=100,
                                 schedule=LearnSchedule(t_train=2000, beta0=100))
        assert table.rows == []
        assert len(table.failures) == 1
        assert table.failures[0].startswith(
            "sizes (2, 3): FloatingPointError: non-finite TD error at step ")

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

    @pytest.mark.parametrize("sizes, seeds, failure", [
        ([(2.5, 3)], [0],
         "sizes (2.5, 3): ValueError: sizes: expected integers, got (2.5, 3)"),
        ([(2, 3)], [1.5],
         "sizes (2, 3): ValueError: seed: expected an integer, got 1.5")])
    def test_non_integer_row_fails_before_training(self, monkeypatch, toy_bank,
                                                   toy_chain, sizes, seeds,
                                                   failure):
        # (2.5, 3) used to run as (2, 3), and seed 1.5 raised TypeError from
        # training out of the whole table
        def no_training(*args, **kwargs):
            raise AssertionError("train called for a row with a non-integer")

        monkeypatch.setattr(harness, "train", no_training)
        table = compare_policies(toy_bank, toy_chain, sizes, seeds=seeds, T=50)
        assert table.rows == []
        assert table.failures == [failure]

    def test_empty_seed_list_fails_each_row(self, toy_bank, toy_chain):
        # used to raise statistics.StatisticsError from fmean, out of the table
        table = compare_policies(toy_bank, toy_chain, [(2, 3), (3, 3)],
                                 seeds=[], T=50)
        assert table.rows == []
        assert table.failures == [
            f"sizes {size}: ValueError: seeds: must name at least one seed, got []"
            for size in [(2, 3), (3, 3)]]

    def test_repeated_seed_fails_each_row(self, toy_bank, toy_chain,
                                          monkeypatch):
        # used to print one run twice, its stddev reading 0.0; rejected
        # before any training
        def no_training(*args, **kwargs):
            raise AssertionError("trained with a repeated seed")
        monkeypatch.setattr(harness, "train", no_training)
        table = compare_policies(toy_bank, toy_chain, [(2, 3), (3, 3)],
                                 seeds=[0, 1, 0], T=50)
        assert table.rows == []
        assert table.failures == [
            f"sizes {size}: ValueError: seeds: 0 given twice"
            for size in [(2, 3), (3, 3)]]

    def test_repeated_size_fails_its_row(self, toy_bank, toy_chain,
                                         monkeypatch):
        # used to train and print the (2, 3) rows twice, of which table.row
        # found the first; the repeat is rejected before any training and
        # the other rows run
        sizes = []
        real = harness.train

        def training(bank, *args, **kwargs):
            sizes.append(bank.capacities)
            return real(bank, *args, **kwargs)
        monkeypatch.setattr(harness, "train", training)
        table = compare_policies(toy_bank, toy_chain, [(2, 3), [3, 3], [2, 3]],
                                 seeds=[0], T=50,
                                 schedule=LearnSchedule(t_train=50))
        assert sizes == [(2, 3), (3, 3)]
        assert [r.sizes for r in table.rows] == [(2, 3)] * 3 + [(3, 3)] * 3
        assert table.failures == [
            "sizes (2, 3): ValueError: sizes: (2, 3) given twice"]

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
