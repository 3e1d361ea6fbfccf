import csv
import dataclasses

import numpy as np
import pytest

from battbank.core import BackgroundChain, State
from battbank.env import reward
from battbank.oracle import (ExactModel, IterationLimitExceeded,
                             StateSpaceTooLarge,
                             enumerate_states, evaluate_policy_exact,
                             solve_q_iteration, write_solution_csv)
from battbank.policies import make_policy

from conftest import make_bank, make_chain


class TestEnumerateStates:
    def test_case_study_count(self, toy_bank, toy_chain):
        assert len(enumerate_states(toy_bank, toy_chain)) == 48

    def test_symmetric_count(self, toy_chain):
        bank = make_bank(capacities=(10, 10))
        assert len(enumerate_states(bank, toy_chain)) == 484

    def test_minimal_count(self):
        chain = BackgroundChain(labels=(0,), transition=np.array([[1.0]]),
                                net_gen=(0,))
        bank = make_bank(capacities=(1,), ramps=(1,), weights=(1.0,))
        assert len(enumerate_states(bank, chain)) == 2

    def test_bijective_and_x_major(self, toy_bank, toy_chain):
        states = enumerate_states(toy_bank, toy_chain)
        assert len(set(states)) == len(states)
        model = ExactModel(toy_bank, toy_chain)
        for i, s in enumerate(states):
            assert model.compiled.state_id(s) == i

    def test_cap_refusal_names_size(self, toy_bank, toy_chain):
        with pytest.raises(StateSpaceTooLarge, match="48"):
            enumerate_states(toy_bank, toy_chain, cap=47)


class TestBellmanBackup:
    def test_first_sweep_is_reward(self, toy_bank, toy_chain):
        model = ExactModel(toy_bank, toy_chain)
        q1, _ = model.backup(np.zeros(model.n_sa))
        np.testing.assert_allclose(q1, model.sa_rewards, atol=1e-15)

    def test_vanishing_discount_fixed_after_one_sweep(self, toy_chain):
        bank = make_bank(gamma=1e-9)
        model = ExactModel(bank, toy_chain)
        q1, _ = model.backup(np.zeros(model.n_sa))
        _, delta2 = model.backup(q1)
        assert delta2 < 1e-6

    def test_contraction_factor(self, toy_bank, toy_chain):
        model = ExactModel(toy_bank, toy_chain)
        rng = np.random.default_rng(0)
        q = rng.normal(size=model.n_sa)
        q2 = rng.normal(size=model.n_sa)
        b1, _ = model.backup(q)
        b2, _ = model.backup(q2)
        lhs = np.abs(b1 - b2).max()
        rhs = toy_bank.gamma * np.abs(q - q2).max()
        assert lhs <= rhs + 1e-12


class TestSolveQIteration:
    def test_converges_on_case_study(self, toy_chain):
        bank = make_bank(gamma=0.95)
        sol = solve_q_iteration(bank, toy_chain, tol=1e-9)
        assert sol.residual <= 1e-9
        assert sol.iterations < 10**5
        assert len(sol.values()) == 48
        assert (sol.values() <= 1e-12).all()   # rewards are nonpositive

    def test_huge_tolerance_one_sweep(self, toy_bank, toy_chain):
        sol = solve_q_iteration(toy_bank, toy_chain, tol=1e9)
        assert sol.iterations == 1

    def test_zero_penalties_zero_values(self, toy_chain):
        bank = make_bank(weights=(0.0, 0.0))
        sol = solve_q_iteration(bank, toy_chain, tol=1e-12)
        np.testing.assert_allclose(sol.q, 0.0, atol=1e-15)

    def test_iteration_cap_raises(self, toy_bank, toy_chain):
        with pytest.raises(IterationLimitExceeded):
            solve_q_iteration(toy_bank, toy_chain, tol=1e-12, max_sweeps=3)

    def test_fixed_point_residual(self, toy_bank, toy_chain):
        sol = solve_q_iteration(toy_bank, toy_chain, tol=1e-10)
        _, delta = sol.model.backup(sol.q)
        assert delta <= toy_bank.gamma * 1e-10 + 1e-15


class TestEvaluatePolicyExact:
    def test_zero_penalty_all_policies(self, toy_chain):
        bank = make_bank(weights=(0.0, 0.0))
        for name in ("greedy", "naive"):
            V = evaluate_policy_exact(bank, toy_chain,
                                      make_policy(name, bank, toy_chain),
                                      tol=1e-12)
            np.testing.assert_allclose(V, 0.0, atol=1e-12)

    def test_vanishing_discount_myopic(self, toy_chain):
        bank = make_bank(gamma=1e-9)
        pol = make_policy("greedy", bank, toy_chain)
        V = evaluate_policy_exact(bank, toy_chain, pol, tol=1e-15)
        model = ExactModel(bank, toy_chain)
        for i, s in enumerate(model.states):
            assert V[i] == pytest.approx(reward(bank, s, pol(s)), abs=1e-6)

    def test_policy_value_below_optimal(self, toy_bank, toy_chain):
        sol = solve_q_iteration(toy_bank, toy_chain, tol=1e-12)
        V_naive = evaluate_policy_exact(
            toy_bank, toy_chain, make_policy("naive", toy_bank, toy_chain),
            tol=1e-12)
        assert (V_naive <= sol.values() + 1e-9).all()


def test_solution_csv_export(tmp_path, toy_bank, toy_chain):
    sol = solve_q_iteration(toy_bank, toy_chain, tol=1e-9)
    path = tmp_path / "solution.csv"
    write_solution_csv(sol, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["state_index", "x", "b", "best_action", "optimal_value"]
    assert len(rows) == 1 + sol.model.n_states
    V = sol.values()
    for i in (0, 17, 47):
        assert float(rows[1 + i][4]) == pytest.approx(V[i], rel=1e-9)
