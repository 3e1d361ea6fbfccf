import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from battbank import oracle
from battbank.core import (BackgroundChain, BankConfig, BatteryConfig,
                           load_config, validate_config)
from battbank.env import bank_model, reward
from battbank.oracle import (ExactModel, IterationLimitExceeded,
                             StateSpaceTooLarge, evaluate_policy_exact,
                             solve_policy_iteration, solve_q_iteration,
                             write_solution_csv)
from battbank.policies import greedy_action, make_policy

from conftest import make_bank, make_chain
from test_model import instances

TOY_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "toy_bank.json"


class TestEnumerateStates:
    def test_case_study_count(self, toy_bank, toy_chain):
        assert ExactModel(toy_bank, toy_chain).n_states == 48

    def test_symmetric_count(self, toy_chain):
        bank = make_bank(capacities=(10, 10))
        assert ExactModel(bank, toy_chain).n_states == 484

    def test_minimal_count(self):
        chain = BackgroundChain(labels=(0,), transition=np.array([[1.0]]),
                                net_gen=(0,))
        bank = make_bank(capacities=(1,), ramps=(1,), weights=(1.0,))
        assert ExactModel(bank, chain).n_states == 2

    def test_bijective_and_x_major(self, toy_bank, toy_chain):
        model = ExactModel(toy_bank, toy_chain).compiled
        states = [model.state(i) for i in range(model.n_states)]
        assert len(set(states)) == len(states) == 48
        for i, s in enumerate(states):
            assert s.x == i // model.num_b
            assert all(0 <= v <= B for v, B in zip(s.b, toy_bank.capacities))
            assert s.x * model.num_b + model.occupancy_id(s.b) == i

    def test_cap_refusal_names_size(self, monkeypatch, toy_chain):
        # 1000 * 1000 occupancies * 4 background states = 4,000,000 > cap
        def no_rows(*args):
            raise AssertionError("a row was built before the cap check")

        monkeypatch.setattr(oracle, "bank_model", no_rows)
        bank = make_bank(capacities=(999, 999))
        for build in (ExactModel, solve_q_iteration, solve_policy_iteration):
            with pytest.raises(StateSpaceTooLarge, match="4000000"):
                build(bank, toy_chain)


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

    def test_zero_tolerance_converges_exactly(self):
        sol = solve_q_iteration(*load_config(TOY_CONFIG), tol=0)
        assert sol.iterations == 331
        assert sol.residual == 0.0

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
        with pytest.raises(IterationLimitExceeded):
            solve_q_iteration(toy_bank, toy_chain, tol=1e-12, max_sweeps=1)

    @pytest.mark.parametrize("max_sweeps", [0, -1])
    def test_sweep_cap_below_one_rejected_before_build(self, max_sweeps,
                                                       monkeypatch, toy_bank,
                                                       toy_chain):
        # 0 used to raise UnboundLocalError from the sweep loop
        def no_model(*args):
            raise AssertionError("a model was built before the cap check")

        monkeypatch.setattr(oracle, "bank_model", no_model)
        with pytest.raises(ValueError, match="max_sweeps: must be >= 1"):
            solve_q_iteration(toy_bank, toy_chain, max_sweeps=max_sweeps)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_bad_tolerance_rejected_before_build(self, tol, monkeypatch,
                                                 toy_bank, toy_chain):
        # nan and -1 used to run 100,000 sweeps; inf stopped after one
        def no_model(*args):
            raise AssertionError("a model was built before the tol check")

        monkeypatch.setattr(oracle, "bank_model", no_model)
        pol = make_policy("greedy", toy_bank, toy_chain)
        with pytest.raises(ValueError, match="tol"):
            solve_q_iteration(toy_bank, toy_chain, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            evaluate_policy_exact(toy_bank, toy_chain, pol, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            solve_policy_iteration(toy_bank, toy_chain, tol=tol)

    def test_fixed_point_residual(self, toy_bank, toy_chain):
        sol = solve_q_iteration(toy_bank, toy_chain, tol=1e-10)
        _, delta = sol.model.backup(sol.q)
        assert delta <= toy_bank.gamma * 1e-10 + 1e-15


class TestPolicyIteration:
    def test_first_argmax_takes_first_of_ties(self, toy_bank, toy_chain):
        model = ExactModel(toy_bank, toy_chain)
        q = np.random.default_rng(0).integers(0, 3, size=model.n_sa).astype(float)
        first = [lo + np.argmax(q[lo:hi])
                 for lo, hi in zip(model.offsets[:-1], model.offsets[1:])]
        np.testing.assert_array_equal(model.first_argmax(q), first)

    def test_greedy_optimal_toy_one_step(self):
        bank, chain = load_config(TOY_CONFIG)
        sol = solve_policy_iteration(bank, chain, tol=0)
        assert sol.iterations == 1
        assert sol.residual == 0.0
        vi = solve_q_iteration(bank, chain, tol=0)
        np.testing.assert_allclose(sol.values(), vi.values(), rtol=0, atol=1e-12)

    def test_binding_ramps_improve_greedy(self, toy_chain):
        bank = make_bank(capacities=(3, 5), ramps=(2, 2))
        sol = solve_policy_iteration(bank, toy_chain, tol=1e-12)
        assert sol.iterations == 3
        vi = solve_q_iteration(bank, toy_chain, tol=1e-12)
        assert np.abs(sol.values() - vi.values()).max() <= 1e-8

    def test_step_cap_raises(self, monkeypatch, toy_chain):
        monkeypatch.setattr(oracle, "MAX_PI_STEPS", 2)
        bank = make_bank(capacities=(3, 5), ramps=(2, 2))
        with pytest.raises(IterationLimitExceeded,
                           match="after 2 policy-iteration steps"):
            solve_policy_iteration(bank, toy_chain, tol=1e-12)

    def test_residual_from_one_final_backup(self, toy_bank, toy_chain):
        sol = solve_policy_iteration(toy_bank, toy_chain, tol=1e-10)
        _, delta = sol.model.backup(sol.q)
        assert delta <= toy_bank.gamma * sol.residual + 1e-15


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
        model = bank_model(bank, toy_chain)
        for i in range(model.n_states):
            s = model.state(i)
            a = greedy_action(bank, toy_chain, s)
            assert V[i] == pytest.approx(reward(bank, s, a), abs=1e-6)

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


# ---------------------------------------------------------------------------
# The paper's structural claim: on a lossless bank whose ramps never bind,
# greedy is optimal. Checked over random banks, not only the toy.

@st.composite
def free_lossless_banks(draw):
    n = draw(st.integers(1, 3))
    batteries = []
    for _ in range(n):
        B = draw(st.integers(1, 5))
        batteries.append(BatteryConfig(
            capacity=B, ramp=draw(st.integers(B, B + 3)),
            penalty_weight=draw(st.sampled_from([0.05, 0.1, 0.5, 1.0, 2.5])),
            lower_frac=draw(st.sampled_from([0.0, 0.1, 0.2, 0.35])),
            upper_frac=draw(st.sampled_from([0.65, 0.8, 0.9, 1.0]))))
    n_bg = draw(st.integers(1, 4))
    raw = np.array([[draw(st.integers(0, 5)) for _ in range(n_bg)]
                    for _ in range(n_bg)], dtype=float)
    for x in range(n_bg):              # a cycle through every state keeps
        raw[x, (x + 1) % n_bg] += 1.0  # the chain irreducible
    chain = BackgroundChain(
        labels=tuple(range(n_bg)),
        transition=raw / raw.sum(axis=1, keepdims=True),
        net_gen=tuple(draw(st.integers(-8, 8)) for _ in range(n_bg)))
    gamma = draw(st.floats(0.5, 0.97, exclude_min=True, exclude_max=True))
    bank = BankConfig(batteries=tuple(batteries), gamma=gamma)
    assert validate_config(bank, chain).passed
    return bank, chain


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(free_lossless_banks())
def test_greedy_optimal_on_free_lossless_banks(inst):
    bank, chain = inst
    sol = solve_q_iteration(bank, chain, tol=1e-12)
    V_greedy = evaluate_policy_exact(bank, chain,
                                     make_policy("greedy", bank, chain),
                                     tol=1e-12, model=sol.model)
    assert np.abs(V_greedy - sol.values()).max() <= 1e-8
    # policy iteration starts at greedy and never improves it
    assert solve_policy_iteration(bank, chain, tol=1e-12).iterations == 1


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instances())
def test_policy_iteration_matches_value_iteration(inst):
    # lossy and ramp-bound banks, where greedy is not optimal in general
    bank, chain, _ = inst
    pi = solve_policy_iteration(bank, chain, tol=1e-12)
    vi = solve_q_iteration(bank, chain, tol=1e-12)
    assert np.abs(pi.values() - vi.values()).max() <= 1e-8
    V_pi = evaluate_policy_exact(bank, chain, pi.policy(), tol=1e-12,
                                 model=pi.model)
    assert np.abs(V_pi - vi.values()).max() <= 1e-8
