import csv
import dataclasses
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from battbank import cli, env, oracle
from battbank.core import (BackgroundChain, BankConfig, BatteryConfig,
                           load_config, validate_config)
from battbank.env import bank_model, first_argmax, reward
from battbank.learner import LearnSchedule, train
from battbank.oracle import (ExactModel, IterationLimitExceeded,
                             StateSpaceTooLarge, evaluate_policy_exact,
                             solve_policy_iteration, solve_q_iteration,
                             write_solution_csv)
from battbank.policies import greedy_action, make_policy

from conftest import make_bank, make_chain, model_state
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
        states = [model_state(model, i) for i in range(model.n_states)]
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

    def test_iteration_cap_raises(self, monkeypatch, toy_bank, toy_chain):
        for cap in (3, 1):
            monkeypatch.setattr(oracle, "MAX_SWEEPS", cap)
            with pytest.raises(IterationLimitExceeded,
                               match=f"^no convergence after {cap} sweeps; "):
                solve_q_iteration(toy_bank, toy_chain, tol=1e-12)

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
        np.testing.assert_array_equal(first_argmax(q, model.offsets), first)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(-2, 2), min_size=1, max_size=6),
                    min_size=1, max_size=40),
           st.integers(1, 5))
    def test_first_argmax_matches_argmax_per_state(self, rows, chunk):
        # few distinct values, so rows tie often; chunks of a few states, so
        # several chunks run and the last may be short
        values = np.array([v for row in rows for v in row], dtype=float)
        offsets = np.cumsum([0] + [len(row) for row in rows])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(env, "_ARGMAX_STATES", chunk)
            got = first_argmax(values, offsets)
        first = [lo + np.argmax(values[lo:hi])
                 for lo, hi in zip(offsets[:-1], offsets[1:])]
        np.testing.assert_array_equal(got, first)

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


class TestMemory:
    # the solve-exact benchmark's (8,8,8) bank, its table built beforehand:
    # what the solver adds on top is counted in pair-sized float64 vectors
    @staticmethod
    def bank_and_vector(chain):
        bank = make_bank(capacities=(8, 8, 8), ramps=(25, 25, 25),
                         weights=(0.1, 1.0, 0.5))
        return bank, len(bank_model(bank, chain).table.rewards) * 8

    @staticmethod
    def traced(fn):
        """fn()'s result, with the bytes it left held and its peak."""
        tracemalloc.start()
        try:
            result = fn()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held, peak

    def test_policy_iteration_peak(self, toy_chain):
        # the solution's q and a lookahead beside it; gathers, differences
        # and first argmaxes take a block or chunk at a time beside them
        bank, vector = self.bank_and_vector(toy_chain)
        sol, _, peak = self.traced(
            lambda: solve_policy_iteration(bank, toy_chain, tol=1e-12))
        assert sol.iterations == 1
        assert peak <= 3 * vector

    def test_exact_model_holds_no_pair_sized_array(self, toy_chain):
        bank, vector = self.bank_and_vector(toy_chain)
        model, held, _ = self.traced(lambda: ExactModel(bank, toy_chain))
        assert model.n_sa * 8 == vector
        assert held < vector


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
            s = model_state(model, i)
            a = greedy_action(bank, toy_chain, s)
            assert V[i] == pytest.approx(reward(bank, s, a), abs=1e-6)

    @pytest.mark.parametrize("pick, match", [
        (lambda counts: counts, r"state 0's row of {n} actions"),
        (lambda counts: counts * 0 - 1, r"state 0's row of {n} actions"),
        (lambda counts: counts[1:] * 0, r"expected shape \(48,\)"),
        (lambda counts: counts * 0.0,
         r"expected integer indices, got dtype float64"),
        (lambda counts: np.zeros(len(counts), bool),
         r"expected integer indices, got dtype bool")],
        ids=["past-end", "negative", "wrong-length", "float", "bool"])
    def test_index_outside_row_rejected(self, toy_bank, toy_chain, pick, match):
        counts = np.diff(bank_model(toy_bank, toy_chain).table.offsets)
        with pytest.raises(ValueError, match=match.format(n=counts[0])):
            evaluate_policy_exact(toy_bank, toy_chain, pick(counts))

    def test_sweep_cap_raises(self, monkeypatch, capsys, toy_bank, toy_chain):
        # every evaluation stops at MAX_SWEEPS, solve-exact's among them
        monkeypatch.setattr(oracle, "MAX_SWEEPS", 1)
        with pytest.raises(IterationLimitExceeded,
                           match="^no convergence after 1 sweeps; "):
            evaluate_policy_exact(toy_bank, toy_chain,
                                  make_policy("greedy", toy_bank, toy_chain),
                                  tol=0)
        assert cli.main(["solve-exact", str(TOY_CONFIG)]) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err.startswith(
            "error: no convergence after 1 sweeps; residual ")

    def test_policy_value_below_optimal(self, toy_bank, toy_chain):
        sol = solve_q_iteration(toy_bank, toy_chain, tol=1e-12)
        V_naive = evaluate_policy_exact(
            toy_bank, toy_chain, make_policy("naive", toy_bank, toy_chain),
            tol=1e-12)
        assert (V_naive <= sol.values() + 1e-9).all()

    @pytest.mark.parametrize("capacities, ramps", [((2, 3), (25, 25)),
                                                   ((3, 5), (2, 2))],
                             ids=["one-step", "three-steps"])
    def test_greedy_value_read_back_from_policy_iteration(
            self, capacities, ramps, monkeypatch, toy_chain):
        # policy iteration's first step evaluates the greedy rule from V = 0;
        # solve-exact's gap asks again on the solve's model, which returns
        # that array without a sweep, equal to a fresh evaluation
        bank = make_bank(capacities=capacities, ramps=ramps)
        greedy = make_policy("greedy", bank, toy_chain)
        fresh = evaluate_policy_exact(bank, toy_chain, greedy, tol=1e-12)
        sol = solve_policy_iteration(bank, toy_chain, tol=1e-12)
        sweeps, fixed_point = [], oracle._fixed_point

        def counted(*args):
            sweeps.append(args)
            return fixed_point(*args)

        monkeypatch.setattr(oracle, "_fixed_point", counted)
        V = evaluate_policy_exact(bank, toy_chain, greedy, tol=1e-12,
                                  model=sol.model)
        assert V.tobytes() == fresh.tobytes()
        assert not V.flags.writeable
        assert sweeps == []
        # another tol or another policy is evaluated afresh
        evaluate_policy_exact(bank, toy_chain, greedy, tol=1e-11,
                              model=sol.model)
        evaluate_policy_exact(bank, toy_chain,
                              make_policy("naive", bank, toy_chain),
                              tol=1e-12, model=sol.model)
        assert len(sweeps) == 2

    @pytest.mark.parametrize("other", [
        lambda bank, chain: (dataclasses.replace(bank, gamma=0.5), chain),
        lambda bank, chain: (dataclasses.replace(
            bank, batteries=make_bank(weights=(0.1, 2.0)).batteries), chain),
        lambda bank, chain: (bank, load_config(TOY_CONFIG)[1])],
        ids=["gamma", "batteries", "reloaded-chain"])
    def test_model_of_another_config_rejected(self, other):
        # the model's values used to be returned for the arguments' config:
        # at gamma 0.5 the first states read -4.74, where the right value is
        # -1.11
        bank, chain = load_config(TOY_CONFIG)
        model = ExactModel(bank, chain)
        bank, chain = other(bank, chain)
        policy = make_policy("greedy", bank, chain)
        with pytest.raises(ValueError, match="model: built for another bank"):
            evaluate_policy_exact(bank, chain, policy, model=model)


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


def reference_solution_csv(sol, path) -> None:
    """The solution CSV as csv.writer writes it, one writerow per state:
    the reference write_solution_csv's block formatting must match byte for
    byte."""
    model = sol.model
    x, b = model.compiled.decode(np.arange(model.n_states))
    best = model.sa_actions[first_argmax(sol.q, model.offsets)]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["state_index", "x", "b", "best_action", "optimal_value"])
        for i, (x_i, b_i, a_i, v_i) in enumerate(zip(
                x.tolist(), b.tolist(), best.tolist(), sol.values().tolist())):
            wr.writerow([i, x_i, " ".join(map(str, b_i)),
                         " ".join(map(str, a_i)), f"{v_i:.12g}"])


def assert_csv_matches_reference(sol, tmp_path) -> str:
    fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
    write_solution_csv(sol, fast)
    reference_solution_csv(sol, ref)
    assert fast.read_bytes() == ref.read_bytes()
    return fast.read_text()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(instances())
def test_solution_csv_matches_reference_writer(tmp_path, inst):
    # lossy and ramp-bound banks of 1-3 batteries
    bank, chain, _ = inst
    assert_csv_matches_reference(solve_q_iteration(bank, chain, tol=1e-9),
                                 tmp_path)


@pytest.mark.parametrize("block", [1, 7, 48, 1 << 14])
def test_solution_csv_blocks_match_reference_writer(block, monkeypatch,
                                                    tmp_path, toy_chain):
    # values of order 1e-7 print in e notation under %.12g, and the toy
    # chain's net generation -4 makes discharging (negative) actions best
    monkeypatch.setattr(oracle, "_CSV_BLOCK", block)
    bank = make_bank(capacities=(2, 3, 1), ramps=(1, 2, 25),
                     weights=(3e-7, 1e-6, 2e-7))
    text = assert_csv_matches_reference(
        solve_q_iteration(bank, toy_chain, tol=1e-15), tmp_path)
    rows = list(csv.reader(text.splitlines()))[1:]
    assert len(rows) == bank_model(bank, toy_chain).n_states
    assert any("e-" in r[4] for r in rows)
    assert any(int(a) < 0 for r in rows for a in r[3].split())


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
    picks = first_argmax(pi.q, pi.model.offsets) - pi.model.offsets[:-1]
    V_pi = evaluate_policy_exact(bank, chain, picks, tol=1e-12,
                                 model=pi.model)
    assert np.abs(V_pi - vi.values()).max() <= 1e-8


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instances())
def test_policy_iteration_starts_at_greedy(inst):
    # V = 0 makes the first improvement each state's first reward argmax,
    # which is the greedy rule on lossy and ramp-bound banks too
    bank, chain, _ = inst
    model = ExactModel(bank, chain)
    start = (first_argmax(model.sa_rewards, model.offsets)
             - model.offsets[:-1]).tolist()
    greedy = make_policy("greedy", bank, chain)
    assert start == [greedy[i] for i in range(model.n_states)]


def diverging_instance():
    """A bank whose 3000-step training run at seed 0 ends past the Q bound."""
    batteries = tuple(
        BatteryConfig(capacity=B, ramp=c, penalty_weight=w, dissipation=eta,
                      lower_frac=lo, upper_frac=hi)
        for B, c, w, eta, lo, hi in [(1, 1, 0.0, 1.0, 0.0, 0.65),
                                     (5, 2, 2.5, 1.0, 0.35, 0.65),
                                     (2, 1, 2.5, 0.9, 0.35, 0.65)])
    chain = BackgroundChain(
        labels=(0, 1, 2),
        transition=np.array([[1 / 3, 1 / 3, 1 / 3], [0.0, 0.0, 1.0],
                             [1.0, 0.0, 0.0]]),
        net_gen=(0, 3, 0))
    bank = BankConfig(batteries=batteries, gamma=0.9)
    assert validate_config(bank, chain).passed
    return bank, chain, 0


# the two ways learner.train reports a diverged run
DIVERGED = r"exceeds the bound|non-finite TD error"


def test_short_training_can_diverge():
    # instances() can draw such a bank, so test_no_policy_beats_optimal
    # must expect the error
    bank, chain, seed = diverging_instance()
    with pytest.raises(FloatingPointError, match=DIVERGED):
        train(bank, chain, LearnSchedule(t_train=3000, seed=seed))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instances())
@example(diverging_instance())
def test_no_policy_beats_optimal(inst):
    # state-wise V_pi <= V*: the solution's values are within its bound of V*
    bank, chain, seed = inst
    names = ["greedy", "naive", "rl"]
    try:
        w, _ = train(bank, chain, LearnSchedule(t_train=3000, seed=seed))
    except FloatingPointError as err:
        # a diverged run has no rl policy; greedy and naive are still checked
        assert re.search(DIVERGED, str(err)), err
        w, names = None, names[:2]
    sol = solve_policy_iteration(bank, chain, tol=1e-12)
    ceiling = sol.values() + sol.suboptimality_bound() + 1e-8
    for name in names:
        V = evaluate_policy_exact(bank, chain,
                                  make_policy(name, bank, chain, weights=w),
                                  tol=1e-12, model=sol.model)
        assert (V <= ceiling).all(), name
