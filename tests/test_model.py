import hashlib
import itertools
import json
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from battbank import cli, env, harness, oracle
from battbank.chain import cumulative_transition, generate_trajectory
from battbank.core import (BackgroundChain, BankConfig, BatteryConfig, State,
                           config_to_dict, load_config, validate_config)
from battbank.env import apply_action, bank_model, reward
from battbank.features import feature_dim, kernel_matrix
from battbank.learner import LearnSchedule
from battbank.policies import (greedy_action, make_policy, naive_action,
                               rl_action)

from conftest import make_bank, make_chain, model_state

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "toy_bank.json"


def _states(bank, chain) -> list[State]:
    """The state space in id order, built independently of BankModel:
    background state major, then occupancies with the first battery slowest."""
    occupancies = itertools.product(*(range(B + 1) for B in bank.capacities))
    return [State(x=x, b=b)
            for x, b in itertools.product(range(chain.n_states), occupancies)]


class TestBankModel:
    def test_ids_follow_enumeration_order(self, toy_chain):
        bank = make_bank(capacities=(2, 3, 1), ramps=(1, 2, 1),
                         weights=(0.1, 1.0, 0.5))
        model = bank_model(bank, toy_chain)
        states = _states(bank, toy_chain)
        assert model.n_states == toy_chain.n_states * model.num_b == len(states)
        for i, s in enumerate(states):
            assert s.x * model.num_b + model.occupancy_id(s.b) == i
            assert model_state(model, i) == s

    def test_rows_match_state_actions(self, toy_chain):
        bank = make_bank(capacities=(4, 3), ramps=(2, 1),
                         dissipation=(0.75, 1.0))
        model = bank_model(bank, toy_chain)
        for sid in range(toy_chain.n_states * model.num_b):
            s = model_state(model, sid)
            ent = env.state_actions(bank, toy_chain, s)
            row = model.rows[sid]
            lo, hi = model.table.offsets[sid:sid + 2]
            np.testing.assert_array_equal(model.table.actions[lo:hi],
                                          ent.actions)
            assert [r for r, *_ in row] == ent.rewards
            assert [nxt for _, nxt, *_ in row] == ent.next_bid == [
                model.occupancy_id(apply_action(bank, s.b, a))
                for a in ent.actions.tolist()]

    def test_shared_per_batteries_and_chain(self, toy_chain):
        bank = make_bank()
        model = bank_model(bank, toy_chain)
        # gamma and initial occupancy do not enter the tables
        assert bank_model(make_bank(gamma=0.5, occupancy=(0, 0)),
                          toy_chain) is model
        assert bank_model(bank, make_chain()) is not model
        assert bank_model(make_bank(capacities=(3, 3)), toy_chain) is not model

    @staticmethod
    def _traced_rows(toy_chain):
        """Bytes that building the rows of a (40,40) ramp 25 bank leaves
        held and its peak, with its table built beforehand, and the pair
        count, 169,638."""
        bank = make_bank(capacities=(40, 40), ramps=(25, 25))
        model = env.BankModel(bank.batteries, toy_chain)
        pairs = len(model.table.post)
        tracemalloc.start()
        try:
            model.rows
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return held, peak, pairs

    def test_rows_build_peak_stays_near_what_they_hold(self, toy_chain):
        # beside the rows, the build holds the table's gather of entries
        # and its tolist copy, one pointer per pair each, but neither b + a
        # nor kernel columns: measured at 1.24 pair-sized columns
        held, peak, pairs = self._traced_rows(toy_chain)
        assert peak - held <= 2 * 8 * pairs

    def test_rows_hold_about_a_pointer_per_pair(self, toy_chain):
        # each row holds a pointer per pair to its occupancy's shared entry,
        # and the entries, one tuple per occupancy, are few: measured at
        # 13.0 B/pair, bounded with a margin of 3 B/pair. Three lists per
        # row, of rewards, successor ids and kernel tuples, held 92.6
        held, _, pairs = self._traced_rows(toy_chain)
        assert held <= 16 * pairs

    def test_tabulate_peak_stays_near_the_table(self, toy_chain):
        # the solve-exact benchmark's (8,8,8) bank: beside the table it
        # returns, the build holds one chunk of states' level arrays and a
        # few state-sized ones, 0.5 MiB, under one pair-sized int64 vector
        # (0.89 MiB)
        bank = make_bank(capacities=(8, 8, 8), ramps=(25, 25, 25),
                         weights=(0.1, 1.0, 0.5))
        model = env.BankModel(bank.batteries, toy_chain)
        tracemalloc.start()
        try:
            table = model.tabulate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pairs = len(table.post)
        assert peak <= sum(arr.nbytes for arr in table) + 8 * pairs


def _count_tabulations(monkeypatch) -> Counter:
    """Count, per distinct (batteries, state id), how many whole-table builds
    of the compiled model, BankModel.tabulate, have covered the state."""
    counts = Counter()
    real = env.BankModel.tabulate

    def counting(model):
        table = real(model)
        assert len(table.offsets) == model.n_states + 1
        for sid in range(model.n_states):
            counts[(model.bank.batteries, sid)] += 1
        return table

    monkeypatch.setattr(env.BankModel, "tabulate", counting)
    return counts


class TestTabulatedOnce:
    def test_compare_two_seeds(self, monkeypatch):
        counts = _count_tabulations(monkeypatch)
        bank = make_bank(capacities=(3, 4), ramps=(2, 2))
        table = harness.compare_policies(bank, make_chain(), [(3, 4)],
                                         seeds=[0, 1], T=2000,
                                         schedule=LearnSchedule(t_train=3000))
        assert table.failures == []
        assert counts and max(counts.values()) == 1

    def test_solve_exact(self, monkeypatch, tmp_path, capsys):
        counts = _count_tabulations(monkeypatch)
        builds = []
        init = oracle.ExactModel.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(oracle.ExactModel, "__init__", counting_init)
        rc = cli.main(["solve-exact", str(CONFIG), "--tol", "1e-9",
                       "--out", str(tmp_path / "sol.csv")])
        assert rc == 0, capsys.readouterr().err
        assert len(counts) == 48 and max(counts.values()) == 1
        assert len(builds) == 1


# banks whose tables take every level of BankModel.tabulate: three
# enumeration levels with ramps above and below the capacities, and a lossy,
# ramp-bound bank
DEEP_BANKS = {
    "4bat-free": make_bank(capacities=(2, 3, 1, 2), ramps=(5, 5, 5, 5),
                           weights=(0.1, 1.0, 0.5, 2.5)),
    "4bat-ramp-bound": make_bank(capacities=(3, 2, 4, 2), ramps=(1, 2, 1, 1),
                                 weights=(0.7, 0.1, 1.0, 0.5),
                                 dissipation=(0.9, 1.0, 0.75, 0.5)),
    "4bat-mixed": make_bank(capacities=(4, 1, 3, 2), ramps=(2, 6, 3, 1),
                            weights=(1.0, 0.5, 0.1, 2.5),
                            dissipation=(1.0, 0.5, 0.9, 1.0)),
    "3bat-lossy": make_bank(capacities=(3, 4, 2), ramps=(2, 1, 3),
                            weights=(0.1, 1.0, 0.5),
                            dissipation=(0.9, 1.0, 0.75)),
}


@pytest.mark.parametrize("name", DEEP_BANKS)
def test_deep_tables_match_scalar_spec(name):
    bank, chain = DEEP_BANKS[name], make_chain()
    model = env.BankModel(bank.batteries, chain)
    t = model.table
    lengths = []
    for sid, s in enumerate(_states(bank, chain)):
        row = model.rows[sid]
        acts = env.feasible_actions(bank, chain, s)
        lengths.append(len(acts))
        pairs = slice(t.offsets[sid], t.offsets[sid + 1])
        assert t.actions[pairs].tolist() == [list(a) for a in acts]
        assert [r for r, *_ in row] == [reward(bank, s, a) for a in acts]
        next_bid = [nxt for _, nxt, *_ in row]
        assert next_bid == [model.occupancy_id(apply_action(bank, s.b, a))
                            for a in acts]
        post = t.post[pairs]
        assert post.tolist() == [model.occupancy_id(np.add(s.b, a).tolist())
                                 for a in acts]
        assert t.post_next[post].tolist() == next_bid
    np.testing.assert_array_equal(model.table.offsets, np.cumsum([0] + lengths))


# sha256 of the table's arrays (offsets, actions and each pair's reward and
# successor id, their bytes in that order) and of the `solve-exact --out` CSV
# at the default tolerance, recorded while the table was still built from a
# checked grid of candidate actions and held rewards and successor ids per
# pair
SOLVE_PINS = [
    ("toy",
     "ec999c23f3b6b688139c399c0e0c6727dc8b333363fc105c2e5a21ba11a427b8",
     "6534474a20a06c2e6328fb780f016e4a5b72d7450b9eb069648edb416765cc92"),
    ("3bat-lossy",
     "1ad216053af0a6546e27b85ce822b4d8c5c6806ca7c8f34a7e0b4339c2de6dbd",
     "9778164e93e82a43a77055974c1ef94ed65b3276085a3d20df8ccbb1f642e569"),
]


def pinned_bank(name):
    return load_config(CONFIG) if name == "toy" else (DEEP_BANKS[name], make_chain())


@pytest.mark.parametrize("name, table_sha, csv_sha", SOLVE_PINS)
def test_solve_path_bytes_pinned(name, table_sha, csv_sha, tmp_path, capsys):
    bank, chain = pinned_bank(name)
    table = env.BankModel(bank.batteries, chain).table
    # actions and post-action ids are held in the narrowest types, and
    # rewards and successor ids per occupancy; actions are hashed as the
    # int64 they were recorded in, and each pair's reward, post_reward[post],
    # and successor id, post_next[post], as the float64 and int64 arrays
    # they were recorded as
    assert [arr.dtype for arr in table] == [np.int64, np.int8, np.uint8,
                                            np.float64, np.int64]
    digest = hashlib.sha256(b"".join(
        arr.tobytes() for arr in (table.offsets, table.actions.astype(np.int64),
                                  table.post_reward[table.post],
                                  table.post_next[table.post])))
    assert digest.hexdigest() == table_sha
    config, out = tmp_path / "bank.json", tmp_path / "sol.csv"
    config.write_text(json.dumps(config_to_dict(bank, chain)))
    assert cli.main(["solve-exact", str(config), "--out", str(out)]) == 0, \
        capsys.readouterr().err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha


@pytest.mark.parametrize("block", [1, 7, oracle._CSV_BLOCK])
@pytest.mark.parametrize("name, table_sha, csv_sha", SOLVE_PINS)
def test_solution_csv_bytes_do_not_depend_on_the_block(
        name, table_sha, csv_sha, block, monkeypatch, tmp_path):
    # the CLI's solve at its default tol, written a block of states at a time
    bank, chain = pinned_bank(name)
    monkeypatch.setattr(oracle, "_CSV_BLOCK", block)
    out = tmp_path / "sol.csv"
    oracle.write_solution_csv(oracle.solve_policy_iteration(bank, chain), out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("name", DEEP_BANKS)
def test_table_does_not_depend_on_the_chunk(name, chunk, monkeypatch):
    bank, chain = DEEP_BANKS[name], make_chain()
    whole = env.BankModel(bank.batteries, chain).tabulate()
    monkeypatch.setattr(env, "_CHUNK_STATES", chunk)
    chunked = env.BankModel(bank.batteries, chain).tabulate()
    for a, b in zip(whole, chunked):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def test_exact_model_reads_the_table_without_copying(toy_bank, toy_chain):
    model = oracle.ExactModel(toy_bank, toy_chain)
    assert model.table is model.compiled.table
    # shared, so no caller may write through them
    assert not any(arr.flags.writeable for arr in model.table)


# ---------------------------------------------------------------------------
# The compiled fast paths against the scalar spec, over random small banks

@st.composite
def instances(draw):
    n = draw(st.integers(1, 3))
    batteries = tuple(
        BatteryConfig(capacity=draw(st.integers(1, 6)),
                      ramp=draw(st.integers(1, 4)),
                      penalty_weight=draw(st.sampled_from([0.0, 0.1, 0.7, 2.5])),
                      dissipation=draw(st.sampled_from([1.0, 1.0, 0.9, 0.75, 0.5])),
                      lower_frac=draw(st.sampled_from([0.0, 0.2, 0.35])),
                      upper_frac=draw(st.sampled_from([0.65, 0.8, 1.0])))
        for _ in range(n))
    n_bg = draw(st.integers(1, 4))
    raw = np.array([[draw(st.integers(0, 5)) for _ in range(n_bg)]
                    for _ in range(n_bg)], dtype=float)
    for x in range(n_bg):              # a cycle through every state keeps
        raw[x, (x + 1) % n_bg] += 1.0  # the chain irreducible
    chain = BackgroundChain(
        labels=tuple(range(n_bg)),
        transition=raw / raw.sum(axis=1, keepdims=True),
        net_gen=tuple(draw(st.integers(-8, 8)) for _ in range(n_bg)))
    bank = BankConfig(batteries=batteries, gamma=0.9)
    assert validate_config(bank, chain).passed
    return bank, chain, draw(st.integers(0, 2**32 - 1))


PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _weights(bank, chain, seed):
    d = feature_dim(bank.n, chain.n_states)
    return np.random.default_rng(seed).normal(size=d)


def _spec_policies(bank, chain, w):
    """The State -> Action reference rules, by policy name."""
    return {
        "greedy": lambda s: greedy_action(bank, chain, s),
        "naive": lambda s: naive_action(bank, chain, s),
        "rl": lambda s: rl_action(bank, chain, s, w),
    }


@PROPERTY
@given(instances())
def test_block_rows_match_scalar_spec(inst):
    bank, chain, _ = inst
    model = env.BankModel(bank.batteries, chain)
    t = model.table
    for sid, s in enumerate(_states(bank, chain)):
        acts = env.feasible_actions(bank, chain, s)
        lo, hi = t.offsets[sid:sid + 2]
        assert t.actions[lo:hi].tolist() == [list(a) for a in acts]
        # each pair's entry: its reward, its successor's occupancy id and
        # the kernels of b + a, from the scalar spec
        kernels = kernel_matrix(bank, np.add(acts, s.b)).tolist()
        assert model.rows[sid] == [
            (reward(bank, s, a), model.occupancy_id(apply_action(bank, s.b, a)),
             *ks) for a, ks in zip(acts, kernels)]


@PROPERTY
@given(instances())
def test_rows_are_the_tables_slices(inst):
    bank, chain, _ = inst
    model = env.BankModel(bank.batteries, chain)
    t = model.table
    assert len(model.rows) == model.n_states
    for sid, row in enumerate(model.rows):
        lo, hi = t.offsets[sid:sid + 2]
        post = t.post[lo:hi]
        kmat = kernel_matrix(bank, t.actions[lo:hi] + model.decode(
            np.array([sid]))[1])
        assert row == [(r, nxt, *ks) for r, nxt, ks in zip(
            t.post_reward[post].tolist(), t.post_next[post].tolist(),
            kmat.tolist())]


@PROPERTY
@given(instances())
def test_rows_share_each_occupancys_entry(inst):
    bank, chain, _ = inst
    model = env.BankModel(bank.batteries, chain)
    t = model.table
    assert model.post_entries.shape == (model.num_b,)
    for sid, row in enumerate(model.rows):
        # a list, read one entry at a time by the learner's step, of Python
        # numbers: a float reward, an int successor id and float kernels
        assert type(row) is list
        for ent, post in zip(row, t.post[t.offsets[sid]:t.offsets[sid + 1]]):
            # one tuple per post-action occupancy, which every pair that
            # reaches it shares
            assert ent is model.post_entries[post]
            assert type(ent) is tuple and len(ent) == 2 + 2 * bank.n
            assert list(map(type, ent)) == [float, int] + [float] * 2 * bank.n


@PROPERTY
@given(instances())
def test_model_policies_match_scalar_actions_everywhere(inst):
    bank, chain, seed = inst
    w = _weights(bank, chain, seed)
    # weights 1e307 times as large overflow Q-hat to infinities on some
    # pairs, where rl's pick must still be rl_action's
    huge = w * 1e307
    fast = {name: make_policy(name, bank, chain, weights=w) for name in
            ("greedy", "naive", "rl")}
    fast["rl huge"] = make_policy("rl", bank, chain, weights=huge)
    t = bank_model(bank, chain).table
    for sid, s in enumerate(_states(bank, chain)):
        lo, hi = t.offsets[sid:sid + 2]
        actions = list(map(tuple, t.actions[lo:hi].tolist()))
        assert actions[fast["greedy"][sid]] == greedy_action(bank, chain, s)
        assert actions[fast["naive"][sid]] == naive_action(bank, chain, s)
        assert actions[fast["rl"][sid]] == rl_action(bank, chain, s, w)
        assert actions[fast["rl huge"][sid]] == rl_action(bank, chain, s, huge)


@PROPERTY
@given(instances())
def test_exact_model_flattens_state_actions(inst):
    bank, chain, _ = inst
    t = oracle.ExactModel(bank, chain).table
    states = _states(bank, chain)
    occ_id = {b: i for i, b in enumerate(dict.fromkeys(s.b for s in states))}
    rows = [env.state_actions(bank, chain, s) for s in states]
    np.testing.assert_array_equal(
        t.offsets, np.cumsum([0] + [len(r.actions) for r in rows]))
    np.testing.assert_array_equal(
        t.actions, [a for r in rows for a in r.actions])
    np.testing.assert_array_equal(
        t.post_reward[t.post], np.concatenate([r.rewards for r in rows]))
    pairs = [(s.b, a) for s, r in zip(states, rows) for a in r.actions.tolist()]
    np.testing.assert_array_equal(
        t.post, [occ_id[tuple(np.add(b, a).tolist())] for b, a in pairs])
    np.testing.assert_array_equal(
        t.post_next[t.post],
        [occ_id[apply_action(bank, b, a)] for b, a in pairs])


@PROPERTY
@given(instances())
def test_exact_lookahead_matches_scalar_spec(inst):
    bank, chain, seed = inst
    model = oracle.ExactModel(bank, chain)
    # nonpositive, as the bank's values are: no sum below cancels, so the
    # two summation orders agree to a relative 1e-12
    V = -np.random.default_rng(seed).exponential(size=model.n_states)
    t = model.table
    q = model.lookahead(V)[np.repeat(np.arange(chain.n_states), np.diff(
        t.offsets[::model.compiled.num_b])), t.post]   # each pair's (x, b')
    expected = []
    for s in _states(bank, chain):
        for a in env.feasible_actions(bank, chain, s):
            nb = model.compiled.occupancy_id(apply_action(bank, s.b, a))
            expected.append(reward(bank, s, a) + bank.gamma * sum(
                chain.transition[s.x, x2] * V[x2 * model.compiled.num_b + nb]
                for x2 in range(chain.n_states)))
    np.testing.assert_allclose(q, expected, rtol=1e-12)


# the first battery's |a| is bounded by `limit`, and the chain's net
# generation at both signs of it makes both extremes feasible actions
@pytest.mark.parametrize("limit, dtype", [(127, np.int8), (128, np.int16)])
def test_actions_in_narrowest_type(limit, dtype):
    bank = make_bank(capacities=(limit, 3), ramps=(limit + 5, 2),
                     weights=(0.1, 1.0))
    chain = BackgroundChain(labels=(-limit, 0, limit),
                            transition=np.full((3, 3), 1 / 3),
                            net_gen=(-limit, 0, limit))
    model = env.BankModel(bank.batteries, chain)
    actions = model.table.actions
    assert actions.dtype == dtype
    assert actions.min() == -limit and actions.max() == limit
    ends = model.table.offsets.tolist()
    for sid in range(model.n_states):
        ref = env.state_actions(bank, chain, model_state(model, sid)).actions
        assert ref.dtype == np.int64
        np.testing.assert_array_equal(actions[ends[sid]:ends[sid + 1]], ref)


@PROPERTY
@given(instances())
def test_coupled_rollout_matches_scalar_loop(inst):
    bank, chain, seed = inst
    w = _weights(bank, chain, seed)
    traj = generate_trajectory(chain, seed % chain.n_states, 300, seed)
    b0 = bank.start_occupancy()
    spec = _spec_policies(bank, chain, w)
    rep = harness.coupled_rollout(
        bank, chain, [(n, make_policy(n, bank, chain, weights=w)) for n in spec],
        traj, b0)
    for name, policy in spec.items():
        total, b = 0.0, b0
        for k in range(300):
            s = State(x=traj.x_path[k], b=b)
            a = policy(s)
            total += reward(bank, s, a)
            b = apply_action(bank, b, a)
        assert rep[name] == total


@PROPERTY
@given(instances())
def test_exact_evaluation_matches_dense_solve(inst):
    # P_pi and r_pi from the scalar spec, solved directly: (I - gamma P) V = r
    bank, chain, seed = inst
    w = _weights(bank, chain, seed)
    states = _states(bank, chain)
    sid = {s: i for i, s in enumerate(states)}
    n = len(states)
    for name, policy in _spec_policies(bank, chain, w).items():
        P = np.zeros((n, n))
        r = np.empty(n)
        for i, s in enumerate(states):
            a = policy(s)
            r[i] = reward(bank, s, a)
            b_next = apply_action(bank, s.b, a)
            for x_next, p in enumerate(chain.transition[s.x]):
                P[i, sid[State(x=x_next, b=b_next)]] += p
        V = np.linalg.solve(np.eye(n) - bank.gamma * P, r)
        got = oracle.evaluate_policy_exact(
            bank, chain, make_policy(name, bank, chain, weights=w), tol=1e-12)
        np.testing.assert_allclose(got, V, rtol=0, atol=1e-8, err_msg=name)


@PROPERTY
@given(instances(), st.sampled_from([0, 1, 2, 16383, 16384, 16385, 40000]))
def test_trajectory_matches_per_step_sampling(inst, T):
    _, chain, seed = inst
    x0 = seed % chain.n_states
    cum = cumulative_transition(chain)
    rng = np.random.default_rng(seed)
    x, expect = x0, [x0]
    for _ in range(T):
        x = int(np.searchsorted(cum[x], rng.random(), side="right"))
        expect.append(x)
    assert tuple(generate_trajectory(chain, x0, T, seed).x_path) == tuple(expect)

