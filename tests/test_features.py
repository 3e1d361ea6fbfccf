import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from battbank.core import BackgroundChain, State
from battbank.env import (BankModel, bank_model, feasible_actions,
                          first_argmax, reward, state_actions)
from battbank.features import (block_slice, feature_dim, feature_vector,
                               join_weights, kernel_matrix, load_weights,
                               q_argmax, q_max, q_table, save_weights,
                               split_weights, width_forms)

from conftest import make_bank, make_chain


def kernels_at(y):
    """The quartic (empty-side, full-side) pair at normalised occupancy y."""
    return (-((1.0 - y) ** 4), -(y ** 4))


def q_dense(bank, chain, s, w):
    """Q-hat of every feasible action as the plain dot product phi(s, a) @ w."""
    return np.array([feature_vector(bank, chain, s, a) @ w
                     for a in feasible_actions(bank, chain, s)])


class TestDimensions:
    def test_case_study_dimension(self):
        assert feature_dim(2, 4) == 21

    def test_general_formula(self):
        for n, m in [(1, 1), (3, 4), (5, 2)]:
            assert feature_dim(n, m) == (2 * n + 1) * m + 1

    def test_block_slices_partition_tail(self):
        n, m = 2, 4
        covered = set()
        for x in range(m):
            sl = block_slice(x, n)
            covered |= set(range(sl.start, sl.stop))
        assert covered == set(range(1, feature_dim(n, m)))

    def test_split_weights_follows_block_slice(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            w = rng.normal(size=feature_dim(n, m))
            w0, bias, kernel_ws = split_weights(w, n, m)
            assert type(w0) is float and w0 == w[0]
            assert len(bias) == len(kernel_ws) == m
            for x in range(m):
                blk = w[block_slice(x, n)]
                assert type(bias[x]) is float and bias[x] == blk[0]
                assert type(kernel_ws[x]) is list
                assert kernel_ws[x] == blk[1:].tolist()
            # join_weights puts the parts back where block_slice says
            assert join_weights(w0, bias, kernel_ws).tobytes() == w.tobytes()


class TestNormalizedOccupancy:
    # feature_vector normalises the post-action occupancy b + a by capacity
    def kernel_block(self, b, a):
        bank = make_bank(capacities=(10,), ramps=(10,), weights=(1.0,))
        chain = BackgroundChain(labels=(0,), transition=np.array([[1.0]]),
                                net_gen=(0,))
        phi = feature_vector(bank, chain, State(x=0, b=b), a)
        assert phi[1] == 1.0
        return tuple(phi[2:])

    def test_midpoint(self):
        assert self.kernel_block((5,), (0,)) == pytest.approx(kernels_at(0.5))

    def test_empty(self):
        assert self.kernel_block((0,), (0,)) == pytest.approx(kernels_at(0.0))

    def test_full(self):
        assert self.kernel_block((8,), (2,)) == pytest.approx(kernels_at(1.0))


class TestKernels:
    def test_endpoints(self):
        km = kernel_matrix(make_bank(capacities=(4,)), np.array([[0], [4]]))
        np.testing.assert_array_equal(km, [[-1.0, 0.0], [0.0, -1.0]])

    def test_symmetry_point(self):
        km = kernel_matrix(make_bank(capacities=(4,)), np.array([[2]]))
        np.testing.assert_array_equal(km, [[-0.0625, -0.0625]])

    def test_range_and_mirror(self):
        B = 20
        km = kernel_matrix(make_bank(capacities=(B,)), np.arange(B + 1)[:, None])
        assert ((-1.0 <= km) & (km <= 0.0)).all()
        # occupancy y mirrors 1 - y with the two sides swapped
        np.testing.assert_allclose(km, km[::-1, ::-1], atol=1e-15)

    def test_kernel_matrix_matches_pairs(self):
        bank = make_bank(capacities=(4, 8))
        posts = np.array([[0, 0], [2, 4], [4, 8]])
        km = kernel_matrix(bank, posts)
        assert km.shape == (3, 4)
        for r, (b1, b2) in enumerate(posts):
            assert km[r, :2] == pytest.approx(kernels_at(b1 / 4))
            assert km[r, 2:] == pytest.approx(kernels_at(b2 / 8))

    @staticmethod
    def big_bank_posts():
        """Every pair's post-action occupancy b + a on a (40, 40) bank with
        ramps 25: 169,638 rows."""
        bank = make_bank(capacities=(40, 40), ramps=(25, 25))
        model = BankModel(bank.batteries, make_chain())
        t = model.table
        posts = np.repeat(model.decode(np.arange(model.n_states))[1],
                          np.diff(t.offsets), axis=0)
        return bank, posts + t.actions

    def test_kernel_matrix_bit_identical_to_whole_array_form(self):
        # the battery-by-battery fill against the form that divides the
        # whole (n, N) array by the capacities at once
        bank, posts = self.big_bank_posts()
        rng = np.random.default_rng(3)
        odd = make_bank(capacities=(3, 7, 1), ramps=(1, 2, 1),
                        weights=(0.1, 1.0, 0.5))
        for bank, posts in ((bank, posts),
                            (odd, rng.integers(0, [4, 8, 2], size=(500, 3)))):
            y = posts / np.array(bank.capacities, dtype=float)
            ref = np.empty((len(posts), 2 * bank.n))
            ref[:, 0::2] = -((1.0 - y) ** 4)
            ref[:, 1::2] = -(y ** 4)
            assert kernel_matrix(bank, posts).tobytes() == ref.tobytes()

    def test_kernel_matrix_peak_stays_near_its_output(self):
        # a few (n,) float columns beside the (n, 2N) output; the whole-array
        # form held about six
        bank, posts = self.big_bank_posts()
        column = len(posts) * 8
        tracemalloc.start()
        try:
            km = kernel_matrix(bank, posts)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held >= km.nbytes
        assert peak - held <= 4 * column


class TestFeatureVector:
    def test_block_zero_at_empty_bank(self, toy_bank, toy_chain):
        s = State(x=0, b=(0, 0))
        phi = feature_vector(toy_bank, toy_chain, s, (0, 0))
        assert phi[0] == pytest.approx(reward(toy_bank, s, (0, 0)))
        assert phi[1:6] == pytest.approx([1.0, -1.0, 0.0, -1.0, 0.0])
        assert not phi[6:].any()

    def test_blocks_disjoint_across_background_states(self, toy_bank, toy_chain):
        a = (0, 0)
        phi0 = feature_vector(toy_bank, toy_chain, State(x=0, b=(1, 1)), a)
        phi2 = feature_vector(toy_bank, toy_chain, State(x=2, b=(1, 1)), a)
        overlap = (phi0[1:] != 0) & (phi2[1:] != 0)
        assert not overlap.any()

    def test_sparsity_bound(self, toy_bank, toy_chain):
        for x in range(4):
            s = State(x=x, b=(1, 2))
            for a in feasible_actions(toy_bank, toy_chain, s):
                phi = feature_vector(toy_bank, toy_chain, s, a)
                assert np.count_nonzero(phi) <= 2 * toy_bank.n + 2

    def test_depends_only_on_post_occupancy(self, toy_bank, toy_chain):
        # same x and same b + a => identical features
        p1 = feature_vector(toy_bank, toy_chain, State(x=1, b=(0, 1)), (1, 1))
        p2 = feature_vector(toy_bank, toy_chain, State(x=1, b=(1, 2)), (0, 0))
        np.testing.assert_allclose(p1, p2, atol=1e-15)


def fresh_entries(bank, chain, s):
    """s's row from a fresh state_actions table, its kernel matrix and its
    entries, one (reward, successor id, kernels) tuple per action, the form
    BankModel.rows holds."""
    ent = state_actions(bank, chain, s)
    kmat = kernel_matrix(bank, ent.actions + s.b)
    return ent, kmat, [(r, nxt, *ks) for r, nxt, ks in zip(
        ent.rewards, ent.next_bid, kmat.tolist())]


def q_block(bank, chain, s, w):
    """Q-hat of s's feasible set, from a fresh state_actions table."""
    blk = w[block_slice(s.x, bank.n)].tolist()
    return width_forms(bank.n).row(float(w[0]), blk[0],
                                   fresh_entries(bank, chain, s)[2], blk[1:])


def q_reference(w0, rewards, bias, kmat, kernel_w):
    """Q-hat of a row in numpy, with no BLAS call: w0 * r + bias, then each
    kernel column times its weight, added in column order."""
    q = w0 * np.asarray(rewards) + bias
    for j in range(kmat.shape[1]):
        q = q + kmat[:, j] * kernel_w[j]
    return q


def hexes(values):
    """float.hex of each value: equal lists of these tell zeros' signs
    apart."""
    return [v.hex() for v in values]


def random_bank(rng, n):
    return make_bank(
        capacities=tuple(rng.integers(1, 9, size=n).tolist()),
        ramps=tuple(rng.integers(1, 10, size=n).tolist()),
        weights=tuple(rng.uniform(0.0, 2.0, size=n).tolist()),
        dissipation=tuple(rng.choice([0.8, 0.95, 1.0], size=n).tolist()))


class TestQHat:
    # the forms width_forms compiles are the one home of the linear estimate
    # Q-hat(s, a) = phi . w
    def test_zero_weights(self, toy_bank, toy_chain):
        w = np.zeros(feature_dim(toy_bank.n, toy_chain.n_states))
        q = q_block(toy_bank, toy_chain, State(x=0, b=(1, 1)), w)
        np.testing.assert_array_equal(q, np.zeros_like(q))

    def test_reward_basis_pickout(self, toy_bank, toy_chain):
        s = State(x=1, b=(1, 2))
        w = np.zeros(feature_dim(toy_bank.n, toy_chain.n_states))
        w[0] = 1.0
        expect = [reward(toy_bank, s, a)
                  for a in feasible_actions(toy_bank, toy_chain, s)]
        assert len(expect) > 1
        np.testing.assert_allclose(q_block(toy_bank, toy_chain, s, w), expect,
                                   atol=1e-12)

    def test_plain_arithmetic(self):
        # the block-sparse form equals the dense dot product on every state
        bank = make_bank(capacities=(3, 5), ramps=(2, 3),
                         dissipation=(0.9, 1.0))
        chain = make_chain()
        w = np.random.default_rng(11).normal(size=feature_dim(2, 4))
        for x in range(4):
            for b in [(0, 0), (1, 4), (3, 2), (3, 5)]:
                s = State(x=x, b=b)
                np.testing.assert_allclose(q_block(bank, chain, s, w),
                                           q_dense(bank, chain, s, w),
                                           rtol=1e-12, atol=1e-12)

    def test_single_action_equals_set_entry(self):
        # the learner's one-action value, its row, its max and its update
        # against numpy's elementwise operations, bit for bit, at kernel
        # widths 2 to 8. One case in four has zero weights, each block's bias
        # and the reward weight of a random sign, so rows of +0.0 and -0.0
        # (-0.0 where w0 = +0.0, the bias is -0.0 and r < 0) reach the max
        chain = make_chain()
        rng = np.random.default_rng(3)
        for i in range(80):
            n = i % 4 + 1
            forms = width_forms(n)
            bank = random_bank(rng, n)
            d = feature_dim(n, chain.n_states)
            if i // 4 % 4 == 3:
                w = np.zeros(d)
                w[0] = rng.choice([0.0, -0.0])
                w[1::2 * n + 1] = rng.choice([0.0, -0.0], size=chain.n_states)
            else:
                w = rng.normal(size=d) * 10.0 ** rng.integers(-3, 4)
            s = State(x=int(rng.integers(4)),
                      b=tuple(int(rng.integers(B + 1))
                              for B in bank.capacities))
            ent, kmat, entries = fresh_entries(bank, chain, s)
            blk = w[block_slice(s.x, n)]
            w0, bias, kernel_w = float(w[0]), float(blk[0]), blk[1:].tolist()
            ref = q_reference(w[0], ent.rewards, blk[0], kmat, blk[1:])
            q = forms.row(w0, bias, entries, kernel_w)
            assert hexes(q) == hexes(ref.tolist())
            assert (forms.top(w0, bias, entries, kernel_w).hex()
                    == q_max(q).hex() == float(np.maximum.reduce(ref)).hex())
            for a, entry in enumerate(entries):
                assert (forms.value(w0, bias, entry, kernel_w).hex()
                        == q[a].hex())
                scale = float(rng.normal())
                assert (hexes(forms.step(kernel_w, scale, entry))
                        == hexes((blk[1:] + scale * kmat[a]).tolist()))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_width_forms_compiled_once_per_width(self, n):
        # one compile per width, named for the width in a traceback
        forms = width_forms(n)
        assert width_forms(n) is forms
        for form in forms:
            assert form.__code__.co_filename == f"<width_forms K={2 * n}>"

    def test_q_table_equals_q_values(self):
        # every (x, b') against the learner's width form, and every sampled
        # pair's estimate, read at its (x, b'), against the in-order numpy
        # sum on its state's compiled row, bit for bit, and each state's
        # first argmax, the rl pick, against np.argmax. N = 1 to 3, on lossy
        # and ramp-bound banks; one case in four draws weights near the
        # float range, so that Q-hat overflows to infinities
        rng = np.random.default_rng(8)
        chain = make_chain()
        for i in range(60):
            n = i % 3 + 1
            bank = random_bank(rng, n)
            d = feature_dim(n, chain.n_states)
            if i // 3 % 4:
                w = rng.normal(size=d) * 10.0 ** rng.integers(-3, 4)
            else:
                w = rng.uniform(-1.0, 1.0, size=d) * 1.7e308
            model = bank_model(bank, chain)
            t = model.table
            got = q_table(model, w)
            assert got.shape == (chain.n_states, model.num_b)
            w0, bias, kernel_ws = split_weights(w, n, chain.n_states)
            entries = model.post_entries.tolist()
            for x in range(chain.n_states):
                assert hexes(got[x].tolist()) == hexes(width_forms(n).row(
                    w0, bias[x], entries, kernel_ws[x]))
            picks = first_argmax(got, t.offsets, t.post) - t.offsets[:-1]
            for sid in rng.integers(model.n_states, size=5).tolist():
                x, lo, hi = sid // model.num_b, *t.offsets[sid:sid + 2]
                b = model.decode(np.array([sid]))[1]
                blk = w[block_slice(x, n)]
                kmat = kernel_matrix(bank, t.actions[lo:hi] + b)
                with np.errstate(over="ignore", invalid="ignore"):
                    q = q_reference(w[0], [r for r, *_ in model.rows[sid]],
                                    blk[0], kmat, blk[1:])
                assert hexes(got[x, t.post[lo:hi]].tolist()) == hexes(q.tolist())
                assert picks[sid] == int(np.argmax(q))


# values where Python's max and numpy's reduction can part: NaN, infinities,
# zeros of either sign, and finite values whose sum overflows
SPECIAL_Q = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.7e308, -1.7e308,
             1.0, -1.0]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(SPECIAL_Q), st.floats()),
                min_size=1, max_size=12))
@example([-0.0, 0.0])
@example([0.0, -0.0, -1.0])
@example([1.0, math.nan])
@example([math.nan, 1.0])
@example([math.inf, -math.inf])
@example([1.7e308, 1.7e308, 2.0])
def test_q_max_and_argmax_follow_numpy(q):
    # bit for bit, so a NaN, and a zero's sign, reach the TD error as the
    # array form's np.maximum.reduce gives them
    arr = np.array(q)
    assert np.float64(q_max(q)).tobytes() == np.maximum.reduce(arr).tobytes()
    assert q_argmax(q) == int(np.argmax(arr))


# weights where the row max can meet a NaN, an infinity, a zero of either
# sign or an overflowing sum
SPECIAL_W = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.7e308, -1.7e308]


def entries_of(rewards, kernels, successor=0):
    """A row's entries, (reward, successor id, kernels) per action, every
    action leading to one successor id."""
    return [(r, successor, *ks) for r, ks in zip(rewards, kernels)]


@st.composite
def top_args(draw):
    """A battery count N in 1-4 and top's arguments for a row of 1-8
    entries: rewards <= 0, successor ids, kernels in [-1, 0] and weights
    among SPECIAL_W and ordinary floats."""
    n = draw(st.integers(1, 4))
    size = draw(st.integers(1, 8))
    weight = st.one_of(st.sampled_from(SPECIAL_W), st.floats(-1e3, 1e3))
    entries = draw(st.lists(st.tuples(
        st.floats(-10.0, 0.0), st.integers(0, 10**6),
        *[st.floats(-1.0, 0.0)] * (2 * n)), min_size=size, max_size=size))
    kernel_w = draw(st.lists(weight, min_size=2 * n, max_size=2 * n))
    return n, (draw(weight), draw(weight), entries, kernel_w)


@settings(max_examples=500, deadline=None)
@given(top_args())
# all-zero rows: 0.0 throughout, then -0.0 and 0.0 in one row
@example((2, (0.0, 0.0, entries_of([-1.0, -2.0], [(-0.5,) * 4] * 2),
              [0.0] * 4)))
@example((1, (0.0, -0.0, entries_of([-1.0, 0.0], [(-0.0, -0.0)] * 2),
              [0.0, 0.0])))
@example((4, (0.0, -0.0, entries_of([-1.0, 0.0], [(-0.0,) * 8] * 2),
              [0.0] * 8)))
# mixed-sign infinities: entries that overflow to -inf and +inf, and
# weights of inf and -inf, which make each entry a NaN
@example((1, (1.7e308, 0.0,
              entries_of([-2.0, 0.0], [(0.0, 0.0), (-1.0, -1.0)]),
              [-1.7e308, -1.7e308])))
@example((3, (1.0, 0.0, entries_of([-1.0, -1.0], [(-1.0,) + (0.0,) * 5,
                                                  (-0.5,) * 6]),
              [math.inf, -math.inf, 1.0, 1.0, 1.0, 1.0])))
# no successor id: the forms never read that slot, which None would fail
@example((2, (0.5, -1.0, entries_of([-1.0, -2.0, 0.0],
                                    [(-0.5, -0.1, -0.2, -0.3)] * 3, None),
              [1.0, 2.0, 3.0, 4.0])))
def test_top_is_numpy_max_of_row(case):
    # bit for bit, the fallback included: a NaN, an infinity and a zero's
    # sign reach the TD target as np.maximum.reduce of the row gives them;
    # value and step read an entry as row does
    n, args = case
    forms = width_forms(n)
    w0, bias, entries, kernel_w = args
    q = forms.row(*args)
    assert (np.float64(forms.top(*args)).tobytes()
            == np.maximum.reduce(np.array(q)).tobytes())
    assert hexes([forms.value(w0, bias, e, kernel_w)
                  for e in entries]) == hexes(q)
    assert hexes(forms.step(kernel_w, 0.5, entries[-1])) == hexes(
        [v + 0.5 * k for v, k in zip(kernel_w, entries[-1][2:])])


class TestWeightPersistence:
    def test_round_trip_preserves_q_hat(self, tmp_path, toy_bank, toy_chain):
        rng = np.random.default_rng(5)
        d = feature_dim(toy_bank.n, toy_chain.n_states)
        w = rng.normal(size=d)
        path = tmp_path / "w.json"
        save_weights(path, w, toy_bank, toy_chain)
        w2 = load_weights(path, toy_bank, toy_chain)
        np.testing.assert_array_equal(w, w2)
        for x in range(toy_chain.n_states):
            for b1 in range(3):
                for b2 in range(4):
                    s = State(x=x, b=(b1, b2))
                    np.testing.assert_array_equal(
                        q_block(toy_bank, toy_chain, s, w),
                        q_block(toy_bank, toy_chain, s, w2))

    def test_fingerprint_mismatch_rejected(self, tmp_path, toy_chain):
        bank = make_bank()
        other = make_bank(capacities=(3, 5))
        path = tmp_path / "w.json"
        save_weights(path, np.zeros(feature_dim(2, 4)), bank, toy_chain)
        with pytest.raises(ValueError, match="fingerprint"):
            load_weights(path, other, toy_chain)

    @pytest.mark.parametrize("edit, message", [
        *((lambda d, k=key: {f: v for f, v in d.items() if f != k},
           f"{key}: required key missing") for key in ("fingerprint", "d", "weights")),
        (lambda d: {**d, "weights": [float("nan")] * len(d["weights"])},
         "weights[0]: expected a finite number, got nan"),
        (lambda d: [d], "top level: expected an object"),
        (lambda d: {**d, "N": "two"}, "N: expected an integer, got 'two'"),
        (lambda d: {**d, "num_bg_states": -7}, "num_bg_states: expected 4, got -7"),
    ], ids=["no-fingerprint", "no-d", "no-weights", "nan-weight", "list",
            "N-not-integer", "num-bg-states-mismatch"])
    def test_malformed_file_named(self, tmp_path, toy_bank, toy_chain, edit,
                                  message):
        path = tmp_path / "w.json"
        save_weights(path, np.zeros(feature_dim(2, 4)), toy_bank, toy_chain)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError) as exc:
            load_weights(path, toy_bank, toy_chain)
        assert str(exc.value).startswith(message)
