import numpy as np
import pytest

from battbank.core import BackgroundChain, State
from battbank.env import feasible_actions, reward, state_actions
from battbank.features import (block_slice, feature_dim, feature_vector,
                               kernel_matrix, load_weights, q_values,
                               save_weights)

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


def q_block(bank, chain, s, w):
    """q_values over s's feasible set, from a fresh state_actions table."""
    ent = state_actions(bank, chain, s)
    return q_values(bank, s.x, ent.rewards, kernel_matrix(bank, ent.posts), w)


class TestQHat:
    # q_values is the one home of the linear estimate Q-hat(s, a) = phi . w
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
