import numpy as np

from battbank.chain import cumulative_transition, generate_trajectory
from battbank.core import BackgroundChain, validate_config

from conftest import make_bank


def two_state_alternator():
    return BackgroundChain(labels=("lo", "hi"),
                           transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
                           net_gen=(-1, 1))


class TestCumulativeTransition:
    def test_short_row_never_samples_out_of_range(self):
        # the first row sums to 1 - 5e-13, inside validation's tolerance;
        # its plain cumsum ends below u = 1 - 1e-13, which then sampled
        # index 2 == n_states
        chain = BackgroundChain(labels=(0, 1),
                                transition=np.array([[0.5, 0.5 - 5e-13],
                                                     [0.5, 0.5]]),
                                net_gen=(0, 0))
        assert validate_config(make_bank(), chain).passed
        cum = cumulative_transition(chain)
        assert np.searchsorted(cum[0], 1 - 1e-13, side="right") == 1

    def test_trailing_zero_probabilities_never_sampled(self):
        chain = BackgroundChain(labels=(0, 1, 2),
                                transition=np.array([[0.3, 0.7 - 5e-13, 0.0],
                                                     [0.0, 0.0, 1.0],
                                                     [1.0, 0.0, 0.0]]),
                                net_gen=(0, 0, 0))
        cum = cumulative_transition(chain)
        assert np.searchsorted(cum[0], 1 - 1e-13, side="right") == 1

    def test_exact_rows_unchanged(self, toy_chain):
        np.testing.assert_array_equal(
            cumulative_transition(toy_chain),
            np.cumsum(toy_chain.transition, axis=1))


class TestGenerateTrajectory:
    def test_zero_length(self, toy_chain):
        traj = generate_trajectory(toy_chain, x0=2, T=0, seed=5)
        assert traj.x_path == (2,)

    def test_determinism(self, toy_chain):
        t1 = generate_trajectory(toy_chain, 0, 500, seed=9)
        t2 = generate_trajectory(toy_chain, 0, 500, seed=9)
        assert t1.x_path == t2.x_path
        t3 = generate_trajectory(toy_chain, 0, 500, seed=10)
        assert t3.x_path != t1.x_path

    def test_alternating_chain(self):
        traj = generate_trajectory(two_state_alternator(), 0, 4, seed=0)
        assert traj.x_path == (0, 1, 0, 1, 0)

    def test_steps_follow_support(self, toy_chain):
        traj = generate_trajectory(toy_chain, 0, 2000, seed=4)
        P = toy_chain.transition
        for a, b in zip(traj.x_path, traj.x_path[1:]):
            assert P[a, b] > 0

    def test_long_run_frequencies(self, toy_chain):
        # empirical state frequencies approach the stationary distribution
        traj = generate_trajectory(toy_chain, 0, 100_000, seed=7)
        counts = np.bincount(traj.x_path, minlength=4) / len(traj.x_path)
        P = toy_chain.transition
        evals, evecs = np.linalg.eig(P.T)
        pi = np.real(evecs[:, np.argmin(np.abs(evals - 1))])
        pi /= pi.sum()
        np.testing.assert_allclose(counts, pi, atol=0.01)


def test_net_generation_labels(toy_chain):
    assert toy_chain.net_gen == (-4, -1, 1, 5)
    # BackgroundChain stores plain ints whatever integer type it is given
    chain = BackgroundChain(labels=("a", "b"), transition=np.eye(2)[::-1],
                            net_gen=np.array([3, -2]))
    assert chain.net_gen == (3, -2)
    assert all(type(g) is int for g in chain.net_gen)
