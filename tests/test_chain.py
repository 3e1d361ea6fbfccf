import sys
import tracemalloc

import numpy as np
import pytest

from battbank.chain import (cumulative_transition, generate_trajectory,
                            numpy_random)
from battbank.core import BackgroundChain, validate_config

from conftest import make_bank


def two_state_alternator():
    return BackgroundChain(labels=("lo", "hi"),
                           transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
                           net_gen=(-1, 1))


def cycle(n_states):
    """The chain that steps x -> x + 1 mod n_states, so a path of
    n_states steps from 0 visits every state in order."""
    return BackgroundChain(labels=range(n_states),
                           transition=np.roll(np.eye(n_states), 1, axis=1),
                           net_gen=[0] * n_states)


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
        assert tuple(traj.x_path) == (2,)

    def test_negative_length_rejected(self, toy_chain):
        with pytest.raises(ValueError, match="T: must be >= 0"):
            generate_trajectory(toy_chain, 0, -5, seed=0)

    def test_negative_seed_rejected(self, toy_chain):
        with pytest.raises(ValueError, match="seed: must be >= 0, got -1"):
            generate_trajectory(toy_chain, 0, 10, seed=-1)

    @pytest.mark.parametrize("T, seed, match", [
        (2.5, 0, "T: expected an integer, got 2.5"),
        (True, 0, "T: expected an integer, got True"),
        (10, 1.5, "seed: expected an integer, got 1.5"),
        (10, True, "seed: expected an integer, got True")])
    def test_non_integer_length_or_seed_rejected(self, toy_chain, T, seed,
                                                 match):
        # a float used to fail inside numpy without naming the field, and
        # T = True drew a one-step path
        with pytest.raises(ValueError, match=f"^{match}$"):
            generate_trajectory(toy_chain, 0, T, seed)

    @pytest.mark.parametrize("x0", [-1, 4, 9, 1.7, True])
    def test_start_state_outside_chain_rejected(self, toy_chain, x0):
        with pytest.raises(ValueError, match=r"x0: must be in \[0, 4\)"):
            generate_trajectory(toy_chain, x0, 10, seed=0)

    def test_determinism(self, toy_chain):
        t1 = generate_trajectory(toy_chain, 0, 500, seed=9)
        t2 = generate_trajectory(toy_chain, 0, 500, seed=9)
        assert t1.x_path == t2.x_path
        t3 = generate_trajectory(toy_chain, 0, 500, seed=10)
        assert t3.x_path != t1.x_path

    def test_alternating_chain(self):
        traj = generate_trajectory(two_state_alternator(), 0, 4, seed=0)
        assert tuple(traj.x_path) == (0, 1, 0, 1, 0)

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


class TestPathStorage:
    @pytest.mark.parametrize("n_states, itemsize", [(2, 1), (256, 1), (257, 2)])
    def test_narrowest_unsigned_type(self, n_states, itemsize):
        traj = generate_trajectory(cycle(n_states), 0, n_states, seed=0)
        assert traj.x_path.itemsize == itemsize
        # the largest state index is stored and read back whole, as an int
        assert list(traj.x_path) == [*range(n_states), 0]
        assert type(traj.x_path[n_states - 1]) is int
        assert all(type(x) is int for x in traj.x_path)

    def test_read_only(self, toy_chain):
        traj = generate_trajectory(toy_chain, 0, 10, seed=0)
        with pytest.raises(TypeError, match="read-only"):
            traj.x_path[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            np.asarray(traj.x_path)[0] = 1
        assert traj.x_path[0] == 0

    @pytest.mark.parametrize("n_states", [4, 257])
    def test_numpy_view(self, n_states):
        traj = generate_trajectory(cycle(n_states), 1, 600, seed=0)
        path = np.array(traj.x_path)
        assert path.ndim == 1 and path.dtype.kind == "u"
        assert path.dtype.itemsize == traj.x_path.itemsize
        np.testing.assert_array_equal(path, (1 + np.arange(601)) % n_states)

    def test_peak_memory(self, toy_chain):
        # the path at one byte a step plus one block of uniforms; a tuple of
        # the path alone takes 8 bytes a step
        generate_trajectory(toy_chain, 0, 1000, seed=0)
        tracemalloc.start()
        try:
            traj = generate_trajectory(toy_chain, 0, 400_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.x_path) == 400_001
        assert peak < 1 << 20


def test_net_generation_labels(toy_chain):
    assert toy_chain.net_gen == (-4, -1, 1, 5)
    # BackgroundChain stores plain ints whatever integer type it is given
    chain = BackgroundChain(labels=("a", "b"), transition=np.eye(2)[::-1],
                            net_gen=np.array([3, -2]))
    assert chain.net_gen == (3, -2)
    assert all(type(g) is int for g in chain.net_gen)


def test_numpy_random_leaves_loaded_openssl_alone():
    # once OpenSSL (pytest's hashlib) and numpy.random are loaded there is
    # nothing to hide: the same module, and no module added or replaced
    import _hashlib  # noqa: F401
    import numpy.random  # noqa: F401
    before = dict(sys.modules)
    assert numpy_random() is np.random
    assert sys.modules == before
