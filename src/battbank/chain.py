# Background DTMC simulation and net-generation lookup.
#
# All randomness flows through numpy's PCG64, so a trajectory is
# reproducible bit-for-bit from (seed, x0, T) on any platform. numpy_random()
# is the one way to numpy.random: the trajectory's default_rng and the
# learner's PCG64 both come from it.

from __future__ import annotations

import bisect
import itertools
import sys
from dataclasses import dataclass

import numpy as np

from .core import BackgroundChain, is_index


def numpy_random():
    """numpy.random, imported on the first call, never at module level.

    Its import pulls in secrets, hmac and hashlib, which map OpenSSL's
    libcrypto (about 3.4 MB resident) for OS entropy that a seeded stream
    never draws. So while neither numpy.random nor OpenSSL is loaded, the
    import runs with _hashlib hidden, and hmac and hashlib fall back to
    CPython's builtin code; the hashlib and hmac it made are then dropped,
    so a later `import hashlib` (core.config_fingerprint) gets OpenSSL
    again. The generators are numpy's own either way."""
    if "numpy.random" not in sys.modules and "_hashlib" not in sys.modules:
        made = {"hashlib", "hmac"} - sys.modules.keys()
        sys.modules["_hashlib"] = None
        try:
            import numpy.random  # noqa: F401
        finally:
            del sys.modules["_hashlib"]
            for name in made:
                sys.modules.pop(name, None)
    return np.random


@dataclass(frozen=True)
class Trajectory:
    """A background path: x_path[k] is the chain's state at step k, for
    k = 0..T.

    x_path is a read-only memoryview in the narrowest unsigned integer type
    that holds the chain's largest state index: 1 byte a step for up to 256
    states, 2 bytes up to 65,536. Indexing and iteration give Python ints.
    np.asarray(x_path) views it in that unsigned dtype, so upcast it before
    arithmetic whose result could leave that type.
    """
    x_path: memoryview


def cumulative_transition(chain: BackgroundChain) -> np.ndarray:
    """Row-wise cumulative transition matrix for inverse-CDF sampling.

    Each row is pinned to exactly 1.0 from its last positive entry on, so
    `searchsorted(cum[x], u, side="right")` with u in [0, 1) always returns
    a successor of positive probability, even for rows that validation
    accepted as summing to within rounding of 1.
    """
    P = chain.transition
    cum = np.cumsum(P, axis=1)
    last = P.shape[1] - 1 - np.argmax(P[:, ::-1] > 0, axis=1)
    for x, j in enumerate(last):
        cum[x, j:] = 1.0
    return cum


def check_x0(chain: BackgroundChain, x0: int) -> None:
    """Reject a start state that is not one of the chain's state indices,
    a float or bool among them, which would be truncated or read as 0/1."""
    if not is_index(x0) or not 0 <= x0 < chain.n_states:
        raise ValueError(f"x0: must be in [0, {chain.n_states}), an integer "
                         f"state of the {chain.n_states}-state chain, got {x0}")


def check_count(v, name: str) -> None:
    """Reject a length or seed, named name, that is not an integer, a
    float or bool among them, or that is negative, which PCG64 cannot take
    as a seed."""
    if not is_index(v):
        raise ValueError(f"{name}: expected an integer, got {v!r}")
    if v < 0:
        raise ValueError(f"{name}: must be >= 0, got {v}")


# uniforms drawn per block: at most _BLOCK of them are held at a time, at
# about 40 bytes each (a Python float, its list slot and its float64 draw),
# so a block is the same size as a path of about 320k steps
_BLOCK = 1 << 13


def generate_trajectory(chain: BackgroundChain, x0: int, T: int, seed: int) -> Trajectory:
    """Background path of T steps from x0. PCG64(seed) yields T uniforms,
    the k-th choosing the successor of step k. Uniforms are drawn a block
    at a time; each step finds its successor by bisect_right over the
    current state's cumulative row, as learner.train does. The path is
    stored as Trajectory describes, without a list or tuple of it."""
    check_x0(chain, x0)
    check_count(T, "T")
    check_count(seed, "seed")
    rng = numpy_random().default_rng(seed)
    cum_rows = cumulative_transition(chain).tolist()
    uniforms = itertools.chain.from_iterable(
        rng.random(min(_BLOCK, T - lo)).tolist() for lo in range(0, T, _BLOCK))
    # bisect_right is searchsorted(side="right"); no list of the path is made
    path = itertools.accumulate(
        uniforms, lambda x, u: bisect.bisect_right(cum_rows[x], u),
        initial=int(x0))
    # exactly T + 1 entries, in the narrowest type that holds every state
    x_path = np.fromiter(path, np.min_scalar_type(chain.n_states - 1),
                         count=T + 1)
    x_path.flags.writeable = False
    return Trajectory(x_path=x_path.data)
