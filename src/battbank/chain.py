# Background DTMC simulation and net-generation lookup.
#
# All randomness flows through numpy's PCG64 (np.random.default_rng), so a
# trajectory is reproducible bit-for-bit from (seed, x0, T) on any platform.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BackgroundChain


@dataclass(frozen=True)
class Trajectory:
    seed: int
    x_path: tuple[int, ...]


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


# uniforms drawn and resolved per block: n_states * _BLOCK indices at a time
_BLOCK = 1 << 14


def generate_trajectory(chain: BackgroundChain, x0: int, T: int, seed: int) -> Trajectory:
    """Background path of T steps from x0. PCG64(seed) yields T uniforms,
    the k-th choosing the successor of step k. Uniforms are drawn a block
    at a time, and each block's successors from every state are found in
    bulk, so only the index chase runs step by step."""
    rng = np.random.default_rng(seed)
    cum = cumulative_transition(chain)
    x = int(x0)
    path = [x]
    for lo in range(0, T, _BLOCK):
        u = rng.random(min(_BLOCK, T - lo))
        succ = [np.searchsorted(row, u, side="right").tolist() for row in cum]
        for k in range(len(u)):
            x = succ[x][k]
            path.append(x)
    return Trajectory(seed=seed, x_path=tuple(path))
