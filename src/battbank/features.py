# Kernel feature map and the linear Q estimate.
#
# Layout of a feature vector of dimension d = (2N+1)*n_bg + 1:
#   entry 0:            instantaneous reward R(s, a)
#   block j (2N+1 wide): (1, -(1-y_1)^4, -y_1^4, ..., -(1-y_N)^4, -y_N^4)
#                        if x == j, else all zeros,
# where y_i is the normalised post-action occupancy of battery i.

from __future__ import annotations

import json

import numpy as np

from .core import (Action, BankConfig, BackgroundChain, State,
                   config_fingerprint)
from .env import reward

WEIGHTS_FORMAT_VERSION = 1


def feature_dim(n_batteries: int, n_bg_states: int) -> int:
    return (2 * n_batteries + 1) * n_bg_states + 1


def block_slice(x: int, n_batteries: int) -> slice:
    """Slice of the weight/feature vector holding background state x's block."""
    width = 2 * n_batteries + 1
    return slice(1 + x * width, 1 + (x + 1) * width)


def kernel_matrix(bank: BankConfig, posts: np.ndarray) -> np.ndarray:
    """Quartic empty-side / full-side kernels, both in [-1, 0], for a batch
    of post-action occupancies.

    posts: (n, N) integer occupancies; returns (n, 2N) interleaved as
    (empty-side, full-side) per battery.
    """
    caps = np.array(bank.capacities, dtype=float)
    y = posts / caps
    out = np.empty((posts.shape[0], 2 * bank.n))
    out[:, 0::2] = -((1.0 - y) ** 4)
    out[:, 1::2] = -(y ** 4)
    return out


def feature_vector(bank: BankConfig, chain: BackgroundChain, s: State,
                   a: Action) -> np.ndarray:
    d = feature_dim(bank.n, chain.n_states)
    phi = np.zeros(d)
    phi[0] = reward(bank, s, a)
    blk = block_slice(s.x, bank.n)
    post = np.array(s.b, dtype=np.int64) + np.array(a, dtype=np.int64)
    phi[blk.start] = 1.0
    phi[blk.start + 1:blk.stop] = kernel_matrix(bank, post[None, :])[0]
    return phi


def q_values(bank: BankConfig, s_x: int, rewards: np.ndarray, kmat: np.ndarray,
             w: np.ndarray) -> np.ndarray:
    """Linear Q estimates for one state's whole feasible set, exploiting the
    block sparsity of the feature map: rewards and kmat are the set's
    rewards and kernel_matrix rows."""
    blk = w[block_slice(s_x, bank.n)]
    return w[0] * rewards + blk[0] + kmat @ blk[1:]


# ---------------------------------------------------------------------------
# Weight persistence

def save_weights(path, w: np.ndarray, bank: BankConfig, chain: BackgroundChain) -> None:
    doc = {
        "version": WEIGHTS_FORMAT_VERSION,
        "fingerprint": config_fingerprint(bank, chain),
        "d": len(w),
        "N": bank.n,
        "num_bg_states": chain.n_states,
        "weights": [float(v) for v in w],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_weights(path, bank: BankConfig, chain: BackgroundChain) -> np.ndarray:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != WEIGHTS_FORMAT_VERSION:
        raise ValueError(f"unsupported weights file version: {doc.get('version')}")
    expect = config_fingerprint(bank, chain)
    if doc["fingerprint"] != expect:
        raise ValueError(
            f"weights fingerprint {doc['fingerprint']} does not match "
            f"config fingerprint {expect}")
    w = np.array(doc["weights"], dtype=float)
    d = feature_dim(bank.n, chain.n_states)
    if len(w) != d or doc["d"] != d:
        raise ValueError(f"weights dimension {len(w)} != expected {d}")
    return w
