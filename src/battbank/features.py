# Kernel feature map and the linear Q estimate.
#
# Layout of a feature vector of dimension d = (2N+1)*n_bg + 1:
#   entry 0:            instantaneous reward R(s, a)
#   block j (2N+1 wide): (1, -(1-y_1)^4, -y_1^4, ..., -(1-y_N)^4, -y_N^4)
#                        if x == j, else all zeros,
# where y_i is the normalised post-action occupancy of battery i.
#
# The linear estimate Q-hat = phi . w has one home: q_row over a feasible set,
# the scalar q_from_kernels for one action, and q_rows over a model's rows.

from __future__ import annotations

import json
import math
from collections.abc import Iterator

import numpy as np

from .core import (Action, BankConfig, BackgroundChain, State, _fields,
                   _number, _numbers, config_fingerprint)
from .env import BankModel, reward

WEIGHTS_FORMAT_VERSION = 1


def feature_dim(n_batteries: int, n_bg_states: int) -> int:
    return (2 * n_batteries + 1) * n_bg_states + 1


def block_slice(x: int, n_batteries: int) -> slice:
    """Slice of the weight/feature vector holding background state x's block."""
    width = 2 * n_batteries + 1
    return slice(1 + x * width, 1 + (x + 1) * width)


def split_weights(w: np.ndarray, n_batteries: int, n_bg_states: int
                  ) -> tuple[float, list[float], list[np.ndarray]]:
    """w's reward weight and each block's bias weight as Python floats, and
    each block's kernel weights as a view into w."""
    blocks = [w[block_slice(x, n_batteries)] for x in range(n_bg_states)]
    return float(w[0]), [float(blk[0]) for blk in blocks], [blk[1:] for blk in blocks]


def kernel_matrix(bank: BankConfig, posts: np.ndarray) -> np.ndarray:
    """Quartic empty-side / full-side kernels, both in [-1, 0], for a batch
    of post-action occupancies.

    posts: (n, N) integer occupancies; returns (n, 2N) interleaved as
    (empty-side, full-side) per battery. Filled one battery at a time, so
    only a few (n,) columns are held beside the output.
    """
    out = np.empty((posts.shape[0], 2 * bank.n))
    for i, cap in enumerate(bank.capacities):
        y = posts[:, i] / float(cap)
        out[:, 2 * i] = -((1.0 - y) ** 4)
        out[:, 2 * i + 1] = -(y ** 4)
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


def kernel_product(kmat: np.ndarray, kernel_w: np.ndarray) -> np.ndarray:
    """Kernel part of every action's Q estimate; kernel_w is the state's
    weight block without its leading bias entry. ndarray.dot gives the
    values of `kmat @ kernel_w` (both run BLAS gemv) with less dispatch
    per call."""
    return kmat.dot(kernel_w)


def q_from_kernels(w0: float, reward: float, bias: float, kv: float) -> float:
    """One action's Q estimate from the reward weight w0, its reward, the
    block's bias weight and its kernel product kv: the expression q_row
    takes entry by entry, so it equals that action's q_row entry bit for
    bit."""
    return w0 * reward + bias + kv


def q_row(w0: float, rewards: list[float], bias: float,
          kv: list[float]) -> list[float]:
    """Q estimates of a whole feasible set in Python floats: rewards are
    its row's rewards and kv its kernel_product, taken out as a list. The
    learner's step and the rl policy use it, where a list of a few entries
    costs less than numpy's dispatch."""
    return [w0 * r + bias + k for r, k in zip(rewards, kv)]


def q_rows(model: BankModel, w: np.ndarray) -> Iterator[list[float]]:
    """Each state's q_row under weights w, in state-id order, one row at a
    time as the learner's step takes them."""
    w0, bias, kernel_ws = split_weights(w, model.bank.n, model.chain.n_states)
    for sid, row in enumerate(model.rows):
        x = sid // model.num_b
        yield q_row(w0, row.rewards, bias[x],
                    kernel_product(row.kmat, kernel_ws[x]).tolist())


def q_max(q: list[float]) -> float:
    """np.maximum.reduce(q) for a q_row list. Python's max gives the same
    value unless the row holds a NaN, which max may pass over, or the
    largest value is a zero, whose sign max takes from the first zero and
    numpy need not. A NaN or an infinity makes the row's sum non-finite, so
    such rows and zero maxima are reduced by numpy."""
    m = max(q)
    if m == 0.0 or not math.isfinite(sum(q)):
        return float(np.maximum.reduce(q))
    return m


def q_argmax(q: list[float]) -> int:
    """np.argmax(q) for a q_row list: the first index of its largest value,
    where a NaN counts as largest."""
    m = q_max(q)
    return q.index(m) if m == m else int(np.argmax(q))


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
    """The weights save_weights wrote for this config; a malformed file is
    rejected with a ValueError naming the field."""
    with open(path) as fh:
        doc = json.load(fh)
    _fields(doc, "", ("version", "fingerprint", "d", "N", "num_bg_states", "weights"),
            ("version", "fingerprint", "d", "weights"))
    if _number(doc["version"], "version", int) != WEIGHTS_FORMAT_VERSION:
        raise ValueError(f"unsupported weights file version: {doc['version']}")
    for key, expect in (("N", bank.n), ("num_bg_states", chain.n_states)):
        if key in doc and _number(doc[key], key, int) != expect:
            raise ValueError(f"{key}: expected {expect}, got {doc[key]}")
    expect = config_fingerprint(bank, chain)
    if doc["fingerprint"] != expect:
        raise ValueError(
            f"weights fingerprint {doc['fingerprint']} does not match "
            f"config fingerprint {expect}")
    w = np.array(_numbers(doc["weights"], "weights", float))
    bad = np.flatnonzero(~np.isfinite(w))
    if len(bad):
        raise ValueError(f"weights[{bad[0]}]: expected a finite number, got {w[bad[0]]}")
    d = feature_dim(bank.n, chain.n_states)
    if len(w) != d or _number(doc["d"], "d", int) != d:
        raise ValueError(f"weights dimension {len(w)} != expected {d}")
    return w
