# Kernel feature map and the linear Q estimate.
#
# Layout of a feature vector of dimension d = (2N+1)*n_bg + 1:
#   entry 0:            instantaneous reward R(s, a)
#   block j (2N+1 wide): (1, -(1-y_1)^4, -y_1^4, ..., -(1-y_N)^4, -y_N^4)
#                        if x == j, else all zeros,
# where y_i is the normalised post-action occupancy of battery i.
#
# The linear estimate Q-hat = phi . w has one home, here: phi . w summed left
# to right over phi's support, w0*r + bias + k_0*w_0 + ... + k_{2N-1}*w_{2N-1},
# in Python floats. Each operation rounds as float64 does, in the same order
# on every machine, so no BLAS kernel enters it. q_value values one action,
# q_row a feasible set, q_top a feasible set's max (the learner's TD target)
# and q_rows a model's rows; width_forms picks the forms for a kernel width.

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterator, Sequence
from typing import NamedTuple

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
                  ) -> tuple[float, list[float], list[list[float]]]:
    """w's reward weight, each block's bias weight and each block's kernel
    weights, as Python floats; join_weights puts them back."""
    blocks = w[1:].reshape(n_bg_states, 2 * n_batteries + 1).tolist()
    return float(w[0]), [blk[0] for blk in blocks], [blk[1:] for blk in blocks]


def join_weights(w0: float, bias: list[float],
                 kernel_ws: list[list[float]]) -> np.ndarray:
    """The weight vector that split_weights splits into these parts."""
    return np.append(w0, [[b, *kw] for b, kw in zip(bias, kernel_ws)])


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


def q_value(w0: float, reward: float, bias: float, kernels: Sequence[float],
            kernel_w: Sequence[float]) -> float:
    """Q-hat of one action: phi . w summed left to right over phi's support.
    w0 is the reward weight, bias and kernel_w its block's bias and kernel
    weights, and kernels the action's 2N kernel features."""
    q = w0 * reward + bias
    for k, v in zip(kernels, kernel_w):
        q += k * v
    return q


def q_row(w0: float, rewards: Sequence[float], bias: float,
          kernels: Sequence[Sequence[float]],
          kernel_w: Sequence[float]) -> list[float]:
    """q_value of every action of a feasible set, whose rewards and kernel
    features are its row's."""
    return [q_value(w0, r, bias, ks, kernel_w) for r, ks in zip(rewards, kernels)]


def q_top(w0: float, rewards: Sequence[float], bias: float,
          kernels: Sequence[Sequence[float]],
          kernel_w: Sequence[float]) -> float:
    """q_max(q_row(...)): the largest Q-hat of a feasible set, the learner's
    TD target."""
    return q_max(q_row(w0, rewards, bias, kernels, kernel_w))


def add_scaled(kernel_w: Sequence[float], scale: float,
               kernels: Sequence[float]) -> list[float]:
    """kernel_w + scale * kernels, entry by entry: the kernel part of the
    update w + scale * phi."""
    return [v + scale * k for v, k in zip(kernel_w, kernels)]


def _q_value_2(w0, reward, bias, kernels, kernel_w):
    k0, k1, k2, k3 = kernels
    v0, v1, v2, v3 = kernel_w
    return w0 * reward + bias + k0 * v0 + k1 * v1 + k2 * v2 + k3 * v3


def _q_row_2(w0, rewards, bias, kernels, kernel_w):
    v0, v1, v2, v3 = kernel_w
    return [w0 * r + bias + k0 * v0 + k1 * v1 + k2 * v2 + k3 * v3
            for r, (k0, k1, k2, k3) in zip(rewards, kernels)]


def _q_top_2(w0, rewards, bias, kernels, kernel_w):
    # q_max(_q_row_2(...)) in one pass with no list: the first largest value
    # and a running sum, the pair _numpy_reduces reads.
    v0, v1, v2, v3 = kernel_w
    top, total = -math.inf, 0.0
    for r, (k0, k1, k2, k3) in zip(rewards, kernels):
        q = w0 * r + bias + k0 * v0 + k1 * v1 + k2 * v2 + k3 * v3
        total += q
        if q > top:
            top = q
    if _numpy_reduces(top, total):
        return float(np.maximum.reduce(_q_row_2(w0, rewards, bias, kernels, kernel_w)))
    return top


def _add_scaled_2(kernel_w, scale, kernels):
    v0, v1, v2, v3 = kernel_w
    k0, k1, k2, k3 = kernels
    return [v0 + scale * k0, v1 + scale * k1, v2 + scale * k2, v3 + scale * k3]


class WidthForms(NamedTuple):
    value: Callable[..., float]       # q_value
    row: Callable[..., list[float]]   # q_row
    step: Callable[..., list[float]]  # add_scaled
    top: Callable[..., float]         # q_top


def width_forms(n_batteries: int) -> WidthForms:
    """q_value, q_row, add_scaled and q_top for N batteries, picked once,
    outside a loop. For N = 2 they are unrolled: the same operations in the
    same order, so the same bits, without the loops' cost per entry."""
    if n_batteries == 2:
        return WidthForms(_q_value_2, _q_row_2, _add_scaled_2, _q_top_2)
    return WidthForms(q_value, q_row, add_scaled, q_top)


def q_rows(model: BankModel, w: np.ndarray) -> Iterator[list[float]]:
    """Each state's q_row under weights w, in state-id order, one row at a
    time as the learner's step takes them."""
    w0, bias, kernel_ws = split_weights(w, model.bank.n, model.chain.n_states)
    row_q = width_forms(model.bank.n).row
    for sid, row in enumerate(model.rows):
        x = sid // model.num_b
        yield row_q(w0, row.rewards, bias[x], row.kernels, kernel_ws[x])


def _numpy_reduces(top: float, total: float) -> bool:
    """Whether np.maximum.reduce must reduce a row whose first largest value
    is top and whose left-to-right sum is total. Python's max gives numpy's
    value unless the row holds a NaN, which max may pass over, or the largest
    value is a zero, whose sign max takes from the first zero and numpy need
    not. A NaN or an infinity makes the sum non-finite."""
    return top == 0.0 or not math.isfinite(total)


def q_max(q: list[float]) -> float:
    """np.maximum.reduce(q) for a q_row list."""
    m = max(q)
    if _numpy_reduces(m, sum(q)):
        return float(np.maximum.reduce(q))
    return m


def q_argmax(q: list[float]) -> int:
    """np.argmax(q) for a q_row list: the first index of its largest value,
    where a NaN counts as largest."""
    m = q_max(q)
    return q.index(m) if m == m else int(np.argmax(q))


# ---------------------------------------------------------------------------
# Weight persistence

def check_finite(w: np.ndarray) -> None:
    """Reject weights holding a NaN or an infinity, naming the first."""
    bad = np.flatnonzero(~np.isfinite(w))
    if len(bad):
        raise ValueError(f"weights[{bad[0]}]: expected a finite number, got {w[bad[0]]}")


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
    check_finite(w)
    d = feature_dim(bank.n, chain.n_states)
    if len(w) != d or _number(doc["d"], "d", int) != d:
        raise ValueError(f"weights dimension {len(w)} != expected {d}")
    return w
