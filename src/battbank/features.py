# Kernel feature map and the linear Q estimate.
#
# Layout of a feature vector of dimension d = (2N+1)*n_bg + 1:
#   entry 0:            instantaneous reward R(s, a)
#   block j (2N+1 wide): (1, -(1-y_1)^4, -y_1^4, ..., -(1-y_N)^4, -y_N^4)
#                        if x == j, else all zeros,
# where y_i is the normalised post-action occupancy of battery i.
#
# The linear estimate Q-hat = phi . w has one home, here: phi . w summed left
# to right over phi's support, w0*r + bias + k_0*w_0 + ... + k_{2N-1}*w_{2N-1}.
# Each operation rounds once as float64 does, in the same order on every
# machine, so no BLAS kernel enters it. It is written in two forms that give
# the same bits:
#   - the width forms, in Python floats, for the learner's step:
#     width_forms compiles them for a kernel width, unrolled from one
#     template: value values one entry of a row (BankModel.rows), row a
#     row, top its max (the learner's TD target), step the update's kernels;
#   - the columns, in numpy, for the table: q_table values every
#     post-decision state (x, b') at once, one ufunc per term.

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable
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


# Q-hat's one source: each form unrolled over the kernel width K = 2N, so
# every width runs as the same straight-line arithmetic with no loop per
# kernel. An entry is (r, successor id, k0, ..., k{K-1}); no form reads the
# id. {ks} and {vs} are the kernels and their weights v0, ..., v{K-1},
# {terms} the sum + k0 * v0 + ... and {steps} v0 + scale * k0, ...
_FORMS = """\
def value(w0, bias, entry, kernel_w):
    r, _, {ks} = entry
    {vs} = kernel_w
    return w0 * r + bias{terms}


def row(w0, bias, entries, kernel_w):
    {vs} = kernel_w
    return [w0 * r + bias{terms}
            for r, _, {ks} in entries]


def top(w0, bias, entries, kernel_w):
    # q_max(row(...)) in one pass with no list: the first largest value and
    # a running sum, the pair _numpy_reduces reads
    {vs} = kernel_w
    best, total = -math.inf, 0.0
    for r, _, {ks} in entries:
        q = w0 * r + bias{terms}
        total += q
        if q > best:
            best = q
    if _numpy_reduces(best, total):
        return float(np.maximum.reduce(row(w0, bias, entries, kernel_w)))
    return best


def step(kernel_w, scale, entry):
    {vs} = kernel_w
    _, _, {ks} = entry
    return [{steps}]
"""


class WidthForms(NamedTuple):
    # entries are a row's, kernel_w its block's kernel weights, w0 the
    # reward weight and bias the block's bias weight
    value: Callable[..., float]       # Q-hat of one entry
    row: Callable[..., list[float]]   # Q-hat of each entry of a feasible set
    step: Callable[..., list[float]]  # kernel_w + scale * kernels: the update
    top: Callable[..., float]         # q_max(row(...)): the learner's TD target


@functools.cache
def width_forms(n_batteries: int) -> WidthForms:
    """Q-hat's forms for N batteries, compiled once per width from _FORMS:
    phi . w summed left to right over phi's support, the same operations in
    the same order at every width, so the same bits."""
    width = range(2 * n_batteries)
    src = _FORMS.format(
        ks=", ".join(f"k{i}" for i in width),
        vs=", ".join(f"v{i}" for i in width),
        terms="".join(f" + k{i} * v{i}" for i in width),
        steps=", ".join(f"v{i} + scale * k{i}" for i in width))
    space = {"math": math, "np": np, "_numpy_reduces": _numpy_reduces}
    exec(compile(src, f"<width_forms K={len(width)}>", "exec"), space)
    return WidthForms(space["value"], space["row"], space["step"], space["top"])


# a diverged estimate overflows to infinities and their NaN differences, as
# the width forms' Python floats do without a word
@np.errstate(over="ignore", invalid="ignore")
def q_table(model: BankModel, w: np.ndarray) -> np.ndarray:
    """Q-hat of every post-decision state (x, b') under weights w, as an
    (n_bg, num_b) array: a pair of background state x leading to occupancy
    b' is valued at [x, b']. The column form of the width forms' sum:
    w0 * r + bias, then each kernel column times its weight added in order,
    one ufunc per operation, so each rounds once as a Python float does."""
    w0, bias, kernel_ws = split_weights(w, model.bank.n, model.chain.n_states)
    values = w0 * model.table.post_reward + np.array(bias)[:, None]
    for k, v in zip(model.post_kernel_matrix.T, np.array(kernel_ws).T):
        values += k * v[:, None]
    return values


def _numpy_reduces(top: float, total: float) -> bool:
    """Whether np.maximum.reduce must reduce a row whose first largest value
    is top and whose left-to-right sum is total. Python's max gives numpy's
    value unless the row holds a NaN, which max may pass over, or the largest
    value is a zero, whose sign max takes from the first zero and numpy need
    not. A NaN or an infinity makes the sum non-finite."""
    return top == 0.0 or not math.isfinite(total)


def q_max(q: list[float]) -> float:
    """np.maximum.reduce(q) for a row's list of Q-hat values."""
    m = max(q)
    if _numpy_reduces(m, sum(q)):
        return float(np.maximum.reduce(q))
    return m


def q_argmax(q: list[float]) -> int:
    """np.argmax(q) for a row's list of Q-hat values: the first index of its
    largest value, where a NaN counts as largest."""
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
