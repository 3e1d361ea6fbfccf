# Online semi-gradient Q-learning of the linear weight vector.

from __future__ import annotations

import bisect
import csv
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .chain import check_count, check_x0, cumulative_transition, numpy_random
from .core import BankConfig, BackgroundChain
from .env import bank_model
from .features import (feature_dim, join_weights, q_argmax, q_table,
                       split_weights, width_forms)


@dataclass(frozen=True)
class LearnSchedule:
    """Hyperparameters for one training run.

    beta_k = beta0 * beta_tau / (beta_tau + k) satisfies the usual
    divergent-sum / convergent-square-sum conditions. eps_k decays
    exponentially from eps0 down to eps_min; the defaults keep the
    behavior policy fully exploratory (eps = 1, uniform over feasible
    actions), which proved markedly more robust across bank sizes than
    annealed epsilon-greedy behavior.
    """

    t_train: int = 100_000
    beta0: float = 0.05
    beta_tau: float = 30_000.0
    eps0: float = 1.0
    eps_min: float = 1.0
    eps_decay: float = 20_000.0
    seed: int = 0

    def __post_init__(self):
        bad = []
        for name in ("t_train", "seed"):
            try:
                check_count(getattr(self, name), name)
            except ValueError as exc:
                bad.append(str(exc))
        for name in ("beta0", "beta_tau", "eps_decay", "eps0", "eps_min"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, numbers.Real):
                bad.append(f"{name}: expected a number, got {val!r}")
            elif name in ("eps0", "eps_min"):
                if not (0.0 <= val <= 1.0):
                    bad.append(f"{name}: must be in [0, 1], got {val}")
            elif not (0.0 < val < math.inf):
                bad.append(f"{name}: must be finite and > 0, got {val}")
        if bad:
            raise ValueError("; ".join(bad))

    def beta(self, k: int) -> float:
        return self.beta0 * self.beta_tau / (self.beta_tau + k)

    def eps(self, k: int) -> float:
        return max(self.eps_min, self.eps0 * math.exp(-k / self.eps_decay))


@dataclass
class TrainLog:
    rows: list[tuple] = field(default_factory=list)  # (step, eps, beta, mean_abs_td, cum_reward)

    HEADER = ("step", "epsilon", "beta", "mean_abs_td", "cum_reward")
    EVERY = 1000   # steps per row, read by train at each call

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(self.HEADER)
            wr.writerows(self.rows)


# words per PCG64.random_raw refill; a block's three decoded lists stay small
RAW_BLOCK = 512


class RawDraws:
    """The draws of a training step, decoded from PCG64(seed).random_raw
    blocks: the same values in the same order as the default_rng(seed)
    calls of the stream contract, without a Generator call's dispatch cost.
    A uniform (Generator.random) is a word's top 53 bits; an action index
    (Generator.integers(n), 1 <= n <= 2**32) is Lemire's method on 32-bit
    draws, each a fresh word's low half, then its high half, which stays
    cached across uniforms and refills."""

    def __init__(self, seed: int):
        self._bits = numpy_random().PCG64(seed)
        self._i, self._high = RAW_BLOCK, None

    def _refill(self) -> int:
        raw = self._bits.random_raw(RAW_BLOCK)
        self._floats = ((raw >> np.uint64(11)) * 2.0**-53).tolist()
        self._lows = (raw & np.uint64(0xFFFFFFFF)).tolist()
        self._highs = (raw >> np.uint64(32)).tolist()
        return 0   # the index of the block's first word

    def step(self, n: int, eps: float) -> tuple[int | None, float]:
        """One step's draws for a feasible set of n actions: the exploration
        coin, then, only when it is below eps, the action index, which is
        returned (None when the coin is not below eps), then the chain
        uniform, returned second."""
        i = self._i
        if i == RAW_BLOCK:
            i = self._refill()
        explore = self._floats[i] < eps
        i += 1
        a_idx = None
        if explore:
            # n = 1 draws nothing. numpy skips computing threshold when the
            # low half is >= n; as threshold < n, the loop alone rejects the
            # same draws
            a_idx = 0
            if n > 1:
                threshold = (0x100000000 - n) % n
                high = self._high
                while True:
                    if high is None:
                        if i == RAW_BLOCK:
                            i = self._refill()
                        m, high = self._lows[i] * n, self._highs[i]
                        i += 1
                    else:
                        m, high = high * n, None
                    if m & 0xFFFFFFFF >= threshold:
                        break
                self._high = high
                a_idx = m >> 32
        if i == RAW_BLOCK:
            i = self._refill()
        self._i = i + 1
        return a_idx, self._floats[i]


# Rewards are <= 0, so Q* lies in [min r / (1 - gamma), 0]. A trained Q
# estimate further from zero than this many times -min r / (1 - gamma) has
# diverged: healthy runs were measured at 0.19-0.79 times it and silent
# divergences at 1.8e18 times or more, so 10 leaves a wide margin both ways.
Q_BOUND_FACTOR = 10


def check_q_bound(bank: BankConfig, chain: BackgroundChain, w: np.ndarray,
                   schedule: LearnSchedule) -> None:
    """Raise FloatingPointError when the Q estimate of weights w, valued
    over every pair with features.q_table, leaves Q_BOUND_FACTOR times the
    range Q* can take. Both the largest |Q-hat| and min r are taken over the
    post-decision states some pair reaches (BankModel.reached), as an
    unreached one can hold a larger estimate or a lower reward."""
    model = bank_model(bank, chain)
    bound = Q_BOUND_FACTOR * -model.min_reward / (1.0 - bank.gamma)
    # a NaN at a reached (x, b') passes through max and fails the test below
    top = float(np.abs(q_table(model, w)).max(where=model.reached, initial=0.0))
    if not top <= bound:
        raise FloatingPointError(
            f"max|Q-hat| = {top:.3g} after {schedule.t_train} training steps "
            f"exceeds the bound {bound:.3g} ({Q_BOUND_FACTOR} x -min r / "
            f"(1 - gamma)), training seed {schedule.seed}")


def update_weights(w: np.ndarray, phi: np.ndarray, delta: float,
                   beta: float) -> np.ndarray:
    if phi.shape != w.shape:
        raise ValueError(f"dimension mismatch: phi {phi.shape} vs w {w.shape}")
    return w + beta * delta * phi


# a diverging run overflows before its TD error turns non-finite, in q_max's
# numpy fallback; the check reports it, whatever the warning filters say
@np.errstate(over="ignore", invalid="ignore")
def train(bank: BankConfig, chain: BackgroundChain, schedule: LearnSchedule,
          x0: int = 0) -> tuple[np.ndarray, TrainLog]:
    """Run the online learning loop for schedule.t_train steps, from
    background state x0 and occupancy bank.start_occupancy(), logging a
    row every TrainLog.EVERY steps.

    Behavior is epsilon-greedy in the current estimate; chain transitions are
    drawn fresh each step. Fully reproducible from schedule.seed: per step the
    exploration coin, then (only when exploring) the uniform action index,
    then the chain-transition uniform. One RawDraws.step call takes them,
    decoded from PCG64.random_raw, equal to the np.random.default_rng calls
    they replace; it relies on numpy's Lemire method on 32-bit halves of a
    word and on PCG64's cached high half.

    The step is Python-float arithmetic, which rounds each operation as
    float64 numpy does, and makes no BLAS call, so the weights are the same
    bits on every CPU. w[0], each block's bias weight and each block's
    kernel weights are carried as Python floats and lists
    (features.split_weights) and written into w at the end. A row is its
    pairs' (reward, successor id, kernels) entries, BankModel.rows. Q-hat
    and the update are features.width_forms' for the bank's width: an
    exploring step values only the drawn action, and the TD target is the
    next state's row max, the forms' top, in one pass with no list. That
    max and an exploiting step's first argmax fall back to numpy only for a
    zero maximum or a row holding a NaN or an infinity (features.q_max), so a
    divergence is raised at the step where its TD error turns non-finite.
    A run that diverges without a non-finite TD error fails after its last
    step, when its Q estimate leaves the range Q* can take.
    """
    check_x0(chain, x0)
    b0 = bank.start_occupancy()
    log_every = TrainLog.EVERY
    draws = RawDraws(schedule.seed).step
    gamma = bank.gamma
    log = TrainLog()

    cum_rows = cumulative_transition(chain).tolist()
    model = bank_model(bank, chain)
    rows = model.rows
    num_b = model.num_b
    w0, bias, kernel_ws = split_weights(
        np.zeros(feature_dim(bank.n, chain.n_states)), bank.n, chain.n_states)
    q_value, q_row, add_scaled, top = width_forms(bank.n)

    # schedule.eps and schedule.beta, hoisted: eps stays at eps_min when
    # eps0 <= eps_min, and beta is LearnSchedule.beta's expression
    annealed = schedule.eps0 > schedule.eps_min
    eps = schedule.eps_min
    beta_num = schedule.beta0 * schedule.beta_tau
    beta_tau = schedule.beta_tau

    x = x0
    e = rows[x0 * num_b + model.occupancy_id(b0)]
    cum_reward = 0.0
    abs_td_acc = 0.0

    for k in range(schedule.t_train):
        if annealed:
            eps = schedule.eps(k)
        beta = beta_num / (beta_tau + k)
        kernel_w = kernel_ws[x]

        a_idx, u = draws(len(e), eps)
        if a_idx is None:
            q = q_row(w0, bias[x], e, kernel_w)
            a_idx = q_argmax(q)
            q_a, ent = q[a_idx], e[a_idx]
        else:
            ent = e[a_idx]
            q_a = q_value(w0, bias[x], ent, kernel_w)

        r = ent[0]
        # bisect_right is searchsorted(side="right") on a Python list
        x_next = bisect.bisect_right(cum_rows[x], u)
        e_next = rows[x_next * num_b + ent[1]]

        delta = r + gamma * top(w0, bias[x_next], e_next,
                                kernel_ws[x_next]) - q_a
        if not math.isfinite(delta):
            raise FloatingPointError(f"non-finite TD error at step {k}, "
                                     f"training seed {schedule.seed}")

        # sparse form of w += beta * delta * phi(s, a)
        scale = beta * delta
        w0 += scale * r
        bias[x] += scale
        kernel_ws[x] = add_scaled(kernel_w, scale, ent)

        cum_reward += r
        abs_td_acc += abs(delta)
        if (k + 1) % log_every == 0:
            log.rows.append((k + 1, eps, beta, abs_td_acc / log_every, cum_reward))
            abs_td_acc = 0.0
        x, e = x_next, e_next

    w = join_weights(w0, bias, kernel_ws)
    check_q_bound(bank, chain, w, schedule)
    return w, log
