# Online semi-gradient Q-learning of the linear weight vector.

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .chain import cumulative_transition
from .core import BankConfig, BackgroundChain
from .env import bank_model
from .features import block_slice, feature_dim, q_values


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

    def beta(self, k: int) -> float:
        return self.beta0 * self.beta_tau / (self.beta_tau + k)

    def eps(self, k: int) -> float:
        return max(self.eps_min, self.eps0 * math.exp(-k / self.eps_decay))


@dataclass
class TrainLog:
    rows: list[tuple] = field(default_factory=list)  # (step, eps, beta, mean_abs_td, cum_reward)

    HEADER = ("step", "epsilon", "beta", "mean_abs_td", "cum_reward")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(self.HEADER)
            wr.writerows(self.rows)


def update_weights(w: np.ndarray, phi: np.ndarray, delta: float,
                   beta: float) -> np.ndarray:
    if phi.shape != w.shape:
        raise ValueError(f"dimension mismatch: phi {phi.shape} vs w {w.shape}")
    return w + beta * delta * phi


def train(bank: BankConfig, chain: BackgroundChain, schedule: LearnSchedule,
          x0: int = 0, b0: tuple[int, ...] | None = None,
          log_every: int = 1000) -> tuple[np.ndarray, TrainLog]:
    """Run the online learning loop for schedule.t_train steps.

    Behavior is epsilon-greedy in the current estimate; chain transitions are
    drawn fresh each step. Fully reproducible from schedule.seed: per step the
    rng yields the exploration coin, then (only when exploring) the uniform
    action index, then the chain-transition uniform.
    """
    if b0 is None:
        b0 = bank.start_occupancy()
    rng = np.random.default_rng(schedule.seed)
    N = bank.n
    gamma = bank.gamma
    d = feature_dim(N, chain.n_states)
    w = np.zeros(d)
    log = TrainLog()

    cum_rows = cumulative_transition(chain).tolist()
    model = bank_model(bank, chain)
    num_b = model.num_b

    x = x0
    sid = x0 * num_b + model.occupancy_id(tuple(b0))
    cum_reward = 0.0
    abs_td_acc = 0.0

    for k in range(schedule.t_train):
        eps = schedule.eps(k)
        beta = schedule.beta(k)
        e = model.row(sid, kernels=True)
        q = q_values(bank, x, e.rewards, e.kmat, w)

        if rng.random() < eps:
            a_idx = int(rng.integers(len(e.actions)))
        else:
            a_idx = int(np.argmax(q))

        r = e.rewards[a_idx]
        # bisect_right is searchsorted(side="right") on a Python list
        x_next = bisect.bisect_right(cum_rows[x], rng.random())
        sid_next = x_next * num_b + e.next_bid[a_idx]

        e2 = model.row(sid_next, kernels=True)
        q_next = q_values(bank, x_next, e2.rewards, e2.kmat, w)

        delta = r + gamma * q_next.max() - q[a_idx]
        if not math.isfinite(delta):
            raise FloatingPointError(f"non-finite TD error at step {k}")

        # sparse form of w += beta * delta * phi(s, a)
        scale = beta * delta
        blk = w[block_slice(x, N)]
        w[0] += scale * r
        blk[0] += scale
        blk[1:] += scale * e.kmat[a_idx]

        cum_reward += r
        abs_td_acc += abs(delta)
        if (k + 1) % log_every == 0:
            log.rows.append((k + 1, eps, beta, abs_td_acc / log_every, cum_reward))
            abs_td_acc = 0.0

        x, sid = x_next, sid_next

    return w, log
