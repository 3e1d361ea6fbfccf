import numpy as np
import pytest

from battbank.core import BankConfig, BatteryConfig, BackgroundChain, State

# transition matrix and state labels of the shipped toy instance
TOY_P = [
    [0.0, 0.5, 0.3, 0.2],
    [0.5, 0.0, 0.1, 0.4],
    [0.3, 0.2, 0.0, 0.5],
    [0.3, 0.3, 0.4, 0.0],
]
TOY_LABELS = (-4, -1, 1, 5)


def make_chain():
    return BackgroundChain(labels=TOY_LABELS, transition=np.array(TOY_P),
                           net_gen=TOY_LABELS)


def make_bank(capacities=(2, 3), ramps=(25, 25), weights=(0.1, 1.0),
              gamma=0.95, dissipation=None, occupancy="half"):
    if dissipation is None:
        dissipation = [1.0] * len(capacities)
    batteries = tuple(
        BatteryConfig(capacity=B, ramp=c, penalty_weight=w, dissipation=eta)
        for B, c, w, eta in zip(capacities, ramps, weights, dissipation)
    )
    return BankConfig(batteries=batteries, gamma=gamma, initial_occupancy=occupancy)


def model_state(model, sid):
    """The State that a BankModel's state id stands for."""
    x, b = model.decode(np.array([sid]))
    return State(x=int(x[0]), b=tuple(b[0].tolist()))


@pytest.fixture
def toy_chain():
    return make_chain()


@pytest.fixture
def toy_bank():
    return make_bank()
