# Domain types, config validation, and shared integer clipping.

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass(frozen=True)
class BatteryConfig:
    """Static parameters of one battery unit.

    Energy is measured in integer units; `capacity` and `ramp` are counts of
    those units. `penalty_weight` is the nonnegative magnitude of the cycling
    penalty prefactor (the minus sign lives in the reward formula).
    """

    capacity: int
    ramp: int
    penalty_weight: float
    dissipation: float = 1.0
    lower_frac: float = 0.2
    upper_frac: float = 0.8


@dataclass(frozen=True)
class BankConfig:
    batteries: tuple[BatteryConfig, ...]
    gamma: float = 0.9
    initial_occupancy: tuple[int, ...] | str = "half"

    @property
    def n(self) -> int:
        return len(self.batteries)

    @property
    def capacities(self) -> tuple[int, ...]:
        return tuple(bat.capacity for bat in self.batteries)

    @property
    def ramps(self) -> tuple[int, ...]:
        return tuple(bat.ramp for bat in self.batteries)

    def start_occupancy(self) -> tuple[int, ...]:
        """Resolve the 'half' sentinel to floor(capacity / 2) per battery;
        an explicit initial_occupancy must be one of the bank's."""
        if self.initial_occupancy == "half":
            return tuple(bat.capacity // 2 for bat in self.batteries)
        occ = tuple(self.initial_occupancy)
        self.check_occupancy(occ, "initial_occupancy")
        return occ

    def check_occupancy(self, b: tuple[int, ...], name: str) -> None:
        """Reject occupancies b, named name, that are not one of the
        bank's, a float or bool entry among them."""
        if len(b) != self.n or not all(is_index(v) and 0 <= v <= B
                                       for v, B in zip(b, self.capacities)):
            raise ValueError(f"{name}: must be {self.n} occupancies, integers "
                             f"in [0, B_i] for capacities {self.capacities}, "
                             f"got {tuple(b)}")


@dataclass(frozen=True, eq=False)
class BackgroundChain:
    """Finite irreducible DTMC driving net generation.

    `net_gen[x]` is the integer net generation (generation minus demand)
    emitted while the chain sits in state x.
    """

    labels: tuple
    transition: np.ndarray
    net_gen: tuple[int, ...]

    def __post_init__(self):
        mat = np.array(self.transition, dtype=float)
        mat.flags.writeable = False
        object.__setattr__(self, "transition", mat)
        # numpy integers become int, which json (so config_fingerprint) can
        # write; a net_gen entry that is not an integer is kept for
        # validate_config to name
        object.__setattr__(self, "labels", tuple(
            int(v) if is_index(v) else v for v in self.labels))
        object.__setattr__(self, "net_gen", tuple(
            int(g) if is_index(g) else g for g in self.net_gen))

    @property
    def n_states(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class State:
    x: int
    b: tuple[int, ...]


# Actions are plain integer tuples; positive entries charge, negative discharge.
Action = tuple[int, ...]


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.passed:
            return "config OK"
        return "\n".join(f"FAIL: {v}" for v in self.violations)


_ROW_SUM_TOL = 1e-12


def validate_config(bank: BankConfig, chain: BackgroundChain) -> ValidationReport:
    """Check every structural invariant; report violations by field path."""
    bad: list[str] = []

    if bank.n < 1:
        bad.append("batteries: at least one battery required")
    for i, bat in enumerate(bank.batteries):
        path = f"batteries[{i}]"
        for name in ("capacity", "ramp"):
            val = getattr(bat, name)
            if not is_index(val):
                bad.append(f"{path}.{name}: expected an integer, got {val!r}")
            elif val < 1:
                bad.append(f"{path}.{name}: must be >= 1, got {val}")
        if not (0.0 < bat.dissipation <= 1.0):
            bad.append(f"{path}.dissipation: must be in (0, 1], got {bat.dissipation}")
        if not (0.0 <= bat.penalty_weight < math.inf):
            bad.append(f"{path}.penalty_weight: must be finite and >= 0, "
                       f"got {bat.penalty_weight}")
        if not (0.0 <= bat.lower_frac < 1.0):
            bad.append(f"{path}.lower_frac: must be in [0, 1), got {bat.lower_frac}")
        if not (bat.lower_frac < bat.upper_frac <= 1.0):
            bad.append(f"{path}: lower_frac < upper_frac <= 1 violated "
                       f"({bat.lower_frac} vs {bat.upper_frac})")

    if not (0.0 < bank.gamma < 1.0):
        bad.append(f"gamma: must lie strictly inside (0, 1), got {bank.gamma}")

    if bank.initial_occupancy != "half":
        occ = tuple(bank.initial_occupancy)
        if len(occ) != bank.n:
            bad.append(f"initial_occupancy: length {len(occ)} != {bank.n} batteries")
        else:
            for i, (o, bat) in enumerate(zip(occ, bank.batteries)):
                if not is_index(o):
                    bad.append(f"initial_occupancy[{i}]: expected an integer, "
                               f"got {o!r}")
                elif not (0 <= o <= bat.capacity):
                    bad.append(f"initial_occupancy[{i}]: {o} outside [0, {bat.capacity}]")

    P = chain.transition
    ns = chain.n_states
    if P.shape != (ns, ns):
        bad.append(f"chain.transition: shape {P.shape} != ({ns}, {ns})")
    else:
        if (P < 0).any():
            bad.append("chain.transition: negative entries")
        for j, row in enumerate(P):
            if not np.isfinite(row).all():
                bad.append(f"chain.transition[{j}]: entries must be finite")
            elif abs(row.sum() - 1.0) > _ROW_SUM_TOL:
                bad.append(f"chain.transition[{j}]: row sums to {row.sum()!r}, not 1")
        if not bad and not _is_irreducible(P):
            bad.append("chain.transition: chain is not irreducible")
    if len(chain.net_gen) != ns:
        bad.append(f"chain.net_gen: length {len(chain.net_gen)} != {ns} states")
    for j, g in enumerate(chain.net_gen):
        if not is_index(g):
            bad.append(f"chain.net_gen[{j}]: expected an integer, got {g!r}")

    return ValidationReport(bad)


def _is_irreducible(P: np.ndarray) -> bool:
    """State 0 reaches every state along positive entries of P, and every
    state reaches state 0 (the same search on the transpose)."""
    adj = P > 0
    return len(adj) > 0 and _reaches_all(adj) and _reaches_all(adj.T)


def _reaches_all(adj: np.ndarray) -> bool:
    """Grow the set reachable from state 0 to a fixed point."""
    seen = np.arange(len(adj)) == 0
    while not seen.all():
        grown = seen | adj[seen].any(axis=0)
        if (grown == seen).all():
            return False
        seen = grown
    return True


def clip(y: int, m: int, M: int) -> int:
    """Project y onto the closed interval [m, M]."""
    if m > M:
        raise ValueError(f"empty interval: [{m}, {M}]")
    return min(max(y, m), M)


def is_index(v) -> bool:
    """True for an integer, Python's or numpy's, that is not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# ---------------------------------------------------------------------------
# JSON config ingestion and fingerprinting

def config_to_dict(bank: BankConfig, chain: BackgroundChain) -> dict:
    return {
        "batteries": [asdict(bat) for bat in bank.batteries],
        "chain": {
            "labels": list(chain.labels),
            "transition": [list(row) for row in chain.transition],
            "net_gen": list(chain.net_gen),
        },
        "gamma": bank.gamma,
        "initial_occupancy": (
            bank.initial_occupancy
            if bank.initial_occupancy == "half"
            else list(bank.initial_occupancy)
        ),
    }


# Strict ingestion: every check raises ValueError naming the field's path.

_BATTERY_KEYS = {"capacity": int, "ramp": int, "penalty_weight": float,
                 "dissipation": float, "lower_frac": float, "upper_frac": float}


def _number(v, path: str, kind: type):
    """v as kind (int or float). JSON true/false is never a number, and an
    integer field takes no float."""
    if isinstance(v, bool) or not isinstance(v, int if kind is int else (int, float)):
        expect = "an integer" if kind is int else "a number"
        raise ValueError(f"{path}: expected {expect}, got {v!r}")
    return kind(v)


def _items(v, path: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"{path}: expected a list, got {v!r}")
    return v


def _numbers(v, path: str, kind: type) -> tuple:
    return tuple(_number(item, f"{path}[{i}]", kind)
                 for i, item in enumerate(_items(v, path)))


def _fields(doc, path: str, allowed, required) -> dict:
    """doc, checked to be an object with no unknown and no missing keys."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path or 'top level'}: expected an object, got {doc!r}")
    at = path + "." if path else ""
    for problem, keys in (("unknown key", doc.keys() - set(allowed)),
                          ("required key missing", set(required) - doc.keys())):
        if keys:
            raise ValueError(f"{at}{sorted(keys)[0]}: {problem}")
    return doc


def config_from_dict(doc: dict) -> tuple[BankConfig, BackgroundChain]:
    """Build a config from its JSON form; omitted optional keys take the
    dataclass defaults."""
    _fields(doc, "", ("batteries", "chain", "gamma", "initial_occupancy"),
            ("batteries", "chain"))
    batteries = []
    for i, b in enumerate(_items(doc["batteries"], "batteries")):
        path = f"batteries[{i}]"
        _fields(b, path, _BATTERY_KEYS, ("capacity", "ramp", "penalty_weight"))
        batteries.append(BatteryConfig(**{
            k: _number(v, f"{path}.{k}", _BATTERY_KEYS[k]) for k, v in b.items()}))
    extra = {}
    if "gamma" in doc:
        extra["gamma"] = _number(doc["gamma"], "gamma", float)
    if doc.get("initial_occupancy", "half") != "half":
        extra["initial_occupancy"] = _numbers(doc["initial_occupancy"],
                                              "initial_occupancy", int)
    bank = BankConfig(batteries=tuple(batteries), **extra)

    keys = ("labels", "transition", "net_gen")
    ch = _fields(doc["chain"], "chain", keys, keys)
    rows = [_numbers(row, f"chain.transition[{j}]", float)
            for j, row in enumerate(_items(ch["transition"], "chain.transition"))]
    for j, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ValueError(f"chain.transition[{j}]: expected {len(rows[0])} "
                             f"entries, got {len(row)}")
    chain = BackgroundChain(
        labels=tuple(_items(ch["labels"], "chain.labels")),
        transition=np.array(rows, dtype=float),
        net_gen=_numbers(ch["net_gen"], "chain.net_gen", int),
    )
    return bank, chain


def load_config(path) -> tuple[BankConfig, BackgroundChain]:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def config_fingerprint(bank: BankConfig, chain: BackgroundChain) -> str:
    """Stable hash of the canonicalized config; embedded in weight files and
    reports so artifacts cannot silently cross configs. hashlib is imported
    here, not at module level: it maps OpenSSL, which only weight files
    load (chain.numpy_random keeps it out of numpy.random's import)."""
    import hashlib

    canon = json.dumps(config_to_dict(bank, chain), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
