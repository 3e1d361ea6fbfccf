import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from battbank.core import (BankConfig, BatteryConfig, BackgroundChain,
                           _is_irreducible, clip, config_fingerprint,
                           config_from_dict, config_to_dict, load_config,
                           validate_config)

from conftest import make_bank, make_chain
from test_model import instances


@st.composite
def digraphs(draw):
    """Random adjacency of 1-11 states, self-loops included."""
    n = draw(st.integers(1, 11))
    return np.array(draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                  min_size=n, max_size=n)))


@st.composite
def one_way_chains(draw):
    """The path 0 -> 1 -> ... -> n-1 with random forward shortcuts and
    self-loops: state 0 reaches every state, but no other state reaches
    state 0; transposed, the other way round."""
    n = draw(st.integers(2, 11))
    extra = np.array(draw(st.lists(st.booleans(), min_size=n * n,
                                   max_size=n * n))).reshape(n, n)
    adj = np.triu(extra) | np.eye(n, k=1, dtype=bool)
    return adj.T if draw(st.booleans()) else adj


class TestClip:
    def test_upper_clamp(self):
        assert clip(5, -3, 3) == 3

    def test_lower_clamp(self):
        assert clip(-7, -3, 3) == -3

    def test_identity(self):
        assert clip(1, -3, 3) == 1

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            clip(0, 2, 1)

    def test_idempotent_and_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(-20, 10))
            M = m + int(rng.integers(0, 30))
            y = int(rng.integers(-40, 40))
            c = clip(y, m, M)
            assert m <= c <= M
            assert clip(c, m, M) == c
            if m <= y <= M:
                assert c == y


class TestValidateConfig:
    def test_valid_config_passes(self, toy_bank, toy_chain):
        report = validate_config(toy_bank, toy_chain)
        assert report.passed
        assert str(report) == "config OK"

    def test_bad_row_sum_named(self, toy_bank):
        P = np.array([
            [0.0, 0.5, 0.3, 0.2],
            [0.4, 0.0, 0.1, 0.4],   # sums to 0.9
            [0.3, 0.2, 0.0, 0.5],
            [0.3, 0.3, 0.4, 0.0],
        ])
        chain = BackgroundChain(labels=(-4, -1, 1, 5), transition=P,
                                net_gen=(-4, -1, 1, 5))
        report = validate_config(toy_bank, chain)
        assert not report.passed
        assert any("transition[1]" in v for v in report.violations)

    def test_threshold_ordering_violation(self, toy_chain):
        bank = make_bank()
        bad = dataclasses.replace(
            bank,
            batteries=(dataclasses.replace(bank.batteries[0],
                                           lower_frac=0.8, upper_frac=0.2),
                       bank.batteries[1]))
        report = validate_config(bad, toy_chain)
        assert not report.passed
        assert any("lower_frac" in v for v in report.violations)

    def test_negative_transition_entry(self, toy_bank):
        P = np.array([[1.2, -0.2], [0.5, 0.5]])
        chain = BackgroundChain(labels=(0, 1), transition=P, net_gen=(1, -1))
        report = validate_config(toy_bank, chain)
        assert any("negative" in v for v in report.violations)

    def test_reducible_chain_rejected(self, toy_bank):
        P = np.array([[1.0, 0.0], [0.0, 1.0]])
        chain = BackgroundChain(labels=(0, 1), transition=P, net_gen=(1, -1))
        report = validate_config(toy_bank, chain)
        assert any("irreducible" in v for v in report.violations)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(digraphs(), one_way_chains(),
                     instances().map(lambda inst: inst[1].transition),
                     st.just(np.zeros((0, 0)))))
    def test_irreducible_iff_one_strong_component(self, P):
        n_comp, _ = connected_components(csr_matrix(P > 0), directed=True,
                                         connection="strong")
        assert _is_irreducible(P) == (n_comp == 1)

    def test_gamma_out_of_range(self, toy_chain):
        for g in (0.0, 1.0, 1.3, -0.1):
            report = validate_config(make_bank(gamma=g), toy_chain)
            assert any("gamma" in v for v in report.violations)

    def test_initial_occupancy_bounds(self, toy_chain):
        report = validate_config(make_bank(occupancy=(1, 7)), toy_chain)
        assert any("initial_occupancy[1]" in v for v in report.violations)
        report = validate_config(make_bank(occupancy=(1, 2)), toy_chain)
        assert report.passed

    def test_nan_transition_row_named(self, toy_bank):
        # the row sum of a NaN row compares False against the tolerance
        P = np.array(make_chain().transition)
        P[0] = [0.0, 0.5, np.nan, 0.5]
        chain = BackgroundChain(labels=(-4, -1, 1, 5), transition=P,
                                net_gen=(-4, -1, 1, 5))
        report = validate_config(toy_bank, chain)
        assert report.violations == ["chain.transition[0]: entries must be finite"]

    @pytest.mark.parametrize("weight", [np.inf, np.nan])
    def test_non_finite_penalty_weight_named(self, toy_chain, weight):
        bank = make_bank(weights=(weight, 1.0))
        report = validate_config(bank, toy_chain)
        assert len(report.violations) == 1
        assert report.violations[0].startswith("batteries[0].penalty_weight:")

    def test_bad_battery_fields(self, toy_chain):
        bank = make_bank(capacities=(0, 3))
        assert any("capacity" in v
                   for v in validate_config(bank, toy_chain).violations)
        bank = make_bank(dissipation=(1.0, 1.5))
        assert any("dissipation" in v
                   for v in validate_config(bank, toy_chain).violations)

    @pytest.mark.parametrize("bank, field", [
        (make_bank(capacities=(2.5, 3)), "batteries[0].capacity"),
        (make_bank(capacities=(2, True)), "batteries[1].capacity"),
        (make_bank(ramps=(25, 2.5)), "batteries[1].ramp"),
        (make_bank(ramps=(True, 25)), "batteries[0].ramp"),
        (make_bank(occupancy=(1.5, 1)), "initial_occupancy[0]"),
        (make_bank(occupancy=(1, True)), "initial_occupancy[1]"),
    ], ids=["float-capacity", "bool-capacity", "float-ramp", "bool-ramp",
            "float-occupancy", "bool-occupancy"])
    def test_non_integer_count_named(self, bank, field, toy_chain):
        # a BankConfig built in code skips JSON ingestion's type checks
        report = validate_config(bank, toy_chain)
        assert len(report.violations) == 1
        assert report.violations[0].startswith(
            f"{field}: expected an integer, got ")

    def test_non_integer_net_gen_named(self):
        # a chain built in code keeps what it was given rather than
        # truncating it, so the report can name it
        chain = BackgroundChain(labels=("a", "b"),
                                transition=[[0.5, 0.5], [0.5, 0.5]],
                                net_gen=(1.7, True))
        assert chain.net_gen == (1.7, True)
        report = validate_config(make_bank(), chain)
        assert report.violations == [
            "chain.net_gen[0]: expected an integer, got 1.7",
            "chain.net_gen[1]: expected an integer, got True"]


class TestStartOccupancy:
    def test_half_sentinel_floors(self):
        assert make_bank(capacities=(2, 3)).start_occupancy() == (1, 1)
        assert make_bank(capacities=(10, 15)).start_occupancy() == (5, 7)

    def test_explicit_vector_passthrough(self):
        assert make_bank(occupancy=(0, 3)).start_occupancy() == (0, 3)


class TestConfigSerialization:
    def test_round_trip(self, toy_bank, toy_chain):
        doc = config_to_dict(toy_bank, toy_chain)
        bank2, chain2 = config_from_dict(json.loads(json.dumps(doc)))
        assert bank2 == toy_bank
        assert chain2.labels == toy_chain.labels
        assert chain2.net_gen == toy_chain.net_gen
        np.testing.assert_array_equal(chain2.transition, toy_chain.transition)

    def test_shipped_config_loads_and_validates(self):
        import pathlib
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "toy_bank.json"
        bank, chain = load_config(cfg)
        assert validate_config(bank, chain).passed
        assert bank.capacities == (2, 3)
        assert chain.labels == (-4, -1, 1, 5)

    def test_fingerprint_stable_and_sensitive(self, toy_bank, toy_chain):
        fp1 = config_fingerprint(toy_bank, toy_chain)
        fp2 = config_fingerprint(make_bank(), make_chain())
        assert fp1 == fp2
        assert len(fp1) == 16
        other = dataclasses.replace(toy_bank, gamma=0.5)
        assert config_fingerprint(other, toy_chain) != fp1

    def test_numpy_integer_labels_fingerprinted(self):
        # labels given as a numpy array used to pass validate_config, then
        # fail json in config_fingerprint (int64 is not JSON serializable)
        import pathlib
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "toy_bank.json"
        bank, chain = load_config(cfg)
        built = BackgroundChain(labels=np.array(chain.labels),
                                transition=chain.transition,
                                net_gen=np.array(chain.net_gen))
        assert validate_config(bank, built).passed
        # the shipped config's fingerprint, which weight files embed
        assert config_fingerprint(bank, built) == "430123282c58b9e5"
        assert [type(v) for v in built.labels] == [int] * 4


def _edited(edit):
    doc = json.loads(json.dumps(config_to_dict(make_bank(), make_chain())))
    edit(doc)
    return doc


class TestStrictIngestion:
    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["batteries"][0].update(capacity=2.7),
         "batteries[0].capacity: expected an integer, got 2.7"),
        (lambda d: d["batteries"][1].update(ramp=True),
         "batteries[1].ramp: expected an integer, got True"),
        (lambda d: d["chain"]["net_gen"].__setitem__(0, -4.6),
         "chain.net_gen[0]: expected an integer, got -4.6"),
        (lambda d: d.update(initial_occupancy=[1.9, 2]),
         "initial_occupancy[0]: expected an integer, got 1.9"),
        (lambda d: d.update(initial_occupancy="full"),
         "initial_occupancy: expected a list, got 'full'"),
        (lambda d: d.update(gamma=True), "gamma: expected a number, got True"),
        (lambda d: d["batteries"][0].update(penalty_weight="1"),
         "batteries[0].penalty_weight: expected a number, got '1'"),
        (lambda d: d["chain"]["transition"][2].__setitem__(1, None),
         "chain.transition[2][1]: expected a number, got None"),
        (lambda d: d["chain"]["transition"].__setitem__(1, [1.0]),
         "chain.transition[1]: expected 4 entries, got 1"),
    ])
    def test_wrong_type_named(self, edit, message):
        with pytest.raises(ValueError) as exc:
            config_from_dict(_edited(edit))
        assert str(exc.value) == message

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["batteries"][0].update(dissipaton=0.5),
         "batteries[0].dissipaton: unknown key"),
        (lambda d: d["chain"].update(weights=[1, 1, 1, 1]),
         "chain.weights: unknown key"),
        (lambda d: d.update(gama=0.5), "gama: unknown key"),
        (lambda d: d["batteries"][1].pop("penalty_weight"),
         "batteries[1].penalty_weight: required key missing"),
        (lambda d: d["chain"].pop("net_gen"), "chain.net_gen: required key missing"),
        (lambda d: d.pop("batteries"), "batteries: required key missing"),
    ])
    def test_unknown_and_missing_keys_named(self, edit, message):
        with pytest.raises(ValueError) as exc:
            config_from_dict(_edited(edit))
        assert str(exc.value) == message

    def test_optional_keys_take_dataclass_defaults(self):
        def strip(d):
            for bat in d["batteries"]:
                for key in ("dissipation", "lower_frac", "upper_frac"):
                    del bat[key]
            del d["gamma"], d["initial_occupancy"]
        bank, _ = config_from_dict(_edited(strip))
        assert bank == BankConfig(batteries=tuple(
            BatteryConfig(capacity=bat.capacity, ramp=bat.ramp,
                          penalty_weight=bat.penalty_weight)
            for bat in make_bank().batteries))

    def test_integral_reals_accepted(self):
        # a real field takes a JSON integer; an integer field keeps int type
        bank, _ = config_from_dict(_edited(
            lambda d: d["batteries"][0].update(penalty_weight=2, dissipation=1)))
        assert bank.batteries[0].penalty_weight == 2.0
        assert type(bank.batteries[0].penalty_weight) is float
        assert type(bank.batteries[0].capacity) is int


def test_chain_transition_is_frozen(toy_chain):
    with pytest.raises(ValueError):
        toy_chain.transition[0, 0] = 0.5
