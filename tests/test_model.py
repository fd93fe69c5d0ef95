import numpy as np
import pytest

from dershare.model import (AssetSpec, DomainError, HouseholdRecord, Region, Scenario,
                            ValidationError, compute_net_zero_size, validate_scenario)


def test_net_zero_size_trivial_ratio():
    # load totaling 3650 kWh against 1825 kWh/kW of irradiance at unit
    # inverter efficiency sizes to exactly 2 kW
    load = np.full((365, 24), 3650.0 / (365 * 24))
    irr = np.full((365, 24), 1825.0 / (365 * 24))
    assert compute_net_zero_size(load, irr, 1.0) == pytest.approx(2.0, rel=1e-12)


def test_net_zero_size_zero_load_gives_zero():
    load = np.zeros((2, 24))
    irr = np.ones((2, 24))
    assert compute_net_zero_size(load, irr, 0.96) == 0.0


def test_net_zero_size_identity_randomized():
    rng = np.random.default_rng(3)
    for _ in range(20):
        load = rng.uniform(0, 2, (5, 24))
        irr = rng.uniform(0, 1, (5, 24))
        eta_i = rng.uniform(0.8, 1.0)
        y = compute_net_zero_size(load, irr, eta_i)
        assert eta_i * y * irr.sum() == pytest.approx(load.sum(), rel=1e-9)


def test_net_zero_size_rejects_zero_irradiance():
    with pytest.raises(DomainError):
        compute_net_zero_size(np.ones((1, 24)), np.zeros((1, 24)), 1.0)


@pytest.mark.parametrize("field,value", [
    ("eta_c", 0.0), ("eta_c", 1.2), ("eta_d", -0.1), ("eta_s", 0.0), ("eta_i", 1.5),
    ("alpha", 0.0), ("alpha", -1.0), ("u_charge_max", 0.0), ("u_discharge_max", -2.0),
    ("x0", -0.1), ("x0", 1.5), ("alpha", float("nan")), ("u_charge_max", float("inf")),
    ("u_discharge_max", float("nan")),
])
def test_asset_spec_invariants(field, value):
    with pytest.raises(ValidationError) as exc:
        AssetSpec(**{field: value})
    assert exc.value.fieldname == field


def _tiny_scenario(**overrides):
    irr = np.tile(np.r_[np.zeros(8), np.ones(8), np.zeros(8)], (2, 1))
    load = np.full((2, 24), 0.5)
    asset = AssetSpec()
    hh = HouseholdRecord("A", "R0", load, compute_net_zero_size(load, irr, asset.eta_i))
    parts = dict(
        households=(hh,),
        buy=np.full((2, 24), 0.3),
        sell=np.full((2, 24), 0.05),
        irradiance=irr,
        asset=asset,
        regions=(Region("R0", 36.0, -120.0),),
    )
    parts.update(overrides)
    return Scenario(**parts)


def test_validate_scenario_accepts_wellformed():
    validate_scenario(_tiny_scenario())


def test_validate_scenario_names_offender():
    sc = _tiny_scenario()
    bad = HouseholdRecord("B", "R9", sc.households[0].load, sc.households[0].net_zero_size)
    with pytest.raises(ValidationError) as exc:
        validate_scenario(_tiny_scenario(households=(sc.households[0], bad)))
    assert exc.value.entity == "household B"
    assert exc.value.fieldname == "region_id"


def test_validate_scenario_rejects_arbitrage_tariff():
    # constructor only checks shape; the value check is the validation pass
    with pytest.raises(ValidationError) as exc:
        validate_scenario(_tiny_scenario(buy=np.full((2, 24), 0.04)))
    assert exc.value.fieldname == "sell"


def test_validate_scenario_rejects_inconsistent_sizing():
    sc = _tiny_scenario()
    hh = sc.households[0]
    wrong = HouseholdRecord(hh.id, hh.region_id, hh.load, hh.net_zero_size * 1.01)
    with pytest.raises(ValidationError) as exc:
        validate_scenario(_tiny_scenario(households=(wrong,)))
    assert exc.value.fieldname == "net_zero_size"


@pytest.mark.parametrize("case,error,message", [
    ("irradiance days", ValidationError, "irradiance: field 'values': 3 days, tariff has 2"),
    ("no households", ValidationError,
     "scenario: field 'households': scenario contains no households"),
    ("duplicate id", ValidationError, "household A: field 'id': duplicate household id"),
    ("load days", ValidationError, "household A: field 'load': 3 days, tariff has 2"),
    ("zero size", ValidationError, "household A: field 'net_zero_size': must be > 0, got 0.0"),
])
def test_validate_scenario_refusals(case, error, message):
    sc = _tiny_scenario()
    hh = sc.households[0]
    overrides = {
        "irradiance days": {"irradiance": np.tile(sc.irradiance[:1], (3, 1))},
        "no households": {"households": ()},
        "duplicate id": {"households": (hh, hh)},
        "load days": {"households": (HouseholdRecord("A", "R0", np.full((3, 24), 0.5),
                                                     hh.net_zero_size),)},
        "zero size": {"households": (HouseholdRecord("A", "R0", hh.load, 0.0),)},
    }[case]
    with pytest.raises(error) as exc:
        validate_scenario(_tiny_scenario(**overrides))
    assert type(exc.value) is error and str(exc.value) == message


def test_validate_scenario_rejects_negative_load():
    sc = _tiny_scenario()
    load = sc.households[0].load.copy()
    load[1, 3] = -0.1
    hh = HouseholdRecord("A", "R0", load, sc.households[0].net_zero_size)
    with pytest.raises(ValidationError) as exc:
        validate_scenario(_tiny_scenario(households=(hh,)))
    assert "day 1 hour 3" in str(exc.value)


def test_validate_scenario_rejects_nan():
    sc = _tiny_scenario()
    sell = np.full((2, 24), 0.05)
    sell[1, 5] = np.nan
    with pytest.raises(ValidationError, match="NaN") as exc:
        validate_scenario(_tiny_scenario(sell=sell))
    assert exc.value.fieldname == "sell"
    irr = sc.irradiance.copy()
    irr[0, 0] = np.nan
    with pytest.raises(ValidationError, match="NaN") as exc:
        validate_scenario(_tiny_scenario(irradiance=irr))
    assert exc.value.entity == "irradiance"
    load = sc.households[0].load.copy()
    load[1, 3] = np.nan
    hh = HouseholdRecord("A", "R0", load, sc.households[0].net_zero_size)
    with pytest.raises(ValidationError) as exc:
        validate_scenario(_tiny_scenario(households=(hh,)))
    assert "NaN entry on day 1 hour 3" in str(exc.value)


def test_records_are_immutable():
    sc = _tiny_scenario()
    with pytest.raises(Exception):
        sc.households[0].load[0, 0] = 99.0
    for matrix in (sc.buy, sc.sell, sc.irradiance):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 0.0


@pytest.mark.parametrize("name, shape, expected", [
    ("buy", (2, 23), "tariff.buy: field 'shape': expected (days, 24), got (2, 23)"),
    ("sell", (2, 23), "tariff.sell: field 'shape': expected (days, 24), got (2, 23)"),
    ("irradiance", (2, 23), "irradiance: field 'shape': expected (days, 24), got (2, 23)"),
    ("sell", (3, 24), "tariff: field 'sell': buy and sell shapes differ"),
])
def test_scenario_refuses_a_matrix_of_the_wrong_shape(name, shape, expected):
    with pytest.raises(ValidationError) as exc:
        _tiny_scenario(**{name: np.zeros(shape)})
    assert str(exc.value) == expected
