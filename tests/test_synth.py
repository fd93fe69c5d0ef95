import collections

import numpy as np
import pytest

from dershare.io import write_scenario
from dershare.model import ValidationError, validate_scenario
from dershare.synth import SynthConfig, generate_scenario


def test_same_seed_is_byte_identical(tmp_path):
    cfg = SynthConfig(n_households=10, n_days=3, n_regions=2, rng_seed=5)
    a, b = tmp_path / "a", tmp_path / "b"
    write_scenario(generate_scenario(cfg), a)
    write_scenario(generate_scenario(cfg), b)
    for f in a.iterdir():
        assert f.read_bytes() == (b / f.name).read_bytes(), f.name


def test_different_seed_differs():
    cfg = SynthConfig(n_households=4, n_days=2, rng_seed=1)
    other = SynthConfig(n_households=4, n_days=2, rng_seed=2)
    a = generate_scenario(cfg).households[0].load
    b = generate_scenario(other).households[0].load
    assert not np.array_equal(a, b)


def test_zero_households_rejected():
    with pytest.raises(ValidationError):
        generate_scenario(SynthConfig(n_households=0))


def test_config_validation_buy_sell_ordering():
    with pytest.raises(ValidationError) as exc:
        SynthConfig(offpeak_price=0.05, sell_mean=0.04, sell_amplitude=0.02).validate()
    assert exc.value.fieldname == "offpeak_price"
    with pytest.raises(ValidationError):
        SynthConfig(peak_price=0.1, offpeak_price=0.2).validate()


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValidationError) as exc:
        SynthConfig.from_dict({"n_households": 5, "voltage": 240})
    assert exc.value.fieldname == "synth.voltage"


def test_seed_must_be_nonnegative():
    with pytest.raises(ValidationError) as exc:
        SynthConfig.from_dict({"rng_seed": -1})
    assert exc.value.fieldname == "rng_seed"


def test_from_dict_checks_value_types():
    for bad in ({"n_households": "x"}, {"n_days": 2.5}, {"rng_seed": True},
                {"peak_price": "0.5"}, {"sell_mean": float("nan")},
                {"load_peak_window": [16]}, {"base_load_range": [0.3, "1.2"]},
                {"region_center": [36.8, float("inf")]}):
        with pytest.raises(ValidationError) as exc:
            SynthConfig.from_dict(bad)
        assert exc.value.fieldname == f"synth.{next(iter(bad))}"
    # an int stands for a float and a list for a tuple
    cfg = SynthConfig.from_dict({"peak_price": 1, "region_center": [36, -119.5]})
    assert cfg.peak_price == 1 and cfg.region_center == (36, -119.5)


def test_balanced_region_assignment():
    sc = generate_scenario(SynthConfig(n_households=100, n_days=2, n_regions=5, rng_seed=9))
    counts = collections.Counter(h.region_id for h in sc.households)
    assert len(counts) == 5
    for c in counts.values():
        assert 10 <= c <= 30  # within +-50% of 20


def test_generated_scenario_valid_and_positive():
    sc = generate_scenario(SynthConfig(n_households=12, n_days=5, n_regions=3, rng_seed=3))
    validate_scenario(sc)
    for hh in sc.households:
        assert np.min(hh.load) > 0.0  # strictly positive consumption everywhere
    assert np.min(sc.tariff.buy - sc.tariff.sell) >= 0.0


def test_irradiance_zero_outside_daylight():
    cfg = SynthConfig(n_households=2, n_days=4, rng_seed=8)
    sc = generate_scenario(cfg)
    lo, hi = cfg.daylight_window
    assert np.all(sc.irradiance.values[:, :lo] == 0.0)
    assert np.all(sc.irradiance.values[:, hi:] == 0.0)
    assert np.all(sc.irradiance.values[:, lo:hi] > 0.0)


def test_peak_fractions_are_heterogeneous():
    sc = generate_scenario(SynthConfig(n_households=40, n_days=4, rng_seed=21))
    lo, hi = SynthConfig().load_peak_window
    fracs = []
    for hh in sc.households:
        peak = hh.load[:, lo:hi].sum()
        fracs.append(peak / hh.load.sum())
    assert np.std(fracs) > 0.02
