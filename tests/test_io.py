import numpy as np
import pytest

from dershare.curves import PurchasesCurve, SavingsCurve
from dershare.io import (IRRADIANCE_FILE, LOADS_FILE, REGIONS_FILE, TARIFF_BUY_FILE,
                         TARIFF_SELL_FILE, Exclusion, ParseError, load_scenario,
                         read_number_columns, read_purchases_curves, read_savings_curves,
                         write_exclusions, write_purchases_curves, write_savings_curves,
                         write_scenario)
from dershare.model import EmptyScenarioError
from dershare.synth import SynthConfig, generate_scenario


@pytest.fixture()
def scenario():
    return generate_scenario(SynthConfig(n_households=6, n_days=3, n_regions=2, rng_seed=17))


def test_scenario_round_trip_is_exact(tmp_path, scenario):
    write_scenario(scenario, tmp_path)
    back = load_scenario(tmp_path, scenario.asset).scenario
    assert [h.id for h in back.households] == sorted(h.id for h in scenario.households)
    orig = scenario.household_map()
    for hh in back.households:
        np.testing.assert_array_equal(hh.load, orig[hh.id].load)
        assert hh.region_id == orig[hh.id].region_id
        assert hh.net_zero_size == pytest.approx(orig[hh.id].net_zero_size, rel=1e-12)
    np.testing.assert_array_equal(back.tariff.buy, scenario.tariff.buy)
    np.testing.assert_array_equal(back.tariff.sell, scenario.tariff.sell)
    np.testing.assert_array_equal(back.irradiance.values, scenario.irradiance.values)
    assert [(r.id, r.latitude, r.longitude) for r in back.regions] == \
        [(r.id, r.latitude, r.longitude) for r in scenario.regions]


def _edit_household(tmp_path, scenario, hid, new_load):
    """Rewrite one household's load rows in loads.csv."""
    hh_map = scenario.household_map()
    hh_map[hid].load.setflags(write=True)
    hh_map[hid].load[:] = new_load
    hh_map[hid].load.setflags(write=False)
    write_scenario(scenario, tmp_path)


def test_low_consumption_household_excluded(tmp_path, scenario):
    hid = scenario.households[0].id
    _edit_household(tmp_path, scenario, hid, 0.05)  # constant 0.05 kW
    result = load_scenario(tmp_path, scenario.asset)
    assert Exclusion(hid, "low consumption") in result.exclusions
    assert hid not in {h.id for h in result.scenario.households}


def test_zero_reading_household_excluded(tmp_path, scenario):
    hid = scenario.households[1].id
    load = scenario.household_map()[hid].load.copy()
    flat = load.ravel()
    flat[: int(0.6 * flat.size)] = 0.0  # 60% zero readings, mean still >= 0.1
    flat[int(0.6 * flat.size):] = 1.0
    _edit_household(tmp_path, scenario, hid, flat.reshape(load.shape))
    result = load_scenario(tmp_path, scenario.asset)
    assert Exclusion(hid, "zero readings") in result.exclusions


def test_retained_households_have_correct_sizes(tmp_path, scenario):
    write_scenario(scenario, tmp_path)
    result = load_scenario(tmp_path, scenario.asset)
    assert not result.exclusions
    eta_i = scenario.asset.eta_i
    total_irr = scenario.irradiance.values.sum()
    for hh in result.scenario.households:
        # hand-computed sizing identity
        assert hh.net_zero_size == pytest.approx(hh.load.sum() / (eta_i * total_irr), rel=1e-12)


def test_all_excluded_raises(tmp_path, scenario):
    for hh in scenario.households:
        hh.load.setflags(write=True)
        hh.load[:] = 0.01
        hh.load.setflags(write=False)
    write_scenario(scenario, tmp_path)
    with pytest.raises(EmptyScenarioError):
        load_scenario(tmp_path, scenario.asset)


def test_parse_error_names_file_and_line(tmp_path, scenario):
    write_scenario(scenario, tmp_path)
    path = tmp_path / LOADS_FILE
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",not_a_number"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        load_scenario(tmp_path, scenario.asset)
    assert exc.value.line == 3
    assert LOADS_FILE in exc.value.path


@pytest.mark.parametrize("name, column, raw", [
    (LOADS_FILE, -1, "inf"), (IRRADIANCE_FILE, -1, "nan"), (IRRADIANCE_FILE, 0, "nan"),
    (TARIFF_BUY_FILE, -1, "-inf"), (TARIFF_SELL_FILE, -1, "nan"), (REGIONS_FILE, -1, "nan"),
], ids=["loads", "irradiance", "irradiance-day", "tariff-buy", "tariff-sell", "regions"])
def test_non_finite_cell_names_file_and_line(tmp_path, scenario, name, column, raw):
    write_scenario(scenario, tmp_path)
    path = tmp_path / name
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[column] = raw
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"not a finite number: '{raw}'") as exc:
        load_scenario(tmp_path, scenario.asset)
    assert exc.value.line == 3
    assert exc.value.path == str(path)


def test_number_columns_keep_nan(tmp_path):
    # sweep.csv writes nan for a rate at which nothing trades
    path = tmp_path / "sweep.csv"
    path.write_text("t,clearing_price\n0.1,nan\n0.2,0.5\n")
    columns = read_number_columns(path, ["t", "clearing_price"])
    np.testing.assert_array_equal(columns["clearing_price"], [np.nan, 0.5])


def test_exclusions_csv(tmp_path):
    path = write_exclusions(tmp_path / "exclusions.csv",
                            [Exclusion("H1", "low consumption"), Exclusion("H2", "zero readings")])
    assert path.read_text().splitlines() == [
        "household_id,reason", "H1,low consumption", "H2,zero readings"]


def test_curve_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    curves = []
    purchases = []
    for i in range(4):
        knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 5))])
        slopes = np.sort(rng.uniform(10, 300, 5))[::-1]
        curves.append(SavingsCurve(f"H{i}", knots, slopes))
        purchases.append(PurchasesCurve(f"H{i}", knots, np.sort(rng.uniform(0, 100, 6))[::-1]))
    write_savings_curves(tmp_path / "s.csv", curves)
    write_purchases_curves(tmp_path / "p.csv", purchases)
    back_s = read_savings_curves(tmp_path / "s.csv")
    back_p = read_purchases_curves(tmp_path / "p.csv")
    for c in curves:
        np.testing.assert_array_equal(back_s[c.household_id].knots, c.knots)
        np.testing.assert_array_equal(back_s[c.household_id].slopes, c.slopes)
        np.testing.assert_array_equal(back_s[c.household_id].values, c.values)
    for c in purchases:
        np.testing.assert_array_equal(back_p[c.household_id].values, c.values)


def _curve_files(tmp_path):
    knots = np.array([0.0, 0.5, 1.0, 1.5])
    s = write_savings_curves(tmp_path / "s.csv", [SavingsCurve("H0", knots, [3.0, 2.0, 1.0])])
    p = write_purchases_curves(tmp_path / "p.csv",
                               [PurchasesCurve("H0", knots, [9.0, 8.0, 7.0, 6.0])])
    return s, p


def _edit_cell(path, line, column, raw):
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[column] = raw
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("line, raw", [(2, "0.5"), (4, "2.5000001"), (5, "3.5")])
def test_savings_value_must_match_knots_and_slopes(tmp_path, line, raw):
    # f at knots 0..3 is 0.0, 1.5, 2.5, 3.0; an f that disagrees is refused at its own line
    s, _ = _curve_files(tmp_path)
    _edit_cell(s, line, 3, raw)
    with pytest.raises(ParseError, match=f"household 'H0': f {raw} at knot {line - 2} "
                       "differs from") as exc:
        read_savings_curves(s)
    assert (exc.value.path, exc.value.line) == (str(s), line)


def test_savings_value_within_rounding_is_accepted(tmp_path):
    s, _ = _curve_files(tmp_path)
    _edit_cell(s, 4, 3, "2.5000000001")
    np.testing.assert_array_equal(read_savings_curves(s)["H0"].values, [0.0, 1.5, 2.5, 3.0])


@pytest.mark.parametrize("kind", ["savings", "purchases"])
def test_curve_file_without_households_is_a_parse_error(tmp_path, kind):
    s, p = _curve_files(tmp_path)
    path, read = (s, read_savings_curves) if kind == "savings" else (p, read_purchases_curves)
    path.write_text(path.read_text().splitlines(keepends=True)[0])
    with pytest.raises(ParseError, match="no households") as exc:
        read(path)
    assert (exc.value.path, exc.value.line) == (str(path), 1)


@pytest.mark.parametrize("index, line, message", [
    ("7", 4, "household 'H0': knot_index 7 outside 0..3"),
    ("1", 4, "household 'H0': duplicate knot_index 1"),
])
@pytest.mark.parametrize("kind", ["savings", "purchases"])
def test_curve_knot_indices_must_run_0_to_n(tmp_path, kind, index, line, message):
    # knot 2 edited to 7 would otherwise drop a knot, and to 1 overwrite one
    s, p = _curve_files(tmp_path)
    path, read = (s, read_savings_curves) if kind == "savings" else (p, read_purchases_curves)
    _edit_cell(path, 4, 1, index)
    with pytest.raises(ParseError, match=message) as exc:
        read(path)
    assert (exc.value.path, exc.value.line) == (str(path), line)


@pytest.mark.parametrize("kind, line, column, raw, message", [
    ("savings", 3, 4, "-5.0", "slopes must be nonincreasing"),
    ("savings", 4, 4, "-5.0", "slopes must be nonnegative"),
    ("savings", 4, 2, "0.25", "knots must be strictly ascending"),
    ("purchases", 4, 3, "10.0", "purchases must be nonincreasing"),
])
def test_curve_breaking_its_rules_is_a_parse_error(tmp_path, kind, line, column, raw, message):
    s, p = _curve_files(tmp_path)
    path, read = (s, read_savings_curves) if kind == "savings" else (p, read_purchases_curves)
    _edit_cell(path, line, column, raw)
    with pytest.raises(ParseError, match=f"household 'H0': {message}") as exc:
        read(path)
    assert (exc.value.path, exc.value.line) == (str(path), 2)
