from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import assert_same_load
from dershare.adoption import DemandCurves
from dershare.io import (IRRADIANCE_FILE, LOADS_FILE, REGIONS_FILE, SWEEP_FILE, TABLES,
                         TARIFF_BUY_FILE, TARIFF_SELL_FILE, Exclusion, ParseError, ingest,
                         load_scenario, read_purchases_curves, read_savings_curves, read_sweep,
                         write_exclusions, write_purchases_curves, write_rows,
                         write_savings_curves, write_scenario)
from dershare.model import CurveSet, ValidationError
from dershare.synth import SynthConfig, generate_scenario
from oracles import curve


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
    np.testing.assert_array_equal(back.buy, scenario.buy)
    np.testing.assert_array_equal(back.sell, scenario.sell)
    np.testing.assert_array_equal(back.irradiance, scenario.irradiance)
    assert [(r.id, r.latitude, r.longitude) for r in back.regions] == \
        [(r.id, r.latitude, r.longitude) for r in scenario.regions]


def test_scenario_files_match_per_cell_formatting(tmp_path, scenario):
    """write_scenario formats each day's hours in one pass; write_rows, which
    formats cell by cell, writes the same bytes."""
    write_scenario(scenario, tmp_path / "fast")
    hours = [f"h{h}" for h in range(24)]
    write_rows(tmp_path / "cells" / LOADS_FILE, ["household_id", "region_id", "day", *hours],
               [[hh.id, hh.region_id, d, *hh.load[d]]
                for hh in scenario.households for d in range(len(hh.load))])
    for name, mat in ((IRRADIANCE_FILE, scenario.irradiance),
                      (TARIFF_BUY_FILE, scenario.buy),
                      (TARIFF_SELL_FILE, scenario.sell)):
        write_rows(tmp_path / "cells" / name, ["day", *hours],
                   [[d, *mat[d]] for d in range(mat.shape[0])])
    for name in (LOADS_FILE, IRRADIANCE_FILE, TARIFF_BUY_FILE, TARIFF_SELL_FILE):
        assert (tmp_path / "fast" / name).read_bytes() == (tmp_path / "cells" / name).read_bytes()


def _ingest(scenario):
    return ingest({hh.id: (hh.region_id, hh.load) for hh in scenario.households},
                  scenario.buy, scenario.sell, scenario.irradiance, scenario.regions,
                  scenario.asset)


@pytest.mark.parametrize("config", [
    SynthConfig(n_households=12, n_days=4, n_regions=3, rng_seed=19),
    # low loads: the meter filter drops some households
    SynthConfig(n_households=12, n_days=4, n_regions=3, rng_seed=23,
                base_load_range=(0.02, 0.2)),
], ids=["all-kept", "some-excluded"])
def test_ingest_of_generated_scenario_equals_load_of_its_files(tmp_path, config):
    scenario = generate_scenario(config)
    write_scenario(scenario, tmp_path)
    got, want = _ingest(scenario), load_scenario(tmp_path, scenario.asset)
    assert_same_load(got, want)
    assert bool(got.exclusions) == (config.base_load_range[0] < 0.1)


def test_ingest_takes_households_in_sorted_id_order(scenario):
    shuffled = replace(scenario, households=scenario.households[::-1])
    assert_same_load(_ingest(shuffled), _ingest(scenario))
    assert [h.id for h in _ingest(shuffled).scenario.households] == \
        sorted(h.id for h in scenario.households)


def test_ids_that_need_quoting_write_like_csv_writer_and_round_trip(tmp_path, scenario):
    # a comma, a quote and a line break in ids: csv.writer quotes each field
    names = {"R0": 'R,"0"', "R1": "R\n1"}
    regions = tuple(replace(r, id=names[r.id]) for r in scenario.regions)
    households = tuple(replace(hh, id=f'{hh.id},"x"' if k % 2 else hh.id,
                               region_id=names[hh.region_id])
                       for k, hh in enumerate(scenario.households))
    quoted = replace(scenario, households=households, regions=regions)
    write_scenario(quoted, tmp_path / "lines")
    hours = [f"h{h}" for h in range(24)]
    write_rows(tmp_path / "cells" / LOADS_FILE, ["household_id", "region_id", "day", *hours],
               [[hh.id, hh.region_id, d, *hh.load[d]]
                for hh in households for d in range(len(hh.load))])
    assert (tmp_path / "lines" / LOADS_FILE).read_bytes() == \
        (tmp_path / "cells" / LOADS_FILE).read_bytes()
    assert_same_load(load_scenario(tmp_path / "lines", scenario.asset), _ingest(quoted))


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
    total_irr = scenario.irradiance.sum()
    for hh in result.scenario.households:
        # hand-computed sizing identity
        assert hh.net_zero_size == pytest.approx(hh.load.sum() / (eta_i * total_irr), rel=1e-12)


def test_all_excluded_raises(tmp_path, scenario):
    for i, hh in enumerate(scenario.households):
        hh.load.setflags(write=True)
        if i == 0:  # mean 5/24 kW, but zero in 23 of 24 hours
            hh.load[:] = 0.0
            hh.load[:, 12] = 5.0
        else:
            hh.load[:] = 0.01
        hh.load.setflags(write=False)
    write_scenario(scenario, tmp_path)
    with pytest.raises(ValidationError) as exc:
        load_scenario(tmp_path, scenario.asset)
    assert str(exc.value) == ("scenario: field 'households': all households were excluded "
                              f"at ingestion: {len(scenario.households) - 1} low consumption "
                              "(mean load below 0.1 kW), 1 zero readings (more than half of "
                              "the readings exactly zero)")


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


@pytest.mark.parametrize("name, first", [(LOADS_FILE, 3), (IRRADIANCE_FILE, 1),
                                         (TARIFF_SELL_FILE, 1)])
@pytest.mark.parametrize("cells, message", [
    ({0: "inf", 5: "abc"}, "field 'h0': not a finite number: 'inf'"),
    ({0: "abc", 5: "inf"}, "field 'h0': not a number: 'abc'"),
    ({7: "nan", 23: "x"}, "field 'h7': not a finite number: 'nan'"),
], ids=["inf-first", "text-first", "nan-first"])
def test_bad_hour_cell_is_named_in_field_order(tmp_path, scenario, name, first, cells,
                                               message):
    """A row's hours are parsed in one pass; the first bad field, in column
    order, is the one a ParseError names."""
    write_scenario(scenario, tmp_path)
    path = tmp_path / name
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    for hour, raw in cells.items():
        row[first + hour] = raw
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        load_scenario(tmp_path, scenario.asset)
    assert str(exc.value) == f"{path}:3: {message}"


def test_number_columns_keep_nan(tmp_path):
    # sweep.csv writes nan for a rate at which nothing trades
    header = list(TABLES[SWEEP_FILE].columns)
    rows = [[0.1, 0, 0.0, np.nan, np.nan] + [0.0] * 8, [0.2, 3, 1.5, 2.0, 0.5] + [1.0] * 8]
    columns = read_sweep(write_rows(tmp_path / SWEEP_FILE, header, rows))
    assert list(columns) == header
    np.testing.assert_array_equal(columns["clearing_price"], [np.nan, 0.5])
    np.testing.assert_array_equal(columns["short_run_price"], [np.nan, 2.0])
    assert columns["owners"].dtype == np.asarray([0]).dtype and columns["owners"].tolist() == [0, 3]


def test_sweep_table_is_the_demand_curves_fields():
    # the sweep stage writes, and equilibrium_summary.csv selects, columns by field name
    assert list(TABLES[SWEEP_FILE].columns) == [f.name for f in fields(DemandCurves)]


def test_write_rows_spells_bools_true_and_false(tmp_path):
    path = write_rows(tmp_path / "flags.csv", ["a", "b", "c", "d"],
                      [[True, np.False_, 1, 0.5], [False, np.True_, np.int64(2), np.float64(1)]])
    assert path.read_bytes() == b"a,b,c,d\r\ntrue,false,1,0.5\r\nfalse,true,2,1.0\r\n"


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
        curves.append(curve(f"H{i}", knots, slopes))
        purchases.append(curve(f"H{i}", knots, np.sort(rng.uniform(0, 100, 6))[::-1], False))
    write_savings_curves(tmp_path / "s.csv", curves)
    write_purchases_curves(tmp_path / "p.csv", purchases)
    for back, written in ((read_savings_curves(tmp_path / "s.csv"), CurveSet.of(curves)),
                          (read_purchases_curves(tmp_path / "p.csv"), CurveSet.of(purchases))):
        assert back.ids == written.ids
        for name in ("offsets", "knots", "slopes", "knot_values"):
            np.testing.assert_array_equal(getattr(back, name), getattr(written, name))


def _curve_files(tmp_path):
    knots = np.array([0.0, 0.5, 1.0, 1.5])
    s = write_savings_curves(tmp_path / "s.csv", [curve("H0", knots, [3.0, 2.0, 1.0])])
    p = write_purchases_curves(tmp_path / "p.csv",
                               [curve("H0", knots, [9.0, 8.0, 7.0, 6.0], False)])
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


def test_savings_refusal_names_the_first_bad_household_in_id_order(tmp_path):
    # H0's f is off and H1's slopes rise: a household at a time, H0 is refused first
    knots = np.array([0.0, 0.5, 1.0, 1.5])
    s = write_savings_curves(tmp_path / "s.csv", [curve(hid, knots, [3.0, 2.0, 1.0])
                                                  for hid in ("H0", "H1")])
    _edit_cell(s, 4, 3, "2.75")
    _edit_cell(s, 7, 4, "9.0")
    with pytest.raises(ParseError, match="household 'H0': f 2.75 at knot 2 differs") as exc:
        read_savings_curves(s)
    assert exc.value.line == 4
    _edit_cell(s, 4, 3, "2.5")
    with pytest.raises(ParseError, match="household 'H1': slopes must be nonincreasing") as exc:
        read_savings_curves(s)
    assert exc.value.line == 6


def test_savings_value_within_rounding_is_accepted(tmp_path):
    s, _ = _curve_files(tmp_path)
    _edit_cell(s, 4, 3, "2.5000000001")
    np.testing.assert_array_equal(read_savings_curves(s).knot_values, [0.0, 1.5, 2.5, 3.0])


@pytest.mark.parametrize("kind", ["savings", "purchases"])
def test_curve_file_without_households_is_a_parse_error(tmp_path, kind):
    s, p = _curve_files(tmp_path)
    path, read = (s, read_savings_curves) if kind == "savings" else (p, read_purchases_curves)
    path.write_text(path.read_text().splitlines(keepends=True)[0])
    with pytest.raises(ParseError, match="no households") as exc:
        read(path)
    assert (exc.value.path, exc.value.line) == (str(path), 1)


def test_missing_curve_file_is_a_parse_error_at_line_0(tmp_path):
    path = tmp_path / "savings_curves.csv"
    with pytest.raises(ParseError) as exc:
        read_savings_curves(path)
    assert str(exc.value) == f"{path}:0: file not found"


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
