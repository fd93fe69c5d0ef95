"""CSV serialization for scenarios, exclusions, and fitted curves.

File schemas (all CSV with a header row, floats written with repr so a
read-back reproduces the exact same values; a reader refuses nan and inf
everywhere but in read_number_columns):

  loads.csv        household_id, region_id, day, h0..h23   (kWh)
  irradiance.csv   day, h0..h23                            (kWh per kW)
  tariff_buy.csv   day, h0..h23                            ($/kWh)
  tariff_sell.csv  day, h0..h23                            ($/kWh)
  regions.csv      region_id, lat, lon
  exclusions.csv   household_id, reason
  savings_curves.csv    household_id, knot_index, y, f, slope
                        (slope of the segment starting at the knot;
                         empty on the last knot; f must agree with the
                         knots and slopes to 1e-9 relative)
  purchases_curves.csv  household_id, knot_index, y, purchases

Files are written atomically (temp file + rename) so a crashed run never
leaves a truncated CSV behind.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import (
    HOURS,
    AssetSpec,
    EmptyScenarioError,
    HouseholdRecord,
    IrradianceSeries,
    PurchasesCurve,
    Region,
    SavingsCurve,
    Scenario,
    TariffSet,
    compute_net_zero_size,
)

LOW_CONSUMPTION_MEAN_KW = 0.1
ZERO_READING_FRACTION = 0.5

LOADS_FILE = "loads.csv"
IRRADIANCE_FILE = "irradiance.csv"
TARIFF_BUY_FILE = "tariff_buy.csv"
TARIFF_SELL_FILE = "tariff_sell.csv"
REGIONS_FILE = "regions.csv"
EXCLUSIONS_FILE = "exclusions.csv"

_HOUR_COLS = [f"h{h}" for h in range(HOURS)]


class ParseError(ValueError):
    """An input file violates its format; names the file and 1-based line."""

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


@dataclass(frozen=True)
class Exclusion:
    household_id: str
    reason: str  # "low consumption" or "zero readings"


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


@contextmanager
def _atomic_open(path: Path):
    """A text file to write CSV into, renamed onto path once it is closed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        yield fh
    os.replace(tmp, path)


def _write_text_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> Path:
    """Atomically write one CSV file of rows already formatted as text."""
    with _atomic_open(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return Path(path)


def write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Atomically write one CSV file."""
    return _write_text_rows(path, header, ([_fmt(v) for v in row] for row in rows))


def _write_hourly(path: Path, key_header: Sequence[str],
                  blocks: Iterable[tuple[Sequence[str], np.ndarray]]) -> Path:
    """Atomically write one hourly CSV: for each (key, matrix) block, one
    line per day of the matrix, `key,day,h0..h23`.

    Each line is one string, byte for byte what csv.writer writes for the
    row with every value formatted by _fmt: the key is quoted by csv.writer
    once per block, the day and the hours never need quoting, and repr of
    each value of tolist() is repr(float(v)) of its numpy value v. Lines
    are written as they are made: a list of them all holds ~2 MB of
    strings at 60 households x 30 days.
    """
    with _atomic_open(path) as fh:
        w = csv.writer(fh)
        w.writerow([*key_header, "day", *_HOUR_COLS])
        for key, mat in blocks:
            prefix = ""
            if key:
                # csv.writer's own line, its "\r\n" (whose characters it quotes) cut off
                buf = StringIO()
                csv.writer(buf).writerow(key)
                prefix = buf.getvalue()[:-2] + ","
            fh.writelines(f"{prefix}{d},{','.join(map(repr, hours))}\r\n"
                          for d, hours in enumerate(mat.tolist()))
    return Path(path)


def write_scenario(scenario: Scenario, out_dir: Path) -> list[Path]:
    """Write the five scenario CSVs; returns the written paths."""
    out_dir = Path(out_dir)
    written = [_write_hourly(out_dir / LOADS_FILE, ["household_id", "region_id"],
                             (([hh.id, hh.region_id], hh.load) for hh in scenario.households))]
    for name, mat in ((IRRADIANCE_FILE, scenario.irradiance.values),
                      (TARIFF_BUY_FILE, scenario.tariff.buy),
                      (TARIFF_SELL_FILE, scenario.tariff.sell)):
        written.append(_write_hourly(out_dir / name, [], [([], mat)]))
    written.append(write_rows(out_dir / REGIONS_FILE, ["region_id", "lat", "lon"],
                              [[r.id, r.latitude, r.longitude] for r in scenario.regions]))
    return written


def write_exclusions(path: Path, exclusions: Sequence[Exclusion]) -> Path:
    return write_rows(path, ["household_id", "reason"],
                      [[e.household_id, e.reason] for e in exclusions])


def _read_csv(path: Path, expected_header: Sequence[str]):
    path = Path(path)
    if not path.exists():
        raise ParseError(path, 0, "file not found")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(path, 1, "empty file") from None
        if header != list(expected_header):
            raise ParseError(path, 1, f"expected header {list(expected_header)}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise ParseError(path, lineno, f"expected {len(expected_header)} fields, got {len(row)}")
            yield lineno, row


def _parse_float(path, lineno, name, raw, finite: bool = True) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(path, lineno, f"field '{name}': not a number: {raw!r}") from None
    if finite and not math.isfinite(value):
        raise ParseError(path, lineno, f"field '{name}': not a finite number: {raw!r}")
    return value


def _parse_hours(path, lineno, raws: Sequence[str]) -> list[float]:
    """The fields h0..h23 as finite floats, parsed in one pass; a bad field
    is named by _parse_float, as if each were parsed on its own."""
    try:
        values = list(map(float, raws))
    except ValueError:
        values = None
    if values is None or not all(map(math.isfinite, values)):
        for name, raw in zip(_HOUR_COLS, raws):
            _parse_float(path, lineno, name, raw)
    return values


def read_number_columns(path: Path, header: Sequence[str],
                        int_columns: Sequence[str] = ()) -> dict[str, np.ndarray]:
    """A CSV of numbers (nan and inf allowed) with this header, one array per column."""
    rows = [[_parse_float(path, lineno, name, raw, finite=False) for name, raw in zip(header, row)]
            for lineno, row in _read_csv(path, header)]
    columns = np.array(rows, dtype=float).reshape(len(rows), len(header)).T
    return {name: col.astype(int) if name in int_columns else col
            for name, col in zip(header, columns)}


def _read_day_matrix(path: Path) -> np.ndarray:
    rows = {}
    for lineno, row in _read_csv(path, ["day", *_HOUR_COLS]):
        day = int(_parse_float(path, lineno, "day", row[0]))
        if day in rows:
            raise ParseError(path, lineno, f"duplicate day {day}")
        rows[day] = _parse_hours(path, lineno, row[1:])
    if not rows:
        raise ParseError(path, 2, "no data rows")
    days = sorted(rows)
    if days != list(range(len(days))):
        raise ParseError(path, 2, f"days must be 0..{len(days) - 1} with no gaps")
    return np.array([rows[d] for d in days], dtype=float)


@dataclass(frozen=True)
class LoadResult:
    scenario: Scenario
    exclusions: tuple[Exclusion, ...]


def load_scenario(data_dir: Path, asset: AssetSpec | None = None) -> LoadResult:
    """Parse a scenario directory and ingest it (see ingest).

    Raises ParseError on schema violations and EmptyScenarioError when
    nothing survives the meter filters.
    """
    data_dir = Path(data_dir)
    irradiance = IrradianceSeries(_read_day_matrix(data_dir / IRRADIANCE_FILE))
    buy = _read_day_matrix(data_dir / TARIFF_BUY_FILE)
    sell = _read_day_matrix(data_dir / TARIFF_SELL_FILE)
    tariff = TariffSet(buy, sell)

    regions = []
    seen_regions = set()
    rpath = data_dir / REGIONS_FILE
    for lineno, row in _read_csv(rpath, ["region_id", "lat", "lon"]):
        rid = row[0]
        if rid in seen_regions:
            raise ParseError(rpath, lineno, f"duplicate region_id {rid!r}")
        seen_regions.add(rid)
        regions.append(Region(rid, _parse_float(rpath, lineno, "lat", row[1]),
                              _parse_float(rpath, lineno, "lon", row[2])))

    lpath = data_dir / LOADS_FILE
    n_days = tariff.n_days
    by_household: dict[str, tuple[str, dict[int, list[float]]]] = {}
    for lineno, row in _read_csv(lpath, ["household_id", "region_id", "day", *_HOUR_COLS]):
        hid, rid = row[0], row[1]
        day = int(_parse_float(lpath, lineno, "day", row[2]))
        if not (0 <= day < n_days):
            raise ParseError(lpath, lineno, f"day {day} outside 0..{n_days - 1}")
        vals = _parse_hours(lpath, lineno, row[3:])
        if min(vals) < 0:
            raise ParseError(lpath, lineno, f"negative load for household {hid!r}")
        prev_rid, days = by_household.setdefault(hid, (rid, {}))
        if prev_rid != rid:
            raise ParseError(lpath, lineno, f"household {hid!r} has conflicting region ids")
        if day in days:
            raise ParseError(lpath, lineno, f"duplicate day {day} for household {hid!r}")
        days[day] = vals

    if not by_household:
        raise ParseError(lpath, 2, "no data rows")

    loads = {}
    for hid in sorted(by_household):
        rid, days = by_household[hid]
        if sorted(days) != list(range(n_days)):
            raise ParseError(lpath, 2, f"household {hid!r} is missing days (has {len(days)} of {n_days})")
        loads[hid] = (rid, np.array([days[d] for d in range(n_days)], dtype=float))
    return ingest(loads, tariff, irradiance, regions, asset)


def ingest(loads: Mapping[str, tuple[str, np.ndarray]], tariff: TariffSet,
           irradiance: IrradianceSeries, regions: Iterable[Region],
           asset: AssetSpec | None = None) -> LoadResult:
    """The scenario of parsed or generated data, after the standard meter filters.

    loads maps each household id to its region id and (days, 24) load
    matrix. Households are taken in sorted-id order. Those with mean load
    below 0.1 kW are dropped with reason "low consumption"; those with
    more than half of their readings exactly zero are dropped with reason
    "zero readings". Retained households get their net-zero size computed
    from the shared irradiance. Raises EmptyScenarioError when nothing
    survives the filters.
    """
    asset = asset or AssetSpec()
    households = []
    exclusions = []
    for hid in sorted(loads):  # deterministic merge order
        rid, load = loads[hid]
        if load.mean() < LOW_CONSUMPTION_MEAN_KW:
            exclusions.append(Exclusion(hid, "low consumption"))
            continue
        if np.count_nonzero(load == 0.0) > ZERO_READING_FRACTION * load.size:
            exclusions.append(Exclusion(hid, "zero readings"))
            continue
        size = compute_net_zero_size(load, irradiance, asset.eta_i)
        households.append(HouseholdRecord(id=hid, region_id=rid, load=load, net_zero_size=size))

    if not households:
        raise EmptyScenarioError("all households were excluded at ingestion")

    # coordinates as Python floats, as a parse gives them
    regions = tuple(Region(r.id, float(r.latitude), float(r.longitude)) for r in regions)
    scenario = Scenario(households=tuple(households), tariff=tariff,
                        irradiance=irradiance, asset=asset, regions=regions)
    return LoadResult(scenario=scenario, exclusions=tuple(exclusions))


def write_savings_curves(path: Path, curves: Iterable[SavingsCurve]) -> Path:
    rows = []
    for c in sorted(curves, key=lambda c: c.household_id):
        for k in range(len(c.knots)):
            slope = repr(float(c.slopes[k])) if k < len(c.slopes) else ""
            rows.append([c.household_id, k, c.knots[k], c.values[k], slope])
    return write_rows(path, ["household_id", "knot_index", "y", "f", "slope"], rows)


def _curve_rows(path: Path, header: Sequence[str], parse) -> dict[str, list[tuple[int, tuple]]]:
    """Each household's (line, parse(line, row)) pairs in knot order; its
    knot indices must run 0..n-1, each exactly once."""
    per_hh: dict[str, dict[int, tuple[int, tuple]]] = {}
    for lineno, row in _read_csv(path, header):
        k = int(_parse_float(path, lineno, "knot_index", row[1]))
        knots = per_hh.setdefault(row[0], {})
        if k in knots:
            raise ParseError(path, lineno, f"household {row[0]!r}: duplicate knot_index {k}")
        knots[k] = (lineno, parse(lineno, row))
    if not per_hh:
        raise ParseError(path, 1, "no households")
    for hid, knots in per_hh.items():
        # n distinct indices miss one of 0..n-1 only if one lies outside it
        misplaced = next((k for k in knots if not 0 <= k < len(knots)), None)
        if misplaced is not None:
            raise ParseError(path, knots[misplaced][0], f"household {hid!r}: knot_index "
                             f"{misplaced} outside 0..{len(knots) - 1}")
    return {hid: [knots[k] for k in range(len(knots))] for hid, knots in sorted(per_hh.items())}


def _curve(path: Path, line: int, cls, hid: str, *arrays):
    """The curve cls(hid, *arrays); one that breaks the curve's rules is a
    ParseError at line, the household's first."""
    try:
        return cls(hid, *arrays)
    except ValueError as exc:
        raise ParseError(path, line, f"household {hid!r}: {exc}") from None


def read_savings_curves(path: Path) -> dict[str, SavingsCurve]:
    # the last knot has no slope, so slopes are parsed once the knots are known
    per_hh = _curve_rows(path, ["household_id", "knot_index", "y", "f", "slope"],
                         lambda lineno, row: (_parse_float(path, lineno, "y", row[2]),
                                              _parse_float(path, lineno, "f", row[3]), row[4]))
    out = {}
    for hid, rows in per_hh.items():
        ys = np.array([y for _, (y, _, _) in rows])
        slopes = np.array([_parse_float(path, lineno, "slope", raw)
                           for lineno, (_, _, raw) in rows[:-1]])
        curve = _curve(path, rows[0][0], SavingsCurve, hid, ys, slopes)
        # f is derived from the knots and slopes, so an edited f must not pass silently
        fs = [f for _, (_, f, _) in rows]
        off = np.abs(fs - curve.values) > 1e-9 * np.maximum(np.abs(curve.values), 1.0)
        if off.any():
            k = int(np.argmax(off))
            raise ParseError(path, rows[k][0], f"household {hid!r}: f {fs[k]!r} at knot {k} "
                             f"differs from {float(curve.values[k])!r}, the value its knots "
                             "and slopes give")
        out[hid] = curve
    return out


def write_purchases_curves(path: Path, curves: Iterable[PurchasesCurve]) -> Path:
    rows = []
    for c in sorted(curves, key=lambda c: c.household_id):
        for k in range(len(c.knots)):
            rows.append([c.household_id, k, c.knots[k], c.values[k]])
    return write_rows(path, ["household_id", "knot_index", "y", "purchases"], rows)


def read_purchases_curves(path: Path) -> dict[str, PurchasesCurve]:
    per_hh = _curve_rows(path, ["household_id", "knot_index", "y", "purchases"],
                         lambda lineno, row: (_parse_float(path, lineno, "y", row[2]),
                                              _parse_float(path, lineno, "purchases", row[3])))
    out = {}
    for hid, rows in per_hh.items():
        ys = np.array([y for _, (y, _) in rows])
        purchases = np.array([p for _, (_, p) in rows])
        out[hid] = _curve(path, rows[0][0], PurchasesCurve, hid, ys, purchases)
    return out
