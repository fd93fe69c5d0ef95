"""CSV serialization for scenarios, exclusions, fitted curves and the sweep.

Every CSV a stage reads is declared once in TABLES: its header, each
column's kind and its row rule. The writers take their headers from it,
and read_table reads every one of them. Floats are written with repr, so
a read-back reproduces the exact same values, and bools as true/false.
A curve file is written from its CurveSet's arrays in one pass, and read
into one from read_table's matrices, checked once for the whole file.
Files are written atomically (temp file + rename) so a crashed run
never leaves a truncated CSV behind.
"""

from __future__ import annotations

import codecs
import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from io import StringIO
from operator import le
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .model import (HOURS, AssetSpec, CurveError, CurveSet, HouseholdRecord, Region, Scenario,
                    ValidationError, compute_net_zero_size, validate_scenario)

LOW_CONSUMPTION_MEAN_KW = 0.1
ZERO_READING_FRACTION = 0.5
# each reason ingest excludes a household for, with its rule
EXCLUSION_RULES = {"low consumption": f"mean load below {LOW_CONSUMPTION_MEAN_KW} kW",
                   "zero readings": "more than half of the readings exactly zero"}

LOADS_FILE = "loads.csv"
IRRADIANCE_FILE = "irradiance.csv"
TARIFF_BUY_FILE = "tariff_buy.csv"
TARIFF_SELL_FILE = "tariff_sell.csv"
REGIONS_FILE = "regions.csv"
EXCLUSIONS_FILE = "exclusions.csv"
SAVINGS_FILE = "savings_curves.csv"
PURCHASES_FILE = "purchases_curves.csv"
SWEEP_FILE = "sweep.csv"


class ParseError(ValueError):
    """An input file violates its format; names the file and 1-based line."""

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


@dataclass(frozen=True)
class Kind:
    """A number column's values: finite, in [lo, hi], whole if whole; NaN (or empty) if nan."""

    lo: float = -math.inf
    hi: float = math.inf
    whole: bool = False
    nan: bool = False


ID = None  # a text column, kept as written
FINITE, NONNEGATIVE, WHOLE, RATE, MAYBE_NAN = (
    Kind(), Kind(0.0), Kind(0.0, whole=True), Kind(0.0, 1.0), Kind(nan=True))
LATITUDE, LONGITUDE = Kind(-90.0, 90.0), Kind(-180.0, 180.0)  # degrees


@dataclass(frozen=True)
class Table:
    """A CSV a stage reads: its header with each column's kind (ID columns
    first, the group column first of all), and its row rule. With an index,
    it runs 0..n-1 once in every group (the whole file if no group), one n
    for all, and a group's rows agree on their IDs; else a group is a key.
    """

    columns: dict[str, Kind | None]
    group: str | None = None
    index: str | None = None


_HOURLY = {f"h{h}": NONNEGATIVE for h in range(HOURS)}
_DAYS = Table({"day": WHOLE, **_HOURLY}, index="day")  # irradiance kWh per kW, tariffs $/kWh
_KNOTS = {"household_id": ID, "knot_index": WHOLE, "y": FINITE}
TABLES = {
    LOADS_FILE: Table({"household_id": ID, "region_id": ID, "day": WHOLE, **_HOURLY},
                      "household_id", "day"),  # kWh
    **dict.fromkeys([IRRADIANCE_FILE, TARIFF_BUY_FILE, TARIFF_SELL_FILE], _DAYS),
    REGIONS_FILE: Table({"region_id": ID, "lat": LATITUDE, "lon": LONGITUDE}, "region_id"),
    # slope: of the segment starting at the knot, empty on the last knot
    SAVINGS_FILE: Table({**_KNOTS, "f": FINITE, "slope": MAYBE_NAN}, "household_id", "knot_index"),
    PURCHASES_FILE: Table({**_KNOTS, "purchases": FINITE}, "household_id", "knot_index"),
    # NaN where no owner sets a short-run price and where no market clears
    SWEEP_FILE: Table({"t": RATE, "owners": WHOLE, "adopted_quantity": FINITE,
                       "short_run_price": MAYBE_NAN, "clearing_price": MAYBE_NAN,
                       **dict.fromkeys("volume fraction_rented_out owner_participation "
                                       "non_owner_participation total_participation owner_surplus "
                                       "renter_surplus total_surplus".split(), FINITE)}),
}


@dataclass(frozen=True)
class Exclusion:
    household_id: str
    reason: str  # "low consumption" or "zero readings"


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
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


def write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Atomically write one CSV file."""
    with _atomic_open(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_fmt(v) for v in row] for row in rows)
    return Path(path)


def _write_hourly(path: Path, header: Sequence[str],
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
        csv.writer(fh).writerow(header)
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
    hourly = {LOADS_FILE: (([hh.id, hh.region_id], hh.load) for hh in scenario.households),
              IRRADIANCE_FILE: [([], scenario.irradiance)],
              TARIFF_BUY_FILE: [([], scenario.buy)],
              TARIFF_SELL_FILE: [([], scenario.sell)]}
    written = [_write_hourly(out_dir / name, list(TABLES[name].columns), blocks)
               for name, blocks in hourly.items()]
    written.append(write_rows(out_dir / REGIONS_FILE, list(TABLES[REGIONS_FILE].columns),
                              [[r.id, r.latitude, r.longitude] for r in scenario.regions]))
    return written


def write_exclusions(path: Path, exclusions: Sequence[Exclusion]) -> Path:
    return write_rows(path, ["household_id", "reason"],
                      [[e.household_id, e.reason] for e in exclusions])


def _decode_lines(path, fh) -> Iterator[str]:
    """The lines of the binary file fh, decoded as UTF-8; a line that is not
    UTF-8, or a byte-order mark, is a ParseError at that line of path."""
    if fh.peek(3).startswith(codecs.BOM_UTF8):
        raise ParseError(path, 1, "starts with a UTF-8 byte-order mark")
    for line, raw in enumerate(fh, start=1):
        try:
            yield raw.decode()
        except UnicodeDecodeError as exc:
            raise ParseError(path, line, f"not UTF-8 at byte {exc.start + 1}") from None


def read_text(path) -> str:
    """A UTF-8 text file, decoded as the CSVs are."""
    with open(path, "rb") as fh:
        return "".join(_decode_lines(path, fh))


def _number(path, line: int, name: str, kind: Kind, raw: str) -> float:
    """One field of a number column; a value its kind refuses is a ParseError."""
    try:
        value = math.nan if kind.nan and raw == "" else float(raw)
    except ValueError:
        raise ParseError(path, line, f"field '{name}': not a number: {raw!r}") from None
    if not (math.isfinite(value) or kind.nan and math.isnan(value)):
        raise ParseError(path, line, f"field '{name}': not a finite number: {raw!r}")
    if not (kind.lo <= value <= kind.hi or math.isnan(value)):
        raise ParseError(path, line, f"field '{name}': not in [{kind.lo:g}, {kind.hi:g}]: {raw!r}")
    if kind.whole and not value.is_integer():
        raise ParseError(path, line, f"field '{name}': not a whole number: {raw!r}")
    return value


def read_table(path: Path, table: Table, n: int | None = None) -> dict:
    """The CSV at path, decoded line by line: for each group (None without
    a group column), in the order first seen, its first row's ID fields,
    and its rows in index order (else file order) as their lines and a
    float matrix of their number fields but the index; n, if given, is the
    index's count. A breach of table is a ParseError at its line, naming
    a row's first bad field in column order."""
    path, header = Path(path), list(table.columns)
    kinds = [kind for kind in table.columns.values() if kind is not ID]
    ids = len(header) - len(kinds)
    at = header.index(table.index) - ids if table.index else None
    lo, hi = [kind.lo for kind in kinds], [kind.hi for kind in kinds]
    whole = [i for i, kind in enumerate(kinds) if kind.whole]

    def refuse(line: int, message: str, gid=None):
        if gid is not None and table.index:
            message = f"{table.group.removesuffix('_id')} {gid!r}: {message}"
        raise ParseError(path, line, message)
    if not path.exists():
        refuse(0, "file not found")
    groups: dict = {}
    with open(path, "rb") as fh:
        reader = csv.reader(_decode_lines(path, fh))
        try:
            got = next(reader, None)
            if got != header:
                refuse(1, "empty file" if got is None else f"expected header {header}, got {got}")
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) != len(header):
                    refuse(line, f"expected {len(header)} fields, got {len(row)}")
                try:
                    vals = list(map(float, row[ids:]))
                except ValueError:
                    vals = None
                if vals is None or not (all(map(math.isfinite, vals)) and all(map(le, lo, vals))
                                        and all(map(le, vals, hi))
                                        and all(vals[i].is_integer() for i in whole)):
                    vals = [_number(path, line, name, kind, raw)
                            for name, kind, raw in zip(header[ids:], kinds, row[ids:])]
                gid = row[0] if table.group else None
                first, rows = groups.setdefault(gid, (row[:ids], {}))
                k = int(vals.pop(at)) if table.index else 0 if table.group else len(rows)
                if k in rows:
                    refuse(line, f"duplicate {table.index} {k}" if table.index
                           else f"duplicate {table.group} {gid!r}", gid)
                if row[:ids] != first:
                    refuse(line, f"conflicting {', '.join(header[1:ids])}: {row[1:ids]}, "
                           f"first {first[1:]}", gid)
                rows[k] = (line, vals)
        except csv.Error as exc:
            refuse(reader.line_num, f"not CSV: {exc}")
    if not groups:
        refuse(1, f"no {table.group.removesuffix('_id')}s" if table.group else "no data rows")
    count = n if n is not None else max(len(rows) for _, rows in groups.values())
    out = {}
    for gid in list(groups):
        first, rows = groups.pop(gid)  # freed as it is converted: the file's peak memory
        if table.index:
            for k, (line, _) in rows.items():
                if k >= count:
                    refuse(line, f"{table.index} {k} outside 0..{count - 1}", gid)
            if len(rows) < count:
                refuse(min(line for line, _ in rows.values()),
                       f"missing {table.index} {min(set(range(count)) - rows.keys())}", gid)
        rows = [rows[k] for k in range(len(rows))]
        out[gid] = (first, [line for line, _ in rows], np.array([vals for _, vals in rows]))
    return out


@dataclass(frozen=True)
class LoadResult:
    scenario: Scenario
    exclusions: tuple[Exclusion, ...]


def load_scenario(data_dir: Path, asset: AssetSpec | None = None) -> LoadResult:
    """Parse a scenario directory and ingest it (see ingest). The irradiance
    is not all zero, the tariffs and loads span its days, and each
    household's region is in regions.csv; a breach of these or of a file's
    table is a ParseError. A tariff file is read on its own and its day
    count compared, so a count unlike the irradiance's is named with both.
    """
    data_dir = Path(data_dir)

    def read(name: str, n: int | None = None) -> dict:
        return read_table(data_dir / name, TABLES[name], n)

    def days(name: str) -> np.ndarray:
        [(_, lines, days)] = read(name).values()
        if len(days) != len(irradiance):
            raise ParseError(data_dir / name, lines[min(len(irradiance), len(days) - 1)],
                             f"{len(days)} days, but {IRRADIANCE_FILE} has {len(irradiance)}")
        return days
    [(_, lines, irradiance)] = read(IRRADIANCE_FILE).values()
    if not irradiance.any():
        raise ParseError(data_dir / IRRADIANCE_FILE, lines[0],
                         "every value is zero: net-zero sizing requires positive total irradiance")
    buy, sell = days(TARIFF_BUY_FILE), days(TARIFF_SELL_FILE)
    regions = [Region(rid, float(lat), float(lon))
               for rid, (_, _, [[lat, lon]]) in read(REGIONS_FILE).items()]
    loads = {}
    for hid, ((_, rid), lines, load) in read(LOADS_FILE, len(irradiance)).items():
        if not any(r.id == rid for r in regions):
            raise ParseError(data_dir / LOADS_FILE, lines[0],
                             f"household {hid!r}: region_id {rid!r} not in {REGIONS_FILE}")
        loads[hid] = (rid, load)
    return ingest(loads, buy, sell, irradiance, regions, asset)


def ingest(loads: Mapping[str, tuple[str, np.ndarray]], buy: np.ndarray, sell: np.ndarray,
           irradiance: np.ndarray, regions: Iterable[Region],
           asset: AssetSpec | None = None) -> LoadResult:
    """The scenario of parsed or generated data after the meter filters, validated.

    loads maps each household id to its region id and (days, 24) load
    matrix. Households are taken in sorted-id order. Those with mean load
    below 0.1 kW are dropped with reason "low consumption"; those with
    more than half of their readings exactly zero are dropped with reason
    "zero readings". Retained households get their net-zero size computed
    from the shared irradiance. Raises a ValidationError of the scenario's
    households when nothing survives the filters.
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
        counts = ", ".join(f"{sum(e.reason == reason for e in exclusions)} {reason} ({rule})"
                           for reason, rule in EXCLUSION_RULES.items())
        raise ValidationError("scenario", "households",
                              f"all households were excluded at ingestion: {counts}")

    # coordinates as Python floats, as a parse gives them
    regions = tuple(Region(r.id, float(r.latitude), float(r.longitude)) for r in regions)
    scenario = Scenario(tuple(households), buy, sell, irradiance, asset, regions)
    validate_scenario(scenario)
    return LoadResult(scenario=scenario, exclusions=tuple(exclusions))


def _write_curves(path: Path, name: str, curves: CurveSet, *last: list) -> Path:
    """One curve CSV, written in one pass over the set's arrays: a row per
    knot in id order, its knot index, y and value, then the last columns."""
    counts = np.diff(curves.offsets).tolist()
    index = np.arange(curves.knots.size) - np.repeat(curves.offsets[:-1], counts)
    ids = [hid for hid, count in zip(curves.ids, counts) for _ in range(count)]
    return write_rows(path, list(TABLES[name].columns), zip(
        ids, index.tolist(), curves.knots.tolist(), curves.knot_values.tolist(), *last))


def write_savings_curves(path: Path, curves: CurveSet | Iterable) -> Path:
    curves = CurveSet.of(curves)
    slopes = np.full(curves.knots.size, "", dtype=object)  # a segment's on its first knot
    slopes[curves.segment_knots] = list(map(repr, curves.slopes.tolist()))
    return _write_curves(path, SAVINGS_FILE, curves, slopes.tolist())


def write_purchases_curves(path: Path, curves: CurveSet | Iterable) -> Path:
    return _write_curves(path, PURCHASES_FILE, CurveSet.of(curves))


def _read_curves(path: Path, name: str, savings: bool) -> CurveSet:
    """The curve CSV at path as a set. A curve that breaks its rules is a
    ParseError at the household's line of the knot that breaks it, else its
    first; a savings file's f must be the value its knots and slopes give."""
    groups = read_table(path, TABLES[name])
    ids = sorted(groups)
    lines = [groups[hid][1] for hid in ids]
    rows = [groups.pop(hid)[2] for hid in ids]
    try:  # y, then f and slope (a household's last one empty) or purchases
        return CurveSet(ids, [m[:, 0] for m in rows],
                        [m[:-1, 2] if savings else m[:, 1] for m in rows], savings,
                        [m[:, 1] for m in rows] if savings else None)
    except CurveError as exc:
        raise ParseError(path, lines[exc.index][exc.knot],
                         f"household {ids[exc.index]!r}: {exc}") from None


def read_savings_curves(path: Path) -> CurveSet:
    return _read_curves(path, SAVINGS_FILE, True)


def read_purchases_curves(path: Path) -> CurveSet:
    return _read_curves(path, PURCHASES_FILE, False)


def read_sweep(path: Path) -> dict[str, np.ndarray]:
    """sweep.csv's columns by name, a whole-number column as integers."""
    table = TABLES[SWEEP_FILE]
    [(_, _, rows)] = read_table(path, table).values()
    return {name: col.astype(int) if kind.whole else col
            for (name, kind), col in zip(table.columns.items(), rows.T)}
