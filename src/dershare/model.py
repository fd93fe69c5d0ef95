"""Core domain types for the peer-to-peer capacity rental simulator.

Units are fixed throughout the package: energy in kWh, capacity in kW,
storage in kWh, energy prices in $/kWh, capacity rental and purchase
prices in $ per period per kW (the period is the scenario's day span;
for a 365-day scenario these are $/yr/kW). Time is hourly, 24 slots per
day, so a load entry is both kWh per hour and average kW.

All types are immutable value objects after construction and safe to
share between threads. Numpy array fields are marked read-only. Every
household faces the same hourly buy price, sell-back price and PV
output, so a Scenario holds them as three (days, 24) float matrices of
its own (`buy`, `sell`, `irradiance`), checked like a household's load.

Every process loads this module, so it also holds what a stage only
names or reads: the generator's settings (SynthConfig), the fitted
curves (CurveSet, the one curve type from a household's fit, a set of
one, to the last stage, and the one check of a curve) and every error
a stage raises. A run whose generator, fit and transport stages are
cache hits then never loads `synth`, `curves`, `lp` or `logging`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HOURS = 24
SIZING_RTOL = 1e-9  # stored net-zero sizes must match the sizing to this relative error
DEFAULT_SAMPLES = 30  # positive capacity samples per fitted curve


class DomainError(ValueError):
    """An operation was called outside its mathematical domain."""


class FitError(ValueError):
    """Samples are too far from the monotone concave family to repair."""


class LPError(RuntimeError):
    """The solver failed to return a proven optimum."""


class ValidationError(ValueError):
    """A domain object violates an invariant.

    Carries the offending entity ("household H0003", "tariff", ...) and
    field name so callers can report precisely what is malformed.
    """

    def __init__(self, entity: str, fieldname: str, message: str):
        self.entity = entity
        self.fieldname = fieldname
        self.message = message
        super().__init__(f"{entity}: field '{fieldname}': {message}")


def from_config(cls, section: str, values: dict):
    """cls(**values) for the config section that sets the dataclass cls's fields.
    Each value must have the type of its field's default: an int may stand for
    a float and a list for a tuple, a bool is never a number, and a float must
    be finite (JSON may spell NaN). Errors name `section.key`, a range that
    cls refuses too."""
    def fits(value, default) -> bool:
        if isinstance(default, tuple):
            return (isinstance(value, (list, tuple)) and len(value) == len(default)
                    and all(map(fits, value, default)))
        return type(value) in (int, float) and math.isfinite(value) and (
            isinstance(default, float) or type(value) is int)

    def kind(default) -> str:
        if isinstance(default, tuple):
            return f"a list of {len(default)} {kind(default[0]).split()[1]}s"
        return "an integer" if isinstance(default, int) else "a number"

    for key, value in values.items():
        name = f"{section}.{key}"
        if key not in cls.__dataclass_fields__:
            raise ValidationError("config", name, "unknown config key")
        default = cls.__dataclass_fields__[key].default
        if not fits(value, default):
            raise ValidationError("config", name, f"expected {kind(default)}, got {value!r}")
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})
    except ValidationError as exc:
        raise ValidationError("config", f"{section}.{exc.fieldname}", exc.message) from None


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != HOURS:
        raise ValidationError(name, "shape", f"expected (days, {HOURS}), got {a.shape}")
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AssetSpec:
    """Parameters of the PV-plus-storage asset, scaled per kW of PV.

    alpha            storage capacity per PV capacity, kWh/kW
    u_charge_max     max charging rate per PV capacity, kW/kW
    u_discharge_max  max discharging rate per PV capacity, kW/kW
    eta_c, eta_d     charging / discharging efficiency, in (0, 1]
    eta_s            hourly self-discharge retention, in (0, 1]
    eta_i            inverter efficiency, in (0, 1]
    x0               initial state of charge as a fraction of capacity

    The efficiency defaults are artifact configuration values, not
    measured data; override them at any entry point that accepts an
    AssetSpec.
    """

    alpha: float = 1.0
    u_charge_max: float = 5.0 / 13.5
    u_discharge_max: float = 5.0 / 13.5
    eta_c: float = 0.95
    eta_d: float = 0.95
    eta_s: float = 0.9999
    eta_i: float = 0.96
    x0: float = 0.0

    def __post_init__(self):
        for name in ("eta_c", "eta_d", "eta_s", "eta_i"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ValidationError("asset", name, f"must be in (0, 1], got {v}")
        for name in ("alpha", "u_charge_max", "u_discharge_max"):
            v = getattr(self, name)
            if not (0.0 < v < np.inf):
                raise ValidationError("asset", name, f"must be > 0 and finite, got {v}")
        if not (0.0 <= self.x0 <= 1.0):
            raise ValidationError("asset", "x0", f"must be in [0, 1], got {self.x0}")


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic generator. All prices $/kWh, loads kW.

    Windows are half-open hour ranges [start, end) within 0..24. Every
    range is checked at construction, as AssetSpec's are.
    """

    n_households: int = 200
    n_days: int = 30
    n_regions: int = 5
    rng_seed: int = 42

    # load shape; each household's peak window is shifted by an integer drawn
    # from peak_shift_range (half-open), so households differ in how much of
    # their consumption lands in the pricing peak
    base_load_range: tuple[float, float] = (0.3, 1.2)
    peak_multiplier_range: tuple[float, float] = (1.2, 4.0)
    load_peak_window: tuple[int, int] = (16, 21)
    peak_shift_range: tuple[int, int] = (-5, 4)

    # time-of-use buy tariff
    offpeak_price: float = 0.20
    peak_price: float = 0.45
    tou_peak_window: tuple[int, int] = (16, 21)

    # sell-back price: mean plus diurnal shape amplitude
    sell_mean: float = 0.04
    sell_amplitude: float = 0.02

    # irradiance bell
    daylight_window: tuple[int, int] = (7, 19)
    irradiance_peak: float = 0.8  # kWh per kW at solar noon

    # region geometry
    region_center: tuple[float, float] = (36.8, -119.8)
    region_spread_deg: float = 0.25

    def __post_init__(self):
        # rng_seed: numpy seeds only from nonnegative integers
        for name, least in (("n_households", 1), ("n_days", 1), ("n_regions", 1), ("rng_seed", 0)):
            if getattr(self, name) < least:
                raise ValidationError("synth config", name, f"must be >= {least}, got {getattr(self, name)}")
        for name in ("load_peak_window", "tou_peak_window", "daylight_window"):
            lo, hi = getattr(self, name)
            if not (0 <= lo < hi <= HOURS):
                raise ValidationError("synth config", name, f"need 0 <= start < end <= {HOURS}, got {(lo, hi)}")
        lo, hi = self.base_load_range
        if not (0 < lo <= hi):
            raise ValidationError("synth config", "base_load_range", f"need 0 < lo <= hi, got {(lo, hi)}")
        lo, hi = self.peak_multiplier_range
        if not (1.0 <= lo <= hi):
            raise ValidationError("synth config", "peak_multiplier_range", f"need 1 <= lo <= hi, got {(lo, hi)}")
        s_lo, s_hi = self.peak_shift_range
        if s_lo >= s_hi:
            raise ValidationError("synth config", "peak_shift_range", f"need lo < hi, got {(s_lo, s_hi)}")
        w_lo, w_hi = self.load_peak_window
        if w_lo + s_lo < 0 or w_hi + s_hi - 1 > HOURS:
            raise ValidationError("synth config", "peak_shift_range",
                                  "shifted peak window would leave the 24-hour day")
        if self.irradiance_peak <= 0:
            raise ValidationError("synth config", "irradiance_peak", "must be > 0")
        if self.sell_amplitude < 0 or self.sell_mean - self.sell_amplitude < 0:
            raise ValidationError("synth config", "sell_amplitude",
                                  "sell price must stay nonnegative over the day")
        # peak >= off-peak >= max sell keeps buy >= sell everywhere
        if self.peak_price < self.offpeak_price:
            raise ValidationError("synth config", "peak_price", "must be >= offpeak_price")
        if self.offpeak_price < self.sell_mean + self.sell_amplitude:
            raise ValidationError("synth config", "offpeak_price",
                                  "must be >= sell_mean + sell_amplitude to preserve buy >= sell")
        lat, lon = self.region_center  # the regions lie within region_spread_deg of it
        spread = abs(self.region_spread_deg)
        if not (abs(lat) + spread <= 90.0 and abs(lon) + spread <= 180.0):
            raise ValidationError("synth config", "region_center",
                                  f"regions up to region_spread_deg = {self.region_spread_deg} "
                                  f"from {(lat, lon)} would leave latitude [-90, 90] or "
                                  "longitude [-180, 180]")

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        return from_config(cls, "synth", d)


@dataclass(frozen=True)
class HouseholdRecord:
    """One household: hourly load matrix plus its derived net-zero PV size."""

    id: str
    region_id: str
    load: np.ndarray  # (days, 24) kWh
    net_zero_size: float  # kW

    def __post_init__(self):
        object.__setattr__(self, "load", _as_matrix(self.load, f"household {self.id}"))


@dataclass(frozen=True)
class Region:
    id: str
    latitude: float
    longitude: float


@dataclass(frozen=True)
class Scenario:
    """A complete simulation input: households, the hourly buy and sell-back
    prices ($/kWh) and normalized PV output (kWh per kW) they all share,
    each a read-only (days, 24) matrix, asset parameters, and the regional
    partition."""

    households: tuple[HouseholdRecord, ...]
    buy: np.ndarray
    sell: np.ndarray
    irradiance: np.ndarray
    asset: AssetSpec
    regions: tuple[Region, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "households", tuple(self.households))
        for name, entity in (("buy", "tariff.buy"), ("sell", "tariff.sell"),
                             ("irradiance", "irradiance")):
            object.__setattr__(self, name, _as_matrix(getattr(self, name), entity))
        if self.buy.shape != self.sell.shape:
            raise ValidationError("tariff", "sell", "buy and sell shapes differ")
        object.__setattr__(self, "regions", tuple(self.regions))

    @property
    def n_days(self) -> int:
        return self.buy.shape[0]

    def household_map(self) -> dict[str, HouseholdRecord]:
        return {h.id: h for h in self.households}


def compute_net_zero_size(load, irradiance, eta_i: float) -> float:
    """PV capacity whose delivered energy over the period equals total load.

    Returns total(load) / (eta_i * total(irradiance)), so that
    eta_i * size * sum(irradiance) == sum(load). The inverter efficiency
    sits in the denominator: sizing is exact at the AC bus.
    """
    load = np.asarray(load, dtype=float)
    irr = np.asarray(irradiance, dtype=float)
    total_irr = float(irr.sum())
    if total_irr <= 0.0:
        raise DomainError("net-zero sizing requires positive total irradiance")
    if not (0.0 < eta_i <= 1.0):
        raise DomainError(f"eta_i must be in (0, 1], got {eta_i}")
    return float(load.sum()) / (eta_i * total_irr)


def validate_scenario(scenario: Scenario) -> None:
    """Check every cross-object invariant; raise ValidationError on the first failure.

    Checks performed:
      * day counts agree across loads, tariff, and irradiance
      * loads, prices, irradiance all nonnegative (NaN fails)
      * buy >= sell in every hour (no-arbitrage precondition)
      * household ids unique; each region_id appears in the region list
      * net_zero_size > 0 and consistent with compute_net_zero_size
    """
    n_days = scenario.n_days
    if len(scenario.irradiance) != n_days:
        raise ValidationError("irradiance", "values",
                              f"{len(scenario.irradiance)} days, tariff has {n_days}")
    for entity, name, values in (("irradiance", "values", scenario.irradiance),
                                 ("tariff", "buy", scenario.buy),
                                 ("tariff", "sell", scenario.sell)):
        if not np.all(values >= 0):
            raise ValidationError(entity, name, "negative or NaN entry")
    margin = scenario.buy - scenario.sell
    if np.min(margin) < 0:
        d, h = np.unravel_index(int(np.argmin(margin)), margin.shape)
        raise ValidationError("tariff", "sell",
                              f"sell price exceeds buy price on day {d} hour {h}")

    if not scenario.households:
        raise ValidationError("scenario", "households", "scenario contains no households")

    region_ids = {r.id for r in scenario.regions}
    seen: set[str] = set()
    for hh in scenario.households:
        ent = f"household {hh.id}"
        if hh.id in seen:
            raise ValidationError(ent, "id", "duplicate household id")
        seen.add(hh.id)
        if len(hh.load) != n_days:
            raise ValidationError(ent, "load", f"{len(hh.load)} days, tariff has {n_days}")
        if not np.all(hh.load >= 0):
            d, h = np.unravel_index(int(np.argmin(hh.load)), hh.load.shape)
            raise ValidationError(ent, "load", f"negative or NaN entry on day {d} hour {h}")
        if scenario.regions and hh.region_id not in region_ids:
            raise ValidationError(ent, "region_id", f"unknown region '{hh.region_id}'")
        if hh.net_zero_size <= 0:
            raise ValidationError(ent, "net_zero_size", f"must be > 0, got {hh.net_zero_size}")
        expected = compute_net_zero_size(hh.load, scenario.irradiance, scenario.asset.eta_i)
        if abs(hh.net_zero_size - expected) > SIZING_RTOL * max(expected, 1e-300):
            raise ValidationError(ent, "net_zero_size",
                                  f"stored {hh.net_zero_size!r} but sizing gives {expected!r}")


class CurveError(ValueError):
    """A curve rule broken, as the message; index is the household's in its set,
    knot the household's knot that breaks it (0 for a rule of the whole curve)."""

    def __init__(self, message: str, index: int = 0, knot: int = 0):
        super().__init__(message)
        self.index, self.knot = index, knot


def _frozen(a, dtype=float) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


class CurveSet:
    """Fitted curves of one kind, read-only, one per household in ascending id:
    the fit's result for one household is a set of one.

    Household i's knots (kW, ascending from 0, finite) are
    knots[offsets[i]:offsets[i + 1]] and its values there ($/period, finite)
    the same slice of knot_values, sizes and totals its last knot and value;
    segment_knots holds each segment's first knot. A savings set is given each
    segment's slope ($/period/kW, nonincreasing and nonnegative along a
    household) and derives the values as their running integral from f(0) = 0;
    a purchases set (slopes None) is given the buy-side bill at each knot,
    nonincreasing. The set alone checks a curve: each household's shapes and
    id, then every rule once over the arrays, and a CurveError names the first
    rule that the first bad household breaks. Iterating a set gives its ids.
    """

    def __init__(self, ids, knots, second, savings: bool, written=None):
        """ids ascending, each household's knots and its slopes or values, and
        written, a savings file's values, to be within rounding of the derived ones."""
        self.ids = ids = tuple(ids)
        knots, second = ([np.asarray(a, dtype=float) for a in arrays] for arrays in (knots, second))
        for i, (hid, k, s) in enumerate(zip(ids, knots, second, strict=True)):  # before arithmetic
            rule = ("need at least two knots" if k.ndim != 1 or k.size < 2 else
                    (f"expected {k.size - 1} slopes, got {s.shape}" if savings else
                     "values must match knots") if s.shape != (k.size - savings,) else
                    "household ids must ascend, each once" if i and hid <= ids[i - 1] else None)
            if rule:  # an earlier household's broken rule comes first
                CurveSet(ids[:i], knots[:i], second[:i], savings, written and written[:i])
                raise CurveError(rule, i)
        counts = [k.size for k in knots]
        self.offsets = offsets = _frozen(np.cumsum([0] + counts), np.intp)
        self.knots = knots = _frozen(np.concatenate(knots or [[]]))
        second, everyone = np.concatenate(second or [[]]), np.arange(len(counts))
        knot_of, ends = np.repeat(everyone, counts), offsets[1:] - 1  # knot's household, last knots
        opens = np.ones(knots.size, dtype=bool)  # a knot that starts a segment: not the last
        opens[ends] = False
        left = np.flatnonzero(opens)
        seg_of, last = knot_of[left], ~opens[left + 1]  # last: a household's last segment
        with np.errstate(all="ignore"):  # what is not finite is refused below
            widths = knots[left + 1] - knots[left]
            if savings:
                values, slopes = np.zeros(knots.size), _frozen(second)
                areas, bounds = slopes * widths, offsets.tolist()
                for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
                    values[a + 1:b] = np.cumsum(areas[a - i:b - i - 1])  # from f(0) = 0.0
                rules = [("slopes must be finite", ~np.isfinite(slopes), seg_of),
                         ("slopes must be nonincreasing (concavity)",
                          (slopes[1:] > slopes[:-1]) & ~last[:-1], seg_of[:-1]),
                         ("slopes must be nonnegative (monotone savings)",
                          (slopes < 0) & last, seg_of),
                         ("values must be finite", ~np.isfinite(values), knot_of)]
            else:
                values, slopes = second, None
                rules = [("values must be finite", ~np.isfinite(values), knot_of),
                         ("purchases must be nonincreasing in capacity",
                          values[left + 1] > values[left], seg_of)]
        rules = [("first knot must be 0", knots[offsets[:-1]] != 0.0, everyone),
                 ("knots must be finite", ~np.isfinite(knots), knot_of),
                 ("knots must be strictly ascending", widths <= 0, seg_of), *rules]
        if written is not None:  # an edited value must not pass silently
            written = np.concatenate(written or [[]])
            rules.append((None, np.abs(written - values) > 1e-9 * np.maximum(np.abs(values), 1.0),
                          knot_of))
        # the first bad household of each broken rule (each `of` ascends), and the first of those
        broken = [(int(of[bad][0]), rule, bad) for rule, bad, of in rules if bad.any()]
        if broken:
            i, rule, bad = min(broken, key=lambda hit: hit[0])
            k = 0 if rule else int(np.argmax(bad[offsets[i]:]))
            raise CurveError(rule or f"f {float(written[offsets[i] + k])!r} at knot {k} differs "
                             f"from {float(values[offsets[i] + k])!r}, the value its knots and "
                             "slopes give", i, k)
        self.slopes, self.knot_values = slopes, _frozen(values)
        self.sizes, self.totals = _frozen(knots[ends]), _frozen(values[ends])
        self.segment_knots = _frozen(left, np.intp)
        self._index = {hid: i for i, hid in enumerate(self.ids)}

    @classmethod
    def of(cls, sets) -> "CurveSet":
        """sets as one: a CurveSet as it is, else sets of one kind whose
        households differ, stacked in id order."""
        if isinstance(sets, CurveSet):
            return sets
        rows = sorted(((s, i, *s.offsets[i:i + 2].tolist()) for s in sets for i in range(len(s))),
                      key=lambda row: row[0].ids[row[1]])
        savings = not rows or rows[0][0].slopes is not None
        return cls([s.ids[i] for s, i, _, _ in rows], [s.knots[a:b] for s, _, a, b in rows],
                   [s.slopes[a - i:b - i - 1] if savings else s.knot_values[a:b]
                    for s, i, a, b in rows], savings)

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, household_id) -> bool:
        return household_id in self._index

    def eval(self, y, ids) -> np.ndarray:
        """Each household of ids at its capacity in y, in that order: y beyond
        [0, max_size] by more than rounding slack is a DomainError naming the
        first such y, else y is clipped to it and interpolated with
        np.interp's arithmetic, term for term, so bit for bit."""
        rows = np.array([self._index[hid] for hid in ids], dtype=np.intp)
        first, counts = self.offsets[rows], np.diff(self.offsets)[rows]
        starts = np.cumsum(counts) - counts
        last = starts + counts - 1
        flat = np.repeat(first - starts, counts) + np.arange(counts.sum())
        knots, values, size = self.knots[flat], self.knot_values[flat], self.sizes[rows]
        y = np.asarray(y, dtype=float)
        bad = np.flatnonzero(~((-1e-9 * size <= y) & (y <= size * (1 + 1e-9) + 1e-12)))
        if bad.size:
            raise DomainError(f"y={float(y[bad[0]])} outside [0, {float(size[bad[0]])}]")
        y = np.minimum(np.maximum(y, 0.0), size)
        # j is the last knot at or below y (knots ascend), k the one after it
        j = starts - 1 + np.add.reduceat(knots <= np.repeat(y, counts), starts, dtype=np.intp)
        k = np.minimum(j + 1, last)
        xj, vj = knots[j], values[j]
        # with finite values this is NaN only at y = xj (an overflowing slope
        # times 0), where np.interp takes the knot's value instead
        with np.errstate(all="ignore"):  # np.interp's C loop never warns
            out = (values[k] - vj) / (knots[k] - xj) * (y - xj) + vj
        return np.where(xj == y, vj, out)
