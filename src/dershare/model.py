"""Core domain types for the peer-to-peer capacity rental simulator.

Units are fixed throughout the package: energy in kWh, capacity in kW,
storage in kWh, energy prices in $/kWh, capacity rental and purchase
prices in $ per period per kW (the period is the scenario's day span;
for a 365-day scenario these are $/yr/kW). Time is hourly, 24 slots per
day, so a load entry is both kWh per hour and average kW.

All types are immutable value objects after construction and safe to
share between threads. Numpy array fields are marked read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HOURS = 24


class DomainError(ValueError):
    """An operation was called outside its mathematical domain."""


class ValidationError(ValueError):
    """A domain object violates an invariant.

    Carries the offending entity ("household H0003", "tariff", ...) and
    field name so callers can report precisely what is malformed.
    """

    def __init__(self, entity: str, fieldname: str, message: str):
        self.entity = entity
        self.fieldname = fieldname
        super().__init__(f"{entity}: field '{fieldname}': {message}")


def from_config(cls, section: str, values: dict):
    """cls(**values) for the config section that sets the dataclass cls's fields.
    Each value must have the type of its field's default: an int may stand for
    a float and a list for a tuple, a bool is never a number, and a float must
    be finite (JSON may spell NaN). Errors name `section.key`."""
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
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})


class EmptyScenarioError(ValidationError):
    """Every household was rejected or excluded during ingestion."""

    def __init__(self, message: str):
        super().__init__("scenario", "households", message)


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
class HouseholdRecord:
    """One household: hourly load matrix plus its derived net-zero PV size."""

    id: str
    region_id: str
    load: np.ndarray  # (days, 24) kWh
    net_zero_size: float  # kW

    def __post_init__(self):
        object.__setattr__(self, "load", _as_matrix(self.load, f"household {self.id}"))

    @property
    def n_days(self) -> int:
        return self.load.shape[0]


@dataclass(frozen=True)
class TariffSet:
    """Hourly buy prices and sell-back prices, one row per day ($/kWh)."""

    buy: np.ndarray
    sell: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "buy", _as_matrix(self.buy, "tariff.buy"))
        object.__setattr__(self, "sell", _as_matrix(self.sell, "tariff.sell"))
        if self.buy.shape != self.sell.shape:
            raise ValidationError("tariff", "sell", "buy and sell shapes differ")

    @property
    def n_days(self) -> int:
        return self.buy.shape[0]


@dataclass(frozen=True)
class IrradianceSeries:
    """Normalized hourly PV output shared by all households (kWh per kW)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_matrix(self.values, "irradiance"))

    @property
    def n_days(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Region:
    id: str
    latitude: float
    longitude: float


@dataclass(frozen=True)
class Scenario:
    """A complete simulation input: households, shared tariff and irradiance,
    asset parameters, and the regional partition."""

    households: tuple[HouseholdRecord, ...]
    tariff: TariffSet
    irradiance: IrradianceSeries
    asset: AssetSpec
    regions: tuple[Region, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "households", tuple(self.households))
        object.__setattr__(self, "regions", tuple(self.regions))

    @property
    def n_days(self) -> int:
        return self.tariff.n_days

    def household_map(self) -> dict[str, HouseholdRecord]:
        return {h.id: h for h in self.households}


def compute_net_zero_size(load, irradiance, eta_i: float) -> float:
    """PV capacity whose delivered energy over the period equals total load.

    Returns total(load) / (eta_i * total(irradiance)), so that
    eta_i * size * sum(irradiance) == sum(load). The inverter efficiency
    sits in the denominator: sizing is exact at the AC bus.
    """
    load = np.asarray(load, dtype=float)
    irr = np.asarray(getattr(irradiance, "values", irradiance), dtype=float)
    total_irr = float(irr.sum())
    if total_irr <= 0.0:
        raise DomainError("net-zero sizing requires positive total irradiance")
    if not (0.0 < eta_i <= 1.0):
        raise DomainError(f"eta_i must be in (0, 1], got {eta_i}")
    return float(load.sum()) / (eta_i * total_irr)


def validate_scenario(scenario: Scenario, sizing_rtol: float = 1e-9) -> None:
    """Check every cross-object invariant; raise ValidationError on the first failure.

    Checks performed:
      * day counts agree across loads, tariff, and irradiance
      * loads, prices, irradiance all nonnegative (NaN fails)
      * buy >= sell in every hour (no-arbitrage precondition)
      * household ids unique; each region_id appears in the region list
      * net_zero_size > 0 and consistent with compute_net_zero_size
    """
    n_days = scenario.tariff.n_days
    if scenario.irradiance.n_days != n_days:
        raise ValidationError("irradiance", "values",
                              f"{scenario.irradiance.n_days} days, tariff has {n_days}")
    for entity, name, values in (("irradiance", "values", scenario.irradiance.values),
                                 ("tariff", "buy", scenario.tariff.buy),
                                 ("tariff", "sell", scenario.tariff.sell)):
        if not np.all(values >= 0):
            raise ValidationError(entity, name, "negative or NaN entry")
    if np.min(scenario.tariff.buy - scenario.tariff.sell) < 0:
        d, h = np.unravel_index(int(np.argmin(scenario.tariff.buy - scenario.tariff.sell)),
                                scenario.tariff.buy.shape)
        raise ValidationError("tariff", "sell",
                              f"sell price exceeds buy price on day {d} hour {h}")

    if not scenario.households:
        raise EmptyScenarioError("scenario contains no households")

    region_ids = {r.id for r in scenario.regions}
    seen: set[str] = set()
    for hh in scenario.households:
        ent = f"household {hh.id}"
        if hh.id in seen:
            raise ValidationError(ent, "id", "duplicate household id")
        seen.add(hh.id)
        if hh.n_days != n_days:
            raise ValidationError(ent, "load", f"{hh.n_days} days, tariff has {n_days}")
        if not np.all(hh.load >= 0):
            d, h = np.unravel_index(int(np.argmin(hh.load)), hh.load.shape)
            raise ValidationError(ent, "load", f"negative or NaN entry on day {d} hour {h}")
        if scenario.regions and hh.region_id not in region_ids:
            raise ValidationError(ent, "region_id", f"unknown region '{hh.region_id}'")
        if hh.net_zero_size <= 0:
            raise ValidationError(ent, "net_zero_size", f"must be > 0, got {hh.net_zero_size}")
        expected = compute_net_zero_size(hh.load, scenario.irradiance, scenario.asset.eta_i)
        if abs(hh.net_zero_size - expected) > sizing_rtol * max(expected, 1e-300):
            raise ValidationError(ent, "net_zero_size",
                                  f"stored {hh.net_zero_size!r} but sizing gives {expected!r}")
