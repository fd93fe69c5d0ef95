"""Reproducible synthetic scenario generation.

Stands in for metered consumption data. The load model is a household
base load plus a peak-window bump with a household-specific multiplier
and bounded multiplicative noise, so every hour of every day has
strictly positive consumption and households differ in how much of
their energy falls in the pricing peak. The tariff is a two-level
time-of-use buy price; the sell-back price is a low diurnal curve kept
strictly below the off-peak buy price, which is what gives capacity
rental its value.

All randomness comes from numpy's seeded PCG64 generator, so a config
with a fixed rng_seed reproduces the same scenario bit for bit on any
platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    HOURS,
    AssetSpec,
    HouseholdRecord,
    IrradianceSeries,
    Region,
    Scenario,
    TariffSet,
    ValidationError,
    compute_net_zero_size,
    from_config,
)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic generator. All prices $/kWh, loads kW.

    Windows are half-open hour ranges [start, end) within 0..24.
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

    def validate(self) -> None:
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

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        cfg = from_config(cls, "synth", d)
        cfg.validate()
        return cfg


def _window_mask(window: tuple[int, int]) -> np.ndarray:
    h = np.arange(HOURS)
    return (h >= window[0]) & (h < window[1])


def _irradiance_day(config: SynthConfig) -> np.ndarray:
    """Clear-sky bell over the daylight window, zero at night."""
    lo, hi = config.daylight_window
    h = np.arange(HOURS, dtype=float)
    bell = np.sin(math.pi * (h + 0.5 - lo) / (hi - lo))
    bell[(h < lo) | (h >= hi)] = 0.0
    return config.irradiance_peak * np.clip(bell, 0.0, None)


def generate_scenario(config: SynthConfig, asset: AssetSpec | None = None) -> Scenario:
    """Build a Scenario from a SynthConfig, deterministically for a fixed seed."""
    config.validate()
    asset = asset or AssetSpec()
    rng = np.random.default_rng(config.rng_seed)
    n, days = config.n_households, config.n_days

    # regions on a jittered ring around the configured center
    lat0, lon0 = config.region_center
    angles = 2.0 * math.pi * np.arange(config.n_regions) / config.n_regions
    radii = config.region_spread_deg * rng.uniform(0.3, 1.0, config.n_regions)
    regions = tuple(
        Region(f"R{k}", lat0 + radii[k] * math.cos(angles[k]), lon0 + radii[k] * math.sin(angles[k]))
        for k in range(config.n_regions)
    )

    # balanced region assignment over a shuffled household order
    perm = rng.permutation(n)
    region_of = np.empty(n, dtype=int)
    region_of[perm] = np.arange(n) % config.n_regions

    base = rng.uniform(*config.base_load_range, n)
    mult = rng.uniform(*config.peak_multiplier_range, n)
    shifts = rng.integers(*config.peak_shift_range, n)

    bell = _irradiance_day(config)
    clearness = rng.uniform(0.75, 1.0, days)
    irradiance = IrradianceSeries(clearness[:, None] * bell[None, :])

    tou = np.where(_window_mask(config.tou_peak_window), config.peak_price, config.offpeak_price)
    buy = np.tile(tou, (days, 1))
    h = np.arange(HOURS, dtype=float)
    # diurnal sell-back curve peaking in the early evening
    sell_day = config.sell_mean + config.sell_amplitude * np.sin(2.0 * math.pi * (h - 11.0) / HOURS)
    sell = np.tile(sell_day, (days, 1))
    tariff = TariffSet(buy, sell)

    w_lo, w_hi = config.load_peak_window
    width = max(4, len(str(n - 1)))
    households = []
    for i in range(n):
        peak_mask = _window_mask((w_lo + int(shifts[i]), w_hi + int(shifts[i])))
        shape = np.where(peak_mask, mult[i], 1.0)
        day_factor = rng.uniform(0.9, 1.1, days)
        noise = rng.uniform(0.85, 1.15, (days, HOURS))
        load = base[i] * day_factor[:, None] * shape[None, :] * noise
        size = compute_net_zero_size(load, irradiance, asset.eta_i)
        households.append(
            HouseholdRecord(
                id=f"H{i:0{width}d}",
                region_id=regions[region_of[i]].id,
                load=load,
                net_zero_size=size,
            )
        )

    return Scenario(
        households=tuple(households),
        tariff=tariff,
        irradiance=irradiance,
        asset=asset,
        regions=regions,
    )
