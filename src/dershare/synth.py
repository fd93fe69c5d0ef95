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
platform. The generator's settings, SynthConfig, live in `model`, so a
run that generates no data never loads this module.

A seeded default_rng(seed) is Generator(PCG64(seed)), yet importing
numpy.random runs its __init__, which also loads the legacy mtrand, the
MT19937, Philox and SFC64 bit generators and the pickle helpers, and
whose bit_generator imports secrets (to seed generators that have no
seed), and with it hmac, hashlib and OpenSSL's _hashlib: ~3.5 MB of
libcrypto. A fresh run calls none of it. `_default_rng` imports only the
_generator and _pcg64 extensions, under an unexecuted stand-in for the
package and with _hashlib hidden, so hmac and hashlib take the fallbacks
CPython ships for builds without OpenSSL. It then forgets the stand-in
and the crypto modules the import created, so a later `import
numpy.random` runs the real package (which reuses the loaded extensions)
and a later `import hashlib` gets OpenSSL after all.
"""

from __future__ import annotations

import math
import sys
from importlib.util import find_spec, module_from_spec

import numpy as np

from .model import (HOURS, AssetSpec, HouseholdRecord, Region, Scenario, SynthConfig,
                    compute_net_zero_size)


# what numpy.random.bit_generator's import creates on its way to _hashlib
_CRYPTO_IMPORTERS = ("secrets", "hmac", "hashlib")


def _default_rng(seed: int) -> np.random.Generator:
    """np.random.default_rng(seed), that is Generator(PCG64(seed)), from the
    two extensions alone when neither numpy.random nor _hashlib is loaded
    yet (see the module docstring); otherwise, as under numpy 1.x, which
    imports numpy.random with numpy, or where either extension will not
    import, the plain call. A seeded generator never calls secrets, so
    nothing here runs the fallbacks."""
    if "numpy.random" in sys.modules or "_hashlib" in sys.modules:
        return np.random.default_rng(seed)
    created = [name for name in _CRYPTO_IMPORTERS if name not in sys.modules]
    # the package's module object, never executed: submodule imports find
    # their files through its __path__ without running its __init__
    sys.modules["numpy.random"] = module_from_spec(find_spec("numpy.random"))
    sys.modules["_hashlib"] = None  # makes `import _hashlib` raise ImportError
    try:
        from numpy.random._generator import Generator
        from numpy.random._pcg64 import PCG64
    except ImportError:  # a numpy that keeps them elsewhere: the plain call, once cleaned up
        Generator = None
    finally:
        del sys.modules["numpy.random"], sys.modules["_hashlib"]
        for name in created:
            sys.modules.pop(name, None)
    return np.random.default_rng(seed) if Generator is None else Generator(PCG64(seed))


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
    asset = asset or AssetSpec()
    rng = _default_rng(config.rng_seed)
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
    irradiance = clearness[:, None] * bell[None, :]

    tou = np.where(_window_mask(config.tou_peak_window), config.peak_price, config.offpeak_price)
    buy = np.tile(tou, (days, 1))
    h = np.arange(HOURS, dtype=float)
    # diurnal sell-back curve peaking in the early evening
    sell_day = config.sell_mean + config.sell_amplitude * np.sin(2.0 * math.pi * (h - 11.0) / HOURS)
    sell = np.tile(sell_day, (days, 1))

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
        households.append(HouseholdRecord(f"H{i:0{width}d}", regions[region_of[i]].id, load,
                                          net_zero_size=size))

    return Scenario(tuple(households), buy, sell, irradiance, asset, regions)
