"""Shared fixtures: a mid-sized fitted population reused across test modules,
plus a terminal-summary section listing each acceptance criterion outcome."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dershare
from dershare.curves import fit_purchases_curve, fit_savings_curve, sample_household
from dershare.adoption import build_order
from dershare.dispatch import ScenarioContext
from dershare.model import AssetSpec, CurveSet
from dershare.synth import SynthConfig, generate_scenario

ACCEPTANCE_LINES: list[str] = []


@contextmanager
def criterion(num: int, description: str):
    """Record one acceptance line; failures still fail the test."""
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"criterion {num} FAIL: {description}")
        raise
    ACCEPTANCE_LINES.append(f"criterion {num} PASS: {description}")


def child_env() -> dict[str, str]:
    """Environment for a `python -m dershare` child process: the caller's
    environment with the directory holding the imported `dershare` prepended
    to PYTHONPATH as an absolute path, so the child finds the same package
    from any working directory, installed or not."""
    env = dict(os.environ)
    pkg_root = str(Path(dershare.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_root + (os.pathsep + rest if rest else "")
    return env


def assert_same_load(got, want) -> None:
    """Two LoadResults hold the same households, arrays (bit for bit), sizes,
    regions and exclusions, in the same order."""
    a, b = got.scenario, want.scenario
    assert [(h.id, h.region_id) for h in a.households] == \
        [(h.id, h.region_id) for h in b.households]
    for x, y in zip(a.households, b.households):
        assert x.load.tobytes() == y.load.tobytes() and x.load.shape == y.load.shape
        assert x.net_zero_size == y.net_zero_size
    for x, y in ((a.buy, b.buy), (a.sell, b.sell), (a.irradiance, b.irradiance)):
        assert x.tobytes() == y.tobytes() and x.shape == y.shape
    assert [(r.id, r.latitude, r.longitude) for r in a.regions] == \
        [(r.id, r.latitude, r.longitude) for r in b.regions]
    assert all(type(v) is float for r in a.regions for v in (r.latitude, r.longitude))
    assert a.asset == b.asset
    assert got.exclusions == want.exclusions


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def asset() -> AssetSpec:
    return AssetSpec()


@pytest.fixture(scope="session")
def medium_population():
    """56 synthetic households, 8 days, 12 capacity samples: big enough for
    population-level properties, small enough to fit once per session."""
    config = SynthConfig(n_households=56, n_days=8, n_regions=4, rng_seed=101)
    scenario = generate_scenario(config)
    ctx = ScenarioContext(scenario)
    samples = {hh.id: sample_household(ctx, hh, n_samples=12) for hh in scenario.households}
    curves = CurveSet.of([fit_savings_curve(hid, s.y, s.savings) for hid, s in samples.items()])
    purchases = CurveSet.of([fit_purchases_curve(hid, s.y, s.purchases)
                             for hid, s in samples.items()])
    return SimpleNamespace(
        config=config,
        scenario=scenario,
        ctx=ctx,
        samples=samples,
        curves=curves,
        purchases=purchases,
        order=build_order(curves),
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(987654321)
