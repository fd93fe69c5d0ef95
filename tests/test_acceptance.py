"""Acceptance gate: one test per release criterion, each recorded as a
PASS/FAIL line in the terminal summary.

The suite favors independent checks: dispatch optimality is bounded by a
dynamic-programming oracle on a discretized state of charge, transport
optima are compared against a direct LP formulation and a hand-written
transportation simplex, and market identities are verified against
their defining sums rather than the clearing engine's own bookkeeping.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import child_env, criterion
from dershare.adoption import (LongRunSolver, build_order, default_t_grid,
                               equivalent_subsidy, long_run_adoption, sweep_adoption)
from dershare.curves import sample_household
from dershare.dispatch import ScenarioContext, solve_day
from dershare.localness import min_cost_flow, solve_transport
from dershare.market import clear_market
from dershare.model import AssetSpec
from dershare.stakeholders import (autarky_assignment, billed_sales, market_emerges,
                                   regime_boundary, total_baseline)
from dershare.synth import SynthConfig, generate_scenario
from oracles import (BisectionSolver, bisection_clear_market, dp_dispatch_cost,
                     random_curve_population, random_dispatch_instance)


def test_criterion_1_savings_monotone_concave_strict():
    with criterion(1, "sampled savings nondecreasing, midpoint-concave, strictly "
                      "increasing under paid surplus (50 households, <= 2 min)"):
        start = time.monotonic()
        scenario = generate_scenario(SynthConfig(n_households=50, n_days=6,
                                                 n_regions=3, rng_seed=2301))
        ctx = ScenarioContext(scenario)
        eta_i = scenario.asset.eta_i
        # per-day strict-increase rate: surplus is payable at the best
        # irradiance-times-sell-price hour of each day
        rate = float(sum((scenario.irradiance.values[d] * scenario.tariff.sell[d]).max()
                         for d in range(scenario.n_days)))
        assert rate > 0
        for hh in scenario.households:
            grid = np.linspace(0.0, hh.net_zero_size, 9)  # uniform: interior = midpoints
            bills = np.array([ctx.annual_bill(hh, float(y)).bill for y in grid])
            savings = bills[0] - bills
            steps = np.diff(savings)
            assert np.all(steps >= -1e-6), hh.id  # nondecreasing
            mids = 0.5 * (savings[:-2] + savings[2:])
            assert np.all(savings[1:-1] >= mids - 1e-6), hh.id  # midpoint concavity
            delta = grid[1] - grid[0]
            assert np.all(steps >= delta * eta_i * rate - 2e-6), hh.id  # strict
        elapsed = time.monotonic() - start
        assert elapsed <= 120.0, f"took {elapsed:.1f}s"


def test_criterion_2_lp_dp_oracle_sandwich():
    with criterion(2, "dispatch LP within [-1e-6, 1%] of the 200-point "
                      "state-of-charge DP oracle on 100 instances (<= 1 min)"):
        start = time.monotonic()
        rng = np.random.default_rng(7001)
        asset = AssetSpec()
        for i in range(100):
            load, irr, buy, sell, y = random_dispatch_instance(rng)
            lp = solve_day(load, irr, buy, sell, asset, y).cost
            dp = dp_dispatch_cost(load, irr, buy, sell, asset, y)
            gap = dp - lp
            assert gap >= -1e-6, f"instance {i}: oracle beat the LP by {-gap}"
            assert gap <= 0.01 * abs(dp), f"instance {i}: gap {gap} vs cost {dp}"
        elapsed = time.monotonic() - start
        assert elapsed <= 60.0, f"took {elapsed:.1f}s"


def test_criterion_3_clearing_identities():
    with criterion(3, "market balance, voluntary participation, and rent "
                      "cancellation on 20 random populations; same price as the "
                      "bisection oracle"):
        for seed in range(20):
            rng = np.random.default_rng(3000 + seed)
            n = int(rng.integers(20, 70))
            curves = random_curve_population(rng, n)
            ids = sorted(curves)
            k = int(rng.integers(1, n))
            owners = set(ids[i] for i in rng.permutation(n)[:k])
            eq = clear_market(curves, owners)
            oracle = bisection_clear_market(curves, owners)
            assert eq.clearing_price == oracle.clearing_price
            assert eq.allocations == pytest.approx(oracle.allocations, rel=1e-12, abs=1e-12)
            assert eq.surpluses == pytest.approx(oracle.surpluses, rel=1e-12, abs=1e-12)
            total_size = sum(c.max_size for c in curves.values())
            supply = sum(curves[h].max_size - eq.allocations[h] for h in sorted(owners))
            demand = sum(eq.allocations[h] for h in ids if h not in owners)
            assert abs(supply - demand) <= max(1e-6, 1e-9 * total_size)
            assert all(w >= -1e-9 for w in eq.surpluses.values())
            direct = (sum(curves[h].eval(eq.allocations[h]) for h in ids)
                      - sum(curves[h].total for h in sorted(owners)))
            assert sum(eq.surpluses.values()) == pytest.approx(direct, rel=1e-6, abs=1e-9)


def test_criterion_4_monotone_price_path_and_volume_hump(medium_population):
    with criterion(4, "clearing price nonincreasing along the adoption order; "
                      "volume zero at the extremes with an interior maximum"):
        order = medium_population.order
        curves = medium_population.curves
        t_grid = np.concatenate([[0.0], default_t_grid(120), [1.0]])
        table = sweep_adoption(order, curves, t_grid)
        prices = table.clearing_price[~np.isnan(table.clearing_price)]
        assert prices.size > 40  # the grid covers many distinct owner counts
        assert np.all(np.diff(prices) <= 1e-9)
        assert table.volume[0] == 0.0 and table.volume[-1] == 0.0
        peak = int(np.argmax(table.volume))
        assert 0 < peak < table.volume.size - 1
        assert table.volume[peak] > 0.0


def test_criterion_5_long_run_consistency(medium_population):
    with criterion(5, "long-run adoption brackets the purchase price and never "
                      "falls below short-run adoption; same counts as with "
                      "bisection-oracle prices"):
        order = medium_population.order
        curves = medium_population.curves
        solver = LongRunSolver(order, curves)
        oracle_solver = BisectionSolver(order, curves)
        p_grid = np.quantile(order.normalized, np.linspace(0.05, 0.95, 19))
        grew = 0
        for p in p_grid:
            lr = long_run_adoption(order, curves, float(p), solver)
            oracle = long_run_adoption(order, curves, float(p), oracle_solver)
            assert (lr.k_short, lr.k_long) == (oracle.k_short, oracle.k_long)
            assert lr.d_long >= lr.d_short - 1e-12
            if lr.delta_q > 0:
                grew += 1
                assert lr.r_at_long is not None and lr.r_at_long <= p
                assert lr.r_before_long is not None and lr.r_before_long >= p
        assert grew > 0  # the regime with adoption growth was exercised


def test_criterion_6_subsidy_integral(medium_population):
    with criterion(6, "subsidy integral stable under 10x grid refinement and "
                      "exactly zero without an adoption increase"):
        order = medium_population.order
        curves = medium_population.curves
        table = sweep_adoption(order, curves, default_t_grid(120))
        solver = LongRunSolver(order, curves)
        checked = 0
        for q in np.linspace(0.05, 0.95, 19):
            p = float(np.quantile(order.normalized, q))
            lr = long_run_adoption(order, curves, p, solver)
            coarse = equivalent_subsidy(table, lr, refine=1)
            fine = equivalent_subsidy(table, lr, refine=10)
            if lr.delta_q <= 0:
                assert coarse.subsidy == 0.0 and coarse.no_increase
            else:
                assert fine.subsidy == pytest.approx(coarse.subsidy, rel=5e-3, abs=1e-12)
                checked += 1
        assert checked > 0


def test_criterion_7_flow_optimality():
    with criterion(7, "transportation solver matches the independent LP and MODI "
                      "oracles to 1e-7 on 20 instances; balanced regions clear locally"):
        from oracles import modi_transport, transport_lp_objective
        rng = np.random.default_rng(7700)
        for _ in range(20):
            nz = int(rng.integers(2, 9))
            s = rng.normal(0.0, 4.0, nz)
            s -= s.mean()
            coords = rng.uniform(-0.5, 0.5, (nz, 2))
            d = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1)) * 111.0
            rf = min_cost_flow(s, d, volume=float(np.abs(s).sum()))
            supply = np.maximum(s, 0.0)
            demand = np.maximum(-s, 0.0)
            demand *= supply.sum() / demand.sum()
            _, objective = solve_transport(supply, demand, d ** 2)
            oracles = (transport_lp_objective(supply, demand, d ** 2),
                       modi_transport(supply, demand, d ** 2)[1])
            for oracle in oracles:
                assert rf.objective == pytest.approx(oracle, rel=1e-7, abs=1e-9)
                assert objective == pytest.approx(oracle, rel=1e-7, abs=1e-9)
        balanced = min_cost_flow(np.zeros(5), rng.uniform(1, 10, (5, 5)), volume=3.0)
        assert balanced.objective == 0.0
        assert balanced.fraction_local == 1.0


def test_criterion_8_stakeholder_identities(medium_population):
    with criterion(8, "vendor gain equals price times adoption increase; baseline "
                      "billed sales equal the pre-adoption total; emergence flag "
                      "flips at the threshold"):
        order = medium_population.order
        purchases = medium_population.purchases
        assert billed_sales(purchases, autarky_assignment(order, 0)) == total_baseline(purchases)
        p_grid = np.quantile(order.normalized, np.linspace(0.1, 0.9, 9))
        points = regime_boundary(order, medium_population.curves, purchases, p_grid)
        for pt in points:
            if pt.delta_q > 0:
                assert pt.vendor_gain == pytest.approx(pt.price * pt.delta_q, rel=1e-12)
            if pt.threshold is not None and np.isfinite(pt.threshold):
                assert market_emerges(pt.vendor_gain, pt.utility_loss,
                                      pt.threshold * (1 - 1e-9))
                assert not market_emerges(pt.vendor_gain, pt.utility_loss, pt.threshold)


@pytest.mark.slow
def test_criterion_9_desk_scale_determinism(tmp_path):
    with criterion(9, "desk-scale pipeline under 10 minutes and byte-identical "
                      "across 1 vs 8 worker processes"):
        env = child_env()

        def run(out, threads, timeout=None):
            cmd = [sys.executable, "-m", "dershare", "all",
                   "--out", str(out), "--threads", str(threads), "--flows-at", "0.4"]
            t0 = time.monotonic()
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path,
                                      env=env, timeout=timeout)
            except subprocess.TimeoutExpired:
                raise AssertionError(f"{threads}-worker pipeline killed after "
                                     f"{time.monotonic() - t0:.0f}s") from None
            assert proc.returncode == 0, proc.stderr + proc.stdout
            return time.monotonic() - t0

        elapsed_1 = run(tmp_path / "a", 1, timeout=600.0)
        assert elapsed_1 <= 600.0, f"single-worker pipeline took {elapsed_1:.0f}s"
        run(tmp_path / "b", 8)
        csvs = sorted(p.relative_to(tmp_path / "a")
                      for p in (tmp_path / "a").rglob("*.csv"))
        assert len(csvs) >= 12
        for rel in csvs:
            a = (tmp_path / "a" / rel).read_bytes()
            b = (tmp_path / "b" / rel).read_bytes()
            assert a == b, f"{rel} differs between worker counts"
