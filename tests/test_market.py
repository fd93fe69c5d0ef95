import numpy as np
import pytest

from dershare.adoption import LongRunSolver, build_order
from dershare.curves import SavingsCurve
from dershare.market import ClearingTable, aggregate_demand, aggregate_supply, clear_market
from oracles import (bisection_clear_market, random_concave_curve, random_curve_population,
                     random_tied_curve_population)

EQUILIBRIUM_TOTALS = ("volume", "owner_surplus_total", "renter_surplus_total", "total_surplus",
                      "owner_participation", "non_owner_participation", "total_participation")


def linear_curve(hid, slope, y_bar=1.0):
    return SavingsCurve(hid, np.array([0.0, y_bar]), np.array([float(slope)]))


def test_two_household_hand_example():
    # owner values capacity at 100 per kW, renter at 200: the full kW moves,
    # the midpoint rule prices it at 150, and the gain splits 50/50
    curves = {"own": linear_curve("own", 100.0), "rent": linear_curve("rent", 200.0)}
    eq = clear_market(curves, {"own"})
    assert eq.clearing_price == pytest.approx(150.0)
    assert eq.volume == pytest.approx(1.0)
    assert eq.allocations["own"] == pytest.approx(0.0)
    assert eq.allocations["rent"] == pytest.approx(1.0)
    assert eq.surpluses["own"] == pytest.approx(50.0)
    assert eq.surpluses["rent"] == pytest.approx(50.0)
    assert eq.owner_participation == 1.0 and eq.non_owner_participation == 1.0


def test_identical_linear_curves_trade_without_gains():
    # with identical constant marginal savings there are no gains from trade:
    # every equilibrium (here the proportional-rationing one) has zero surplus
    curves = {f"h{i}": linear_curve(f"h{i}", 120.0, y_bar=2.0) for i in range(6)}
    eq = clear_market(curves, {"h0", "h1"})
    assert eq.clearing_price == pytest.approx(120.0)
    assert abs(eq.residual) <= 1e-9
    for w in eq.surpluses.values():
        assert abs(w) <= 1e-9
    assert eq.total_surplus == pytest.approx(0.0, abs=1e-9)


def test_identical_concave_curves_split_symmetrically():
    knots = np.array([0.0, 1.0, 2.0])
    slopes = np.array([200.0, 80.0])
    curves = {f"h{i}": SavingsCurve(f"h{i}", knots, slopes) for i in range(4)}
    eq = clear_market(curves, {"h0"})  # 1 owner, 3 renters
    # symmetry: everyone ends up with the same capacity, an equal share of
    # the single adopted asset
    for y in eq.allocations.values():
        assert y == pytest.approx(0.5)
    assert eq.volume == pytest.approx(1.5)
    assert eq.total_surplus > 0  # strictly concave curves create gains


def test_degenerate_owner_sets_report_no_trade():
    curves = {f"h{i}": linear_curve(f"h{i}", 100.0 + i) for i in range(3)}
    for owners in (set(), {"h0", "h1", "h2"}):
        eq = clear_market(curves, owners)
        assert eq.degenerate
        assert eq.clearing_price is None
        assert eq.volume == 0.0
        assert eq.total_surplus == 0.0


def test_aggregate_endpoints(rng):
    curves = random_curve_population(rng, 12)
    owners = set(list(curves)[:5])
    non_owners = [h for h in curves if h not in owners]
    assert aggregate_supply(curves, owners, 0.0) == 0.0
    assert aggregate_demand(curves, owners, 0.0) == pytest.approx(
        sum(curves[h].max_size for h in non_owners))
    top = max(c.slopes[0] for c in curves.values()) + 1.0
    assert aggregate_demand(curves, owners, top) == 0.0
    assert aggregate_supply(curves, owners, top) == pytest.approx(
        sum(curves[h].max_size for h in owners))


def test_aggregate_monotonicity(rng):
    curves = random_curve_population(rng, 10)
    owners = set(list(curves)[:4])
    rs = np.linspace(0.0, 450.0, 100)
    demand = [aggregate_demand(curves, owners, r) for r in rs]
    supply = [aggregate_supply(curves, owners, r) for r in rs]
    assert all(b <= a + 1e-12 for a, b in zip(demand, demand[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(supply, supply[1:]))


@pytest.mark.parametrize("seed", range(6))
def test_randomized_clearing_identities(seed):
    rng = np.random.default_rng(1000 + seed)
    curves = random_curve_population(rng, 50)
    ids = sorted(curves)
    owners = {h for h in ids if rng.random() < 0.4}
    if not owners or len(owners) == len(ids):
        owners = set(ids[:20])
    eq = clear_market(curves, owners)
    total_size = sum(c.max_size for c in curves.values())
    assert abs(eq.residual) <= max(1e-6, 1e-9 * total_size)
    for hid, w in eq.surpluses.items():
        assert w >= -1e-9, hid
    for hid, y in eq.allocations.items():
        assert -1e-12 <= y <= curves[hid].max_size + 1e-12
    # rent payments cancel: total surplus is the allocation gain alone
    direct = (sum(curves[h].eval(eq.allocations[h]) for h in ids)
              - sum(curves[h].total for h in owners))
    assert eq.total_surplus == pytest.approx(direct, rel=1e-6, abs=1e-9)


def test_price_nonincreasing_in_nested_owner_sets(rng):
    curves = random_curve_population(rng, 30)
    ids = sorted(curves, key=lambda h: -curves[h].normalized_savings)
    prices = []
    for k in range(1, len(ids)):
        eq = clear_market(curves, ids[:k])
        prices.append(eq.clearing_price)
    for a, b in zip(prices, prices[1:]):
        assert b <= a + 1e-9


def test_equilibrium_order_invariance(rng):
    curves = random_curve_population(rng, 20)
    owners = sorted(curves)[:8]
    eq1 = clear_market(curves, owners)
    shuffled = {h: curves[h] for h in reversed(sorted(curves))}
    eq2 = clear_market(shuffled, list(reversed(owners)))
    assert eq1.clearing_price == eq2.clearing_price
    assert eq1.volume == eq2.volume
    assert eq1.total_surplus == eq2.total_surplus
    assert eq1.allocations == eq2.allocations


def test_marginal_households_ration_proportionally():
    # two owners share the indifferent slope; both must trade the same
    # fraction of their indifference span
    knots = np.array([0.0, 1.0, 2.0])
    owners = {
        "o1": SavingsCurve("o1", knots, np.array([300.0, 100.0])),
        "o2": SavingsCurve("o2", knots * 2, np.array([300.0, 100.0])),
    }
    renter = {"r": linear_curve("r", 100.0, y_bar=1.5)}
    curves = {**owners, **renter}
    eq = clear_market(curves, {"o1", "o2"})
    assert eq.clearing_price == pytest.approx(100.0)
    frac1 = (2.0 - eq.allocations["o1"]) / 1.0  # span of o1's flat segment
    frac2 = (4.0 - eq.allocations["o2"]) / 2.0
    assert frac1 == pytest.approx(frac2)
    assert abs(eq.residual) <= 1e-9


def assert_matches_oracle(eq, oracle):
    assert eq.clearing_price == oracle.clearing_price
    assert eq.owner_ids == oracle.owner_ids and eq.degenerate == oracle.degenerate
    assert eq.allocations == pytest.approx(oracle.allocations, rel=1e-12, abs=1e-12)
    assert eq.surpluses == pytest.approx(oracle.surpluses, rel=1e-12, abs=1e-12)
    for name in EQUILIBRIUM_TOTALS:
        assert getattr(eq, name) == pytest.approx(getattr(oracle, name), rel=1e-12, abs=1e-12)


def _rationed(curves, eq) -> bool:
    return any(y not in curves[hid].knots for hid, y in eq.allocations.items())


@pytest.mark.parametrize("population", ["medium", "random", "tied"])
def test_table_matches_bisection_oracle_at_every_k(population, medium_population):
    if population == "medium":
        instances = [medium_population.curves]
    else:
        make = random_curve_population if population == "random" else random_tied_curve_population
        instances = [make(np.random.default_rng(4000 + seed), 12 + 9 * seed) for seed in range(4)]
    rationed = 0
    for curves in instances:
        order = build_order(curves)
        solver = LongRunSolver(order, curves)
        for k in range(order.n + 1):
            oracle = bisection_clear_market(curves, order.owners_at(k))
            assert solver.clearing_price_at(k) == oracle.clearing_price, k
            assert_matches_oracle(solver.equilibrium_at(k), oracle)
            rationed += _rationed(curves, oracle)
    if population == "tied":
        assert rationed > 0  # shared slopes put the price on a jump


def test_no_trade_market_clears_at_the_midpoint():
    # the owners value every kW above every non-owner: E is exactly zero
    # from the steepest non-owner slope (100) to the flattest owner slope
    # (250). Summed in floats, the owners' sizes come to 0.8999999999999999
    # and their segment widths to 0.9, which would move r_a up to 250.
    curves = {
        "a": SavingsCurve("a", np.array([0.0, 0.1, 0.2]), np.array([300.0, 250.0])),
        "b": SavingsCurve("b", np.array([0.0, 0.1, 0.7]), np.array([280.0, 260.0])),
        "c": SavingsCurve("c", np.array([0.0, 0.4]), np.array([100.0])),
        "d": SavingsCurve("d", np.array([0.0, 0.2, 0.5]), np.array([90.0, 60.0])),
    }
    eq = clear_market(curves, {"a", "b"})
    assert eq.clearing_price == 175.0
    assert eq.volume == 0.0 and eq.total_surplus == 0.0
    assert eq.total_participation == 0.0
    assert_matches_oracle(eq, bisection_clear_market(curves, {"a", "b"}))


@pytest.mark.parametrize("population", ["random", "tied"])
def test_breakpoints_are_the_distinct_slopes_steepest_first(population):
    # the table sorts and dedups the slopes itself; the result must be np.unique's
    make = random_curve_population if population == "random" else random_tied_curve_population
    for seed in range(6):
        curves = make(np.random.default_rng(5000 + seed), 1 + 15 * seed)
        expected = np.unique(np.concatenate([c.slopes for c in curves.values()]))[::-1]
        assert ClearingTable(curves).breakpoints.tolist() == expected.tolist()
    assert ClearingTable({}).breakpoints.size == 0
