import math

import numpy as np
import pytest

from dershare.adoption import LongRunSolver, build_order, long_run_adoption
from dershare.dispatch import ScenarioContext
from dershare.market import clear_market
from dershare.model import CurveSet, DomainError
from dershare.stakeholders import (billed_sales, autarky_assignment, market_emerges,
                                   regime_boundary, regime_points, utility_loss, vendor_gain)
from oracles import curve


def test_vendor_gain_arithmetic():
    assert vendor_gain(300.0, 40.0, 50.0) == pytest.approx(3000.0)
    assert vendor_gain(300.0, 40.0, 40.0) == 0.0


def test_vendor_gain_matches_subsidy_delta_q(medium_population):
    order = medium_population.order
    curves = medium_population.curves
    solver = LongRunSolver(order, curves)
    for q in (0.3, 0.5, 0.7):
        p = float(np.quantile(order.normalized, q))
        lr = long_run_adoption(order, curves, p, solver)
        gain = vendor_gain(p, lr.d_short, lr.d_long)
        if gain > 0:
            assert gain / p == pytest.approx(lr.delta_q, rel=1e-12)


def test_baseline_identity(medium_population):
    purchases = medium_population.purchases
    order = medium_population.order
    t_bl = sum(purchases.knot_values[purchases.offsets[:-1]].tolist())  # each bill at y = 0
    # zero adoption: billed sales equal the pre-adoption total bill exactly
    assert billed_sales(purchases, sorted(order.ranking), autarky_assignment(order, 0)) == t_bl
    households = medium_population.scenario.household_map()
    expected = sum(medium_population.ctx.annual_bill(households[hid], 0.0).bill
                   for hid in sorted(medium_population.curves))
    assert t_bl == pytest.approx(expected, rel=1e-12)


def test_autarky_assignment_holds_the_first_k_at_full_size_in_id_order(medium_population):
    order = medium_population.order
    for k in (0, 7, order.n):
        owners = order.owners_at(k)
        expected = [float(order.sizes[order.ranking.index(hid)]) if hid in owners else 0.0
                    for hid in sorted(order.ranking)]
        assert autarky_assignment(order, k).tolist() == expected


def test_billed_sales_sum_left_to_right():
    # a compensated sum (Python 3.12's sum() over floats) would keep the 1.0
    bills = {"a": 1e16, "b": 1.0, "c": -1e16}
    purchases = CurveSet.of([curve(hid, np.array([0.0, 1.0]), np.array([v, v]), savings=False)
                             for hid, v in bills.items()])
    assert billed_sales(purchases, list(bills), np.full(3, 0.5)) == 0.0


def _random_purchases(rng, n):
    """n curves with 2-8 knots, some with flat segments, each a set of one, by id."""
    curves = {}
    for i in range(n):
        knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 3.0, rng.integers(1, 8)))])
        drops = rng.uniform(0.0, 50.0, knots.size - 1) * (rng.uniform(size=knots.size - 1) < 0.8)
        values = rng.uniform(100.0, 2000.0) - np.concatenate([[0.0], np.cumsum(drops)])
        curves[f"H{i:03d}"] = curve(f"H{i:03d}", knots, values, savings=False)
    return curves


def _interp(one, y: float) -> float:
    """The set of one's curve at y as np.interp gives it, y clipped to
    [0, size] once it is within rounding slack of it."""
    size = float(one.sizes[0])
    assert -1e-9 * size <= y <= size * (1 + 1e-9) + 1e-12
    return float(np.interp(min(max(y, 0.0), size), one.knots, one.knot_values))


def test_bills_equal_each_curves_eval_bit_for_bit():
    """The set's one-pass eval, and each curve's eval, against np.interp of
    the clipped capacity, at knots, at 0 and -0.0, at max_size, inside the
    rounding slack beyond both ends, and between knots."""
    rng = np.random.default_rng(2405)
    for trial in range(40):
        purchases = _random_purchases(rng, int(rng.integers(1, 30)))
        ids = sorted(purchases, key=lambda _: rng.uniform())
        y = []
        for hid in ids:
            knots = purchases[hid].knots
            size = float(knots[-1])
            y.append(rng.choice([0.0, -0.0, size, float(rng.choice(knots)),
                                 size * (1 + 1e-9), size * (1 + 1e-9) + 1e-12,
                                 -1e-9 * size, size * (1 + 5e-10),
                                 float(rng.uniform(0.0, size)),
                                 float(knots[1]) * (1 - 1e-16)]))
        y = np.array(y)
        want = np.array([_interp(purchases[hid], v) for hid, v in zip(ids, y.tolist())])
        assert CurveSet.of(purchases.values()).eval(y, ids).tobytes() == want.tobytes(), trial
        each = np.array([purchases[hid].eval([v], [hid])[0] for hid, v in zip(ids, y.tolist())])
        assert each.tobytes() == want.tobytes(), trial


def test_bills_name_the_first_household_out_of_its_domain():
    purchases = CurveSet.of(_random_purchases(np.random.default_rng(7), 6).values())
    ids = sorted(purchases)
    sizes = purchases.sizes.tolist()
    y = np.array(sizes)
    y[4] = sizes[4] * 1.01
    y[2] = -1e-6
    for evaluate in (lambda: purchases.eval(y[2:3], ids[2:3]),
                     lambda: billed_sales(purchases, ids, y)):
        with pytest.raises(DomainError) as got:
            evaluate()
        assert str(got.value) == f"y={float(y[2])} outside [0, {sizes[2]}]"
    y[2] = np.nan
    with pytest.raises(DomainError, match="y=nan outside"):
        billed_sales(purchases, ids, y)
    assert billed_sales(CurveSet.of([]), [], np.empty(0)) == 0.0


def test_utility_loss_zero_without_changes(medium_population):
    purchases = medium_population.purchases
    order = medium_population.order
    # a "market" that leaves every allocation at the autarky point
    eq = clear_market(medium_population.curves, set())  # degenerate: owners empty
    before = billed_sales(purchases, eq.ids, autarky_assignment(order, 0))
    assert utility_loss(purchases, eq, before) == pytest.approx(0.0, abs=1e-12)


def test_utility_loss_positive_on_market(medium_population):
    order = medium_population.order
    curves = medium_population.curves
    purchases = medium_population.purchases
    k = 18
    eq = clear_market(curves, order.owners_at(k))
    before = billed_sales(purchases, eq.ids, autarky_assignment(order, k))
    loss = utility_loss(purchases, eq, before)
    # renters displace billed energy with rented capacity: the utility loses
    assert loss > 0


def test_billed_sales_matches_lp_resolve(medium_population):
    # the fitted curve evaluated at the equilibrium allocation stays within
    # the curve-fit budget of a direct re-solve at that capacity
    sc = medium_population.scenario
    order = medium_population.order
    eq = clear_market(medium_population.curves, order.owners_at(20))
    hh_map = sc.household_map()
    ctx = ScenarioContext(sc)
    for hid, y in list(zip(eq.ids, eq.allocations.tolist()))[::6][:10]:
        direct = ctx.annual_bill(hh_map[hid], y).purchases
        fitted = medium_population.purchases.eval([y], [hid])[0]
        assert fitted == pytest.approx(direct, rel=0.01)


def test_market_emerges_strict_inequality():
    assert market_emerges(100.0, 50.0, 1.9)
    assert not market_emerges(100.0, 50.0, 2.0)  # at the threshold it fails
    assert not market_emerges(100.0, 50.0, 2.1)
    assert market_emerges(10.0, -5.0, 100.0)  # utility cannot lose
    assert not market_emerges(0.0, 10.0, 0.0)  # vendor has nothing to gain


def test_regime_points(medium_population):
    order = medium_population.order
    curves = medium_population.curves
    purchases = medium_population.purchases
    ps = np.quantile(order.normalized, [0.3, 0.5, 0.7])
    points = regime_boundary(order, curves, purchases, ps)
    assert [pt.price for pt in points] == list(map(float, ps))
    for pt in points:
        assert pt.vendor_gain == pytest.approx(pt.price * pt.delta_q, rel=1e-12, abs=1e-12)
        if pt.threshold not in (None, math.inf):
            # the emergence flag flips exactly at the threshold ratio
            assert market_emerges(pt.vendor_gain, pt.utility_loss, pt.threshold * (1 - 1e-9))
            assert not market_emerges(pt.vendor_gain, pt.utility_loss, pt.threshold)
            assert pt.emerges_at_unit_ratio == (pt.threshold > 1.0)


def test_regime_points_from_long_run_results_match_the_boundary(medium_population):
    """The stakeholders stage builds its rows from the long-run results that
    longrun and subsidy already solved; regime_boundary solves them itself."""
    order, curves = medium_population.order, medium_population.curves
    purchases = medium_population.purchases
    ps = [float(p) for p in np.quantile(order.normalized, [0.05, 0.3, 0.5, 0.7, 0.95])] + [1e9]
    solver = LongRunSolver(order, curves)
    long_run = [long_run_adoption(order, curves, p, solver) for p in ps]
    shared = regime_points(order, purchases, long_run)
    assert shared == regime_boundary(order, curves, purchases, ps)
    assert long_run[-1].no_adoption and shared[-1].threshold is None


def test_profit_scaling_linearity():
    # scaling both profit rates by the same factor leaves the decision alone
    gain, loss = 120.0, 90.0
    for a_u in (0.5, 1.0, 1.5):
        base = market_emerges(gain, loss, a_u)
        for scale in (0.1, 2.0, 7.5):
            assert market_emerges(scale * gain, scale * loss, a_u) == base


def test_threshold_is_infinite_when_the_utility_loses_nothing():
    # five owners value capacity at 390 and the last household at 150, so at 200 the
    # market pulls the last one in; flat purchases curves bill the same at any capacity
    ns = {**{f"h{i}": 390.0 for i in range(5)}, "last": 150.0}
    curves = CurveSet.of([curve(hid, np.array([0.0, 1.0]), np.array([v]))
                          for hid, v in ns.items()])
    purchases = CurveSet.of([curve(hid, np.array([0.0, 1.0]), np.array([10.0, 10.0]), False)
                             for hid in ns])
    order = build_order(curves)
    [pt] = regime_points(order, purchases, [long_run_adoption(order, curves, 200.0)])
    assert (pt.delta_q, pt.vendor_gain, pt.utility_loss) == (1.0, 200.0, 0.0)
    assert pt.threshold == math.inf and pt.emerges_at_unit_ratio


def test_regime_points_equal_the_per_price_formula(medium_population):
    """regime_points sums each k_short's no-market bills once; every row is
    still bit for bit the per-price formula."""
    order, curves = medium_population.order, medium_population.curves
    purchases = medium_population.purchases
    solver = LongRunSolver(order, curves)
    # prices 0.1% apart around the median share their short-run adoption count
    ps = np.concatenate([np.quantile(order.normalized, np.linspace(0.05, 0.95, 9)),
                         np.median(order.normalized) * np.array([1.001, 1.002, 1.003])])
    results = [long_run_adoption(order, curves, float(p), solver) for p in ps]
    assert len({lr.k_short for lr in results}) < len(results)  # some k_short repeat
    points = regime_points(order, purchases, results)
    for pt, lr in zip(points, results):
        ids = lr.equilibrium.ids
        before = billed_sales(purchases, ids, autarky_assignment(order, lr.k_short))
        loss = before - billed_sales(purchases, ids, lr.equilibrium.allocations)
        assert pt.utility_loss == loss == utility_loss(purchases, lr.equilibrium, before)
        assert [pt] == regime_points(order, purchases, [lr])
