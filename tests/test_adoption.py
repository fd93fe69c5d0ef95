import math

import numpy as np
import pytest

from dershare.adoption import (DemandCurves, LongRunResult, LongRunSolver, build_order,
                               default_t_grid, equivalent_subsidy, long_run_adoption,
                               sweep_adoption)
from dershare.curves import SavingsCurve
from dershare.model import DomainError
from oracles import random_curve_population


def curve_with_normalized(hid, ns, y_bar=1.0):
    # single segment: normalized savings equals the slope
    return SavingsCurve(hid, np.array([0.0, y_bar]), np.array([float(ns)]))


def test_build_order_ranks_by_normalized_savings():
    curves = {"B": curve_with_normalized("B", 200.0), "A": curve_with_normalized("A", 300.0)}
    order = build_order(curves)
    assert order.ranking == ("A", "B")
    np.testing.assert_allclose(order.normalized, [300.0, 200.0])
    np.testing.assert_allclose(order.cumulative_quantity, [0.0, 1.0, 2.0])


def test_build_order_breaks_ties_by_id():
    curves = {h: curve_with_normalized(h, 100.0) for h in ("c", "a", "b")}
    order = build_order(curves)
    assert order.ranking == ("a", "b", "c")


def test_rate_demand_membership(rng):
    curves = random_curve_population(rng, 40)
    order = build_order(curves)
    for p in rng.uniform(50, 400, 25):
        k = order.rate_demand_count(p)
        adopters = order.owners_at(k)
        for hid in adopters:
            assert curves[hid].normalized_savings >= p
        for hid in set(curves) - adopters:
            assert curves[hid].normalized_savings < p


def test_count_at_rate_rounding():
    curves = {f"h{i}": curve_with_normalized(f"h{i}", 100.0 + i) for i in range(10)}
    order = build_order(curves)
    assert order.count_at_rate(0.0) == 0
    assert order.count_at_rate(1e-4) == 1  # any positive rate adopts someone
    assert order.count_at_rate(0.5) == 5
    assert order.count_at_rate(1.0) == 10
    with pytest.raises(DomainError):
        order.count_at_rate(1.5)


def test_default_t_grid_shape():
    g = default_t_grid()
    assert g.size == 200
    assert g[0] == pytest.approx(0.001, rel=1e-9)
    assert g[-1] == pytest.approx(0.999, rel=1e-9)
    assert np.all(np.diff(g) > 0)
    # denser near the endpoints than in the middle
    assert g[1] - g[0] < g[100] - g[99]


def test_sweep_volume_bounds_and_extremes(rng):
    curves = random_curve_population(rng, 25)
    order = build_order(curves)
    table = sweep_adoption(order, curves, np.concatenate([[0.0], default_t_grid(40), [1.0]]))
    assert table.volume[0] == 0.0 and table.volume[-1] == 0.0
    assert math.isnan(table.clearing_price[0]) and math.isnan(table.clearing_price[-1])
    one_owner = table.owners == 1
    if one_owner.any():
        top = curves[order.ranking[0]].max_size
        assert np.all(table.volume[one_owner] <= top + 1e-12)
    assert np.all(table.volume <= table.adopted_quantity + 1e-12)
    # quantity nondecreasing, thresholds nonincreasing along the sweep
    assert np.all(np.diff(table.adopted_quantity) >= 0)
    valid = ~np.isnan(table.short_run_price)
    assert np.all(np.diff(table.short_run_price[valid]) <= 1e-12)


def test_long_run_no_gain_when_price_high(rng):
    curves = random_curve_population(rng, 30)
    order = build_order(curves)
    # price above the clearing price at short-run adoption: no extra adoption
    k_probe = 10
    p = clear_price = None
    solver = LongRunSolver(order, curves)
    clear_price = solver.clearing_price_at(k_probe)
    p = float(order.normalized[k_probe - 1] - 1e-9)  # adoption stays at k_probe
    if clear_price is not None and clear_price <= p:
        lr = long_run_adoption(order, curves, p, solver)
        assert lr.k_long == lr.k_short
        assert lr.delta_q == 0.0


def test_long_run_above_everything_means_nobody_adopts(rng):
    curves = random_curve_population(rng, 10)
    order = build_order(curves)
    lr = long_run_adoption(order, curves, float(order.normalized[0]) * 2)
    assert lr.no_adoption
    assert lr.k_short == lr.k_long == 0
    assert lr.delta_q == 0.0


@pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf])
def test_long_run_refuses_a_price_that_is_not_finite_and_positive(rng, p):
    curves = random_curve_population(rng, 5)
    with pytest.raises(DomainError, match="purchase price must be finite and positive"):
        long_run_adoption(build_order(curves), curves, p)


def test_long_run_saturates_when_price_below_all_rents():
    # owners all value capacity at 390; the one remaining renter at 150; any
    # purchase price in between keeps own-to-rent profitable to the very end
    curves = {f"h{i}": curve_with_normalized(f"h{i}", 390.0) for i in range(5)}
    curves["last"] = curve_with_normalized("last", 150.0)
    order = build_order(curves)
    lr = long_run_adoption(order, curves, 200.0)
    assert lr.k_short == 5
    assert lr.saturated
    assert lr.k_long == order.n
    assert lr.t_long == 1.0


def test_long_run_bracketing(rng):
    curves = random_curve_population(rng, 40)
    order = build_order(curves)
    solver = LongRunSolver(order, curves)
    for q in np.linspace(0.1, 0.9, 9):
        p = float(np.quantile(order.normalized, q))
        lr = long_run_adoption(order, curves, p, solver)
        assert lr.d_long >= lr.d_short  # market never shrinks adoption here
        if lr.delta_q > 0:
            assert lr.r_at_long is None or lr.r_at_long <= p
            assert lr.r_before_long is None or lr.r_before_long >= p


def test_long_run_inverts_the_sweep(rng):
    # pick a clearing price off the sweep table and ask for it back
    curves = random_curve_population(rng, 30)
    order = build_order(curves)
    solver = LongRunSolver(order, curves)
    k_target = 17
    p = solver.clearing_price_at(k_target)
    k0 = order.rate_demand_count(p)
    if 0 < k0 <= k_target:
        lr = long_run_adoption(order, curves, p, solver)
        assert abs(lr.k_long - k_target) <= 1


def _linear_table(n=11, q_max=10.0, p0=400.0, p1=100.0):
    q = np.linspace(0.0, q_max, n)
    thresholds = np.linspace(p0, p1, n)
    z = np.zeros(n)
    return DemandCurves(t=np.linspace(0.01, 0.99, n), owners=np.arange(n),
                        adopted_quantity=q, short_run_price=thresholds,
                        clearing_price=z, volume=z, fraction_rented_out=z,
                        owner_participation=z, non_owner_participation=z,
                        total_participation=z, owner_surplus=z, renter_surplus=z,
                        total_surplus=z)


def _lr(price, d_short, d_long):
    return LongRunResult(price=price, k_short=0, t_short=0.0, d_short=d_short,
                         k_long=0, t_long=0.0, d_long=d_long,
                         delta_q=d_long - d_short, r_at_long=None, r_before_long=None,
                         equilibrium=None)


def test_subsidy_zero_when_no_increase():
    table = _linear_table()
    sub = equivalent_subsidy(table, _lr(250.0, 4.0, 4.0))
    assert sub.subsidy == 0.0
    assert sub.no_increase


def test_subsidy_linear_closed_form():
    # linear inverse demand: the integral is delta_q * (p - mean threshold)
    table = _linear_table(n=11, q_max=10.0, p0=400.0, p1=100.0)
    p, a, b = 280.0, 4.0, 9.0
    sub = equivalent_subsidy(table, _lr(p, a, b))
    thr = lambda q: 400.0 - 30.0 * q
    expected = (b - a) * (p - 0.5 * (thr(a) + thr(b)))
    assert sub.subsidy == pytest.approx(expected, rel=1e-9)


def test_subsidy_refinement_agrees(rng):
    curves = random_curve_population(rng, 30)
    order = build_order(curves)
    table = sweep_adoption(order, curves, default_t_grid(60))
    solver = LongRunSolver(order, curves)
    checked = 0
    for q in np.linspace(0.15, 0.85, 8):
        p = float(np.quantile(order.normalized, q))
        lr = long_run_adoption(order, curves, p, solver)
        if lr.delta_q <= 0:
            continue
        coarse = equivalent_subsidy(table, lr, refine=1)
        fine = equivalent_subsidy(table, lr, refine=10)
        assert fine.subsidy == pytest.approx(coarse.subsidy, rel=5e-3, abs=1e-12)
        checked += 1
    assert checked > 0
