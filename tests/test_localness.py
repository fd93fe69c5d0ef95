import numpy as np
import pytest

from dershare.adoption import LongRunSolver, build_order
from dershare.localness import (distance_matrix, haversine_km, min_cost_flow, region_index,
                                regional_excess, solve_transport)
from dershare.market import clear_market
from dershare.model import DomainError, Region
from oracles import by_id, modi_transport, owners_of, transport_lp_objective


def test_haversine_basics():
    assert haversine_km(36.8, -119.8, 36.8, -119.8) == 0.0
    assert haversine_km(10.0, 20.0, 30.0, 40.0) == pytest.approx(
        haversine_km(30.0, 40.0, 10.0, 20.0))
    # one degree of latitude at the equator
    assert haversine_km(0.0, 0.0, 1.0, 0.0) == pytest.approx(111.2, abs=0.5)


def test_distance_matrix_shape_and_validation():
    regions = [Region("a", 36.0, -120.0), Region("b", 36.5, -119.5), Region("c", 37.0, -120.2)]
    d = distance_matrix(regions)
    assert d.shape == (3, 3)
    np.testing.assert_array_equal(np.diag(d), 0.0)
    np.testing.assert_allclose(d, d.T)
    with pytest.raises(DomainError):
        distance_matrix([Region("bad", 99.0, 0.0)])


def test_regional_excess_identities(medium_population):
    sc = medium_population.scenario
    order = medium_population.order
    eq = clear_market(medium_population.curves, order.owners_at(20))
    s = regional_excess(eq, sc.households, sc.regions)
    # regional excesses net out to the global clearing residual
    assert s.sum() == pytest.approx(0.0, abs=1e-6)
    # one big region holds everything: excess is the residual itself
    merged = [Region("all", 36.0, -120.0)]
    relabeled = [type(h)(h.id, "all", h.load, h.net_zero_size) for h in sc.households]
    s1 = regional_excess(eq, relabeled, merged)
    assert s1[0] == pytest.approx(0.0, abs=1e-6)


def test_regional_excess_adds_what_a_loop_over_households_adds(medium_population):
    # the reference sums each household into its region in id order, one at a time
    sc, order = medium_population.scenario, medium_population.order
    solver = LongRunSolver(order, medium_population.curves)
    index = region_index(solver.ids, sc.households, sc.regions)
    region_of = {r.id: j for j, r in enumerate(sc.regions)}
    for k in range(0, order.n + 1, 7):
        eq = solver.equilibrium_at(k)
        y, owners = by_id(eq, "allocations"), owners_of(eq)
        expected = np.zeros(len(sc.regions))
        for hh in sorted(sc.households, key=lambda h: h.id):
            if hh.id in owners:
                expected[region_of[hh.region_id]] += hh.net_zero_size - y[hh.id]
            else:
                expected[region_of[hh.region_id]] -= y[hh.id]
        assert regional_excess(eq, sc.households, sc.regions).tolist() == expected.tolist()
        assert regional_excess(eq, sc.households, sc.regions, index).tolist() == expected.tolist()


def test_regional_excess_zero_without_participants(medium_population):
    sc = medium_population.scenario
    # degenerate no-trade equilibrium: nobody supplies or demands anywhere
    eq = clear_market(medium_population.curves, set())
    s = regional_excess(eq, sc.households, sc.regions)
    np.testing.assert_array_equal(s, 0.0)


def test_regional_excess_rejects_unmapped_household(medium_population):
    sc = medium_population.scenario
    eq = clear_market(medium_population.curves, medium_population.order.owners_at(10))
    with pytest.raises(DomainError):
        regional_excess(eq, sc.households, sc.regions[:-1])
    # households must be exactly the curve set's: the first differing id is named
    first, *rest = sorted(sc.households, key=lambda h: h.id)
    with pytest.raises(DomainError, match=f"household '{first.id}': a curve but no household"):
        regional_excess(eq, rest, sc.regions)


def test_transport_two_region_forced_arc():
    flow, obj = solve_transport([3.0], [3.0], np.array([[49.0]]))
    assert obj == pytest.approx(3.0 * 49.0)
    np.testing.assert_allclose(flow, [[3.0]])


def test_transport_matches_lp_oracle(rng):
    for _ in range(25):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        supply = rng.uniform(0.5, 10.0, m)
        demand = rng.uniform(0.5, 10.0, n)
        demand *= supply.sum() / demand.sum()
        cost = rng.uniform(0.0, 100.0, (m, n))
        flow, obj = solve_transport(supply, demand, cost)
        assert np.all(flow >= -1e-12)
        np.testing.assert_allclose(flow.sum(axis=1), supply, atol=1e-8)
        np.testing.assert_allclose(flow.sum(axis=0), demand, atol=1e-8)
        # the same problem as regions: sources first, sinks after, cost = distance^2
        d = np.zeros((m + n, m + n))
        d[:m, m:] = np.sqrt(cost)
        d[m:, :m] = d[:m, m:].T
        rf = min_cost_flow(np.concatenate([supply, -demand]), d, volume=float(supply.sum()))
        for oracle in (transport_lp_objective(supply, demand, cost),
                       modi_transport(supply, demand, cost)[1]):
            assert obj == pytest.approx(oracle, rel=1e-7, abs=1e-9)
            assert rf.objective == pytest.approx(oracle, rel=1e-7, abs=1e-9)


def test_transport_rejects_bad_input_and_passes_empty_sides():
    with pytest.raises(DomainError, match="cost shape"):
        solve_transport([1.0, 2.0], [3.0], np.ones((1, 2)))
    with pytest.raises(DomainError, match="do not balance"):
        solve_transport([1.0, 2.0], [2.0, 2.0], np.ones((2, 2)))
    for supply, demand in (([], []), ([], [0.0, 0.0]), ([0.0], [])):
        flow, obj = solve_transport(supply, demand, np.ones((len(supply), len(demand))))
        assert flow.shape == (len(supply), len(demand))
        assert obj == 0.0


def test_transport_degenerate_ties():
    # equal supplies/demands force degenerate pivots
    supply = np.array([2.0, 2.0, 2.0])
    demand = np.array([2.0, 2.0, 2.0])
    cost = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 2.0], [3.0, 2.0, 1.0]])
    flow, obj = solve_transport(supply, demand, cost)
    assert obj == pytest.approx(6.0)  # diagonal assignment


def test_min_cost_flow_zero_excess():
    rf = min_cost_flow(np.zeros(4), np.ones((4, 4)) - np.eye(4), volume=5.0)
    assert rf.objective == 0.0
    assert np.all(rf.flow == 0.0)
    assert rf.fraction_local == 1.0


def test_min_cost_flow_refuses_a_bad_distance_matrix():
    with pytest.raises(DomainError, match=r"shape \(2, 2\) does not match 3 regions"):
        min_cost_flow(np.array([1.0, -0.5, -0.5]), np.ones((2, 2)), volume=1.0)
    with pytest.raises(DomainError, match="nonnegative"):
        min_cost_flow(np.array([1.0, -1.0]), np.array([[0.0, -1.0], [-1.0, 0.0]]), volume=1.0)


def test_min_cost_flow_two_regions_closed_form():
    d = np.array([[0.0, 7.0], [7.0, 0.0]])
    rf = min_cost_flow(np.array([2.5, -2.5]), d, volume=10.0)
    assert rf.objective == pytest.approx(2.5 * 49.0)
    assert rf.flow[0, 1] == pytest.approx(2.5)
    assert rf.fraction_local == pytest.approx(1.0 - 2.5 / 10.0)


def test_min_cost_flow_constraints_and_diagonal(rng):
    for _ in range(10):
        nz = int(rng.integers(2, 9))
        s = rng.normal(0, 3, nz)
        s -= s.mean()  # balance
        coords = rng.uniform(-1, 1, (nz, 2))
        d = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
        rf = min_cost_flow(s, d, volume=np.abs(s).sum())
        np.testing.assert_allclose(rf.flow.sum(axis=1), np.maximum(s, 0), atol=1e-7)
        np.testing.assert_allclose(rf.flow.sum(axis=0), np.maximum(-s, 0), atol=1e-7)
        np.testing.assert_array_equal(np.diag(rf.flow), 0.0)
        assert 0.0 <= rf.fraction_local <= 1.0


def test_fraction_local_is_flow_independent(rng):
    s = np.array([1.0, -2.0, 3.0, -2.0])
    d1 = np.ones((4, 4)) - np.eye(4)
    d2 = 13.0 * d1
    v = 6.0
    assert min_cost_flow(s, d1, v).fraction_local == min_cost_flow(s, d2, v).fraction_local


def test_distance_scaling_scales_objective_quadratically(rng):
    s = rng.normal(0, 2, 6)
    s -= s.mean()
    coords = rng.uniform(-1, 1, (6, 2))
    d = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    rf1 = min_cost_flow(s, d, volume=np.abs(s).sum())
    rf2 = min_cost_flow(s, 3.0 * d, volume=np.abs(s).sum())
    assert rf2.objective == pytest.approx(9.0 * rf1.objective, rel=1e-9)
    np.testing.assert_array_equal(rf1.flow > 1e-12, rf2.flow > 1e-12)


def test_zero_volume_flagged():
    rf = min_cost_flow(np.zeros(3), np.zeros((3, 3)), volume=0.0)
    assert rf.degenerate
    assert rf.fraction_local == 1.0


def test_min_cost_flow_rescales_imbalance(caplog):
    import logging
    s = np.array([1.0, -0.9])  # 0.1 imbalance, larger side scaled down
    d = np.array([[0.0, 2.0], [2.0, 0.0]])
    with caplog.at_level(logging.INFO, logger="dershare.localness"):
        rf = min_cost_flow(s, d, volume=1.0)
    assert rf.flow[0, 1] == pytest.approx(0.9)
    assert any("rescaling" in rec.message for rec in caplog.records)
