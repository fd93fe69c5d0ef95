import sys
from pathlib import Path

import numpy as np
import pytest

from dershare.dispatch import ScenarioContext
from dershare.model import HOURS, AssetSpec, DomainError
from oracles import block_lp_bill, dp_dispatch_cost, one_household, random_dispatch_instance


@pytest.fixture(scope="module")
def asset():
    return AssetSpec()


def _bill(load, irr, buy, sell, asset, y, require_terminal_soc=False):
    """The period totals of one household over these days, from annual_bill."""
    sc = one_household(load, irr, buy, sell, asset)
    ctx = ScenarioContext(sc, require_terminal_soc=require_terminal_soc)
    return ctx.annual_bill(sc.households[0], y)


def test_no_asset_flat_bill(asset):
    # 1 kWh every hour at 0.20 $/kWh with no asset: the bill is exactly 4.80
    res = _bill(np.ones(HOURS), np.zeros(HOURS), np.full(HOURS, 0.2), np.zeros(HOURS), asset,
                y=0.0)
    assert res.bill == pytest.approx(4.80, rel=1e-12)
    assert res.bill == res.purchases == float(np.ones(HOURS) @ np.full(HOURS, 0.2))
    assert res.sale_credit == 0.0


def test_zero_load_worthless_surplus(asset):
    # nothing to buy and a zero sell price: optimal cost is zero
    irr = np.clip(np.sin(np.linspace(0, np.pi, HOURS)), 0, None)
    res = _bill(np.zeros(HOURS), irr, np.full(HOURS, 0.2), np.zeros(HOURS), asset, y=2.0)
    assert res.bill == pytest.approx(0.0, abs=1e-9)


def test_precondition_violations(asset):
    ones = np.ones(HOURS)
    with pytest.raises(DomainError):
        _bill(ones, ones, 0.1 * ones, 0.2 * ones, asset, 1.0)  # sell > buy
    with pytest.raises(DomainError):
        _bill(ones, ones, 0.2 * ones, 0.1 * ones, asset, -1.0)
    with pytest.raises(DomainError):
        _bill(ones, ones, -0.2 * ones, -0.3 * ones, asset, 1.0)


def test_context_refuses_an_empty_day_selection(asset):
    ones = np.ones(HOURS)
    sc = one_household(ones, ones, 0.2 * ones, 0.1 * ones, asset)
    with pytest.raises(DomainError, match="at least one day"):
        ScenarioContext(sc, day_indices=[])


def test_block_lp_solution_satisfies_dispatch_constraints(asset):
    """The block LP's optimum, solved with row bounds stated from the
    physics, obeys the storage recursion and boxes; _solve's bill is the
    price of the grid netted from it."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        load, irr, buy, sell, y = random_dispatch_instance(rng)
        sc = one_household(load, irr, buy, sell, asset)
        ctx = ScenarioContext(sc)
        x0 = asset.x0 * asset.alpha * y
        b = np.concatenate([load - asset.eta_i * irr * y,  # bus balance
                            [asset.eta_s * x0], np.zeros(HOURS - 1)])  # storage recursion
        x = ctx._model.solve(b, b, np.zeros(5 * HOURS), ctx.unit * y).x
        charge, discharge, soc, imports, exports = x.reshape(5, HOURS)
        u = charge - discharge
        # state-of-charge recursion and box constraints
        x_prev = x0
        for h in range(HOURS):
            assert soc[h] == pytest.approx(asset.eta_s * x_prev + u[h], abs=1e-7)
            x_prev = soc[h]
        assert np.all(soc >= -1e-9) and np.all(soc <= asset.alpha * y + 1e-9)
        assert np.all(u <= asset.u_charge_max * y + 1e-9)
        assert np.all(u >= -asset.u_discharge_max * y - 1e-9)
        # bus balance
        np.testing.assert_allclose(
            imports - exports, load - asset.eta_i * irr * y + charge / (asset.eta_c * asset.eta_i)
            - asset.eta_d * asset.eta_i * discharge, atol=1e-9)
        # the bill prices the grid netted from x, and decomposes
        grid = (load - asset.eta_i * irr * y + np.maximum(u, 0) / (asset.eta_c * asset.eta_i)
                + asset.eta_d * asset.eta_i * np.minimum(u, 0))
        res = ctx._solve(sc.households[0], y)
        assert res.bill == pytest.approx(np.maximum(grid, 0) @ buy + np.minimum(grid, 0) @ sell,
                                         rel=1e-9)
        assert res.bill == pytest.approx(res.purchases + res.sale_credit, abs=1e-9)
        assert res.sale_credit <= 0.0


def test_period_matches_sum_of_days(asset):
    rng = np.random.default_rng(11)
    days = [random_dispatch_instance(rng) for _ in range(4)]
    y = 1.5
    load = np.stack([d[0] for d in days])
    irr = np.stack([d[1] for d in days])
    buy = np.stack([d[2] for d in days])
    sell = np.stack([d[3] for d in days])
    totals = _bill(load, irr, buy, sell, asset, y)
    per_day = [_bill(*d[:4], asset, y) for d in days]
    assert totals.bill == pytest.approx(sum(r.bill for r in per_day), abs=1e-7)
    assert totals.purchases == pytest.approx(sum(r.purchases for r in per_day), abs=1e-6)
    assert totals.sale_credit == pytest.approx(sum(r.sale_credit for r in per_day), abs=1e-6)


def test_bill_monotone_nonincreasing_in_capacity(asset):
    rng = np.random.default_rng(13)
    for _ in range(5):
        load, irr, buy, sell, _ = random_dispatch_instance(rng)
        costs = [_bill(load, irr, buy, sell, asset, y).bill
                 for y in np.linspace(0.0, 3.0, 7)]
        for a, b in zip(costs, costs[1:]):
            assert b <= a + 1e-6


def test_bill_midpoint_convex_in_capacity(asset):
    rng = np.random.default_rng(17)
    for _ in range(5):
        load, irr, buy, sell, _ = random_dispatch_instance(rng)
        y1, y2 = sorted(rng.uniform(0.0, 3.0, 2))
        c1 = _bill(load, irr, buy, sell, asset, y1).bill
        c2 = _bill(load, irr, buy, sell, asset, y2).bill
        cm = _bill(load, irr, buy, sell, asset, 0.5 * (y1 + y2)).bill
        assert cm <= 0.5 * (c1 + c2) + 1e-6


def test_strict_savings_when_surplus_is_paid(asset):
    # positive irradiance and positive sell price in the same hour force a
    # strict bill reduction of at least delta * eta_i * max(irr * sell)
    rng = np.random.default_rng(19)
    load, irr, buy, sell, _ = random_dispatch_instance(rng)
    sell = np.maximum(sell, 0.02)
    y, delta = 1.0, 0.5
    c1 = _bill(load, irr, buy, sell, asset, y).bill
    c2 = _bill(load, irr, buy, sell, asset, y + delta).bill
    bound = delta * asset.eta_i * np.max(irr * sell)
    assert c1 - c2 >= bound - 1e-6


def test_dp_oracle_sandwich(asset):
    rng = np.random.default_rng(23)
    for _ in range(15):
        load, irr, buy, sell, y = random_dispatch_instance(rng)
        lp = _bill(load, irr, buy, sell, asset, y).bill
        dp = dp_dispatch_cost(load, irr, buy, sell, asset, y)
        assert dp - lp >= -1e-6
        assert dp - lp <= 0.01 * abs(dp) + 1e-6


def test_scale_equivariance_storage_free():
    # with a vanishing storage share, doubling load and capacity doubles cost
    asset = AssetSpec(alpha=1e-12)
    rng = np.random.default_rng(29)
    load, irr, buy, sell, y = random_dispatch_instance(rng)
    c1 = _bill(load, irr, buy, sell, asset, y).bill
    c2 = _bill(2 * load, irr, buy, sell, asset, 2 * y).bill
    assert c2 == pytest.approx(2 * c1, rel=1e-7, abs=1e-9)


def test_terminal_soc_flag_costs_more(asset):
    rng = np.random.default_rng(31)
    load, irr, buy, sell, y = random_dispatch_instance(rng)
    start = AssetSpec(x0=0.5)
    free = _bill(load, irr, buy, sell, start, y)
    pinned = _bill(load, irr, buy, sell, start, y, require_terminal_soc=True)
    assert pinned.bill >= free.bill - 1e-9


def test_context_caching_and_baseline(medium_population):
    sc = medium_population.scenario
    ctx = ScenarioContext(sc)
    hh = sc.households[0]
    baseline = ctx.annual_bill(hh, 0.0)
    # exact closed form: load . buy
    expected = float(np.dot(hh.load.ravel(), sc.buy.ravel()))
    assert baseline.bill == baseline.purchases == expected and baseline.sale_credit == 0.0
    # the warm model a positive capacity leaves behind does not touch it
    ctx.annual_bill(hh, hh.net_zero_size)
    assert ctx.annual_bill(hh, 0.0) == baseline


def test_day_subsampling_scales_totals():
    from dershare.synth import SynthConfig, generate_scenario
    sc = generate_scenario(SynthConfig(n_households=2, n_days=6, rng_seed=41))
    full = ScenarioContext(sc)
    half = ScenarioContext(sc, day_indices=np.array([0, 2, 4]))
    assert half.scale == 2.0
    hh = sc.households[0]
    assert half.annual_bill(hh, 0.0).bill == pytest.approx(
        2.0 * float(hh.load[[0, 2, 4]].sum(axis=0) @ sc.buy[0]), rel=1e-12)
    # the subsample approximates the full-period bill
    assert half.annual_bill(hh, 0.0).bill == pytest.approx(full.annual_bill(hh, 0.0).bill, rel=0.2)


@pytest.mark.parametrize("terminal", [False, True])
@pytest.mark.parametrize("n_days", [1, 7, 30])
def test_period_matrix_equals_scipy_sparse_build(asset, n_days, terminal):
    # the numpy build hands HiGHS exactly the arrays scipy.sparse would; a
    # required terminal charge adds no row: the model keeps its 48 equality
    # rows per day, and x_24's per-kW lower bound is x0 * alpha, every other one 0
    import scipy.sparse as sp
    from dershare.dispatch import _day_matrix, _period_matrix
    from dershare.synth import SynthConfig, generate_scenario
    rows, cols, vals = _day_matrix(asset)
    day = sp.coo_matrix((vals, (rows, cols)), shape=(2 * HOURS, 5 * HOURS))
    expected = sp.block_diag([day] * n_days, format="csc")
    shape, arrays = _period_matrix(asset, n_days)
    assert shape == expected.shape
    for got, want in zip(arrays, (expected.indptr, expected.indices, expected.data)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    half_charged = AssetSpec(x0=0.5)
    sc = generate_scenario(SynthConfig(n_households=1, n_days=n_days, rng_seed=43), half_charged)
    ctx = ScenarioContext(sc, require_terminal_soc=terminal)
    n_cols, n_rows = ctx._model._shape
    assert (n_rows, n_cols) == expected.shape
    last = np.arange(n_days) * 5 * HOURS + 3 * HOURS - 1
    np.testing.assert_array_equal(
        ctx.lower[last], np.full(n_days, half_charged.x0 * half_charged.alpha if terminal else 0.0))
    assert not np.delete(ctx.lower, last).any()


def test_missing_highs_binding_names_the_directory(monkeypatch):
    import importlib.machinery
    import scipy
    from dershare import lp
    monkeypatch.delitem(sys.modules, lp._HIGHS_MODULE)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
    with pytest.raises(ImportError) as exc:
        lp._load_highs()
    assert str(Path(scipy.__file__).parent / "optimize" / "_highspy") in str(exc.value)
    assert f"scipy {scipy.__version__}" in str(exc.value)
    assert lp._HIGHS_MODULE not in sys.modules


def test_lp_model_checks_array_lengths():
    # HiGHS reads the arrays through bare pointers, so a short one must never reach it
    from dershare.lp import LPModel
    start, index, value = np.array([0, 1, 2]), np.array([0, 0]), np.ones(2)
    model = LPModel([1.0, 2.0], ((1, 2), (start, index, value)))
    assert model.solve([1.0], [1.0], np.zeros(2), np.full(2, np.inf)).objective == 1.0
    with pytest.raises(ValueError, match="bounds do not fit a 1 x 2 model"):
        model.solve([1.0], [1.0], np.zeros(1), np.full(2, np.inf))
    with pytest.raises(ValueError, match="bounds do not fit a 1 x 2 model"):
        model.solve([1.0, 1.0], [1.0], np.zeros(2), np.full(2, np.inf))
    for c, arrays in (([1.0], (start, index, value)), ([1.0, 2.0], (start[:-1], index, value)),
                      ([1.0, 2.0], (start, index[:1], value))):
        with pytest.raises(ValueError, match="do not fit a 1 x 2 model"):
            LPModel(c, ((1, 2), arrays))


def _assert_matches_oracle(totals, oracle, scale=1.0):
    bill, purchases = oracle
    assert totals.bill == pytest.approx(scale * bill, rel=1e-9, abs=1e-12)
    assert totals.purchases == pytest.approx(scale * purchases, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("terminal", [False, True])
def test_block_lp_matches_cold_linprog_oracle(terminal):
    # criterion 2's instances, one day at a time and as five-day blocks; a
    # half-charged start makes the terminal bounds bind
    asset = AssetSpec(x0=0.5) if terminal else AssetSpec()
    rng = np.random.default_rng(7001)
    days = [random_dispatch_instance(rng) for _ in range(40)]
    for load, irr, buy, sell, y in days:
        _assert_matches_oracle(_bill(load, irr, buy, sell, asset, y, terminal),
                               block_lp_bill(load, irr, buy, sell, asset, y, terminal))
    for block in range(0, len(days), 5):
        load, irr, buy, sell = (np.stack([d[k] for d in days[block:block + 5]])
                                for k in range(4))
        y = days[block][4]
        _assert_matches_oracle(_bill(load, irr, buy, sell, asset, y, terminal),
                               block_lp_bill(load, irr, buy, sell, asset, y, terminal))


@pytest.mark.parametrize("terminal", [False, True])
def test_warm_started_bills_match_cold_oracle_in_any_order(terminal):
    from dershare.synth import SynthConfig, generate_scenario
    asset = AssetSpec(x0=0.5) if terminal else AssetSpec()
    sc = generate_scenario(SynthConfig(n_households=2, n_days=6, rng_seed=43), asset)
    days = np.array([0, 2, 3, 5])
    ctx = ScenarioContext(sc, day_indices=days, require_terminal_soc=terminal)
    a, b = sc.households
    grids = {hh.id: np.linspace(0.0, hh.net_zero_size, 9) for hh in (a, b)}

    def oracle(hh, y):
        return block_lp_bill(hh.load[days], sc.irradiance[days], sc.buy[days], sc.sell[days],
                             asset, y, terminal)
    expected = {(hh.id, y): oracle(hh, y) for hh in (a, b) for y in grids[hh.id]}

    ascending = [(a, y) for y in grids[a.id]]
    shuffled = [ascending[i] for i in np.random.default_rng(3).permutation(len(ascending))]
    interleaved = [pair for ya, yb in zip(grids[a.id], grids[b.id]) for pair in ((a, ya), (b, yb))]
    for order in (ascending, ascending[::-1], shuffled, interleaved):
        for hh, y in order:
            _assert_matches_oracle(ctx.annual_bill(hh, float(y)), expected[hh.id, y], ctx.scale)


def test_bills_are_bit_identical_whatever_was_billed_before():
    # a household starts from the template basis whichever household the
    # context's one model solved last, so its bills never depend on them
    from dershare.curves import sample_grid
    from dershare.synth import SynthConfig, generate_scenario
    sc = generate_scenario(SynthConfig(n_households=3, n_days=4, rng_seed=47))
    a, b, c = sc.households
    grids = {hh.id: [float(y) for y in sample_grid(hh.net_zero_size, 4)[1:]]
             for hh in sc.households}

    def bills(ctx, hh):
        return [tuple(ctx.annual_bill(hh, y)) for y in grids[hh.id]]
    fresh = {hh.id: bills(ScenarioContext(sc), hh) for hh in sc.households}
    after_others = ScenarioContext(sc)
    for hh in (c, b, a, c):
        assert bills(after_others, hh) == fresh[hh.id]
    interleaved = ScenarioContext(sc)
    for hh in (b, c, a) * 2:
        assert tuple(interleaved.annual_bill(hh, grids[hh.id][0])) == fresh[hh.id][0]


def test_fit_is_bit_identical_for_any_worker_count():
    from dershare.curves import fit_all
    from dershare.synth import SynthConfig, generate_scenario
    sc = generate_scenario(SynthConfig(n_households=6, n_days=5, rng_seed=53))
    (s1, p1), (s2, p2) = (fit_all(ScenarioContext(sc), n_samples=6, workers=w) for w in (1, 2))
    assert s1.ids == p1.ids == s2.ids == p2.ids == tuple(sorted(h.id for h in sc.households))
    for got, want in ((s2.offsets, s1.offsets), (s2.knots, s1.knots), (s2.slopes, s1.slopes),
                      (p2.offsets, p1.offsets), (p2.knot_values, p1.knot_values)):
        assert got.tobytes() == want.tobytes()


def test_template_basis_skips_the_cold_solve():
    # on a 30-day block a household's first capacity solved cold takes
    # ~880 pivots; from the template basis it takes none or a handful
    from dershare.synth import SynthConfig, generate_scenario
    sc = generate_scenario(SynthConfig(n_households=2, n_days=30, rng_seed=59))
    second = sc.households[1]
    y = 0.01 * second.net_zero_size
    ctx = ScenarioContext(sc)
    totals = ctx.annual_bill(second, y)
    cold = ScenarioContext(sc)  # its first solve has no basis to start from
    cold._solve(second, y)
    assert cold._model.simplex_iteration_count > 500
    assert ctx._model.simplex_iteration_count <= cold._model.simplex_iteration_count // 20
    _assert_matches_oracle(totals, block_lp_bill(second.load, sc.irradiance, sc.buy, sc.sell,
                                                 sc.asset, y))
