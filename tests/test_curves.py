import logging
from dataclasses import replace

import numpy as np
import pytest

from dershare.curves import (FitError, fit_purchases_curve, fit_savings_curve,
                             pava_nondecreasing, pava_nonincreasing, sample_grid,
                             sample_household)
from dershare.dispatch import ScenarioContext
from dershare.io import write_purchases_curves, write_savings_curves
from dershare.model import HOURS, AssetSpec, CurveError, CurveSet, DomainError, Scenario
from dershare.synth import SynthConfig, generate_scenario
from oracles import argmax_interval, curve, one_household, random_concave_curve, split


# ---------------------------------------------------------------- projection

def test_pava_idempotent_on_monotone():
    x = np.array([1.0, 2.0, 2.0, 5.0])
    np.testing.assert_array_equal(pava_nondecreasing(x), x)


def test_pava_output_is_monotone_and_sum_preserving(rng):
    for _ in range(50):
        n = rng.integers(2, 12)
        x = rng.normal(0, 10, n)
        w = rng.uniform(0.1, 3.0, n)
        out = pava_nondecreasing(x, w)
        assert np.all(np.diff(out) >= -1e-12)
        assert np.dot(out, w) == pytest.approx(np.dot(x, w), rel=1e-12, abs=1e-12)


def test_pava_is_the_projection(rng):
    # the fit must beat every monotone candidate in weighted squared error
    for _ in range(20):
        n = int(rng.integers(2, 8))
        x = rng.normal(0, 5, n)
        w = rng.uniform(0.5, 2.0, n)
        out = pava_nondecreasing(x, w)
        err = np.sum(w * (out - x) ** 2)
        for _ in range(200):
            cand = np.sort(rng.normal(0, 5, n))
            assert err <= np.sum(w * (cand - x) ** 2) + 1e-9


def test_pava_nonincreasing_mirrors():
    x = np.array([1.0, 3.0, 2.0, 0.5])
    np.testing.assert_allclose(pava_nonincreasing(x), -pava_nondecreasing(-x))


# ---------------------------------------------------------------- curve type

def _kind_id(value):
    """A parameter `savings` as its curve kind's name in test ids."""
    return ("PurchasesCurve", "SavingsCurve")[value] if type(value) is bool else None


def test_curve_constructor_invariants():
    knots = np.array([0.0, 1.0, 2.0])
    curve("a", knots, np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        curve("a", knots, np.array([1.0, 2.0]))  # convex
    with pytest.raises(ValueError):
        curve("a", knots, np.array([1.0, -0.5]))  # decreasing tail
    with pytest.raises(ValueError):
        curve("a", np.array([0.5, 1.0, 2.0]), np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        curve("a", knots, np.array([1.0, 2.0, 0.0]), savings=False)


@pytest.mark.parametrize("savings,knots,rest,message", [
    (False, [0.0, 1.0, 2.0], [5.0, np.nan, np.nan], "values must be finite"),
    (False, [0.0, 1.0, 2.0], [np.inf, 5.0, 4.0], "values must be finite"),
    (False, [0.0, np.nan, 2.0], [5.0, 4.0, 3.0], "knots must be finite"),
    (False, [0.0, 1.0, np.inf], [5.0, 4.0, 3.0], "knots must be finite"),
    (True, [0.0, np.nan, 2.0], [2.0, 1.0], "knots must be finite"),
    (True, [0.0, 1.0, np.nan], [2.0, 1.0], "knots must be finite"),
    (True, [0.0, 1.0, np.inf], [2.0, 1.0], "knots must be finite"),
    (True, [0.0, 1e300, 2e300], [1e10, 1e10], "values must be finite"),  # overflow
], ids=_kind_id)
def test_curve_types_refuse_what_their_csv_readers_refuse(savings, knots, rest, message):
    """A curve holds finite knots and values, as the curve CSVs' columns
    must, so no curve a fresh run hands on is one a rerun would refuse."""
    with np.errstate(over="ignore"), pytest.raises(ValueError) as exc:
        curve("H", np.array(knots), np.array(rest), savings)
    assert str(exc.value) == message


@pytest.mark.parametrize("fit,y,samples,message", [
    (fit_purchases_curve, [0.0, 1.0, 2.0], [5.0, np.nan, np.nan], "values must be finite"),
    (fit_purchases_curve, [0.0, 1.0, np.inf], [5.0, 4.0, 3.0], "knots must be finite"),
    (fit_purchases_curve, [0.0, 2.0, 1.0], [5.0, 4.0, 3.0], "knots must be strictly ascending"),
    (fit_savings_curve, [0.0, 1.0, np.nan], [0.0, 1.0, 2.0], "knots must be finite"),
])
def test_fit_names_the_household_of_a_curve_that_breaks_the_rules(fit, y, samples, message):
    with np.errstate(all="ignore"), pytest.raises(FitError) as exc:
        fit("H0007", np.array(y), np.array(samples))
    assert str(exc.value) == f"household H0007: {message}"


def _breakable_curve(rng, savings: bool):
    """1-6 knots and their slopes or values, broken in up to two random ways."""
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, int(rng.integers(0, 6))))])
    second = np.sort(rng.uniform(0.0, 300.0, knots.size - savings))[::-1]
    for _ in range(int(rng.integers(0, 3)) * (rng.uniform() < 0.4)):
        a = (knots, second)[int(rng.integers(0, 2))]
        if a.size:
            a[rng.integers(0, a.size)] = rng.choice([np.nan, np.inf, -1.0, 0.5, 1e3])
    return knots, second


def _first_rule_broken(knots, second, savings: bool) -> str | None:
    """The curve rules checked one by one, in order, as each curve type
    checked itself before curve sets: the first one broken."""
    if knots.size < 2:
        return "need at least two knots"
    if knots[0] != 0.0:
        return "first knot must be 0"
    if not np.all(np.isfinite(knots)):
        return "knots must be finite"
    if np.any(np.diff(knots) <= 0):
        return "knots must be strictly ascending"
    if not np.all(np.isfinite(second)):
        return "slopes must be finite" if savings else "values must be finite"
    if np.any(np.diff(second) > 0):
        return ("slopes must be nonincreasing (concavity)" if savings
                else "purchases must be nonincreasing in capacity")
    if savings and second[-1] < 0:
        return "slopes must be nonnegative (monotone savings)"
    if savings and not np.all(np.isfinite(np.cumsum(second * np.diff(knots)))):
        return "values must be finite"
    return None


@pytest.mark.parametrize("savings", [True, False], ids=_kind_id)
def test_a_set_refuses_the_first_household_by_the_first_rule_it_breaks(savings):
    """The set checks every household at once, and names the household and
    the rule that checking each curve on its own, in id order, would; a
    curve built alone names that rule too. A set that passes holds each
    curve as its slices, and is what stacking the curves built alone gives."""
    rng = np.random.default_rng(26)
    refused = 0
    for trial in range(300):
        ids = [f"H{i}" for i in range(int(rng.integers(1, 6)))]
        arrays = [_breakable_curve(rng, savings) for _ in ids]
        with np.errstate(all="ignore"):
            rules = [_first_rule_broken(*a, savings) for a in arrays]
            for hid, a, rule in zip(ids, arrays, rules):
                if rule is None:
                    continue
                with pytest.raises(ValueError) as alone:
                    curve(hid, *a, savings)
                assert str(alone.value) == rule
            want = next(((i, rule) for i, rule in enumerate(rules) if rule), None)
            try:
                curves = CurveSet(ids, *zip(*arrays), savings)
            except CurveError as exc:
                assert (exc.index, str(exc)) == want, trial
                refused += 1
                continue
        assert want is None, trial
        alone = [curve(hid, *a, savings) for hid, a in zip(ids, arrays)]
        for i, ((knots, second), one) in enumerate(zip(arrays, alone)):
            a, b = curves.offsets[i:i + 2]
            assert curves.knots[a:b].tobytes() == knots.tobytes()
            assert (curves.slopes[a - i:b - i - 1] if savings else
                    curves.knot_values[a:b]).tobytes() == second.tobytes()
            assert curves.knot_values[a:b].tobytes() == one.knot_values.tobytes()
        stacked = CurveSet.of(alone[::-1])
        assert stacked.ids == curves.ids
        for name in ("offsets", "knots", "knot_values", "slopes", "sizes", "totals",
                     "segment_knots"):
            assert np.array_equal(getattr(stacked, name), getattr(curves, name)), name
    assert 50 < refused < 250  # both outcomes are drawn often


_TWO = [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]


@pytest.mark.parametrize("ids,knots,second,savings,index,message", [
    # the slopes add up to the segments, but H0 would take H1's first one
    (["H0", "H1"], _TWO, [[3.0], [2.0, 1.0, 0.5]], True, 0, "expected 2 slopes, got (1,)"),
    (["H0", "H1"], _TWO, [[3.0, 2.0], [2.0, 1.0, 0.5]], True, 1, "expected 2 slopes, got (3,)"),
    (["H0", "H1"], _TWO, [[3.0, 2.0, 1.0], [2.0, 1.0]], False, 1, "values must match knots"),
    (["H0", "H1"], [_TWO[0], _TWO], [[3.0, 2.0], [2.0, 1.0]], True, 1,
     "need at least two knots"),
    (["H0", "H0"], _TWO, [[3.0, 2.0], [2.0, 1.0]], True, 1,
     "household ids must ascend, each once"),
    (["H1", "H0"], _TWO, [[3.0, 2.0, 1.0], [2.0, 1.0, 0.0]], False, 1,
     "household ids must ascend, each once"),
    # an earlier household's broken rule comes before a later one's shape
    (["H0", "H1"], [[0.5, 1.0, 2.0], _TWO[1]], [[3.0, 2.0], [2.0]], True, 0,
     "first knot must be 0"),
], ids=["misaligned", "slopes", "values", "2-d", "repeated", "descending", "earlier-first"])
def test_a_set_refuses_what_does_not_fit_together_before_any_arithmetic(ids, knots, second,
                                                                       savings, index, message):
    """A second array that does not fit its knots, even where the totals
    agree, and ids out of order are refused, naming the household."""
    with pytest.raises(CurveError) as exc:
        CurveSet(ids, [np.array(k) for k in knots], [np.array(a) for a in second], savings)
    assert (exc.value.index, exc.value.knot, str(exc.value)) == (index, 0, message)


def test_a_household_twice_is_refused_before_its_file_is_written(tmp_path):
    a = curve("A", np.array([0.0, 1.0, 2.0]), np.array([2.0, 1.0]))
    b = curve("A", np.array([0.0, 1.0, 2.0]), np.array([5.0, 4.0, 3.0]), savings=False)
    with pytest.raises(CurveError) as exc:
        CurveSet.of([a, a])
    assert (exc.value.index, str(exc.value)) == (1, "household ids must ascend, each once")
    for write, one in ((write_savings_curves, a), (write_purchases_curves, b)):
        with pytest.raises(CurveError):
            write(tmp_path / "curves.csv", [one, one])
    assert list(tmp_path.iterdir()) == []


def test_eval_and_deriv_basics():
    c = curve("a", np.array([0.0, 1.0, 3.0]), np.array([10.0, 4.0]))
    np.testing.assert_array_equal(c.eval([0.0, 1.0, 3.0], ["a"] * 3), [0.0, 10.0, 18.0])
    assert c.eval([2.0], ["a"])[0] == pytest.approx(14.0)  # linear interpolation
    # the knot values are the running integral of the slopes
    np.testing.assert_array_equal(np.diff(c.knot_values) / np.diff(c.knots), c.slopes)
    with pytest.raises(DomainError):
        c.eval([3.5], ["a"])
    with pytest.raises(DomainError):
        c.eval([-0.5], ["a"])


def _demanded(c, r):
    """Capacity demanded at rental price r, by the clearing oracle's argmax."""
    return argmax_interval(c.knots, c.slopes, r)[1]


def test_inverse_marginal_edges():
    c = curve("a", np.array([0.0, 1.0, 3.0]), np.array([10.0, 4.0]))
    assert _demanded(c, 0.0) == 3.0  # free rent: take everything
    assert _demanded(c, 11.0) == 0.0  # above the initial slope
    assert _demanded(c, 4.0) == 3.0
    assert _demanded(c, 10.0) == 1.0
    assert _demanded(c, 7.0) == 1.0
    assert argmax_interval(c.knots, c.slopes, 10.0) == (0.0, 1.0)
    with pytest.raises(DomainError):
        _demanded(c, -1.0)


def test_inverse_marginal_maximizes_both_market_objectives(rng):
    for i in range(10):
        c = random_concave_curve(rng, f"h{i}")
        size = c.sizes[0]
        for r in rng.uniform(0.0, 450.0, 5):
            y_star = _demanded(c, r)
            f_star = c.eval([y_star], c.ids)[0]
            best = f_star - r * y_star
            candidates = np.concatenate([c.knots, rng.uniform(0, size, 1000)])
            assert np.all(best >= c.eval(candidates, c.ids * candidates.size) - r * candidates
                          - 1e-9)
            # the owner objective differs by the constant r * size
            owner_best = f_star + r * (size - y_star)
            assert owner_best == pytest.approx(best + r * size, rel=1e-12, abs=1e-9)


def test_demand_nonincreasing_in_price(rng):
    c = random_concave_curve(rng, "h")
    rs = np.linspace(0, 500, 100)
    ys = [_demanded(c, r) for r in rs]
    assert all(b <= a + 1e-12 for a, b in zip(ys, ys[1:]))


# ---------------------------------------------------------------- fitting

def test_sample_grid_shape():
    g = sample_grid(2.0, 30)
    assert g.size == 31
    assert g[0] == 0.0
    assert g[1] == pytest.approx(0.02)
    assert g[-1] == 2.0
    with pytest.raises(DomainError):
        sample_grid(2.0, 1)


def test_fit_preserves_endpoints_exactly():
    y = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    f = np.array([0.0, 30.0, 50.0, 62.0, 70.0])  # already concave
    c = fit_savings_curve("a", y, f)
    assert c.ids == ("a",)
    f_0, f_2 = c.eval([0.0, 2.0], ["a", "a"])
    assert f_0 == 0.0
    assert f_2 == pytest.approx(70.0, rel=1e-12)
    # interior knots may shift by order epsilon from the slope separation
    np.testing.assert_allclose(c.knot_values, f, atol=1e-5)


def test_fit_repairs_small_noise(caplog):
    y = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    f = np.array([0.0, 30.0, 50.0, 62.0, 70.0])
    noisy = f + np.array([0.0, 1e-4, -1e-4, 5e-5, 0.0])
    with caplog.at_level(logging.INFO, logger="dershare.curves"):
        c = fit_savings_curve("a", y, noisy)
    assert np.all(np.diff(c.slopes) < 0)  # strictly decreasing after separation
    assert c.eval([2.0], ["a"])[0] == pytest.approx(noisy[-1], rel=1e-9)


def test_fit_rejects_gross_violation():
    y = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    f = np.array([0.0, 10.0, 15.0, 60.0, 70.0])  # badly convex
    with pytest.raises(FitError, match="^household a: concavity repair moved a sample by 25 "):
        fit_savings_curve("a", y, f)


def test_fit_says_when_savings_fall_with_capacity():
    # the same refusal as a gross repair, named for what it is
    with pytest.raises(FitError) as exc:
        fit_savings_curve("H0003", [0, 1, 2, 3, 4], [0, -45, -1546, -3052, -4559])
    assert str(exc.value) == ("household H0003: savings fall with capacity, to -4559 at 4 kW: "
                              "refilling self-discharge to the terminal charge costs more than "
                              "the PV saves (require_terminal_soc, asset.x0, asset.eta_s)")


@pytest.mark.parametrize("y,f,message", [
    ([0.0, 1.0, 2.0], [0.0, 1.0], "need matching 1-d sample arrays with at least two points"),
    ([1.0, 2.0], [1.0, 2.0], "samples must start at (0, 0)"),
    ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], "sample capacities must be strictly ascending"),
    # the repair moves 18 samples by 0.95, within 1% of the terminal savings, yet R^2 drops
    (np.arange(21.0), [0.0, 100.0] + [99.05] * 18 + [100.0],
     "household a: fit R^2 0.998265 below 0.999"),
])
def test_fit_refuses_unusable_samples(y, f, message):
    with pytest.raises(FitError) as exc:
        fit_savings_curve("a", y, f)
    assert str(exc.value) == message


def test_fit_slope_separation_preserves_total(rng):
    y = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 3.0, 8))])
    slopes_true = np.sort(rng.uniform(20, 200, 8))[::-1]
    slopes_true[4] = slopes_true[3]  # tie forces the separation to act
    f = np.concatenate([[0.0], np.cumsum(slopes_true * np.diff(y))])
    c = fit_savings_curve("a", y, f)
    assert np.all(np.diff(c.slopes) < 0)
    assert c.totals[0] == pytest.approx(f[-1], rel=1e-9)


def test_fit_slope_separation_clamps_a_last_slope_at_zero():
    # the last slope is ~1e-10; separating it from the first by 1e-8 rounds it below 0
    c = fit_savings_curve("H", [0.0, 0.01, 1.0], [0.0, 0.4, 0.400000000099])
    assert c.slopes[-1] == 0.0 and c.slopes[0] > 40.0
    assert c.totals[0] == pytest.approx(0.400000000099, rel=1e-9)


def test_flat_zero_savings_from_dispatch():
    # zero irradiance with flat buy = sell prices: capacity is worthless
    asset = AssetSpec()
    price = np.full(HOURS, 0.2)
    load = np.full(HOURS, 1.0)
    grid = sample_grid(2.0, 6)
    sc = one_household(load, np.zeros(HOURS), price, price, asset)
    ctx, hh = ScenarioContext(sc), sc.households[0]
    bills = np.array([ctx.annual_bill(hh, y).bill for y in grid])
    f = bills[0] - bills
    assert np.max(np.abs(f)) < 1e-7
    c = fit_savings_curve("a", grid, np.zeros_like(f))
    assert c.totals[0] == 0.0
    assert _demanded(c, 1.0) == 0.0
    assert _demanded(c, 0.0) == 2.0


def test_midpoint_envelope(medium_population):
    # interpolated values sit on the chord of neighboring samples and below
    # the extended tangents, as concave interpolation requires
    curves = medium_population.curves
    for i, (hid, (knots, slopes)) in enumerate(list(split(curves).items())[:8]):
        values = curves.knot_values[curves.offsets[i]:curves.offsets[i + 1]]
        for k in range(1, len(knots) - 2):
            mid = 0.5 * (knots[k] + knots[k + 1])
            chord = 0.5 * (values[k] + values[k + 1])
            f_mid = curves.eval([mid], [hid])[0]
            assert f_mid == pytest.approx(chord, rel=1e-12, abs=1e-9)
            tangent_left = values[k] + slopes[k - 1] * (mid - knots[k])
            tangent_right = values[k + 1] - slopes[min(k + 1, len(slopes) - 1)] * (knots[k + 1] - mid)
            assert f_mid <= min(tangent_left, tangent_right) + 1e-9


def test_population_fit_quality(medium_population):
    for hid, s in medium_population.samples.items():
        fitted = medium_population.curves.eval(s.y, [hid] * s.y.size)
        ss_res = float(np.sum((fitted - s.savings) ** 2))
        ss_tot = float(np.sum((s.savings - s.savings.mean()) ** 2))
        assert 1.0 - ss_res / ss_tot >= 0.999


def test_initial_slopes_cluster_terminal_slopes_spread(medium_population):
    pieces = split(medium_population.curves).values()
    first = np.array([slopes[0] for _, slopes in pieces])
    last = np.array([slopes[-1] for _, slopes in pieces])
    cv_first = first.std() / first.mean()
    cv_last = last.std() / last.mean()
    assert cv_first < cv_last


def test_purchases_fit_anchored_and_monotone(medium_population):
    p = medium_population.purchases
    for i, hid in enumerate(p.ids):
        values = p.knot_values[p.offsets[i]:p.offsets[i + 1]]
        assert values[0] == medium_population.samples[hid].purchases[0]  # exact no-asset bill
        assert np.all(np.diff(values) <= 0)


def test_purchases_fit_warns_on_rise(caplog):
    y = np.array([0.0, 1.0, 2.0])
    p = np.array([100.0, 90.0, 95.0])
    with caplog.at_level(logging.WARNING, logger="dershare.curves"):
        c = fit_purchases_curve("a", y, p)
    assert any("rises" in rec.message for rec in caplog.records)
    assert c.knot_values[0] == 100.0
    assert np.all(np.diff(c.knot_values) <= 0)


# ---------------------------------------------------------------- laws

def _days_permuted(sc: Scenario, order) -> Scenario:
    """The scenario with its days in this order: loads, prices and irradiance together."""
    return replace(sc, households=[replace(hh, load=hh.load[order]) for hh in sc.households],
                   buy=sc.buy[order], sell=sc.sell[order], irradiance=sc.irradiance[order])


@pytest.mark.parametrize("terminal", [False, True])
def test_permuting_the_days_moves_no_sample_beyond_rounding(terminal):
    """The days of a block couple only through y, which is data, so permuting
    them (seeded) with their prices and irradiance leaves every bill of the
    30-day block LP as it was, up to the order of a sum and the pivots a warm
    start takes: each sample of four desk households stays within 1e-12 of
    f(y_bar). With the terminal charge required (x0 = 0.5), each day's last
    state of charge keeps its lower bound through the permutation."""
    asset = AssetSpec(x0=0.5) if terminal else AssetSpec()
    desk = generate_scenario(SynthConfig(), asset)
    sc = replace(desk, households=desk.households[:4])
    shuffled = _days_permuted(sc, np.random.default_rng(11).permutation(sc.n_days))
    contexts = [ScenarioContext(s, require_terminal_soc=terminal) for s in (sc, shuffled)]
    for hh, moved in zip(sc.households, shuffled.households):
        want, got = (sample_household(ctx, h) for ctx, h in zip(contexts, (hh, moved)))
        assert got.y.tobytes() == want.y.tobytes()
        tol = 1e-12 * abs(want.savings[-1])
        assert np.abs(got.savings - want.savings).max() <= tol, hh.id
        assert np.abs(got.purchases - want.purchases).max() <= tol, hh.id
