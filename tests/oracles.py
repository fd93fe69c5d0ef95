"""Independent oracles and instance generators used by the test suite.

These deliberately avoid the production code paths they check: the
dispatch oracles are a dynamic program over a discretized state of
charge and a cold scipy `linprog` solve of the block LP written out row
by row, the transportation oracles are a direct LP formulation fed to
`linprog` and a hand-written u-v (MODI) transportation simplex that
uses no LP solver at all, and the clearing oracle bisects the sorted
slopes for the zero of the excess supply, summing every household's
argmax interval at each probe.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from dershare.adoption import LongRunSolver
from dershare.market import PARTICIPATION_TOL
from dershare.model import HOURS, AssetSpec, CurveSet, DomainError, HouseholdRecord, Scenario

SOC_GRID_POINTS = 200


def dp_dispatch_cost(load, irr, buy, sell, asset: AssetSpec, y: float,
                     n_grid: int = SOC_GRID_POINTS) -> float:
    """Best daily cost achievable when the state of charge is restricted to an
    n_grid-point lattice; an upper bound on the dispatch LP optimum because
    every lattice trajectory is feasible for it."""
    load = np.asarray(load, dtype=float)
    irr = np.asarray(irr, dtype=float)
    buy = np.asarray(buy, dtype=float)
    sell = np.asarray(sell, dtype=float)
    base = load - asset.eta_i * irr * y
    cap = asset.alpha * y
    if y == 0.0 or cap <= 0.0:
        return float(np.maximum(base, 0.0) @ buy + np.minimum(base, 0.0) @ sell)

    grid = np.linspace(0.0, cap, n_grid)
    slack = 1e-12 * (1.0 + cap)
    charge_draw = 1.0 / (asset.eta_c * asset.eta_i)
    discharge_yield = asset.eta_d * asset.eta_i

    def stage_cost(u, h):
        g = base[h] + np.maximum(u, 0.0) * charge_draw + discharge_yield * np.minimum(u, 0.0)
        cost = np.maximum(g, 0.0) * buy[h] + np.minimum(g, 0.0) * sell[h]
        feasible = (u <= asset.u_charge_max * y + slack) & (u >= -asset.u_discharge_max * y - slack)
        return np.where(feasible, cost, np.inf)

    u_lattice = grid[None, :] - asset.eta_s * grid[:, None]  # (from, to)
    value = np.zeros(n_grid)  # cost-to-go from the end of the last hour
    for h in range(HOURS - 1, 0, -1):
        value = np.min(stage_cost(u_lattice, h) + value[None, :], axis=1)
        assert np.isfinite(value).all(), "state-of-charge lattice too coarse"
    u0 = grid - asset.eta_s * (asset.x0 * cap)  # the exact initial state, off-lattice
    total = float(np.min(stage_cost(u0, 0) + value))
    assert np.isfinite(total)
    return total


def transport_lp_objective(supply, demand, cost) -> float:
    """Transportation optimum from the flat LP formulation (row and column
    sum constraints over the full flow matrix)."""
    supply = np.asarray(supply, dtype=float)
    demand = np.asarray(demand, dtype=float)
    cost = np.asarray(cost, dtype=float)
    m, n = supply.size, demand.size
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    b_eq = np.concatenate([supply, demand])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


MODI_MAX_PIVOTS = 100000


def _northwest_corner(supply: np.ndarray, demand: np.ndarray):
    """Initial basic feasible solution with exactly m + n - 1 basic cells."""
    m, n = supply.size, demand.size
    flow = np.zeros((m, n))
    basis = []
    s = supply.copy()
    d = demand.copy()
    i = j = 0
    while True:
        q = min(s[i], d[j])
        flow[i, j] = q
        basis.append((i, j))
        s[i] -= q
        d[j] -= q
        if i == m - 1 and j == n - 1:
            break
        # advance one index per step so the basis stays a spanning tree
        if (s[i] <= d[j] and i < m - 1) or j == n - 1:
            i += 1
        else:
            j += 1
    return flow, basis


def _duals(cost: np.ndarray, basis: list[tuple[int, int]], m: int, n: int):
    """Solve u_i + v_j = c_ij over the basis tree (u_0 anchored at 0)."""
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    rows_adj: dict[int, list[tuple[int, int]]] = {}
    cols_adj: dict[int, list[tuple[int, int]]] = {}
    for (i, j) in basis:
        rows_adj.setdefault(i, []).append((i, j))
        cols_adj.setdefault(j, []).append((i, j))
    u[0] = 0.0
    stack = [("r", 0)]
    while stack:
        kind, idx = stack.pop()
        if kind == "r":
            for (i, j) in rows_adj.get(idx, ()):
                if math.isnan(v[j]):
                    v[j] = cost[i, j] - u[i]
                    stack.append(("c", j))
        else:
            for (i, j) in cols_adj.get(idx, ()):
                if math.isnan(u[i]):
                    u[i] = cost[i, j] - v[j]
                    stack.append(("r", i))
    if np.isnan(u).any() or np.isnan(v).any():
        raise AssertionError("basis is not a spanning tree")
    return u, v


def _find_cycle(basis: list[tuple[int, int]], enter: tuple[int, int], m: int, n: int):
    """Unique alternating cycle closed by the entering cell: the tree path
    from the entering row to the entering column, plus the entering cell."""
    adj: dict[tuple[str, int], list[tuple[tuple[str, int], tuple[int, int]]]] = {}
    for (i, j) in basis:
        adj.setdefault(("r", i), []).append((("c", j), (i, j)))
        adj.setdefault(("c", j), []).append((("r", i), (i, j)))
    start, goal = ("r", enter[0]), ("c", enter[1])
    prev: dict[tuple[str, int], tuple[tuple[str, int], tuple[int, int]]] = {start: (start, enter)}
    queue = [start]
    while queue:
        node = queue.pop()
        if node == goal:
            break
        for nxt, cell in adj.get(node, ()):
            if nxt not in prev:
                prev[nxt] = (node, cell)
                queue.append(nxt)
    if goal not in prev:
        raise AssertionError("entering cell closes no cycle; basis corrupt")
    path = []
    node = goal
    while node != start:
        node, cell = prev[node]
        path.append(cell)
    return [enter] + path[::-1]  # signs alternate +, -, +, ... around the cycle


def modi_transport(supply, demand, cost):
    """Transportation optimum from the u-v (MODI) simplex on the bipartite
    supply/demand graph: a northwest-corner start, duals from the basis
    tree, and Bland-style entering cells. Returns (flow, objective)."""
    supply = np.asarray(supply, dtype=float)
    demand = np.asarray(demand, dtype=float)
    cost = np.asarray(cost, dtype=float)
    m, n = supply.size, demand.size
    assert cost.shape == (m, n)
    assert abs(supply.sum() - demand.sum()) <= 1e-7 * (1.0 + supply.sum())
    if m == 0 or n == 0:
        return np.zeros((m, n)), 0.0

    flow, basis = _northwest_corner(supply, demand)
    tol = 1e-11 * (1.0 + float(np.max(np.abs(cost))))
    for _ in range(MODI_MAX_PIVOTS):
        u, v = _duals(cost, basis, m, n)
        reduced = cost - u[:, None] - v[None, :]
        basic = np.zeros((m, n), dtype=bool)
        for (i, j) in basis:
            basic[i, j] = True
        candidates = np.argwhere(~basic & (reduced < -tol))
        if candidates.size == 0:
            return flow, float(np.sum(flow * cost))
        enter = tuple(candidates[0])  # first in row-major order (Bland-style)
        cycle = _find_cycle(basis, enter, m, n)
        minus = cycle[1::2]
        theta_idx = min(range(len(minus)), key=lambda idx: (flow[minus[idx]], minus[idx]))
        leave = minus[theta_idx]
        theta = flow[leave]
        for pos, cell in enumerate(cycle):
            flow[cell] += theta if pos % 2 == 0 else -theta
        flow[leave] = 0.0
        basis.remove(leave)
        basis.append(enter)
    raise AssertionError("transportation simplex failed to converge")


def block_lp_bill(load, irr, buy, sell, asset: AssetSpec, y: float,
                  require_terminal_soc: bool = False) -> tuple[float, float]:
    """(bill, purchases) of a block of days from one cold `linprog` solve.

    Per day and hour the variables are charge, discharge, state of charge,
    import and export; the rows are the bus balance and the storage
    recursion, plus x_24 >= x0 * alpha * y per day when the terminal
    charge is required. The storage split is netted and the grid rebuilt
    from the bus balance before pricing, as the dispatch module reports it.
    """
    load, irr, buy, sell = (np.atleast_2d(np.asarray(a, dtype=float))
                            for a in (load, irr, buy, sell))
    if y == 0.0:
        purchases = float(np.sum(load * buy))
        return purchases, purchases
    n_days = load.shape[0]
    hour = np.arange(n_days * HOURS)  # (day, hour) flattened
    day, h = np.divmod(hour, HOURS)
    charge, discharge, soc, imp, exp = (5 * HOURS * day + k * HOURS + h for k in range(5))
    bus, rec = 2 * HOURS * day + h, 2 * HOURS * day + HOURS + h
    later = h > 0
    rows = np.concatenate([bus, bus, bus, bus, rec, rec, rec, rec[later]])
    cols = np.concatenate([imp, exp, charge, discharge, soc, charge, discharge, soc[later] - 1])
    vals = np.concatenate([np.ones_like(bus), -np.ones_like(bus),
                           np.full(bus.size, -1.0 / (asset.eta_c * asset.eta_i)),
                           np.full(bus.size, asset.eta_d * asset.eta_i),
                           np.ones_like(rec), -np.ones_like(rec), np.ones_like(rec),
                           np.full(int(later.sum()), -asset.eta_s)])
    n = 5 * HOURS * n_days
    a_eq = sp.csc_matrix((vals, (rows, cols)), shape=(2 * HOURS * n_days, n))
    b_eq = np.zeros(2 * HOURS * n_days)
    b_eq[bus] = (load - asset.eta_i * irr * y).ravel()
    b_eq[rec[~later]] = asset.eta_s * asset.x0 * asset.alpha * y
    c = np.zeros(n)
    c[imp] = buy.ravel()
    c[exp] = -sell.ravel()
    upper = np.full(n, np.inf)
    upper[charge] = asset.u_charge_max * y
    upper[discharge] = asset.u_discharge_max * y
    upper[soc] = asset.alpha * y
    a_ub = b_ub = None
    if require_terminal_soc:
        last = soc[h == HOURS - 1]
        a_ub = sp.csc_matrix((-np.ones(n_days), (np.arange(n_days), last)), shape=(n_days, n))
        b_ub = np.full(n_days, -asset.x0 * asset.alpha * y)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=np.column_stack([np.zeros(n), upper]), method="highs")
    assert res.status == 0, res.message
    u = (res.x[charge] - res.x[discharge]).reshape(n_days, HOURS)
    grid = (load - asset.eta_i * irr * y + np.maximum(u, 0.0) / (asset.eta_c * asset.eta_i)
            + asset.eta_d * asset.eta_i * np.minimum(u, 0.0))
    purchases = float(np.sum(np.maximum(grid, 0.0) * buy))
    return purchases + float(np.sum(np.minimum(grid, 0.0) * sell)), purchases


def random_dispatch_instance(rng: np.random.Generator):
    """A 24-hour instance with time-of-use structure and positive load."""
    h = np.arange(HOURS)
    load = rng.uniform(0.2, 2.0, HOURS)
    peak = (h >= 16) & (h < 21)
    buy = np.where(peak, rng.uniform(0.35, 0.55), rng.uniform(0.15, 0.25))
    sell = np.minimum(rng.uniform(0.02, 0.08, HOURS), buy)
    bell = np.clip(np.sin(np.pi * (h + 0.5 - 7) / 12), 0.0, None)
    irr = rng.uniform(0.5, 1.0) * bell
    y = rng.uniform(0.5, 3.0)
    return load, irr, buy, sell, y


def one_household(load, irr, buy, sell, asset: AssetSpec) -> Scenario:
    """A scenario of one household over these days; each array is one day's
    24 hours or (days, 24). Its net_zero_size is 1 kW whatever the load: a
    ScenarioContext only places its template solve there, so the template
    solve runs even on a zero load or zero irradiance."""
    load, irr, buy, sell = (np.asarray(a, dtype=float).reshape(-1, HOURS)
                            for a in (load, irr, buy, sell))
    return Scenario((HouseholdRecord("H0", "R0", load, 1.0),), buy, sell, irr, asset)


def curve(household_id: str, knots, second, savings: bool = True) -> CurveSet:
    """One household's curve, a set of one: its knots and slopes, or values if not savings."""
    return CurveSet([household_id], [knots], [second], savings)


def split(curves: CurveSet) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each household's knots and slopes by id, the savings set's arrays cut at its offsets."""
    cuts = curves.offsets[1:-1]
    return dict(zip(curves.ids, zip(np.split(curves.knots, cuts),
                                    np.split(curves.slopes, cuts - np.arange(1, len(curves))))))


def random_concave_curve(rng: np.random.Generator, household_id: str,
                         max_segments: int = 8) -> CurveSet:
    """A strictly concave monotone piecewise-linear curve with random knots."""
    n_seg = int(rng.integers(2, max_segments + 1))
    y_bar = rng.uniform(0.5, 5.0)
    widths = rng.uniform(0.2, 1.0, n_seg)
    cum = np.cumsum(widths)
    knots = y_bar * np.concatenate([[0.0], cum / cum[-1]])
    slopes = np.sort(rng.uniform(rng.uniform(5, 120), rng.uniform(150, 400), n_seg))[::-1]
    return curve(household_id, knots, slopes)


def random_curve_population(rng: np.random.Generator, n: int) -> CurveSet:
    return CurveSet.of([random_concave_curve(rng, f"H{i:03d}") for i in range(n)])


def argmax_interval(knots, slopes, r: float) -> tuple[float, float]:
    """The set of maximizers of f(y) - r*y over [0, max_size], for the curve
    of these knots and slopes.

    A closed interval: a single point unless r equals one of the segment
    slopes, in which case it is that whole segment. Its upper end is the
    capacity demanded at rental price r.
    """
    if r < 0:
        raise DomainError(f"rental price must be >= 0, got {r}")
    neg = -slopes  # ascending
    n_ge = int(np.searchsorted(neg, -r, side="right"))  # slopes >= r
    n_gt = int(np.searchsorted(neg, -r, side="left"))  # slopes > r
    return float(knots[n_gt]), float(knots[n_ge])


def _excess_bounds(pieces, size, owner_ids, r: float):
    """(E_low, E_high, intervals): excess supply using the largest and the
    smallest maximizer for every household, plus each argmax interval."""
    e_low = 0.0
    e_high = 0.0
    intervals = {}
    for hid, (knots, slopes) in pieces.items():
        lo, hi = argmax_interval(knots, slopes, r)
        intervals[hid] = (lo, hi)
        if hid in owner_ids:
            e_low += size[hid] - hi
            e_high += size[hid] - lo
        else:
            e_low -= hi
            e_high -= lo
    return e_low, e_high, intervals


@dataclass(frozen=True)
class OracleEquilibrium:
    """The bisection oracle's clearing outcome: MarketEquilibrium's fields,
    with one dict entry per household where the table holds arrays."""

    clearing_price: float | None
    volume: float
    allocations: dict[str, float]
    surpluses: dict[str, float]
    owner_ids: frozenset[str]
    owner_surplus_total: float
    renter_surplus_total: float
    total_surplus: float
    owner_participation: float
    non_owner_participation: float
    total_participation: float
    residual: float
    degenerate: bool = False


def by_id(eq, name: str) -> dict:
    """One id-ordered array of a MarketEquilibrium as a dict by household id."""
    return dict(zip(eq.ids, getattr(eq, name).tolist()))


def owners_of(eq) -> frozenset[str]:
    """The owners marked in a MarketEquilibrium."""
    return frozenset(hid for hid, own in zip(eq.ids, eq.owner.tolist()) if own)


def bisection_clear_market(curves, owners) -> OracleEquilibrium:
    """Clear the market by bisecting the sorted slopes for the zero of the
    excess supply, re-summing every household's argmax interval at each
    probe. Same conventions as `dershare.market.clear_market`: the midpoint
    of the clearing interval, proportional rationing at a jump."""
    ids = sorted(curves)
    pieces, size = split(curves), dict(zip(curves.ids, curves.sizes.tolist()))
    owner_ids = frozenset(owners)
    if not owner_ids or len(owner_ids) == len(ids):
        allocations = {hid: (size[hid] if hid in owner_ids else 0.0) for hid in ids}
        return OracleEquilibrium(
            clearing_price=None, volume=0.0, allocations=allocations,
            surpluses={hid: 0.0 for hid in ids}, owner_ids=owner_ids,
            owner_surplus_total=0.0, renter_surplus_total=0.0, total_surplus=0.0,
            owner_participation=0.0, non_owner_participation=0.0, total_participation=0.0,
            residual=0.0, degenerate=True)

    total_size = sum(size[hid] for hid in ids)
    tol = max(1e-6, 1e-9 * total_size)

    # candidate prices: every segment slope of every curve
    breakpoints = np.unique(np.concatenate([slopes for _, slopes in pieces.values()]))

    def e_high(r):
        return _excess_bounds(pieces, size, owner_ids, r)[1]

    def e_low(r):
        return _excess_bounds(pieces, size, owner_ids, r)[0]

    # smallest breakpoint where the optimistic excess turns nonnegative
    lo_i, hi_i = 0, breakpoints.size - 1
    if e_high(breakpoints[lo_i]) >= 0:
        r_a = breakpoints[lo_i]
    else:
        while hi_i - lo_i > 1:  # invariant: e_high(lo) < 0 <= e_high(hi)
            mid = (lo_i + hi_i) // 2
            if e_high(breakpoints[mid]) >= 0:
                hi_i = mid
            else:
                lo_i = mid
        r_a = breakpoints[hi_i]

    # largest breakpoint where the pessimistic excess is still nonpositive
    lo_i, hi_i = 0, breakpoints.size - 1
    if e_low(breakpoints[hi_i]) <= 0:
        r_b = breakpoints[hi_i]
    else:
        while hi_i - lo_i > 1:  # invariant: e_low(lo) <= 0 < e_low(hi)
            mid = (lo_i + hi_i) // 2
            if e_low(breakpoints[mid]) <= 0:
                lo_i = mid
            else:
                hi_i = mid
        r_b = breakpoints[lo_i]

    if r_a > r_b:
        raise AssertionError(f"clearing interval is empty: [{r_a}, {r_b}]")

    price = 0.5 * (r_a + r_b)
    e_lo, e_hi, intervals = _excess_bounds(pieces, size, owner_ids, price)
    allocations = {}
    if e_hi - e_lo > 0 and e_lo < 0:
        # jump straddling zero: ration the indifferent households
        ratio = min(1.0, -e_lo / (e_hi - e_lo))
        for hid in ids:
            lo, hi = intervals[hid]
            allocations[hid] = hi - ratio * (hi - lo)
    else:
        for hid in ids:
            allocations[hid] = intervals[hid][1]

    supply = sum(size[hid] - allocations[hid] for hid in ids if hid in owner_ids)
    demand = sum(allocations[hid] for hid in ids if hid not in owner_ids)
    residual = supply - demand
    if abs(residual) > tol:
        raise AssertionError(f"market failed to balance: residual {residual} > {tol}")

    surpluses = {}
    owner_total = 0.0
    renter_total = 0.0
    n_owner_part = 0
    n_renter_part = 0
    f = curves.eval([allocations[hid] for hid in ids], ids).tolist()
    for hid, f_y, total in zip(ids, f, curves.totals.tolist()):
        y = allocations[hid]
        if hid in owner_ids:
            w = f_y + price * (size[hid] - y) - total
            owner_total += w
            if size[hid] - y > PARTICIPATION_TOL * max(size[hid], 1.0):
                n_owner_part += 1
        else:
            w = f_y - price * y
            renter_total += w
            if y > PARTICIPATION_TOL * max(size[hid], 1.0):
                n_renter_part += 1
        surpluses[hid] = w

    n_owners = len(owner_ids)
    n_renters = len(ids) - n_owners
    return OracleEquilibrium(
        clearing_price=float(price),
        volume=float(supply),
        allocations=allocations,
        surpluses=surpluses,
        owner_ids=owner_ids,
        owner_surplus_total=float(owner_total),
        renter_surplus_total=float(renter_total),
        total_surplus=float(owner_total + renter_total),
        owner_participation=n_owner_part / n_owners,
        non_owner_participation=n_renter_part / n_renters,
        total_participation=(n_owner_part + n_renter_part) / len(ids),
        residual=float(residual),
    )


def planner_fill(curves):
    """The most that q kW of owned capacity can save in all, as a function of
    q: every segment of every curve sorted by slope, steepest first, and
    filled up to q, in exact arithmetic. Each curve is concave and money
    enters linearly, so a competitive equilibrium reaches this fill (the
    first welfare theorem). The function returns the fill's value, the last
    slope filled and the first left unfilled (None where there is none); the
    sort and its running sums are made once, for every q."""
    segments = sorted(((slope, Fraction(b) - Fraction(a)) for knots, slopes in split(curves).values()
                       for slope, a, b in zip(slopes.tolist(), knots[:-1].tolist(),
                                              knots[1:].tolist())), key=lambda seg: -seg[0])
    slopes = [slope for slope, _ in segments]
    width = list(accumulate((w for _, w in segments), initial=Fraction(0)))
    value = list(accumulate((Fraction(s) * w for s, w in segments), initial=Fraction(0)))

    def fill(q: Fraction) -> tuple[float, float | None, float | None]:
        m = bisect_left(width, q)  # the steepest m segments hold q, the last of them in part
        assert m < len(width), f"{q} kW is more than every segment holds"
        unfilled = slopes[m] if m < len(slopes) else None
        if m == 0:
            return 0.0, None, unfilled
        return float(value[m - 1] + Fraction(slopes[m - 1]) * (q - width[m - 1])), \
            slopes[m - 1], unfilled
    return fill


def planner_misfits(curves, owners, prices, surpluses) -> list[str]:
    """The rows of a sweep that break the planner's identity: rows owners[i]
    (a count: the households of highest normalized savings own, ties in id
    order), with clearing price prices[i] and total surplus surpluses[i].
    Where everyone or no one owns, no price and zero surplus; else the
    surplus is planner_fill's value at the owners' summed max_size less the
    owners' savings on their own, to 1e-12 of all curves' savings, at a price
    between the last filled slope and the first unfilled one."""
    size, total = (dict(zip(curves.ids, a.tolist())) for a in (curves.sizes, curves.totals))
    ranking = sorted(curves, key=lambda hid: (-total[hid] / size[hid], hid))
    scale = sum(total.values())
    fill = planner_fill(curves)
    owned = list(accumulate((Fraction(size[hid]) for hid in ranking), initial=Fraction(0)))
    autarky = list(accumulate((total[hid] for hid in ranking), initial=0))
    found = []
    for row, (k, price, surplus) in enumerate(zip(owners, prices, surpluses)):
        if k in (0, len(ranking)):
            if not (math.isnan(price) and surplus == 0.0):
                found.append(f"row {row}: {k} owners of {len(ranking)}, price {price}, "
                             f"surplus {surplus}")
            continue
        value, last, unfilled = fill(owned[k])
        want = value - autarky[k]
        if abs(surplus - want) > 1e-12 * scale:
            found.append(f"row {row}: total surplus {surplus}, planner {want}")
        if not ((-math.inf if unfilled is None else unfilled) <= price <= last):
            found.append(f"row {row}: price {price} outside [{unfilled}, {last}]")
    return found


def random_tied_curve_population(rng: np.random.Generator, n: int) -> CurveSet:
    """Curves whose slopes come from five shared values, so many households are
    indifferent at the same price and clearing often has to ration."""
    curves = []
    for i in range(n):
        hid = f"T{i:03d}"
        m = int(rng.integers(1, 5))
        slopes = np.sort(rng.choice([40.0, 80.0, 120.0, 160.0, 200.0], m, replace=False))[::-1]
        knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.5, m))])
        curves.append(curve(hid, knots, slopes))
    return CurveSet.of(curves)


def refined_subsidy(table, long_run, refine: int = 10) -> float:
    """The equivalent subsidy's integral of (p - inverse demand) from d_short
    to d_long by the trapezoid rule, each segment between the sweep's adopted
    quantities cut into refine equal parts. The inverse demand is the sweep's
    first short-run price at each quantity, interpolated linearly."""
    first = {}
    for q, price in zip(table.adopted_quantity.tolist(), table.short_run_price.tolist()):
        if not math.isnan(price):
            first.setdefault(q, price)
    qs = sorted(first)
    a, b = long_run.d_short, long_run.d_long
    cuts = [a, *(q for q in qs if a < q < b), b]
    pts = [x + (y - x) * j / refine for x, y in zip(cuts, cuts[1:]) for j in range(refine)] + [b]
    gap = long_run.price - np.interp(pts, qs, [first[q] for q in qs])
    return sum(0.5 * (gap[i] + gap[i + 1]) * (pts[i + 1] - pts[i]) for i in range(len(pts) - 1))


class BisectionSolver(LongRunSolver):
    """Long-run solver whose clearing prices come from the bisection oracle."""

    def clearing_price_at(self, k: int) -> float | None:
        return bisection_clear_market(self.curves, self.order.owners_at(k)).clearing_price
