"""Daily cost-minimizing dispatch of a household's PV-plus-storage capacity.

For a household controlling y kW of the asset, each day is an exact LP:
choose hourly storage actions (split into nonnegative charge and
discharge parts), the state of charge, and the grid exchange (split
into nonnegative import and export parts) to minimize

    imports . buy_prices  -  exports . sell_prices

subject to the hourly bus balance

    grid = load - eta_i * irradiance * y
           + charge / (eta_c * eta_i) - (eta_d * eta_i) * discharge,

rate limits scaled by y, state-of-charge limits [0, alpha * y], and the
self-discharging storage recursion  x_h = eta_s * x_{h-1} + u_h.

Because buy >= sell >= 0 in every hour, splitting the signed variables
into nonnegative parts is exact: simultaneously positive parts are
never strictly better, so an optimal vertex satisfies complementarity
except possibly at hours with degenerate (equal or zero) prices, where
netting the parts leaves the objective unchanged. Post-solve we net the
storage split and rebuild the grid vector from the bus balance, then
verify the objective is reproduced.

A period of D days is one block-diagonal LP (the days couple only
through y, which is data here), which is much faster than D separate
solves and gives bit-identical totals regardless of worker count.

Warm starts: the objective and the matrix of a block depend only on the
prices and the asset, so y and the household's load reach the LP only
through its bounds. ScenarioContext keeps one LPModel, one HiGHS
instance, for all its households. Each further capacity of a household
starts the dual simplex from the previous capacity's optimal basis,
which takes about a tenth of the time of a cold solve. Another household
starts from the template basis: the optimum the scenario's first
household reaches at 1% of its net-zero size, solved cold once per
context. On a 30-day block that basis is typically already optimal at
another household's first capacity (0 pivots, against ~880 for a cold
solve). Every worker computes the same template, so a household's
results depend only on the capacities billed for it since the context
last turned to it, never on the worker that fits it or on the
households billed before it. Bills and purchases match a cold solve to
a few ulps, not bit for bit, because a warm start reaches the optimum
by other pivots (on the desk-scale defaults, 1.4e-14 relative at worst
over the fitted curves); tests/oracles.py keeps the cold solve as the
reference. Input checks, the y = 0 closed form and the
objective-consistency check run on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lp import LPError, LPModel
from .model import HOURS, AssetSpec, DomainError, HouseholdRecord, Scenario

_N_VARS = 5 * HOURS  # per-day decision vector: charge, discharge, soc, import, export
_UP, _UM, _X, _GP, _GM = (slice(0, 24), slice(24, 48), slice(48, 72), slice(72, 96), slice(96, 120))

_OBJ_CONSISTENCY_TOL = 1e-6
_TEMPLATE_SHARE = 0.01  # the template's capacity per kW of net-zero size, sample_grid's first


class PeriodTotals(NamedTuple):
    bill: float
    purchases: float
    sale_credit: float


@dataclass(frozen=True)
class DailyDispatchResult:
    """Optimal dispatch of one day.

    cost = purchases + sale_credit, with purchases the import-side bill
    component (>= 0) and sale_credit the export-side credit (<= 0).
    """

    cost: float
    purchases: float
    sale_credit: float
    grid: np.ndarray  # kWh, signed
    storage_action: np.ndarray  # kWh, positive = charging
    soc: np.ndarray  # kWh at end of each hour


@lru_cache(maxsize=8)
def _day_matrix(asset: AssetSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equality constraint matrix of a single day (48 x 120) as (rows, cols, values)."""
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    charge_draw = 1.0 / (asset.eta_c * asset.eta_i)
    discharge_yield = asset.eta_d * asset.eta_i
    for h in range(HOURS):
        # bus balance row h
        add(h, h, -charge_draw)
        add(h, 24 + h, discharge_yield)
        add(h, 72 + h, 1.0)
        add(h, 96 + h, -1.0)
        # state-of-charge recursion row 24+h
        add(24 + h, 48 + h, 1.0)
        add(24 + h, h, -1.0)
        add(24 + h, 24 + h, 1.0)
        if h > 0:
            add(24 + h, 48 + h - 1, -asset.eta_s)
    return np.array(rows), np.array(cols), np.array(vals, dtype=float)


@lru_cache(maxsize=32)
def _period_matrix(asset: AssetSpec, n_days: int, require_terminal_soc: bool):
    """The block-diagonal matrix of n_days days, in LPModel's column-compressed form."""
    rows, cols, vals = _day_matrix(asset)
    day = np.arange(n_days)[:, None]
    rows = (rows + 2 * HOURS * day).ravel()
    cols = (cols + _N_VARS * day).ravel()
    vals = np.tile(vals, n_days)
    n_rows, n_cols = 2 * HOURS * n_days, _N_VARS * n_days
    if require_terminal_soc:
        # one row per day: -x_24 <= -x0 * alpha * y
        rows = np.concatenate([rows, n_rows + np.arange(n_days)])
        cols = np.concatenate([cols, np.arange(n_days) * _N_VARS + (_X.stop - 1)])
        vals = np.concatenate([vals, -np.ones(n_days)])
        n_rows += n_days
    order = np.lexsort((rows, cols))
    start = np.zeros(n_cols + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=start[1:])
    arrays = (start, rows[order].astype(np.int32), vals[order])
    for array in arrays:  # cached and shared by every model built from it
        array.setflags(write=False)
    return (n_rows, n_cols), arrays


def _check_inputs(buy: np.ndarray, sell: np.ndarray, y: float) -> None:
    if y < 0:
        raise DomainError(f"capacity y must be >= 0, got {y}")
    if np.min(sell) < 0 or np.min(buy) < 0:
        raise DomainError("prices must be nonnegative")
    if np.min(buy - sell) < 0:
        raise DomainError("buy price below sell price would allow unlimited arbitrage")


def _bounds(asset: AssetSpec, y: float, n_days: int) -> tuple[np.ndarray, np.ndarray]:
    ub_day = np.empty(_N_VARS)
    ub_day[_UP] = asset.u_charge_max * y
    ub_day[_UM] = asset.u_discharge_max * y
    ub_day[_X] = asset.alpha * y
    ub_day[_GP] = np.inf
    ub_day[_GM] = np.inf
    return np.zeros(_N_VARS * n_days), np.tile(ub_day, n_days)


def _rhs(load: np.ndarray, irr: np.ndarray, asset: AssetSpec, y: float) -> np.ndarray:
    n_days = load.shape[0]
    b = np.zeros((n_days, 2 * HOURS))
    b[:, :HOURS] = load - asset.eta_i * irr * y
    b[:, HOURS] = asset.eta_s * asset.x0 * asset.alpha * y  # start-of-day charge enters hour 1
    return b.ravel()


def _objective(buy: np.ndarray, sell: np.ndarray) -> np.ndarray:
    n_days = buy.shape[0]
    c = np.zeros((n_days, _N_VARS))
    c[:, _GP] = buy
    c[:, _GM] = -sell
    return c.ravel()


def _period_model(buy: np.ndarray, sell: np.ndarray, asset: AssetSpec,
                  require_terminal_soc: bool) -> LPModel:
    """The D-day block LP of these prices; only its bounds depend on the load and y."""
    a = _period_matrix(asset, buy.shape[0], require_terminal_soc)
    return LPModel(_objective(buy, sell), a)


class _Period(NamedTuple):
    grid: np.ndarray  # (days, 24) kWh, signed
    u: np.ndarray  # (days, 24) kWh, positive = charging
    soc: np.ndarray  # (days, 24) kWh at end of each hour
    purchases: float
    sale_credit: float

    def totals(self) -> PeriodTotals:
        return PeriodTotals(self.purchases + self.sale_credit, self.purchases, self.sale_credit)


def _solve_period(load, irr, buy, sell, asset: AssetSpec, y: float,
                  require_terminal_soc: bool, model: LPModel | None = None,
                  start=None) -> _Period:
    """Optimal dispatch of a D-day block; y = 0 is the closed form load . buy.

    model is the block LP of (buy, sell, asset, require_terminal_soc),
    possibly warm from an earlier capacity; None builds a cold one. start
    is the basis to begin from in place of the model's last one.
    """
    load, irr, buy, sell = (np.asarray(a, dtype=float) for a in (load, irr, buy, sell))
    _check_inputs(buy, sell, y)
    n_days = load.shape[0]
    if y == 0.0:
        # no asset: the grid carries the load
        return _Period(load.copy(), np.zeros_like(load), np.zeros_like(load),
                       float(np.dot(load.ravel(), buy.ravel())), 0.0)

    if model is None:
        model = _period_model(buy, sell, asset, require_terminal_soc)
    b = _rhs(load, irr, asset, y)
    row_lower, row_upper = b, b
    if require_terminal_soc:
        row_lower = np.concatenate([b, np.full(n_days, -np.inf)])
        row_upper = np.concatenate([b, np.full(n_days, -asset.x0 * asset.alpha * y)])
    col_lower, col_upper = _bounds(asset, y, n_days)
    sol = model.solve(row_lower, row_upper, col_lower, col_upper, start)
    blocks = sol.x.reshape(n_days, _N_VARS)
    u = blocks[:, _UP] - blocks[:, _UM]  # netting the charge/discharge split
    soc = blocks[:, _X]
    grid = (load - asset.eta_i * irr * y
            + np.maximum(u, 0.0) / (asset.eta_c * asset.eta_i)
            + (asset.eta_d * asset.eta_i) * np.minimum(u, 0.0))
    purchases = float((np.maximum(grid, 0.0) * buy).sum())
    credits = float((np.minimum(grid, 0.0) * sell).sum())
    if abs(purchases + credits - sol.objective) > _OBJ_CONSISTENCY_TOL * (1.0 + abs(sol.objective)):
        raise LPError(f"split-variable netting changed the objective: "
                      f"{purchases + credits!r} vs {sol.objective!r}")
    return _Period(grid, u, soc, purchases, credits)


def solve_day(load_day, irr_day, buy_day, sell_day, asset: AssetSpec, y: float) -> DailyDispatchResult:
    """Exact optimum of one day's dispatch LP for capacity y."""
    day = [np.asarray(a, dtype=float).reshape(1, HOURS)
           for a in (load_day, irr_day, buy_day, sell_day)]
    p = _solve_period(*day, asset, y, require_terminal_soc=False)
    return DailyDispatchResult(*p.totals(), grid=p.grid[0], storage_action=p.u[0],
                               soc=p.soc[0])


def dispatch_period(load, irr, buy, sell, asset: AssetSpec, y: float,
                    require_terminal_soc: bool = False) -> PeriodTotals:
    """Total bill and its buy/sell decomposition over a block of days."""
    return _solve_period(load, irr, buy, sell, asset, y, require_terminal_soc).totals()


class ScenarioContext:
    """Shared dispatch context: a scenario and optional day subsampling.

    day_indices selects a representative subset of days; totals are then
    scaled by n_days / len(day_indices) so period-level figures remain
    comparable (a documented approximation for quick runs).

    The context keeps one block LP for all its households. Consecutive
    capacities of one household warm-start from each other; billing
    another household starts it from the template basis, which the
    first positive capacity billed computes once.
    """

    def __init__(self, scenario: Scenario, day_indices=None,
                 require_terminal_soc: bool = False):
        self.scenario = scenario
        if day_indices is None:
            day_indices = np.arange(scenario.n_days)
        self.day_indices = np.asarray(day_indices, dtype=int)
        if self.day_indices.size == 0:
            raise DomainError("day_indices must select at least one day")
        self.scale = scenario.n_days / self.day_indices.size
        self.require_terminal_soc = require_terminal_soc
        self._buy = scenario.tariff.buy[self.day_indices]
        self._sell = scenario.tariff.sell[self.day_indices]
        self._irr = scenario.irradiance.values[self.day_indices]
        self._households = scenario.household_map()
        self._model: LPModel | None = None
        self._template = None  # the model's optimal basis for the template household
        self._billed: str | None = None  # the household the model last solved

    def _resolve(self, household) -> HouseholdRecord:
        if isinstance(household, HouseholdRecord):
            return household
        return self._households[household]

    def _solve(self, hh: HouseholdRecord, y: float, model=None, start=None) -> _Period:
        return _solve_period(hh.load[self.day_indices], self._irr, self._buy, self._sell,
                             self.scenario.asset, y, self.require_terminal_soc, model, start)

    def _warm_model(self, household_id: str):
        """The context's model and the basis this household's solve starts from
        (None: the model's last basis, this household's previous capacity)."""
        if self._template is None:
            model = _period_model(self._buy, self._sell, self.scenario.asset,
                                  self.require_terminal_soc)
            first = self.scenario.households[0]
            self._solve(first, _TEMPLATE_SHARE * first.net_zero_size, model)
            self._model, self._template = model, model.basis
        if household_id == self._billed:
            return self._model, None
        self._billed = household_id
        return self._model, self._template

    def annual_bill(self, household, y: float) -> PeriodTotals:
        """Period bill (and decomposition) for the household at capacity y."""
        hh = self._resolve(household)
        model = start = None
        if y > 0:
            model, start = self._warm_model(hh.id)
        p = self._solve(hh, y, model, start)
        return PeriodTotals(*(self.scale * np.array(p.totals())))

    def baseline_bill(self, household) -> float:
        """Bill at y = 0; the exact closed form load . buy."""
        return self.annual_bill(household, 0.0).bill
