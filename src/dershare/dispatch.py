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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .lp import LPError, solve_lp
from .model import HOURS, AssetSpec, DomainError, HouseholdRecord, Scenario

_N_VARS = 5 * HOURS  # per-day decision vector: charge, discharge, soc, import, export
_UP, _UM, _X, _GP, _GM = (slice(0, 24), slice(24, 48), slice(48, 72), slice(72, 96), slice(96, 120))

_OBJ_CONSISTENCY_TOL = 1e-6


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
def _day_matrix(asset: AssetSpec) -> sp.coo_matrix:
    """Equality constraint matrix of a single day (48 x 120)."""
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
    return sp.coo_matrix((vals, (rows, cols)), shape=(2 * HOURS, _N_VARS))


@lru_cache(maxsize=32)
def _period_matrix(asset: AssetSpec, n_days: int) -> sp.csc_matrix:
    return sp.block_diag([_day_matrix(asset)] * n_days, format="csc")


def _check_inputs(buy: np.ndarray, sell: np.ndarray, y: float) -> None:
    if y < 0:
        raise DomainError(f"capacity y must be >= 0, got {y}")
    if np.min(sell) < 0 or np.min(buy) < 0:
        raise DomainError("prices must be nonnegative")
    if np.min(buy - sell) < 0:
        raise DomainError("buy price below sell price would allow unlimited arbitrage")


def _bounds(asset: AssetSpec, y: float, n_days: int) -> np.ndarray:
    ub_day = np.empty(_N_VARS)
    ub_day[_UP] = asset.u_charge_max * y
    ub_day[_UM] = asset.u_discharge_max * y
    ub_day[_X] = asset.alpha * y
    ub_day[_GP] = np.inf
    ub_day[_GM] = np.inf
    return np.column_stack([np.zeros(_N_VARS * n_days), np.tile(ub_day, n_days)])


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


def _solve_period(load, irr, buy, sell, asset: AssetSpec, y: float,
                  require_terminal_soc: bool):
    """Solve the D-day block LP; returns per-day (grid, u, soc) arrays and the objective."""
    n_days = load.shape[0]
    a_ub = b_ub = None
    if require_terminal_soc:
        # -x_24 <= -x0 for each day
        rows = np.arange(n_days)
        cols = np.arange(n_days) * _N_VARS + (_X.stop - 1)
        a_ub = sp.coo_matrix((-np.ones(n_days), (rows, cols)),
                             shape=(n_days, n_days * _N_VARS)).tocsc()
        b_ub = np.full(n_days, -asset.x0 * asset.alpha * y)

    sol = solve_lp(_objective(buy, sell),
                   a_eq=_period_matrix(asset, n_days),
                   b_eq=_rhs(load, irr, asset, y),
                   a_ub=a_ub, b_ub=b_ub,
                   bounds=_bounds(asset, y, n_days))
    blocks = sol.x.reshape(n_days, _N_VARS)
    u = blocks[:, _UP] - blocks[:, _UM]  # netting the charge/discharge split
    soc = blocks[:, _X]
    grid = (load - asset.eta_i * irr * y
            + np.maximum(u, 0.0) / (asset.eta_c * asset.eta_i)
            + (asset.eta_d * asset.eta_i) * np.minimum(u, 0.0))
    purchases = np.maximum(grid, 0.0) * buy
    credits = np.minimum(grid, 0.0) * sell
    cost = float(purchases.sum() + credits.sum())
    if abs(cost - sol.objective) > _OBJ_CONSISTENCY_TOL * (1.0 + abs(sol.objective)):
        raise LPError(f"split-variable netting changed the objective: "
                      f"{cost!r} vs {sol.objective!r}")
    return grid, u, soc, purchases, credits


def solve_day(load_day, irr_day, buy_day, sell_day, asset: AssetSpec, y: float) -> DailyDispatchResult:
    """Exact optimum of one day's dispatch LP for capacity y."""
    load_day = np.asarray(load_day, dtype=float).reshape(1, HOURS)
    irr_day = np.asarray(irr_day, dtype=float).reshape(1, HOURS)
    buy_day = np.asarray(buy_day, dtype=float).reshape(1, HOURS)
    sell_day = np.asarray(sell_day, dtype=float).reshape(1, HOURS)
    _check_inputs(buy_day, sell_day, y)

    if y == 0.0:
        # no asset: the grid carries the load, bill is the closed form
        grid = load_day[0].copy()
        purchases = float(grid @ buy_day[0])
        return DailyDispatchResult(cost=purchases, purchases=purchases, sale_credit=0.0,
                                   grid=grid, storage_action=np.zeros(HOURS), soc=np.zeros(HOURS))

    grid, u, soc, purchases, credits = _solve_period(
        load_day, irr_day, buy_day, sell_day, asset, y, require_terminal_soc=False)
    p = float(purchases.sum())
    s = float(credits.sum())
    return DailyDispatchResult(cost=p + s, purchases=p, sale_credit=s,
                               grid=grid[0], storage_action=u[0], soc=soc[0])


def dispatch_period(load, irr, buy, sell, asset: AssetSpec, y: float,
                    require_terminal_soc: bool = False) -> PeriodTotals:
    """Total bill and its buy/sell decomposition over a block of days."""
    load = np.asarray(load, dtype=float)
    irr = np.asarray(irr, dtype=float)
    buy = np.asarray(buy, dtype=float)
    sell = np.asarray(sell, dtype=float)
    _check_inputs(buy, sell, y)

    if y == 0.0:
        purchases = float(np.dot(load.ravel(), buy.ravel()))
        return PeriodTotals(bill=purchases, purchases=purchases, sale_credit=0.0)

    _, _, _, purchases, credits = _solve_period(load, irr, buy, sell, asset, y,
                                                require_terminal_soc)
    p = float(purchases.sum())
    s = float(credits.sum())
    return PeriodTotals(bill=p + s, purchases=p, sale_credit=s)


class ScenarioContext:
    """Shared dispatch context: a scenario and optional day subsampling.

    day_indices selects a representative subset of days; totals are then
    scaled by n_days / len(day_indices) so period-level figures remain
    comparable (a documented approximation for quick runs).
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

    def _resolve(self, household) -> HouseholdRecord:
        if isinstance(household, HouseholdRecord):
            return household
        return self._households[household]

    def annual_bill(self, household, y: float) -> PeriodTotals:
        """Period bill (and decomposition) for the household at capacity y."""
        hh = self._resolve(household)
        totals = dispatch_period(hh.load[self.day_indices], self._irr,
                                 self._buy, self._sell,
                                 self.scenario.asset, y,
                                 self.require_terminal_soc)
        return PeriodTotals(*(self.scale * np.array(totals)))

    def baseline_bill(self, household) -> float:
        """Bill at y = 0; the exact closed form load . buy."""
        return self.annual_bill(household, 0.0).bill
