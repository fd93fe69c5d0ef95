"""Daily cost-minimizing dispatch of a household's PV-plus-storage capacity.

For a household controlling y kW of the asset, each day is an exact LP:
choose hourly storage actions (split into nonnegative charge and
discharge parts), the state of charge, and the grid exchange (split
into nonnegative import and export parts) to minimize

    imports . buy_prices  -  exports . sell_prices

subject to the hourly bus balance

    grid = load - eta_i * irradiance * y
           + charge / (eta_c * eta_i) - (eta_d * eta_i) * discharge,

rate limits scaled by y, state-of-charge limits [0, alpha * y] (a required
terminal charge raises the last hour's to [x0 * alpha * y, alpha * y]), and
the self-discharging storage recursion  x_h = eta_s * x_{h-1} + u_h.

Because buy >= sell >= 0 in every hour, splitting the signed variables
into nonnegative parts is exact: simultaneously positive parts are
never strictly better, so an optimal vertex satisfies complementarity
except possibly at hours with degenerate (equal or zero) prices, where
netting the parts leaves the objective unchanged. Post-solve we net the
storage split and rebuild the grid vector from the bus balance, then
verify the objective is reproduced. A solve returns the period totals
(bill, purchases, sale credit); the per-hour dispatch is not kept.

A period of D days is one block-diagonal LP, declared as arrays: one
day's (rows, cols, values) blocks tiled over the days, which couple only
through y (data here). It is much faster than D separate solves and
gives bit-identical totals regardless of worker count. Its matrix is not
cached: a process builds one context (the fit's, or a worker's).

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
reference.

One object per block LP: a ScenarioContext checks its prices (each
nonnegative, buy >= sell) once, when it is built, makes its price and
irradiance arrays read-only so that one check covers every solve, and
computes once what no solve changes (see its docstring). _solve is the
one solve path, of the template, every bill and the tests' cold solves:
it computes only its right-hand side, its bounds and the netting, and
still checks y >= 0, takes the y = 0 closed form and checks the
objective's consistency on every call.
"""

from __future__ import annotations

from functools import cached_property
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


def _day_matrix(asset: AssetSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equality constraint matrix of a single day (48 x 120) as (rows, cols, values):
    bus balance rows h, then the state-of-charge recursion rows 24 + h."""
    h, later = np.arange(HOURS), np.arange(1, HOURS)
    blocks = [(h, h, -1.0 / (asset.eta_c * asset.eta_i)), (h, 24 + h, asset.eta_d * asset.eta_i),
              (h, 72 + h, 1.0), (h, 96 + h, -1.0), (24 + h, 48 + h, 1.0), (24 + h, h, -1.0),
              (24 + h, 24 + h, 1.0), (24 + later, 47 + later, -asset.eta_s)]
    return tuple(np.concatenate(part) for part in
                 zip(*((r, c, np.full(r.size, v)) for r, c, v in blocks)))


def _period_matrix(asset: AssetSpec, n_days: int):
    """The block-diagonal matrix of n_days days, in LPModel's column-compressed form."""
    rows, cols, vals = _day_matrix(asset)
    day = np.arange(n_days)[:, None]
    rows = (rows + 2 * HOURS * day).ravel()
    cols = (cols + _N_VARS * day).ravel()
    vals = np.tile(vals, n_days)
    n_rows, n_cols = 2 * HOURS * n_days, _N_VARS * n_days
    order = np.lexsort((rows, cols))
    start = np.zeros(n_cols + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=start[1:])
    arrays = (start, rows[order].astype(np.int32), vals[order])
    return (n_rows, n_cols), tuple(map(_frozen, arrays))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class ScenarioContext:
    """One scenario's dispatch over all its days or a subset: one D-day
    block LP and its solve.

    day_indices selects a representative subset of days; totals are then
    scaled by n_days / len(day_indices) so period-level figures remain
    comparable (a documented approximation for quick runs).

    The constructor checks the prices and computes once what depends on
    neither the load nor y: eta_i * irradiance, the column bounds per kW
    (lower and unit) and the storage factors. Each is a left-hand part of
    the expression a solve evaluated before it was hoisted (eta_i * irr * y
    is (eta_i * irr) * y), so precomputing it changes no bit of a result.
    Consecutive capacities of one household warm-start from each other;
    another household starts from the template basis, which the first
    positive capacity billed computes once.
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
        irr, buy, sell = (_frozen(np.array(a[self.day_indices], dtype=float)) for a in
                          (scenario.irradiance, scenario.buy, scenario.sell))
        if np.min(sell) < 0 or np.min(buy) < 0:
            raise DomainError("prices must be nonnegative")
        if np.min(buy - sell) < 0:
            raise DomainError("buy price below sell price would allow unlimited arbitrage")
        self.buy, self.sell = buy, sell
        self.n_days = n_days = buy.shape[0]
        asset = scenario.asset
        self.eta_irr = _frozen(asset.eta_i * irr)
        unit = np.repeat([asset.u_charge_max, asset.u_discharge_max, asset.alpha, np.inf, np.inf],
                         HOURS)  # each column's upper bound per kW of capacity, group by group
        self.unit = _frozen(np.tile(unit, n_days))
        lower = np.zeros((n_days, _N_VARS))  # each column's lower bound per kW
        if require_terminal_soc:
            lower[:, _X.stop - 1] = asset.x0 * asset.alpha  # x_24 >= x0 * alpha * y
        self.lower = _frozen(lower.ravel())
        self.start_soc = asset.eta_s * asset.x0 * asset.alpha  # start-of-day charge per kW
        self.charge_div = asset.eta_c * asset.eta_i
        self.discharge_yield = asset.eta_d * asset.eta_i
        self._template = None  # the model's optimal basis for the template household
        self._billed: str | None = None  # the household the model last solved

    @cached_property
    def _model(self) -> LPModel:
        """The D-day block LP of these prices; only its bounds depend on the load and y."""
        a = _period_matrix(self.scenario.asset, self.n_days)
        c = np.zeros((self.n_days, _N_VARS))
        c[:, _GP] = self.buy
        c[:, _GM] = -self.sell
        return LPModel(c.ravel(), a)

    def _solve(self, household: HouseholdRecord, y: float, start=None) -> PeriodTotals:
        """The household's unscaled period totals at capacity y (y = 0: load . buy),
        solved from basis start, else the model's last one (none yet: cold)."""
        model = self._model  # built on the first call even at y = 0: later, peak RSS rose 0.4 MB
        if y < 0:
            raise DomainError(f"capacity y must be >= 0, got {y}")
        load = np.asarray(household.load[self.day_indices], dtype=float)
        n_days, buy = self.n_days, self.buy
        if y == 0.0:  # no asset: the grid carries the load
            purchases = float(np.dot(load.ravel(), buy.ravel()))
            return PeriodTotals(purchases, purchases, 0.0)

        net = load - self.eta_irr * y
        b = np.zeros((n_days, 2 * HOURS))  # every row is an equality: b <= a @ x <= b
        b[:, :HOURS] = net
        b[:, HOURS] = self.start_soc * y  # start-of-day charge enters hour 1
        b = b.ravel()
        sol = model.solve(b, b, self.lower * y, self.unit * y, start)
        blocks = sol.x.reshape(n_days, _N_VARS)
        u = blocks[:, _UP] - blocks[:, _UM]  # netting the charge/discharge split
        grid = (net + np.maximum(u, 0.0) / self.charge_div
                + self.discharge_yield * np.minimum(u, 0.0))
        purchases = float((np.maximum(grid, 0.0) * buy).sum())
        credits = float((np.minimum(grid, 0.0) * self.sell).sum())
        if abs(purchases + credits - sol.objective) > _OBJ_CONSISTENCY_TOL * (1.0 + abs(sol.objective)):
            raise LPError(f"split-variable netting changed the objective: "
                          f"{purchases + credits!r} vs {sol.objective!r}")
        return PeriodTotals(purchases + credits, purchases, credits)

    def _start(self, household_id: str):
        """The basis this household's solve starts from (None: the model's
        last basis, this household's previous capacity)."""
        if self._template is None:
            first = self.scenario.households[0]
            self._solve(first, _TEMPLATE_SHARE * first.net_zero_size)
            self._template = self._model.basis
        if household_id == self._billed:
            return None
        self._billed = household_id
        return self._template

    def annual_bill(self, household: HouseholdRecord, y: float) -> PeriodTotals:
        """Period bill (and decomposition) for the household at capacity y."""
        start = self._start(household.id) if y > 0 else None
        return PeriodTotals(*(self.scale * np.array(self._solve(household, y, start))))
