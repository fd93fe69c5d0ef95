"""Adoption ordering, demand curves, long-run equilibria, and the
equivalent direct subsidy.

Households adopt in descending order of normalized potential savings
f(y_bar)/y_bar: the per-kW saving a household would realize using a
full net-zero asset purely for itself, directly comparable to a per-kW
purchase price. The top-k prefix of that ranking is the owner set at
adoption rate k/N.

Without a rental market, a purchase price p induces adoption by exactly
the households whose normalized savings reach p. With the market, a
household can profit by buying just to rent out whenever the rental
price at current adoption exceeds p, so adoption grows along the
ranking until the clearing price falls to p. The equivalent subsidy is
the area between the purchase price and the no-market inverse demand
curve over the adoption increase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .curves import SavingsCurve
from .market import ClearingTable, MarketEquilibrium
from .model import DomainError


@dataclass(frozen=True)
class AdoptionOrder:
    """Households ranked by normalized savings, descending; ties broken by id."""

    ranking: tuple[str, ...]
    normalized: np.ndarray  # $/period/kW along the ranking
    sizes: np.ndarray  # net-zero sizes along the ranking, kW
    cumulative_quantity: np.ndarray  # prefix[k] = capacity of the first k, kW

    @property
    def n(self) -> int:
        return len(self.ranking)

    def owners_at(self, k: int) -> frozenset[str]:
        return frozenset(self.ranking[:k])

    def count_at_rate(self, t: float) -> int:
        """Owner count for adoption rate t: the top ceil(t * N) households."""
        if not (0.0 <= t <= 1.0):
            raise DomainError(f"adoption rate must be in [0, 1], got {t}")
        return min(self.n, math.ceil(t * self.n - 1e-12))

    def rate_demand_count(self, p: float) -> int:
        """Number of households whose normalized savings reach price p."""
        return int(np.searchsorted(-self.normalized, -p, side="right"))


def build_order(curves: Mapping[str, SavingsCurve]) -> AdoptionOrder:
    ids = sorted(curves)
    ids.sort(key=lambda hid: -curves[hid].normalized_savings)  # stable: ties stay in id order
    normalized = np.array([curves[hid].normalized_savings for hid in ids])
    sizes = np.array([curves[hid].max_size for hid in ids])
    return AdoptionOrder(
        ranking=tuple(ids),
        normalized=normalized,
        sizes=sizes,
        cumulative_quantity=np.concatenate([[0.0], np.cumsum(sizes)]),
    )


@dataclass(frozen=True)
class DemandCurves:
    """Sweep of market outcomes along the adoption order (parallel arrays)."""

    t: np.ndarray
    owners: np.ndarray  # owner counts, int
    adopted_quantity: np.ndarray  # kW
    short_run_price: np.ndarray  # marginal adopter's normalized savings; NaN at k=0
    clearing_price: np.ndarray  # NaN where the market is degenerate
    volume: np.ndarray
    fraction_rented_out: np.ndarray
    owner_participation: np.ndarray
    non_owner_participation: np.ndarray
    total_participation: np.ndarray
    owner_surplus: np.ndarray
    renter_surplus: np.ndarray
    total_surplus: np.ndarray


def default_t_grid(n_points: int = 200, lo: float = 0.001, hi: float = 0.999) -> np.ndarray:
    """Adoption-rate grid, log-odds spaced so both endpoints are dense."""
    x = np.linspace(math.log(lo / (1 - lo)), math.log(hi / (1 - hi)), n_points)
    return 1.0 / (1.0 + np.exp(-x))


def sweep_adoption(order: AdoptionOrder, curves: Mapping[str, SavingsCurve],
                   t_grid, solver: LongRunSolver | None = None) -> DemandCurves:
    """Market outcomes at every adoption rate in t_grid."""
    solver = solver or LongRunSolver(order, curves)
    t_grid = np.asarray(t_grid, dtype=float)
    cols: dict[str, list] = {name: [] for name in (
        "owners", "adopted_quantity", "short_run_price", "clearing_price", "volume",
        "fraction_rented_out", "owner_participation", "non_owner_participation",
        "total_participation", "owner_surplus", "renter_surplus", "total_surplus")}
    for t in t_grid:
        k = order.count_at_rate(float(t))
        eq = solver.equilibrium_at(k)
        quantity = float(order.cumulative_quantity[k])
        cols["owners"].append(k)
        cols["adopted_quantity"].append(quantity)
        cols["short_run_price"].append(float(order.normalized[k - 1]) if k >= 1 else math.nan)
        cols["clearing_price"].append(math.nan if eq.clearing_price is None else eq.clearing_price)
        cols["volume"].append(eq.volume)
        cols["fraction_rented_out"].append(eq.volume / quantity if quantity > 0 else 0.0)
        cols["owner_participation"].append(eq.owner_participation)
        cols["non_owner_participation"].append(eq.non_owner_participation)
        cols["total_participation"].append(eq.total_participation)
        cols["owner_surplus"].append(eq.owner_surplus_total)
        cols["renter_surplus"].append(eq.renter_surplus_total)
        cols["total_surplus"].append(eq.total_surplus)
    arrays = {name: np.asarray(vals) for name, vals in cols.items()}
    return DemandCurves(t=t_grid, **arrays)


class LongRunSolver:
    """Market equilibria at every owner count k along the adoption order.

    The constructor clears the market for every k at once from one
    ClearingTable; equilibrium_at(k) builds the full equilibrium the
    first time k is asked for and keeps it.
    """

    def __init__(self, order: AdoptionOrder, curves: Mapping[str, SavingsCurve]):
        self.order = order
        self.curves = curves
        self._table = ClearingTable(curves)
        self._prices = self._table.prices_along(order.ranking)
        self._equilibria: dict[int, MarketEquilibrium] = {}

    def equilibrium_at(self, k: int) -> MarketEquilibrium:
        if k not in self._equilibria:
            self._equilibria[k] = self._table.equilibrium(self.order.owners_at(k),
                                                          self._prices[k])
        return self._equilibria[k]

    def clearing_price_at(self, k: int) -> float | None:
        return self._prices[k]


@dataclass(frozen=True)
class LongRunResult:
    """Short-run vs long-run adoption at one purchase price.

    k_long resolves the long-run equilibrium to one household: the
    smallest adoption count at or beyond the short-run one where the
    rental price no longer exceeds the purchase price. r_at_long and
    r_before_long bracket the purchase price from below and above, and
    equilibrium is the rental market at k_long.
    """

    price: float
    k_short: int
    t_short: float
    d_short: float
    k_long: int
    t_long: float
    d_long: float
    delta_q: float
    r_at_long: float | None
    r_before_long: float | None
    equilibrium: MarketEquilibrium
    saturated: bool = False  # rental price stayed above p out to full adoption
    contraction: bool = False  # rental price below p already at short-run adoption
    no_adoption: bool = False  # p above every household's normalized savings


def long_run_adoption(order: AdoptionOrder, curves: Mapping[str, SavingsCurve],
                      p: float, solver: LongRunSolver | None = None) -> LongRunResult:
    """Long-run adoption when buying capacity just to rent it out is allowed.

    Adoption contraction (rental price below p at the no-market adoption
    level) is detected and flagged, not simulated; the reported long-run
    level then equals the short-run one.
    """
    if not (math.isfinite(p) and p > 0):
        raise DomainError(f"purchase price must be finite and positive, got {p}")
    solver = solver or LongRunSolver(order, curves)
    n = order.n
    k0 = order.rate_demand_count(p)
    d_short = float(order.cumulative_quantity[k0])

    def result(k_long, r_at, r_before, **flags):
        return LongRunResult(
            price=p, k_short=k0, t_short=k0 / n, d_short=d_short,
            k_long=k_long, t_long=k_long / n,
            d_long=float(order.cumulative_quantity[k_long]),
            delta_q=float(order.cumulative_quantity[k_long]) - d_short,
            r_at_long=r_at, r_before_long=r_before,
            equilibrium=solver.equilibrium_at(k_long), **flags)

    if k0 == 0:
        # nobody owns, so no rental market exists to pull adoption up
        return result(0, None, None, no_adoption=True)
    if k0 == n:
        return result(n, solver.clearing_price_at(n), None)

    r0 = solver.clearing_price_at(k0)
    if r0 is None or r0 <= p:
        return result(k0, r0, None, contraction=bool(r0 is not None and r0 < p))

    # smallest k in (k0, n] with clearing price <= p; price is nonincreasing in k
    lo, hi = k0, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        r = solver.clearing_price_at(mid)
        if r is None or r <= p:
            hi = mid
        else:
            lo = mid
    k_long = hi
    r_at = solver.clearing_price_at(k_long)
    r_before = solver.clearing_price_at(k_long - 1)
    return result(k_long, r_at, r_before, saturated=(k_long == n))


@dataclass(frozen=True)
class SubsidyResult:
    price: float
    delta_q: float  # kW
    subsidy: float  # $/period
    no_increase: bool


def equivalent_subsidy(table: DemandCurves, long_run: LongRunResult,
                       refine: int = 1) -> SubsidyResult:
    """Direct subsidy matching the market's adoption increase at this price.

    Integrates (p - inverse_demand(q)) over the adopted quantity from the
    no-market level to the long-run level. The inverse demand is the
    monotone piecewise-linear interpolation of the sweep's
    (adopted_quantity, short_run_price) columns; the trapezoid rule on
    all interpolation knots is exact for it, so refine only subdivides
    segments for convergence checks.
    """
    p = long_run.price
    delta_q = long_run.delta_q
    if delta_q <= 0:
        return SubsidyResult(price=p, delta_q=delta_q, subsidy=0.0, no_increase=True)

    valid = ~np.isnan(table.short_run_price)
    qs, idx = np.unique(table.adopted_quantity[valid], return_index=True)
    thresholds = table.short_run_price[valid][idx]
    if qs.size < 2:
        raise DomainError("sweep table too coarse to interpolate inverse demand")

    a, b = long_run.d_short, long_run.d_long
    inner = qs[(qs > a) & (qs < b)]
    pts = np.concatenate([[a], inner, [b]])
    if refine > 1:
        fine = [np.linspace(pts[i], pts[i + 1], refine + 1)[:-1] for i in range(pts.size - 1)]
        pts = np.concatenate(fine + [[b]])
    integrand = p - np.interp(pts, qs, thresholds)
    widths = np.diff(pts)
    subsidy = float(np.sum(0.5 * (integrand[:-1] + integrand[1:]) * widths))
    return SubsidyResult(price=p, delta_q=delta_q, subsidy=subsidy, no_increase=False)
