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

import bisect
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .market import ClearingTable, MarketEquilibrium
from .model import CurveSet, DomainError


@dataclass(frozen=True)
class AdoptionOrder:
    """Households ranked by normalized savings, descending; ties broken by id."""

    ranking: tuple[str, ...]
    normalized: np.ndarray  # $/period/kW along the ranking
    sizes: np.ndarray  # net-zero sizes along the ranking, kW
    cumulative_quantity: np.ndarray  # prefix[k] = capacity of the first k, kW
    ranks: np.ndarray  # each household's place in the ranking, in household-id order

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


def build_order(curves: CurveSet) -> AdoptionOrder:
    sizes, normalized = curves.sizes, curves.totals / curves.sizes
    # households by descending normalized savings; the sort is stable, so ties stay in id order
    ranking = sorted(range(len(curves)), key=(-normalized).tolist().__getitem__)
    return AdoptionOrder(ranking=tuple(curves.ids[i] for i in ranking),
                         normalized=normalized[ranking], sizes=sizes[ranking],
                         cumulative_quantity=np.concatenate([[0.0], np.cumsum(sizes[ranking])]),
                         ranks=np.array(sorted(range(len(ranking)), key=ranking.__getitem__)))


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


def default_t_grid(n_points: int = 200) -> np.ndarray:
    """Adoption rates from 0.001 to 0.999, log-odds spaced so both endpoints are dense."""
    x = np.linspace(math.log(0.001 / (1 - 0.001)), math.log(0.999 / (1 - 0.999)), n_points)
    return 1.0 / (1.0 + np.exp(-x))


def sweep_adoption(order: AdoptionOrder, curves: CurveSet,
                   t_grid, solver: LongRunSolver | None = None) -> DemandCurves:
    """Market outcomes at every adoption rate in t_grid."""
    solver = solver or LongRunSolver(order, curves)
    t_grid = np.asarray(t_grid, dtype=float)
    rows = []  # one tuple per rate, in DemandCurves' field order after t
    for t in t_grid:
        k = order.count_at_rate(float(t))
        eq = solver.equilibrium_at(k)
        quantity = float(order.cumulative_quantity[k])
        rows.append((k, quantity, float(order.normalized[k - 1]) if k >= 1 else math.nan,
                     math.nan if eq.clearing_price is None else eq.clearing_price, eq.volume,
                     eq.volume / quantity if quantity > 0 else 0.0, eq.owner_participation,
                     eq.non_owner_participation, eq.total_participation,
                     eq.owner_surplus_total, eq.renter_surplus_total, eq.total_surplus))
    # an empty grid gives twelve empty columns
    return DemandCurves(t_grid, *map(np.asarray, list(zip(*rows)) or [()] * 12))


class LongRunSolver(ClearingTable):
    """The ClearingTable of a curve set, read along the adoption order.

    The constructor prices every owner count k = 0..N (the households of
    rank < k own); equilibrium_at(k) builds each equilibrium once and keeps it.
    """

    def __init__(self, order: AdoptionOrder, curves: CurveSet):
        ClearingTable.__init__(self, curves)
        self.order = order
        self.prices = self._prices(list(accumulate((self.size_units[hid] for hid in order.ranking),
                                                   initial=0)))
        self._equilibria: dict[int, MarketEquilibrium] = {}

    def equilibrium_at(self, k: int) -> MarketEquilibrium:
        if k not in self._equilibria:
            self._equilibria[k] = self.equilibrium(self.order.ranks < k, self.prices[k])
        return self._equilibria[k]

    def clearing_price_at(self, k: int) -> float | None:
        return self.prices[k]


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


def long_run_adoption(order: AdoptionOrder, curves: CurveSet,
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

    def cleared(k):  # the rental price no longer exceeds p
        r = solver.clearing_price_at(k)
        return r is None or r <= p

    r0 = solver.clearing_price_at(k0)
    if cleared(k0):
        return result(k0, r0, None, contraction=bool(r0 is not None and r0 < p))
    # the smallest cleared k in (k0, n), else n; the price is nonincreasing in k
    k_long = bisect.bisect_left(range(n), True, k0 + 1, n, key=cleared)
    r_at = solver.clearing_price_at(k_long)
    r_before = solver.clearing_price_at(k_long - 1)
    return result(k_long, r_at, r_before, saturated=(k_long == n))


@dataclass(frozen=True)
class SubsidyResult:
    price: float
    delta_q: float  # kW
    subsidy: float  # $/period
    no_increase: bool


def equivalent_subsidy(table: DemandCurves, long_run: LongRunResult) -> SubsidyResult:
    """Direct subsidy matching the market's adoption increase at this price.

    Integrates (p - inverse_demand(q)) over the adopted quantity from the
    no-market level to the long-run level. The inverse demand is the
    monotone piecewise-linear interpolation of the sweep's
    (adopted_quantity, short_run_price) columns; the trapezoid rule on
    all interpolation knots is exact for it.
    """
    p = long_run.price
    delta_q = long_run.delta_q
    if delta_q <= 0:
        return SubsidyResult(price=p, delta_q=delta_q, subsidy=0.0, no_increase=True)

    valid = ~np.isnan(table.short_run_price)
    qs, idx = np.unique(table.adopted_quantity[valid], return_index=True)
    thresholds = table.short_run_price[valid][idx]
    if qs.size < 2:
        raise DomainError(f"sweep table too coarse to interpolate inverse demand: {qs.size} "
                          "usable adoption rate(s), need 2; add rates to --t-grid (sweep.t_grid)")

    a, b = long_run.d_short, long_run.d_long
    inner = qs[(qs > a) & (qs < b)]
    pts = np.concatenate([[a], inner, [b]])
    integrand = p - np.interp(pts, qs, thresholds)
    widths = np.diff(pts)
    subsidy = float(np.sum(0.5 * (integrand[:-1] + integrand[1:]) * widths))
    return SubsidyResult(price=p, delta_q=delta_q, subsidy=subsidy, no_increase=False)
