"""Vendor gains, utility billed-sales losses, and the market-emergence regime.

The vendor sells capacity at price p and gains revenue on the adoption
increase the rental market induces. The utility earns only on energy it
bills to households (buy-side; sell-backs are pass-through), so its
loss is the drop in total buy-side bills between the no-market state
(owners dispatch their full asset, non-owners none) and the with-market
state (everyone dispatches their equilibrium allocation). Whether the
market emerges is a contest of profit pools: it does iff the vendor's
profit gain strictly exceeds the utility's profit loss, i.e. iff the
utility's profit-rate ratio is below vendor_gain / utility_loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .adoption import AdoptionOrder, LongRunResult, LongRunSolver, long_run_adoption
from .market import MarketEquilibrium, _sum_in_order
from .model import DomainError, PurchasesCurve, SavingsCurve


def vendor_gain(price: float, d_short: float, d_long: float) -> float:
    """Revenue increase p * (long-run adopted quantity - short-run)."""
    return price * (d_long - d_short)


def _bills(purchases: Mapping[str, PurchasesCurve], ids: Sequence[str],
           assignment: np.ndarray) -> np.ndarray:
    """Each household's PurchasesCurve.eval at its assigned capacity, in the
    order of ids, in one pass: the domain check and clip of `_in_domain`
    (the error names the first household out of its domain), then
    np.interp's arithmetic term for term."""
    rows = [purchases[hid] for hid in ids]
    counts = np.array([c.knots.size for c in rows], dtype=np.intp)
    starts = np.cumsum(counts) - counts
    last = starts + counts - 1
    knots = np.concatenate([c.knots for c in rows] or [np.empty(0)])
    values = np.concatenate([c.values for c in rows] or [np.empty(0)])
    size = knots[last]
    y = np.asarray(assignment, dtype=float)
    bad = np.flatnonzero(~((-1e-9 * size <= y) & (y <= size * (1 + 1e-9) + 1e-12)))
    if bad.size:
        raise DomainError(f"y={float(y[bad[0]])} outside [0, {float(size[bad[0]])}]")
    y = np.minimum(np.maximum(y, 0.0), size)
    # j is the last knot at or below y (knots ascend), k the one after it
    j = starts - 1 + np.add.reduceat(knots <= np.repeat(y, counts), starts, dtype=np.intp)
    k = np.minimum(j + 1, last)
    xj, vj, vk = knots[j], values[j], values[k]
    with np.errstate(all="ignore"):  # np.interp's C loop never warns
        slope = (vk - vj) / (knots[k] - xj)
        out = slope * (y - xj) + vj
        # a NaN is interpolated from the right knot, else a flat segment's value
        right = slope * (y - knots[k]) + vk
        right = np.where(np.isnan(right) & (vj == vk), vj, right)
        out = np.where(np.isnan(out), right, out)
    # a knot hit takes the value there (y is clipped, so j is the last knot only on a hit)
    return np.where(xj == y, vj, out)


def billed_sales(purchases: Mapping[str, PurchasesCurve], ids: Sequence[str],
                 assignment: np.ndarray) -> float:
    """Total buy-side bills when each household of ids dispatches its
    assigned capacity, assignment in the order of ids."""
    return _sum_in_order(_bills(purchases, ids, assignment))


def autarky_assignment(order: AdoptionOrder, k: int) -> np.ndarray:
    """No-market state at adoption count k, in household-id order: owners
    at full size, the rest at 0."""
    return np.where(order.ranks < k, order.sizes[order.ranks], 0.0)


def utility_loss(purchases: Mapping[str, PurchasesCurve], order: AdoptionOrder,
                 k_short: int, equilibrium: MarketEquilibrium,
                 before: float | None = None) -> float:
    """Billed sales without the market minus billed sales with it. before,
    when given, is the billed sales without the market at k_short."""
    if before is None:
        before = billed_sales(purchases, equilibrium.ids, autarky_assignment(order, k_short))
    return before - billed_sales(purchases, equilibrium.ids, equilibrium.allocations)


def market_emerges(gain: float, loss: float, profit_rate_ratio: float) -> bool:
    """True iff the vendor's profit gain strictly beats the utility's loss.

    Written multiplicatively so a nonpositive loss (utility cannot lose)
    lets any positive vendor gain win.
    """
    return gain > profit_rate_ratio * loss


@dataclass(frozen=True)
class RegimePoint:
    """One purchase price on the opposition curve.

    threshold is vendor_gain / utility_loss: the profit-rate ratio at or
    above which the utility blocks the market. It is +inf when the
    utility does not lose (the market emerges regardless) and None when
    the vendor has nothing to gain.
    """

    price: float
    delta_q: float
    vendor_gain: float
    utility_loss: float
    threshold: float | None
    emerges_at_unit_ratio: bool
    long_run: LongRunResult


def regime_points(order: AdoptionOrder, purchases: Mapping[str, PurchasesCurve],
                  long_run: Iterable[LongRunResult]) -> list[RegimePoint]:
    """The blocking threshold at the purchase price of each long-run result.
    Prices that share k_short share its no-market billed sales, which are
    summed once."""
    before: dict[int, float] = {}
    points = []
    for lr in long_run:
        if lr.k_short not in before:
            before[lr.k_short] = billed_sales(purchases, lr.equilibrium.ids,
                                              autarky_assignment(order, lr.k_short))
        gain = vendor_gain(lr.price, lr.d_short, lr.d_long)
        loss = utility_loss(purchases, order, lr.k_short, lr.equilibrium, before[lr.k_short])
        if gain <= 0:
            threshold = None
        elif loss <= 0:
            threshold = math.inf
        else:
            threshold = gain / loss
        points.append(RegimePoint(price=lr.price, delta_q=lr.delta_q, vendor_gain=gain,
                                  utility_loss=loss, threshold=threshold,
                                  emerges_at_unit_ratio=market_emerges(gain, loss, 1.0),
                                  long_run=lr))
    return points


def regime_boundary(order: AdoptionOrder, curves: Mapping[str, SavingsCurve],
                    purchases: Mapping[str, PurchasesCurve],
                    p_grid: Sequence[float],
                    solver: LongRunSolver | None = None) -> list[RegimePoint]:
    """Trace the blocking-threshold curve over a purchase-price grid."""
    solver = solver or LongRunSolver(order, curves)
    return regime_points(order, purchases,
                         (long_run_adoption(order, curves, price, solver)
                          for price in map(float, p_grid)))
