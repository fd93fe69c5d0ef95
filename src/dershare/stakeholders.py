"""Vendor gains, utility billed-sales losses, and the market-emergence regime.

The vendor sells capacity at price p and gains revenue on the adoption
increase the rental market induces. The utility earns only on energy it
bills to households (buy-side; sell-backs are pass-through), so its
loss is the drop in total buy-side bills between the no-market state
(owners dispatch their full asset, non-owners none) and the with-market
state (everyone dispatches their equilibrium allocation). Whether the
market emerges is a contest of profit pools: it does iff the vendor's
profit gain strictly exceeds the utility's profit loss, i.e. iff the
utility's profit-rate ratio is below vendor_gain / utility_loss. The
bills are the purchases CurveSet's eval, every household in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .adoption import AdoptionOrder, LongRunResult, LongRunSolver, long_run_adoption
from .market import MarketEquilibrium, _sum_in_order
from .model import CurveSet


def vendor_gain(price: float, d_short: float, d_long: float) -> float:
    """Revenue increase p * (long-run adopted quantity - short-run)."""
    return price * (d_long - d_short)


def billed_sales(purchases: CurveSet, ids: Sequence[str], assignment: np.ndarray) -> float:
    """Total buy-side bills when each household of ids dispatches its
    assigned capacity, assignment in the order of ids, summed in that order."""
    return _sum_in_order(purchases.eval(assignment, ids))


def autarky_assignment(order: AdoptionOrder, k: int) -> np.ndarray:
    """No-market state at adoption count k, in household-id order: owners
    at full size, the rest at 0."""
    return np.where(order.ranks < k, order.sizes[order.ranks], 0.0)


def utility_loss(purchases: CurveSet, equilibrium: MarketEquilibrium, before: float) -> float:
    """Billed sales without the market, before, minus billed sales with it."""
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


def regime_points(order: AdoptionOrder, purchases: CurveSet,
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
        loss = utility_loss(purchases, lr.equilibrium, before[lr.k_short])
        if gain <= 0:
            threshold = None
        elif loss <= 0:
            threshold = math.inf
        else:
            threshold = gain / loss
        points.append(RegimePoint(price=lr.price, delta_q=lr.delta_q, vendor_gain=gain,
                                  utility_loss=loss, threshold=threshold,
                                  emerges_at_unit_ratio=market_emerges(gain, loss, 1.0)))
    return points


def regime_boundary(order: AdoptionOrder, curves: CurveSet, purchases: CurveSet,
                    p_grid: Sequence[float],
                    solver: LongRunSolver | None = None) -> list[RegimePoint]:
    """Trace the blocking-threshold curve over a purchase-price grid."""
    solver = solver or LongRunSolver(order, curves)
    return regime_points(order, purchases,
                         (long_run_adoption(order, curves, price, solver)
                          for price in map(float, p_grid)))
