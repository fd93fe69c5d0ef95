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
from typing import Mapping, Sequence

from .adoption import AdoptionOrder, LongRunResult, LongRunSolver, long_run_adoption
from .curves import PurchasesCurve, SavingsCurve
from .market import MarketEquilibrium


def vendor_gain(price: float, d_short: float, d_long: float) -> float:
    """Revenue increase p * (long-run adopted quantity - short-run)."""
    return price * (d_long - d_short)


def billed_sales(purchases: Mapping[str, PurchasesCurve],
                 assignment: Mapping[str, float]) -> float:
    """Total buy-side bills when each household dispatches its assigned capacity."""
    return float(sum(purchases[hid].eval(assignment[hid]) for hid in sorted(assignment)))


def autarky_assignment(order: AdoptionOrder, k: int) -> dict[str, float]:
    """No-market state at adoption count k: owners at full size, the rest at 0."""
    owners = order.owners_at(k)
    return {hid: (order.sizes[r] if hid in owners else 0.0)
            for r, hid in enumerate(order.ranking)}


def total_baseline(purchases: Mapping[str, PurchasesCurve]) -> float:
    """Every household's bill before any adoption (sum of no-asset bills)."""
    return float(sum(purchases[hid].baseline for hid in sorted(purchases)))


def utility_loss(purchases: Mapping[str, PurchasesCurve], order: AdoptionOrder,
                 k_short: int, equilibrium: MarketEquilibrium) -> float:
    """Billed sales without the market minus billed sales with it."""
    before = billed_sales(purchases, autarky_assignment(order, k_short))
    after = billed_sales(purchases, equilibrium.allocations)
    return before - after


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


def regime_point(order: AdoptionOrder, curves: Mapping[str, SavingsCurve],
                 purchases: Mapping[str, PurchasesCurve], price: float,
                 solver: LongRunSolver | None = None,
                 long_run: LongRunResult | None = None) -> RegimePoint:
    lr = long_run or long_run_adoption(order, curves, price, solver)
    gain = vendor_gain(price, lr.d_short, lr.d_long)
    loss = utility_loss(purchases, order, lr.k_short, lr.equilibrium)
    if gain <= 0:
        threshold = None
    elif loss <= 0:
        threshold = math.inf
    else:
        threshold = gain / loss
    return RegimePoint(price=price, delta_q=lr.delta_q, vendor_gain=gain,
                       utility_loss=loss, threshold=threshold,
                       emerges_at_unit_ratio=market_emerges(gain, loss, 1.0),
                       long_run=lr)


def regime_boundary(order: AdoptionOrder, curves: Mapping[str, SavingsCurve],
                    purchases: Mapping[str, PurchasesCurve],
                    p_grid: Sequence[float],
                    solver: LongRunSolver | None = None) -> list[RegimePoint]:
    """Trace the blocking-threshold curve over a purchase-price grid."""
    solver = solver or LongRunSolver(order, curves)
    return [regime_point(order, curves, purchases, float(p), solver) for p in p_grid]
