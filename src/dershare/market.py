"""Rental market clearing over fitted savings curves.

At a rental price r every household maximizes its savings net of rent;
owners keep the capacity they value above r and rent out the rest,
non-owners rent capacity they value above r. Both problems share the
same maximizer y*(r), so the excess supply is

    E(r) = sum_owners (y_bar - y*(r)) - sum_non_owners y*(r) = Q - D(r),

where Q is the owners' total size and D(r) = sum_all y*(r) does not
depend on who owns. D is a nonincreasing step function whose jumps sit
at the segment slopes: a segment of slope s and width w is demanded
whole below s, not at all above s, and anywhere in between at s.

A ClearingTable sorts every segment slope of every curve once and
accumulates the segment widths from the steepest down, so that L(b)
(the width of segments steeper than b) and H(b) (the width of segments
at least as steep as b) are read off at every breakpoint b. Clearing an
owner set then costs two binary searches for its Q, and one table
serves every owner set, in particular every prefix of the adoption
order:

  * r_a is the smallest slope with Q - L(r_a) >= 0 and r_b the largest
    with Q - H(r_b) <= 0;
  * if E is zero on a whole price interval (r_a < r_b), the clearing
    price is the interval midpoint (symmetric surplus split) and
    allocations are the unique maximizers there;
  * if E jumps across zero at a slope value (r_a == r_b), that value
    clears the market and the households indifferent there are rationed
    proportionally: each trades the same fraction of its indifference
    span, which balances supply and demand exactly.

The widths and sizes are summed exactly, as integers in units of the
smallest power of two any knot needs, so the searches see the true sign
of E. A market where the owners value every kW above every non-owner
thus clears at the midpoint with zero volume instead of tipping on
rounding. Allocations, surpluses and participation at the chosen price
are computed in one pass over a padded array of all curves, summing in
household-id order.

Both rules are documented conventions for degenerate ties; away from
ties the equilibrium is the unique supply-equals-demand point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

import numpy as np

from .curves import SavingsCurve
from .model import DomainError

PARTICIPATION_TOL = 1e-9


@dataclass(frozen=True)
class MarketEquilibrium:
    """Clearing outcome for a fixed owner set.

    clearing_price is None when one market side is empty (degenerate:
    no trade, zero volume). allocations map every household to the
    capacity it ends up using; surpluses are the gains over the
    no-market outcome (own-use for owners, nothing for non-owners).
    """

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
    residual: float  # supply minus demand at the clearing price
    degenerate: bool = False


def _owner_set(curves: Mapping[str, SavingsCurve], owners: Iterable[str]) -> frozenset[str]:
    owner_ids = frozenset(owners)
    unknown = owner_ids - set(curves)
    if unknown:
        raise DomainError(f"owner ids without curves: {sorted(unknown)[:3]}")
    return owner_ids


def aggregate_demand(curves: Mapping[str, SavingsCurve], owners: Iterable[str], r: float) -> float:
    """Total capacity non-owners want to rent at price r."""
    owner_ids = _owner_set(curves, owners)
    return float(sum(curves[hid].inverse_marginal(r)
                     for hid in sorted(curves) if hid not in owner_ids))


def aggregate_supply(curves: Mapping[str, SavingsCurve], owners: Iterable[str], r: float) -> float:
    """Total capacity owners offer for rent at price r."""
    owner_ids = _owner_set(curves, owners)
    return float(sum(curves[hid].max_size - curves[hid].inverse_marginal(r)
                     for hid in sorted(owner_ids)))


def _degenerate(ids, curves, owner_ids) -> MarketEquilibrium:
    allocations = {hid: (curves[hid].max_size if hid in owner_ids else 0.0) for hid in ids}
    return MarketEquilibrium(
        clearing_price=None, volume=0.0, allocations=allocations,
        surpluses={hid: 0.0 for hid in ids}, owner_ids=owner_ids,
        owner_surplus_total=0.0, renter_surplus_total=0.0, total_surplus=0.0,
        owner_participation=0.0, non_owner_participation=0.0, total_participation=0.0,
        residual=0.0, degenerate=True)


def _exact_units(values: list[float]) -> list[int]:
    """Nonnegative floats as exact integer multiples of one power of two."""
    ratios = [v.as_integer_ratio() for v in values]  # denominators are powers of two
    unit = max((den for _, den in ratios), default=1)
    return [num * (unit // den) for num, den in ratios]


def _sum_in_order(values: np.ndarray) -> float:
    """Left-to-right float sum, so that totals do not depend on how numpy
    splits a sum (np.sum adds pairwise)."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total


class ClearingTable:
    """Every curve's segments sorted by slope, with exact cumulative widths.

    Built once per set of curves; clears any owner set against them.
    """

    def __init__(self, curves: Mapping[str, SavingsCurve]):
        self.curves = curves
        self.ids = tuple(sorted(curves))
        rows = [curves[hid] for hid in self.ids]
        n_seg = max((c.slopes.size for c in rows), default=0)
        # padded bank, one row per household in id order: slopes pad with
        # -inf (never >= a price), knots and values repeat their last entry
        self.slopes = np.full((len(rows), n_seg), -np.inf)
        self.knots = np.empty((len(rows), n_seg + 1))
        self.values = np.empty((len(rows), n_seg + 1))
        for i, c in enumerate(rows):
            m = c.slopes.size
            self.slopes[i, :m] = c.slopes
            self.knots[i, :m + 1] = c.knots
            self.knots[i, m + 1:] = c.knots[-1]
            self.values[i, :m + 1] = c.values
            self.values[i, m + 1:] = c.values[-1]
        self.sizes = self.knots[:, -1].copy()
        self.totals = self.values[:, -1].copy()
        self.tol = max(1e-6, 1e-9 * sum(c.max_size for c in rows))

        units = _exact_units([v for c in rows for v in c.knots.tolist()])
        self.size_units: dict[str, int] = {}
        widths = []
        start = 0
        for hid, c in zip(self.ids, rows):
            ku = units[start:start + c.knots.size]
            start += c.knots.size
            widths += [b - a for a, b in zip(ku, ku[1:])]
            self.size_units[hid] = ku[-1]
        self.total_units = sum(self.size_units.values())

        all_slopes = np.concatenate([np.empty(0)] + [c.slopes for c in rows])
        # np.unique's own sort and adjacent-duplicate mask, without the
        # numpy.ma import that np.unique pays for on first use
        ascending = np.sort(all_slopes)
        first = np.ones(ascending.size, dtype=bool)
        first[1:] = ascending[1:] != ascending[:-1]
        self.breakpoints = ascending[first][::-1]  # steepest first
        width_at = [0] * self.breakpoints.size
        for j, w in zip(np.searchsorted(-self.breakpoints, -all_slopes).tolist(), widths):
            width_at[j] += w
        # cum_width[j]: width of the segments steeper than breakpoints[j]
        # (L there); cum_width[j + 1]: of those at least as steep (H there)
        self.cum_width = np.array(list(accumulate(width_at, initial=0)), dtype=object)

    def _prices(self, quantities: Sequence[int]) -> list[float | None]:
        """Clearing price for each owners' total size Q in exact units; None
        where Q is zero or everything, so that one market side is empty."""
        prices: list[float | None] = [None] * len(quantities)
        inner = [i for i, q in enumerate(quantities) if 0 < q < self.total_units]
        if not inner:
            return prices
        q = np.array([quantities[i] for i in inner], dtype=object)
        m = self.breakpoints.size
        # r_a: the flattest breakpoint with L <= Q; r_b: the steepest with H >= Q
        r_a = self.breakpoints[np.searchsorted(self.cum_width[:m], q, side="right") - 1]
        r_b = self.breakpoints[np.searchsorted(self.cum_width[1:], q, side="left")]
        if np.any(r_a > r_b):
            j = int(np.argmax(r_a > r_b))
            raise AssertionError(f"clearing interval is empty: [{r_a[j]}, {r_b[j]}]")
        for i, r in zip(inner, (0.5 * (r_a + r_b)).tolist()):
            prices[i] = r
        return prices

    def prices_along(self, ranking: Sequence[str]) -> list[float | None]:
        """Clearing price with owners ranking[:k], for k = 0..len(ranking)."""
        return self._prices(list(accumulate((self.size_units[hid] for hid in ranking),
                                            initial=0)))

    def clear(self, owner_ids: frozenset[str]) -> MarketEquilibrium:
        """Equilibrium for any owner set."""
        price = self._prices([sum(self.size_units[hid] for hid in owner_ids)])[0]
        return self.equilibrium(owner_ids, price)

    def equilibrium(self, owner_ids: frozenset[str], price: float | None) -> MarketEquilibrium:
        """Allocations, rationing, surpluses and participation at a clearing
        price; a price of None (one market side empty) means no trade."""
        if price is None:
            return _degenerate(self.ids, self.curves, owner_ids)
        owner = np.array([hid in owner_ids for hid in self.ids])
        rows = np.arange(len(self.ids))
        n_gt = np.count_nonzero(self.slopes > price, axis=1)
        n_ge = np.count_nonzero(self.slopes >= price, axis=1)
        lo = self.knots[rows, n_gt]  # each household's argmax interval [lo, hi]
        hi = self.knots[rows, n_ge]
        size = self.sizes
        e_lo = _sum_in_order(np.where(owner, size - hi, -hi))
        e_hi = _sum_in_order(np.where(owner, size - lo, -lo))
        if e_hi - e_lo > 0 and e_lo < 0:
            # jump straddling zero: ration the indifferent households
            ratio = min(1.0, -e_lo / (e_hi - e_lo))
            y = hi - ratio * (hi - lo)
        else:
            y = hi

        supply = _sum_in_order((size - y)[owner])
        demand = _sum_in_order(y[~owner])
        residual = supply - demand
        if abs(residual) > self.tol:
            raise AssertionError(f"market failed to balance: residual {residual} > {self.tol}")

        f = self.values[rows, n_ge]  # exact where y sits on the knot hi
        for i in np.flatnonzero(y != hi).tolist():
            f[i] = self.curves[self.ids[i]].eval(y[i])
        w = np.where(owner, f + price * (size - y) - self.totals, f - price * y)
        owner_total = _sum_in_order(w[owner])
        renter_total = _sum_in_order(w[~owner])
        floor = PARTICIPATION_TOL * np.maximum(size, 1.0)
        n_owner_part = int(np.count_nonzero(owner & (size - y > floor)))
        n_renter_part = int(np.count_nonzero(~owner & (y > floor)))

        n_owners = int(np.count_nonzero(owner))
        n_renters = len(self.ids) - n_owners
        return MarketEquilibrium(
            clearing_price=float(price),
            volume=float(supply),
            allocations=dict(zip(self.ids, y.tolist())),
            surpluses=dict(zip(self.ids, w.tolist())),
            owner_ids=owner_ids,
            owner_surplus_total=float(owner_total),
            renter_surplus_total=float(renter_total),
            total_surplus=float(owner_total + renter_total),
            owner_participation=n_owner_part / n_owners,
            non_owner_participation=n_renter_part / n_renters,
            total_participation=(n_owner_part + n_renter_part) / len(self.ids),
            residual=float(residual),
        )


def clear_market(curves: Mapping[str, SavingsCurve], owners: Iterable[str]) -> MarketEquilibrium:
    """Find the price equating rental supply and demand and allocate.

    Degenerate owner sets (empty, or everyone) yield a no-trade
    equilibrium with clearing_price None rather than an error.
    """
    return ClearingTable(curves).clear(_owner_set(curves, owners))
