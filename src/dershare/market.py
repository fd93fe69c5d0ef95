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
are computed in one pass over the CurveSet's flat arrays, summing in
household-id order, and kept as read-only arrays in that order with a
mask of the owners, so that a sweep can afford to keep every equilibrium.

Both rules are documented conventions for degenerate ties; away from
ties the equilibrium is the unique supply-equals-demand point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .model import CurveSet, DomainError

PARTICIPATION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MarketEquilibrium:
    """Clearing outcome for a fixed owner set.

    clearing_price is None when one market side is empty (degenerate:
    no trade, zero volume, and every total 0). allocations hold the
    capacity each household ends up using and surpluses its gain over the
    no-market outcome (own-use for owners, nothing for non-owners); owner
    marks the owners. All three are read-only arrays in the order of ids.
    """

    clearing_price: float | None
    volume: float
    ids: tuple[str, ...]
    allocations: np.ndarray
    surpluses: np.ndarray
    owner: np.ndarray  # bool
    owner_surplus_total: float = 0.0
    renter_surplus_total: float = 0.0
    total_surplus: float = 0.0
    owner_participation: float = 0.0
    non_owner_participation: float = 0.0
    total_participation: float = 0.0
    residual: float = 0.0  # supply minus demand at the clearing price

    def __post_init__(self):
        for a in (self.allocations, self.surpluses, self.owner):
            a.flags.writeable = False


def _exact_units(values: list[float]) -> list[int]:
    """Nonnegative floats as exact integer multiples of one power of two."""
    ratios = [v.as_integer_ratio() for v in values]  # denominators are powers of two
    unit = max((den for _, den in ratios), default=1)
    return [num * (unit // den) for num, den in ratios]


def _sum_in_order(values: np.ndarray) -> float:
    """Left-to-right float sum from 0.0, the additions a loop would make, so
    that totals do not depend on how np.sum splits a sum (it adds pairwise)."""
    return float(np.add.accumulate(np.concatenate([[0.0], values]))[-1])


class ClearingTable:
    """Every curve's segments sorted by slope, with exact cumulative widths.

    Built once per curve set; clears any owner set against its arrays.
    """

    def __init__(self, curves: CurveSet):
        self.curves = curves
        self.ids = curves.ids
        self.first = curves.offsets[:-1]  # each household's first knot and segment
        self.first_segment = self.first - np.arange(len(self.ids))
        self.tol = max(1e-6, 1e-9 * _sum_in_order(curves.sizes))

        units = _exact_units(curves.knots.tolist())
        ends = (curves.offsets[1:] - 1).tolist()  # each household's last knot is its size
        self.size_units = {hid: units[k] for hid, k in zip(self.ids, ends)}
        self.total_units = sum(self.size_units.values())
        widths = [units[k + 1] - units[k] for k in curves.segment_knots.tolist()]

        # np.unique's own sort and adjacent-duplicate mask, without the
        # numpy.ma import that np.unique pays for on first use
        ascending = np.sort(curves.slopes)
        distinct = np.ones(ascending.size, dtype=bool)
        distinct[1:] = ascending[1:] != ascending[:-1]
        self.breakpoints = ascending[distinct][::-1]  # steepest first
        width_at = [0] * self.breakpoints.size
        for j, w in zip(np.searchsorted(-self.breakpoints, -curves.slopes).tolist(), widths):
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

    def equilibrium(self, owner: np.ndarray, price: float | None) -> MarketEquilibrium:
        """Allocations, rationing, surpluses and participation at a clearing
        price; at None (one market side empty) owners keep their whole size.
        owner is a bool array in ids order; the equilibrium keeps it, read-only."""
        if price is None:
            return MarketEquilibrium(None, 0.0, self.ids, np.where(owner, self.curves.sizes, 0.0),
                                     np.zeros(len(self.ids)), owner)
        slopes = self.curves.slopes
        n_gt = np.add.reduceat(slopes > price, self.first_segment, dtype=np.intp)
        n_ge = np.add.reduceat(slopes >= price, self.first_segment, dtype=np.intp)
        lo = self.curves.knots[self.first + n_gt]  # each household's argmax interval [lo, hi]
        hi = self.curves.knots[self.first + n_ge]
        size = self.curves.sizes
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

        f = self.curves.knot_values[self.first + n_ge]  # exact where y sits on the knot hi
        rationed = np.flatnonzero(y != hi)
        f[rationed] = self.curves.eval(y[rationed], [self.ids[i] for i in rationed.tolist()])
        w = np.where(owner, f + price * (size - y) - self.curves.totals, f - price * y)
        owner_total = _sum_in_order(w[owner])
        renter_total = _sum_in_order(w[~owner])
        floor = PARTICIPATION_TOL * np.maximum(size, 1.0)
        n_owner_part = int(np.count_nonzero(owner & (size - y > floor)))
        n_renter_part = int(np.count_nonzero(~owner & (y > floor)))

        n_owners = int(np.count_nonzero(owner))
        n_renters = len(self.ids) - n_owners
        return MarketEquilibrium(
            clearing_price=float(price), volume=float(supply), ids=self.ids, allocations=y,
            surpluses=w, owner=owner, owner_surplus_total=float(owner_total),
            renter_surplus_total=float(renter_total),
            total_surplus=float(owner_total + renter_total),
            owner_participation=n_owner_part / n_owners,
            non_owner_participation=n_renter_part / n_renters,
            total_participation=(n_owner_part + n_renter_part) / len(self.ids),
            residual=float(residual))


def clear_market(curves: CurveSet, owners: Iterable[str]) -> MarketEquilibrium:
    """Find the price equating rental supply and demand and allocate.

    Degenerate owner sets (empty, or everyone) yield a no-trade
    equilibrium with clearing_price None rather than an error.
    """
    owner_ids = frozenset(owners)
    unknown = owner_ids - set(curves)
    if unknown:
        raise DomainError(f"owner ids without curves: {sorted(unknown)[:3]}")
    table = ClearingTable(curves)
    price = table._prices([sum(table.size_units[hid] for hid in owner_ids)])[0]
    return table.equilibrium(np.array([hid in owner_ids for hid in table.ids], dtype=bool), price)
