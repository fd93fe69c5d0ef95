"""Geographic localness of the rental market.

After clearing, each region is left with an excess rental supply (what
its owners rent out minus what its non-owners rent). Matching regional
excesses against shortages is a balanced transportation problem with
squared great-circle distance as the cost; its optimum measures how far
capacity must travel. Independently of any flow, the fraction of market
volume that clears within regions is 1 - sum|s_k| / (2 v).

The transportation problem is solved exactly as one linear program on a
cold lp.LPModel; with a single surplus or shortage region the flow is
fixed by the other side, and no LP is built.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lp import LPModel
from .market import MarketEquilibrium
from .model import DomainError, HouseholdRecord, Region

log = logging.getLogger(__name__)

EARTH_RADIUS_KM = 6371.0088


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two (degree) coordinates."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


def distance_matrix(regions: Sequence[Region]) -> np.ndarray:
    """Symmetric great-circle distance matrix in km, zero diagonal."""
    for r in regions:
        if not (-90.0 <= r.latitude <= 90.0) or not (-180.0 <= r.longitude <= 180.0):
            raise DomainError(f"region {r.id}: invalid coordinates ({r.latitude}, {r.longitude})")
    n = len(regions)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = haversine_km(regions[i].latitude, regions[i].longitude,
                                             regions[j].latitude, regions[j].longitude)
    return d


def regional_excess(equilibrium: MarketEquilibrium,
                    households: Sequence[HouseholdRecord],
                    regions: Sequence[Region]) -> np.ndarray:
    """Per-region excess rental supply s_k, ordered like `regions`.

    s_k = (capacity the region's owners rent out) minus (capacity its
    non-owners rent); negative values mean excess rental demand.
    """
    index = {r.id: k for k, r in enumerate(regions)}
    s = np.zeros(len(regions))
    for hh in sorted(households, key=lambda h: h.id):
        if hh.region_id not in index:
            raise DomainError(f"household {hh.id}: region {hh.region_id!r} not in region list")
        y = equilibrium.allocations[hh.id]
        if hh.id in equilibrium.owner_ids:
            s[index[hh.region_id]] += hh.net_zero_size - y
        else:
            s[index[hh.region_id]] -= y
    return s


def solve_transport(supply, demand, cost):
    """Exact minimum of sum(flow * cost) subject to row sums = supply and
    column sums = demand (which must balance). Returns (flow, objective).
    Arc (i, j) is LP column i*n + j, with a 1 in rows i and m + j."""
    supply = np.asarray(supply, dtype=float)
    demand = np.asarray(demand, dtype=float)
    cost = np.asarray(cost, dtype=float)
    m, n = supply.size, demand.size
    if cost.shape != (m, n):
        raise DomainError(f"cost shape {cost.shape} does not match {(m, n)}")
    if abs(supply.sum() - demand.sum()) > 1e-7 * (1.0 + supply.sum()):
        raise DomainError("supplies and demands do not balance")
    if m == 0 or n == 0:
        return np.zeros((m, n)), 0.0
    if m == 1 or n == 1:
        flow = (demand[None, :] if m == 1 else supply[:, None]).copy()
        return flow, float(np.sum(flow * cost))

    arcs = np.arange(m * n)
    rows = np.column_stack([arcs // n, m + arcs % n]).ravel().astype(np.int32)
    start = np.arange(0, 2 * m * n + 1, 2, dtype=np.int32)
    model = LPModel(cost.ravel(), ((m + n, m * n), (start, rows, np.ones(2 * m * n))))
    sums = np.concatenate([supply, demand])
    solution = model.solve(sums, sums, np.zeros(m * n), np.full(m * n, np.inf))
    return solution.x.reshape(m, n), solution.objective


@dataclass(frozen=True)
class RegionalFlow:
    """Optimal inter-region matching of rental excesses.

    objective is in kW * km^2; fraction_local depends only on the raw
    excesses and the market volume, never on the flow itself.
    """

    region_ids: tuple[str, ...]
    excess: np.ndarray  # raw s_k, kW
    flow: np.ndarray  # |Z| x |Z| kW, zero diagonal
    objective: float
    fraction_local: float
    volume: float
    degenerate: bool = False  # zero-volume market


def min_cost_flow(excess, distances, volume: float,
                  region_ids: Sequence[str] | None = None) -> RegionalFlow:
    """Match regional surpluses to shortages at minimum squared-distance cost.

    Tiny clearing imbalance between total surplus and total shortage is
    absorbed by scaling the larger side down before solving; the
    reported excesses stay untouched.
    """
    excess = np.asarray(excess, dtype=float)
    distances = np.asarray(distances, dtype=float)
    nz = excess.size
    if distances.shape != (nz, nz):
        raise DomainError(f"distance matrix shape {distances.shape} does not match {nz} regions")
    if np.min(distances) < 0:
        raise DomainError("distances must be nonnegative")
    if region_ids is None:
        region_ids = tuple(f"R{k}" for k in range(nz))

    abs_excess = float(np.sum(np.abs(excess)))
    fraction_local = 1.0 if volume <= 0 else max(0.0, 1.0 - abs_excess / (2.0 * volume))

    supply = np.maximum(excess, 0.0)
    demand = np.maximum(-excess, 0.0)
    total_s, total_d = float(supply.sum()), float(demand.sum())
    flow = np.zeros((nz, nz))
    objective = 0.0
    if total_s > 0 and total_d > 0:
        gap = total_s - total_d
        if gap != 0.0:
            if abs(gap) > 1e-9 * max(total_s, total_d):
                log.info("rescaling flow imbalance of %.3g kW before matching", gap)
            if gap > 0:
                supply *= total_d / total_s
            else:
                demand *= total_s / total_d
        rows = np.flatnonzero(supply > 0)
        cols = np.flatnonzero(demand > 0)
        sub_flow, objective = solve_transport(
            supply[rows], demand[cols], distances[np.ix_(rows, cols)] ** 2)
        flow[np.ix_(rows, cols)] = sub_flow

    return RegionalFlow(
        region_ids=tuple(region_ids), excess=excess, flow=flow,
        objective=float(objective), fraction_local=float(fraction_local),
        volume=float(volume), degenerate=(volume <= 0))
