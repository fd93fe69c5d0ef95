"""Piecewise-linear bill-savings curves and their fitting.

A household's savings function is sampled by re-solving the dispatch LP
over a grid of capacities and fitting a monotone nondecreasing, concave
piecewise-linear curve. Concavity is enforced in slope space: the chord
slopes of the samples are projected onto the nonincreasing cone with a
weighted pool-adjacent-violators pass (segment lengths as weights),
which preserves the endpoint values exactly. A tiny strictly-decreasing
slope separation is then applied, redistributed so the terminal value
is unchanged, so that the capacity demanded at a rental price is
single-valued except at the finitely many knot slopes.

The buy-side bill component is fitted alongside from the same samples
as a monotone nonincreasing curve; it feeds the billed-sales analysis
and costs no extra LP solves.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .lp import LPError
from .model import DomainError, HouseholdRecord, Scenario

if TYPE_CHECKING:  # the curve types load without the dispatch LP
    from .dispatch import ScenarioContext

log = logging.getLogger(__name__)

DEFAULT_SAMPLES = 30
SLOPE_SEPARATION = 1e-6  # $/period/kW per segment step


class FitError(ValueError):
    """Samples are too far from the monotone concave family to repair."""


def pava_nondecreasing(values, weights=None) -> np.ndarray:
    """Weighted least-squares projection onto nondecreasing sequences.

    Classic pool-adjacent-violators: merging blocks to their weighted
    mean preserves every pooled block's weighted sum, hence the total
    weighted sum of the sequence.
    """
    values = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.ones_like(values)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != values.shape:
        raise ValueError("weights must match values")
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")

    # blocks as (weighted sum, weight, count)
    sums: list[float] = []
    wts: list[float] = []
    counts: list[int] = []
    for v, w in zip(values, weights):
        sums.append(v * w)
        wts.append(w)
        counts.append(1)
        while len(sums) > 1 and sums[-2] / wts[-2] > sums[-1] / wts[-1]:
            s, w2, c = sums.pop(), wts.pop(), counts.pop()
            sums[-1] += s
            wts[-1] += w2
            counts[-1] += c
    return np.repeat([s / w for s, w in zip(sums, wts)], counts)


def pava_nonincreasing(values, weights=None) -> np.ndarray:
    return -pava_nondecreasing(-np.asarray(values, dtype=float), weights)


def _check_knots(knots: np.ndarray) -> np.ndarray:
    knots = np.ascontiguousarray(knots, dtype=float)
    if knots.ndim != 1 or knots.size < 2:
        raise ValueError("need at least two knots")
    if knots[0] != 0.0:
        raise ValueError("first knot must be 0")
    if np.any(np.diff(knots) <= 0):
        raise ValueError("knots must be strictly ascending")
    knots.setflags(write=False)
    return knots


def _in_domain(y: float, max_size: float) -> float:
    """y clipped to [0, max_size]; DomainError beyond rounding slack."""
    y = float(y)
    if not (-1e-9 * max_size <= y <= max_size * (1 + 1e-9) + 1e-12):
        raise DomainError(f"y={y} outside [0, {max_size}]")
    return min(max(y, 0.0), max_size)


@dataclass(frozen=True)
class SavingsCurve:
    """Monotone concave piecewise-linear savings vs. capacity.

    The (knots, slopes) pair is canonical; knot values are derived as
    the cumulative sum of slope * segment-length with f(0) = 0.
    """

    household_id: str
    knots: np.ndarray  # kW, ascending from 0 to the net-zero size
    slopes: np.ndarray  # $/period/kW per segment, nonincreasing
    values: np.ndarray = field(init=False)  # $/period at knots

    def __post_init__(self):
        knots = _check_knots(self.knots)
        slopes = np.ascontiguousarray(self.slopes, dtype=float)
        if slopes.shape != (knots.size - 1,):
            raise ValueError(f"expected {knots.size - 1} slopes, got {slopes.shape}")
        if np.any(np.diff(slopes) > 0):
            raise ValueError("slopes must be nonincreasing (concavity)")
        if slopes[-1] < 0:
            raise ValueError("slopes must be nonnegative (monotone savings)")
        slopes.setflags(write=False)
        values = np.concatenate([[0.0], np.cumsum(slopes * np.diff(knots))])
        values.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "values", values)

    @property
    def max_size(self) -> float:
        return float(self.knots[-1])

    @property
    def total(self) -> float:
        """Savings at full own use, f(max_size)."""
        return float(self.values[-1])

    @property
    def normalized_savings(self) -> float:
        return self.total / self.max_size

    def eval(self, y: float) -> float:
        return float(np.interp(_in_domain(y, self.max_size), self.knots, self.values))

    def deriv_range(self, y: float) -> tuple[float, float]:
        """Supergradient interval (left slope, right slope) at y.

        Equal in segment interiors; (+inf, first slope) at 0 and
        (last slope, -inf) at the upper end.
        """
        y = _in_domain(y, self.max_size)
        if y == 0.0:
            return (math.inf, float(self.slopes[0]))
        if y == self.max_size:
            return (float(self.slopes[-1]), -math.inf)
        idx = int(np.searchsorted(self.knots, y))
        if self.knots[idx] == y:  # interior knot
            return (float(self.slopes[idx - 1]), float(self.slopes[idx]))
        return (float(self.slopes[idx - 1]), float(self.slopes[idx - 1]))

    def argmax_interval(self, r: float) -> tuple[float, float]:
        """The set of maximizers of f(y) - r*y over [0, max_size].

        A closed interval: a single point unless r equals one of the
        segment slopes, in which case it is that whole segment.
        """
        if r < 0:
            raise DomainError(f"rental price must be >= 0, got {r}")
        neg = -self.slopes  # ascending
        n_ge = int(np.searchsorted(neg, -r, side="right"))  # slopes >= r
        n_gt = int(np.searchsorted(neg, -r, side="left"))  # slopes > r
        return float(self.knots[n_gt]), float(self.knots[n_ge])

    def inverse_marginal(self, r: float) -> float:
        """Largest maximizer of f(y) - r*y: the capacity demanded at price r."""
        return self.argmax_interval(r)[1]


@dataclass(frozen=True)
class PurchasesCurve:
    """Monotone nonincreasing buy-side bill component vs. capacity."""

    household_id: str
    knots: np.ndarray
    values: np.ndarray  # $/period

    def __post_init__(self):
        knots = _check_knots(self.knots)
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape != knots.shape:
            raise ValueError("values must match knots")
        if np.any(np.diff(values) > 0):
            raise ValueError("purchases must be nonincreasing in capacity")
        values.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    @property
    def max_size(self) -> float:
        return float(self.knots[-1])

    @property
    def baseline(self) -> float:
        """Buy-side bill with no asset (y = 0)."""
        return float(self.values[0])

    def eval(self, y: float) -> float:
        return float(np.interp(_in_domain(y, self.max_size), self.knots, self.values))


def sample_grid(y_bar: float, n_samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """Capacity sample points: 0 plus n_samples linearly spaced over
    [0.01 * y_bar, y_bar]."""
    if n_samples < 2:
        raise DomainError("need at least two samples")
    if y_bar <= 0:
        raise DomainError("y_bar must be positive")
    return np.concatenate([[0.0], np.linspace(0.01 * y_bar, y_bar, n_samples)])


def fit_savings_curve(household_id: str, y_samples, f_samples, *,
                      epsilon: float = SLOPE_SEPARATION,
                      max_violation_frac: float = 0.01,
                      min_r2: float = 0.999) -> SavingsCurve:
    """Fit the concave monotone piecewise-linear curve to savings samples.

    Raises FitError when the concavity repair moves any sample by more
    than max_violation_frac of the terminal savings, or when the fit's
    R^2 against the samples drops below min_r2.
    """
    y = np.asarray(y_samples, dtype=float)
    f = np.asarray(f_samples, dtype=float)
    if y.shape != f.shape or y.ndim != 1 or y.size < 2:
        raise FitError("need matching 1-d sample arrays with at least two points")
    if y[0] != 0.0 or f[0] != 0.0:
        raise FitError("samples must start at (0, 0)")

    w = np.diff(y)
    if np.any(w <= 0):
        raise FitError("sample capacities must be strictly ascending")
    raw = np.diff(f) / w
    slopes = np.maximum(pava_nonincreasing(raw, w), 0.0)

    fitted = np.concatenate([[0.0], np.cumsum(slopes * w)])
    scale = max(abs(f[-1]), 1e-12)
    violation = float(np.max(np.abs(fitted - f)))
    if violation > max_violation_frac * scale:
        raise FitError(f"household {household_id}: concavity repair moved a sample by "
                       f"{violation:g} (> {max_violation_frac:.0%} of terminal savings)")
    if violation > 1e-9 * (1.0 + scale):
        log.info("household %s: projected savings samples onto the concave cone "
                 "(max shift %.3g)", household_id, violation)

    ss_res = float(np.sum((fitted - f) ** 2))
    ss_tot = float(np.sum((f - f.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 1e-30 else (1.0 if ss_res <= 1e-18 else 0.0)
    if r2 < min_r2:
        raise FitError(f"household {household_id}: fit R^2 {r2:.6f} below {min_r2}")

    # separate tied slopes so the demanded capacity is single-valued
    # almost everywhere, redistributing to keep f(y_bar) unchanged
    n_seg = slopes.size
    if n_seg >= 2 and epsilon > 0:
        k = np.arange(n_seg, dtype=float)
        center = float(np.sum(w * k) / np.sum(w))
        eps_eff = epsilon
        if n_seg - 1 - center > 0:
            eps_eff = min(epsilon, slopes[-1] / (n_seg - 1 - center))
        if eps_eff > 0:
            slopes = slopes + eps_eff * (center - k)
        else:
            log.debug("household %s: slope separation skipped (flat zero tail)", household_id)

    return SavingsCurve(household_id, y, slopes)


def fit_purchases_curve(household_id: str, y_samples, p_samples) -> PurchasesCurve:
    """Fit the nonincreasing buy-side component, anchored exactly at y = 0.

    Monotonicity of purchases in capacity is expected but not guaranteed
    by the dispatch model, so violations beyond noise are logged rather
    than fatal, and the projection repairs them.
    """
    y = np.asarray(y_samples, dtype=float)
    p = np.asarray(p_samples, dtype=float)
    rises = np.diff(p)
    worst = float(rises.max()) if rises.size else 0.0
    if worst > 1e-6 * (1.0 + abs(p[0])):
        log.warning("household %s: buy-side bill rises by %.4g along the capacity grid; "
                    "projecting onto the nonincreasing cone", household_id, worst)
    proj = pava_nonincreasing(p)
    proj[0] = p[0]  # keep the no-asset bill exact
    proj = np.minimum.accumulate(proj)
    return PurchasesCurve(household_id, y, proj)


class HouseholdSamples(NamedTuple):
    y: np.ndarray
    savings: np.ndarray
    purchases: np.ndarray
    sale_credit: np.ndarray


class HouseholdFit(NamedTuple):
    savings: SavingsCurve
    purchases: PurchasesCurve


def sample_household(ctx: ScenarioContext, household: HouseholdRecord,
                     n_samples: int = DEFAULT_SAMPLES) -> HouseholdSamples:
    """Solve the dispatch LP over the capacity grid; y = 0 is analytic."""
    grid = sample_grid(household.net_zero_size, n_samples)
    bills = np.empty(grid.size)
    purchases = np.empty(grid.size)
    credits = np.empty(grid.size)
    for i, y in enumerate(grid):
        try:
            totals = ctx.annual_bill(household, float(y))
        except LPError as exc:
            raise LPError(f"household {household.id}, capacity {y:g} kW: {exc}") from exc
        bills[i], purchases[i], credits[i] = totals
    return HouseholdSamples(y=grid, savings=bills[0] - bills,
                            purchases=purchases, sale_credit=credits)


def fit_household(ctx: ScenarioContext, household: HouseholdRecord,
                  n_samples: int = DEFAULT_SAMPLES) -> HouseholdFit:
    s = sample_household(ctx, household, n_samples)
    return HouseholdFit(
        savings=fit_savings_curve(household.id, s.y, s.savings),
        purchases=fit_purchases_curve(household.id, s.y, s.purchases),
    )


_WORKER_CTX: ScenarioContext | None = None
_WORKER_SAMPLES: int = DEFAULT_SAMPLES


def _fit_worker_init(scenario: Scenario, day_indices, require_terminal_soc: bool,
                     n_samples: int) -> None:
    global _WORKER_CTX, _WORKER_SAMPLES
    from .dispatch import ScenarioContext
    _WORKER_CTX = ScenarioContext(scenario, day_indices, require_terminal_soc)
    _WORKER_SAMPLES = n_samples


def _fit_worker(household_id: str) -> tuple[str, HouseholdFit]:
    hh = _WORKER_CTX._resolve(household_id)
    return household_id, fit_household(_WORKER_CTX, hh, _WORKER_SAMPLES)


def fit_all(ctx: ScenarioContext, n_samples: int = DEFAULT_SAMPLES,
            workers: int = 1) -> dict[str, HouseholdFit]:
    """Fit every household, optionally across worker processes.

    Results are keyed and assembled in sorted household-id order, so the
    output is identical for any worker count.
    """
    ids = sorted(h.id for h in ctx.scenario.households)
    if workers <= 1:
        return {hid: fit_household(ctx, ctx._resolve(hid), n_samples) for hid in ids}
    # imported here so that a single-worker process never loads it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(
            max_workers=workers, initializer=_fit_worker_init,
            initargs=(ctx.scenario, ctx.day_indices, ctx.require_terminal_soc, n_samples),
    ) as pool:
        return dict(pool.map(_fit_worker, ids, chunksize=4))
