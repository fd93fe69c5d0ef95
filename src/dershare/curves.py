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

A fitted curve is a `model.CurveSet` of one household, the type every
stage reads, so a process that fits none loads neither this module nor
`logging`; fit_all stacks the fits into the fit stage's two sets.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .model import (DEFAULT_SAMPLES, CurveSet, DomainError, FitError, HouseholdRecord, LPError,
                    Scenario)

if TYPE_CHECKING:  # the fit loads the dispatch LP when it builds a context
    from .dispatch import ScenarioContext

log = logging.getLogger(__name__)

SLOPE_SEPARATION = 1e-6  # $/period/kW per segment step
MAX_REPAIR_SHARE = 0.01  # largest concavity repair of a sample, per unit of terminal savings
MIN_R2 = 0.999  # least R^2 of a fitted curve against its samples


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


def sample_grid(y_bar: float, n_samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """Capacity sample points: 0 plus n_samples linearly spaced over
    [0.01 * y_bar, y_bar]."""
    if n_samples < 2:
        raise DomainError("need at least two samples")
    if y_bar <= 0:
        raise DomainError("y_bar must be positive")
    return np.concatenate([[0.0], np.linspace(0.01 * y_bar, y_bar, n_samples)])


def _fitted(household_id: str, knots, second, savings: bool) -> CurveSet:
    """The household's curve as a set of one, a FitError naming the household
    if it breaks a curve rule (one its CSV reader enforces)."""
    try:
        return CurveSet([household_id], [knots], [second], savings)
    except ValueError as exc:
        raise FitError(f"household {household_id}: {exc}") from None


def fit_savings_curve(household_id: str, y_samples, f_samples) -> CurveSet:
    """Fit the concave monotone piecewise-linear curve to savings samples.

    Raises FitError when the concavity repair moves any sample by more
    than MAX_REPAIR_SHARE of the terminal savings, or when the fit's
    R^2 against the samples drops below MIN_R2.
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
    if violation > MAX_REPAIR_SHARE * scale:
        if f[-1] < 0:
            raise FitError(f"household {household_id}: savings fall with capacity, to "
                           f"{f[-1]:g} at {y[-1]:g} kW: refilling self-discharge to the "
                           "terminal charge costs more than the PV saves "
                           "(require_terminal_soc, asset.x0, asset.eta_s)")
        raise FitError(f"household {household_id}: concavity repair moved a sample by "
                       f"{violation:g} (> {MAX_REPAIR_SHARE:.0%} of terminal savings)")
    if violation > 1e-9 * (1.0 + scale):
        log.info("household %s: projected savings samples onto the concave cone "
                 "(max shift %.3g)", household_id, violation)

    ss_res = float(np.sum((fitted - f) ** 2))
    ss_tot = float(np.sum((f - f.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 1e-30 else (1.0 if ss_res <= 1e-18 else 0.0)
    if r2 < MIN_R2:
        raise FitError(f"household {household_id}: fit R^2 {r2:.6f} below {MIN_R2}")

    # separate tied slopes so the demanded capacity is single-valued almost
    # everywhere, keeping f(y_bar); a slope rounded below 0 is clamped to 0
    n_seg = slopes.size
    if n_seg >= 2:
        k = np.arange(n_seg, dtype=float)
        center = float(np.sum(w * k) / np.sum(w))
        eps_eff = SLOPE_SEPARATION
        if n_seg - 1 - center > 0:
            eps_eff = min(SLOPE_SEPARATION, slopes[-1] / (n_seg - 1 - center))
        if eps_eff > 0:
            slopes = np.maximum(slopes + eps_eff * (center - k), 0.0)
        else:
            log.debug("household %s: slope separation skipped (flat zero tail)", household_id)

    return _fitted(household_id, y, slopes, True)


def fit_purchases_curve(household_id: str, y_samples, p_samples) -> CurveSet:
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
    return _fitted(household_id, y, proj, False)


class HouseholdSamples(NamedTuple):
    y: np.ndarray
    savings: np.ndarray
    purchases: np.ndarray


class HouseholdFit(NamedTuple):  # each a set of one
    savings: CurveSet
    purchases: CurveSet


def sample_household(ctx: ScenarioContext, household: HouseholdRecord,
                     n_samples: int = DEFAULT_SAMPLES) -> HouseholdSamples:
    """Solve the dispatch LP over the capacity grid; y = 0 is analytic."""
    grid = sample_grid(household.net_zero_size, n_samples)
    bills = np.empty(grid.size)
    purchases = np.empty(grid.size)
    for i, y in enumerate(grid):
        try:
            bills[i], purchases[i], _ = ctx.annual_bill(household, float(y))
        except LPError as exc:
            raise LPError(f"household {household.id}, capacity {y:g} kW: {exc}") from exc
    return HouseholdSamples(y=grid, savings=bills[0] - bills, purchases=purchases)


def fit_household(ctx: ScenarioContext, household: HouseholdRecord,
                  n_samples: int = DEFAULT_SAMPLES) -> HouseholdFit:
    s = sample_household(ctx, household, n_samples)
    return HouseholdFit(savings=fit_savings_curve(household.id, s.y, s.savings),
                        purchases=fit_purchases_curve(household.id, s.y, s.purchases))


_WORKER: tuple | None = None  # a fit worker's context, households by id and sample count


def _fit_worker_init(scenario: Scenario, day_indices, require_terminal_soc: bool,
                     n_samples: int) -> None:
    global _WORKER
    from .dispatch import ScenarioContext
    _WORKER = (ScenarioContext(scenario, day_indices, require_terminal_soc),
               scenario.household_map(), n_samples)


def _fit_worker(household_id: str) -> HouseholdFit:
    ctx, households, n_samples = _WORKER
    return fit_household(ctx, households[household_id], n_samples)


def fit_all(ctx: ScenarioContext, n_samples: int = DEFAULT_SAMPLES,
            workers: int = 1) -> tuple[CurveSet, CurveSet]:
    """Fit every household, optionally across worker processes: the savings
    and purchases sets, stacked in household-id order, so the output is
    identical for any worker count."""
    households = ctx.scenario.household_map()
    ids = sorted(households)
    if workers <= 1:
        fits = [fit_household(ctx, households[hid], n_samples) for hid in ids]
    else:
        # imported here so that a single-worker process never loads it
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(
                    max_workers=workers, initializer=_fit_worker_init,
                    initargs=(ctx.scenario, ctx.day_indices, ctx.require_terminal_soc, n_samples),
            ) as pool:
                fits = list(pool.map(_fit_worker, ids, chunksize=4))
        except BrokenProcessPool:
            raise FitError("fit: a worker process died") from None
    return CurveSet.of([f.savings for f in fits]), CurveSet.of([f.purchases for f in fits])
