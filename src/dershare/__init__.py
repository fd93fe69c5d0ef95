"""Peer-to-peer rental market simulator for household PV-plus-storage capacity.

The pipeline: synthesize or ingest hourly household data, solve each
household's daily dispatch LP over a capacity grid, fit monotone concave
savings curves (a `CurveSet` per curve kind, each household's fit a set
of one), clear the capacity rental market at any adoption level, and
derive adoption equilibria, localness, stakeholder, and subsidy metrics
from the cleared markets.

Each public name below is imported from its module on first use, so a
process loads only the modules it touches: a `dershare` command whose
fit and localness stages are cache hits never imports the dispatch LP
or the transport solver.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "adoption": ("AdoptionOrder", "DemandCurves", "LongRunResult", "LongRunSolver",
                 "SubsidyResult", "build_order", "default_t_grid", "equivalent_subsidy",
                 "long_run_adoption", "sweep_adoption"),
    "curves": ("HouseholdFit", "HouseholdSamples", "fit_all", "fit_household",
               "fit_purchases_curve", "fit_savings_curve", "pava_nondecreasing",
               "pava_nonincreasing", "sample_grid", "sample_household"),
    "dispatch": ("PeriodTotals", "ScenarioContext"),
    "localness": ("RegionalFlow", "distance_matrix", "haversine_km", "min_cost_flow",
                  "regional_excess", "solve_transport"),
    "market": ("MarketEquilibrium", "clear_market"),
    "model": ("AssetSpec", "CurveSet", "DomainError", "FitError", "HouseholdRecord", "Region",
              "Scenario", "SynthConfig", "ValidationError", "compute_net_zero_size",
              "validate_scenario"),
    "stakeholders": ("RegimePoint", "billed_sales", "market_emerges", "regime_boundary",
                     "regime_points", "utility_loss", "vendor_gain"),
    "synth": ("generate_scenario",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
