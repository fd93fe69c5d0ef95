"""Peer-to-peer rental market simulator for household PV-plus-storage capacity.

The pipeline: synthesize or ingest hourly household data, solve each
household's daily dispatch LP over a capacity grid, fit monotone concave
savings curves, clear the capacity rental market at any adoption level,
and derive adoption equilibria, localness, stakeholder, and subsidy
metrics from the cleared markets.
"""

__version__ = "0.1.0"

from .adoption import (AdoptionOrder, DemandCurves, LongRunResult, LongRunSolver,
                       SubsidyResult, build_order, default_t_grid, equivalent_subsidy,
                       long_run_adoption, sweep_adoption)
from .curves import (FitError, HouseholdFit, HouseholdSamples, PurchasesCurve, SavingsCurve,
                     fit_all, fit_household, fit_purchases_curve, fit_savings_curve,
                     pava_nondecreasing, pava_nonincreasing, sample_grid, sample_household)
from .dispatch import (DailyDispatchResult, PeriodTotals, ScenarioContext, dispatch_period,
                       solve_day)
from .localness import (RegionalFlow, distance_matrix, haversine_km, min_cost_flow,
                        regional_excess, solve_transport)
from .market import MarketEquilibrium, aggregate_demand, aggregate_supply, clear_market
from .model import (AssetSpec, DomainError, EmptyScenarioError, HouseholdRecord,
                    IrradianceSeries, Region, Scenario, TariffSet, ValidationError,
                    compute_net_zero_size, validate_scenario)
from .stakeholders import (RegimePoint, billed_sales, market_emerges, regime_boundary,
                           regime_point, total_baseline, utility_loss, vendor_gain)
from .synth import SynthConfig, generate_scenario
