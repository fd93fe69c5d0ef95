"""Traced run: per-layer metrics from spans the benchmark records itself.

The stage times come from outside the program: one untraced `dershare all`
child whose stage completion lines are timestamped as they arrive, and
one fully cached rerun of it. The layer times come from the benchmark's
own copy of the `all` call sequence, which calls the public functions of
each module inside spans (name, start, end, parent) kept in memory.
`ScenarioContext` and `LongRunSolver` subclasses, passed in through the
public arguments, put spans around each dispatch call and each clearing
of the long-run solvers. Nothing inside `dershare` is changed.

Layers are the package's modules; `lp` is reached only through
`dispatch`, so the two are one layer, and `model` holds types only.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import gate  # noqa: E402
import harness  # noqa: E402
from harness import PER_LAYER, STAGES, Ops, Workload  # noqa: E402

harness.import_dershare()
from dershare import cli  # noqa: E402
from dershare import (AssetSpec, LongRunSolver, ScenarioContext, SynthConfig,  # noqa: E402
                      build_order, clear_market, default_t_grid, distance_matrix,
                      equivalent_subsidy, fit_household, fit_purchases_curve,
                      fit_savings_curve, generate_scenario, long_run_adoption,
                      min_cost_flow, regime_boundary, regional_excess, sweep_adoption,
                      validate_scenario)
from dershare.curves import DEFAULT_SAMPLES  # noqa: E402
from dershare.io import (load_scenario, read_purchases_curves, read_savings_curves,  # noqa: E402
                         write_exclusions, write_purchases_curves, write_savings_curves,
                         write_scenario)

ANALYSIS_STAGES = ("sweep", "longrun", "subsidy", "localness", "stakeholders")
CACHED_RERUNS = 5
VARS_PER_DAY = 120  # charge, discharge, soc, import, export for each of 24 hours
LIBRARY_LAYERS = ("synth.", "io.", "dispatch.", "curves.", "market.", "adoption.",
                  "localness.", "stakeholders.", "model.")
ANALYSIS_LAYERS = ("market.", "adoption.", "localness.", "stakeholders.")


# ---------------------------------------------------------------- spans

@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; a span opened inside another is its child."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), name, time.perf_counter(), math.nan,
                 self._open[-1] if self._open else None)
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            self._open.pop()
            s.end = time.perf_counter()

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def within(self, span: Span | None, name: str) -> list[Span]:
        """Spans called `name` at any depth below `span` (all spans if None)."""
        if span is None:
            return [s for s in self.spans if s.name == name]
        inside = {span.id}
        found = []
        for s in self.spans[span.id + 1:]:
            if s.parent in inside:
                inside.add(s.id)
                if s.name == name:
                    found.append(s)
        return found


class TracedContext(ScenarioContext):
    """Puts a span around each bill evaluation and keeps the samples."""

    def __init__(self, tracer: Tracer, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer
        self.samples: dict[str, list[tuple[float, tuple]]] = {}

    def annual_bill(self, household, y: float):
        # y = 0 has a closed form; every other capacity is one block LP
        name = "dispatch.dispatch_period" if y > 0 else "dispatch.closed_form"
        with self.tracer.span(name):
            totals = super().annual_bill(household, y)
        hid = getattr(household, "id", household)
        self.samples.setdefault(hid, []).append((float(y), tuple(totals)))
        return totals


class TracedSolver(LongRunSolver):
    """Spans every clearing the long-run solver performs, so they can be counted."""

    def __init__(self, tracer: Tracer, order, curves):
        super().__init__(order, curves)
        self.tracer = tracer

    def equilibrium_at(self, k: int):
        with self.tracer.span("market.clear_market"):
            return super().equilibrium_at(k)


# ---------------------------------------------------------------- pipeline

class Pipeline:
    """The `dershare all` call sequence, calling the library from here.

    Stages hand each other results in memory, where the CLI rereads CSVs.
    Grids and day subsampling come from the CLI's own helpers, so the
    traced pass makes the same choices as the child it mirrors.
    """

    def __init__(self, tracer: Tracer, wl: Workload, seed: int, out: Path):
        self.tr = tracer
        self.wl = wl
        self.seed = seed
        self.out = out
        self.data = out / "data"
        self.asset = AssetSpec()
        self.p_grid_spec: str | None = None
        self.ctx: TracedContext | None = None
        self.table = None
        self.longrun: list | None = None

    def run(self, stages, p_grid_spec: str | None = None) -> None:
        self.p_grid_spec = p_grid_spec
        for stage in stages:
            with self.tr.span(f"stage.{stage}"):
                getattr(self, "stage_" + stage.replace("-", "_"))()

    def _curves(self):
        with self.tr.span("io.read_savings_curves"):
            curves = read_savings_curves(self.out / "savings_curves.csv")
        with self.tr.span("adoption.build_order"):
            order = build_order(curves)
        return curves, order

    def _load(self):
        with self.tr.span("io.load_scenario"):
            return load_scenario(self.data, self.asset)

    def _p_grid(self, order) -> np.ndarray:
        return cli._p_grid_for(self.out, {}, self.p_grid_spec, None, order)

    def stage_gen_data(self):
        synth = SynthConfig.from_dict(self.wl.synth(self.seed))
        with self.tr.span("synth.generate_scenario"):
            scenario = generate_scenario(synth, self.asset)
        with self.tr.span("model.validate_scenario"):
            validate_scenario(scenario)
        with self.tr.span("io.write_scenario"):
            write_scenario(scenario, self.data)

    def stage_validate(self):
        result = self._load()
        with self.tr.span("model.validate_scenario"):
            validate_scenario(result.scenario)
        with self.tr.span("io.write_exclusions"):
            write_exclusions(self.out / "exclusions.csv", result.exclusions)

    def stage_fit(self):
        with self.tr.span("io.load_scenario"):
            plain = cli._load_context(self.out, {}, self.wl.days)
        scenario = plain.scenario
        ctx = TracedContext(self.tr, scenario, plain.day_indices)
        samples = self.wl.samples or DEFAULT_SAMPLES
        households = scenario.household_map()
        fits = []
        for hid in sorted(households):
            with self.tr.span("curves.fit_household"):
                fits.append(fit_household(ctx, households[hid], samples))
        with self.tr.span("io.write_curves"):
            write_savings_curves(self.out / "savings_curves.csv",
                                 [f.savings for f in fits])
            write_purchases_curves(self.out / "purchases_curves.csv",
                                   [f.purchases for f in fits])
        self.ctx = ctx

    def stage_sweep(self):
        curves, order = self._curves()
        with self.tr.span("adoption.sweep_adoption"):
            self.table = sweep_adoption(order, curves,
                                        cli._parse_grid(self.wl.t_grid, default_t_grid))

    def _long_run(self, curves, order):
        solver = TracedSolver(self.tr, order, curves)
        with self.tr.span("adoption.long_run_adoption"):
            return [long_run_adoption(order, curves, float(p), solver)
                    for p in self._p_grid(order)]

    def stage_longrun(self):
        self.longrun = self._long_run(*self._curves())

    def stage_subsidy(self):
        results = self._long_run(*self._curves())
        with self.tr.span("adoption.equivalent_subsidy"):
            for lr in results:
                equivalent_subsidy(self.table, lr)

    def stage_localness(self):
        scenario = self._load().scenario
        curves, order = self._curves()
        with self.tr.span("localness.distance_matrix"):
            dmat = distance_matrix(scenario.regions)
        region_ids = tuple(r.id for r in scenario.regions)
        for t in [float(t) for t in self.table.t] + [float(harness.FLOWS_AT)]:
            k = order.count_at_rate(t)
            with self.tr.span("market.clear_market"):
                eq = clear_market(curves, order.owners_at(k))
            with self.tr.span("localness.regional_excess"):
                s = regional_excess(eq, scenario.households, scenario.regions)
            with self.tr.span("localness.min_cost_flow"):
                min_cost_flow(s, dmat, eq.volume, region_ids)

    def stage_stakeholders(self):
        curves, order = self._curves()
        with self.tr.span("io.read_purchases_curves"):
            purchases = read_purchases_curves(self.out / "purchases_curves.csv")
        with self.tr.span("stakeholders.regime_boundary"):
            regime_boundary(order, curves, purchases, self._p_grid(order))

    def fit_only(self) -> None:
        """Refit every household from the samples its dispatch calls produced."""
        for hid, pts in self.ctx.samples.items():
            y = np.array([p[0] for p in pts])
            bills = np.array([p[1][0] for p in pts])
            purchases = np.array([p[1][1] for p in pts])
            with self.tr.span("curves.fit_only"):
                fit_savings_curve(hid, y, bills[0] - bills)
                fit_purchases_curve(hid, y, purchases)


def crosscheck(pipeline: Pipeline, cli_dir: Path) -> list[str]:
    """The traced run must compute what the CLI wrote."""
    problems = []
    written = [rel for rel in gate.EXPECTED_CSVS
               if rel.startswith("data/") or rel.endswith(("exclusions.csv", "_curves.csv"))]
    mine, theirs = gate.digests(pipeline.out, written), gate.digests(cli_dir, written)
    problems += [f"traced run wrote a different {rel}" for rel in written
                 if mine[rel] != theirs[rel]]
    prices = [float(r["clearing_price"]) for r in gate.read_rows(cli_dir / "sweep.csv")]
    if not np.array_equal(np.asarray(prices), pipeline.table.clearing_price, equal_nan=True):
        problems.append("traced sweep clearing prices differ from sweep.csv")
    delta_q = [float(r["delta_q"]) for r in gate.read_rows(cli_dir / "longrun.csv")]
    if delta_q != [lr.delta_q for lr in pipeline.longrun]:
        problems.append("traced long-run delta_q differs from longrun.csv")
    return problems


# ---------------------------------------------------------------- metrics

def tail_percentile(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it.

    Returns (value, percentile); with fewer than 20 samples that is the median.
    """
    n = len(values)
    pct = max(50, min(99, int(100 * (1 - 10 / n)))) if n >= 20 else 50
    ordered = sorted(values)
    pos = (n - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), pct


def stage_times(child: harness.Child) -> dict[str, float]:
    """Wall time of each stage, from consecutive completion lines of one child."""
    marks = child.stage_marks()
    times, prev = {}, 0.0
    for stage in STAGES:
        t = marks[stage][0]
        times[stage] = t - prev
        prev = t
    return times


def _ms(spans: list[Span]) -> list[float]:
    return [1000.0 * s.duration for s in spans]


def _library_time(tr: Tracer, stage_span: Span | None, layers=LIBRARY_LAYERS) -> float:
    if stage_span is None:
        return 0.0
    return sum(s.duration for s in tr.children(stage_span) if s.name.startswith(layers))


def layer_metrics(tr: Tracer, wl: Workload, passes: list[tuple[Span, harness.Child]],
                  setup_s: float, ready_s: float, cache_check_s: float, loads_bytes: int
                  ) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics. `passes` pairs each traced pass with the child it mirrors;
    the last pair is the workload's timed operation."""
    m: dict[str, tuple[float, str, str]] = {}

    def put(name, value, note=""):
        m[name] = (float(value), PER_LAYER[name], note)

    def per_call(name, values, what):
        med = statistics.median(values)
        tail, pct = tail_percentile(values)
        put(name, med, f"median of n={len(values)} {what}")
        put(name + "_tail", tail, f"p{pct} of n={len(values)}")

    last_pass, last_child = passes[-1]
    # the pass and child where each stage actually ran rather than hit the cache
    ran: dict[str, tuple[Span, float]] = {}
    for pass_span, child in passes:
        times = stage_times(child)
        for stage, (_, kind) in child.stage_marks().items():
            spans = [s for s in tr.children(pass_span) if s.name == f"stage.{stage}"]
            if kind == "wrote" and spans:
                ran[stage] = (spans[0], times[stage])

    fit_span = ran["fit"][0]
    days = 1 if wl.days is not None else wl.n_days
    samples = wl.samples or DEFAULT_SAMPLES
    lp_spans = tr.within(fit_span, "dispatch.dispatch_period")
    household_spans = tr.within(fit_span, "curves.fit_household")
    blocks = _ms(lp_spans)
    per_call("dispatch.block_ms", blocks, "dispatch_period calls")
    put("dispatch.ms_per_day", statistics.median(blocks) / days, f"{days} day(s) per block")
    lp_count = len(household_spans) * samples
    put("dispatch.lp_count", lp_count, f"computed households x samples; {len(blocks)} counted")
    put("dispatch.lp_vars", VARS_PER_DAY * days, "computed 120 x days per block")
    per_call("curves.household_ms", _ms(household_spans), "fit_household calls")
    fit_only = _ms(tr.within(None, "curves.fit_only"))
    put("curves.fit_only_ms", statistics.median(fit_only), f"median of n={len(fit_only)}")
    put("curves.self_share",
        1 - (sum(s.duration for s in lp_spans) + sum(fit_only) / 1000)
        / sum(s.duration for s in household_spans),
        "1 - (dispatch spans + fit_only) / fit_household spans")

    local_span = ran["localness"][0]
    per_call("market.clear_ms", _ms(tr.within(local_span, "market.clear_market")),
             "clear_market calls over the t-grid")
    orders = _ms(tr.within(None, "adoption.build_order"))
    put("adoption.order_ms", statistics.median(orders), f"median of n={len(orders)}")
    put("adoption.sweep_s", tr.within(ran["sweep"][0], "adoption.sweep_adoption")[-1].duration)
    longrun_span = ran["longrun"][0]
    put("adoption.longrun_s",
        tr.within(longrun_span, "adoption.long_run_adoption")[-1].duration)
    put("adoption.longrun_clears",
        len(tr.within(longrun_span, "market.clear_market")), "counted")
    put("adoption.subsidy_ms",
        1000 * tr.within(ran["subsidy"][0], "adoption.equivalent_subsidy")[-1].duration)
    excess = _ms(tr.within(local_span, "localness.regional_excess"))
    put("localness.excess_ms", statistics.median(excess), f"median of n={len(excess)}")
    flows = _ms(tr.within(local_span, "localness.min_cost_flow"))
    put("localness.flow_ms", statistics.median(flows), f"median of n={len(flows)}")
    put("stakeholders.regime_s",
        tr.within(ran["stakeholders"][0], "stakeholders.regime_boundary")[-1].duration)

    put("io.write_scenario_s", tr.within(None, "io.write_scenario")[-1].duration)
    loads = [s.duration for s in tr.within(None, "io.load_scenario")]
    put("io.load_scenario_s", statistics.median(loads), f"median of n={len(loads)}")
    put("io.loads_mb", loads_bytes / 2**20, "computed size of data/loads.csv")
    put("io.curves_write_ms", 1000 * tr.within(None, "io.write_curves")[-1].duration,
        "savings and purchases curves")
    reads = _ms(tr.within(None, "io.read_savings_curves"))
    put("io.curves_read_ms", statistics.median(reads), f"median of n={len(reads)}")
    put("synth.generate_s", tr.within(None, "synth.generate_scenario")[-1].duration)

    # stage wall times of the timed operation, from outside the program
    times = stage_times(last_child)
    mirrored = {s.name[len("stage."):]: s for s in tr.children(last_pass)}
    for stage in STAGES:
        covered = _library_time(tr, mirrored.get(stage))
        if stage == STAGES[0]:
            covered += ready_s
        put(f"cli.{stage}_s", times[stage],
            "cache hit" if last_child.stage_marks()[stage][1] == "cached" else "")
        put(f"cli.{stage}.self_s", times[stage] - covered,
            "stage time - library spans" + (" - setup" if stage == STAGES[0] else ""))
    put("cli.cache_check_s", cache_check_s,
        f"median over {CACHED_RERUNS} fully cached `all` reruns, each minus a paired "
        "--version launch, to the last line")
    put("cli.fit_wall_share", times["fit"] / last_child.wall_s,
        "cli.fit_s / wall_s of the timed child")
    put("cli.analysis_wall_share", sum(times[s] for s in ANALYSIS_STAGES) / last_child.wall_s,
        "analysis stages' cli.*_s / wall_s of the timed child")

    traced = sum(s.duration for s in mirrored.values())
    put("trace.overhead_s", traced - (last_child.wall_s - setup_s),
        "traced stage spans - (untraced wall_s - setup_s)")
    put("trace.fit_dispatch_share",
        lp_count * m["dispatch.block_ms"][0] / 1000 / ran["fit"][1],
        "computed lp_count x block_ms / cli.fit_s")
    analysis = [ran[s] for s in ANALYSIS_STAGES]
    put("trace.analysis_span_share",
        sum(_library_time(tr, span, ANALYSIS_LAYERS) for span, _ in analysis)
        / sum(t for _, t in analysis),
        "market+adoption+localness+stakeholders spans / analysis cli.*_s")
    return m


# ---------------------------------------------------------------- run

def traced_run(wl: Workload, seed: int, root: Path, reference: dict | None):
    """One traced pass over the workload; returns (ops, metrics, tracer)."""
    ops = Ops()
    harness.launch_setup(ops, root)  # fills the bytecode cache
    prep = harness.prepare(wl, seed, root, ops)
    if prep is None:
        return ops, {}, Tracer()
    cli_dir = root / "cli"
    child = harness.run_once(wl, prep, cli_dir, root)
    problems, _ = harness.check_rep(wl, cli_dir, child, None, reference)
    if not ops.record("timed child", problems):
        return ops, {}, Tracer()

    # Each set-up launch is paired with a fully cached rerun, so that a drift
    # in the machine's speed cancels out of their difference. A launch's
    # time to its first line is comparable with a stage line's timestamp:
    # both leave out interpreter exit.
    setup, ready, cache_check = [], [], []
    for _ in range(CACHED_RERUNS):
        version = harness.launch_setup(ops, root)
        cached = harness.launch(wl.all_args(cli_dir, prep.config) + prep.extra_args, root)
        if ops.record("cached rerun", gate.check_run(cli_dir, cached, gate.EXPECTED_CSVS)
                      + gate.check_stages(cached.stage_marks(), STAGES, "cached")) and version:
            setup.append(version.wall_s)
            ready.append(version.lines[0][0])
            cache_check.append(cached.stage_marks()[STAGES[-1]][0] - ready[-1])
    if not setup:
        return ops, {}, Tracer()

    tr = Tracer()
    pipeline = Pipeline(tr, wl, seed, root / "traced")
    with tr.span("pass.all") as full:
        pipeline.run(STAGES)
    passes = [(full, child)]
    if wl.rerun:
        spec = prep.extra_args[prep.extra_args.index("--p-grid") + 1]
        with tr.span("pass.rerun") as rerun:
            pipeline.run(harness.RERUN_RECOMPUTED, spec)
        passes = [(full, prep.child), (rerun, child)]
    pipeline.fit_only()
    ops.record("traced pass", crosscheck(pipeline, cli_dir))

    loads_bytes = (cli_dir / "data" / "loads.csv").stat().st_size
    metrics = layer_metrics(tr, wl, passes, statistics.median(setup), statistics.median(ready),
                            statistics.median(cache_check), loads_bytes)
    return ops, metrics, tr
