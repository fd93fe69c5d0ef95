"""Pipeline command-line interface.

Stages write plot-ready CSVs into an output directory and record their
inputs in manifest.json, so re-running a stage whose inputs have not
changed is a no-op. The expensive stage is `fit` (one LP per household
per capacity sample per day-block); everything downstream works from
the fitted-curve CSVs.

    dershare gen-data --config cfg.json --out runs/demo
    dershare validate --out runs/demo
    dershare fit --out runs/demo --threads 8
    dershare sweep --out runs/demo
    dershare longrun --out runs/demo
    dershare subsidy --out runs/demo
    dershare localness --out runs/demo
    dershare stakeholders --out runs/demo

`all` runs the full chain. Results are identical for any --threads
value. Every flag, config key and DERSHARE_THREADS is declared once in
SETTINGS; a value comes from its flag, else its variable, else the
config (all checked at load), else its default, and is checked once.

Each stage is declared once in STAGES (flags, input files with the
stage that writes each, hashed params, outputs, body), and run_stage
gives every stage the same require, hash, cache check and manifest
record. A subcommand runs one entry and `all` runs them in order on one
Run, which loads each artifact from the run directory on first use and
keeps it: a stage reads its inputs from disk whether their stage ran in
this process or was cached, and a fully cached `all` parses no scenario.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from contextlib import suppress
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property, partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import __version__
from .adoption import (DemandCurves, LongRunSolver, build_order, default_t_grid,
                       equivalent_subsidy, long_run_adoption, sweep_adoption)
from .curves import DEFAULT_SAMPLES, FitError, fit_all
from .io import (EXCLUSIONS_FILE, IRRADIANCE_FILE, LOADS_FILE, REGIONS_FILE,
                 TARIFF_BUY_FILE, TARIFF_SELL_FILE, ParseError, load_scenario,
                 read_number_columns, read_purchases_curves, read_savings_curves,
                 write_exclusions, write_purchases_curves, write_rows, write_savings_curves,
                 write_scenario)
from .lp import LPError
from .model import AssetSpec, DomainError, ValidationError, from_config, validate_scenario
from .stakeholders import regime_boundary
from .synth import SynthConfig, generate_scenario

if TYPE_CHECKING:  # the dispatch LP and the transport solver load in the stages that run them
    from .dispatch import ScenarioContext

DATA_SUBDIR = "data"
MANIFEST_FILE = "manifest.json"
DATA_RELS = [f"{DATA_SUBDIR}/{name}" for name in
             (LOADS_FILE, IRRADIANCE_FILE, TARIFF_BUY_FILE, TARIFF_SELL_FILE, REGIONS_FILE)]
SAVINGS_FILE = "savings_curves.csv"
PURCHASES_FILE = "purchases_curves.csv"
SWEEP_FILE = "sweep.csv"
SUMMARY_FILE = "equilibrium_summary.csv"


class StageError(RuntimeError):
    """A stage cannot run; the message says which command to run first."""


# ---------------------------------------------------------------- manifest

def _file_sha(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _hash_obj(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _read_manifest(out_dir: Path) -> dict:
    path = out_dir / MANIFEST_FILE
    if path.exists():
        return json.loads(path.read_text())
    return {"version": __version__, "stages": {}, "outputs": {}}


def _require(out_dir: Path, inputs) -> list[Path]:
    for rel, producer in inputs:
        if not (out_dir / rel).exists():
            raise StageError(f"missing {rel}; run `dershare {producer}` first")
    return [out_dir / rel for rel, _ in inputs]


def _input_hash(params: dict, input_files: list[Path]) -> str:
    return _hash_obj({"params": params,
                      "inputs": {p.name: _file_sha(p) for p in sorted(input_files)}})


def _stage_cached(out_dir: Path, manifest: dict, stage: str, input_hash: str,
                  output_rels: list[str]) -> bool:
    entry = manifest.get("stages", {}).get(stage)
    if not entry or entry.get("input_hash") != input_hash:
        return False
    for rel in output_rels:
        path = out_dir / rel
        if not path.exists() or manifest.get("outputs", {}).get(rel) != _file_sha(path):
            return False
    return True


def _finish_stage(out_dir: Path, manifest: dict, stage: str, input_hash: str,
                  output_rels: list[str], started: float) -> None:
    for rel in output_rels:
        manifest.setdefault("outputs", {})[rel] = _file_sha(out_dir / rel)
    manifest.setdefault("stages", {})[stage] = {
        "input_hash": input_hash,
        "completed_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "elapsed_s": round(time.time() - started, 3),
    }
    manifest["version"] = __version__
    path = out_dir / MANIFEST_FILE
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    os.replace(tmp, path)
    print(f"{stage}: wrote {', '.join(output_rels)} ({time.time() - started:.1f}s)")


# ---------------------------------------------------------------- settings

def _whole(least: int, value) -> int:
    """A whole number >= least: an int, or a float with no fractional part."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected a whole number, got {value!r}")
    if value < least:
        raise ValueError(f"expected a whole number >= {least}, got {value!r}")
    return value


def _json(cls: type, what: str, value):
    """A JSON value of type cls (a bool, an object)."""
    if not isinstance(value, cls):
        raise ValueError(f"expected {what}, got {value!r}")
    return value


_object = partial(_json, dict, "a JSON object")


def _parse_grid(spec, default) -> np.ndarray:
    """Grid spec: 'a:b:n' for linspace, a comma list, a JSON list, or None."""
    if spec is None:
        return default() if callable(default) else default
    if isinstance(spec, (list, tuple)):
        return np.asarray(spec, dtype=float)
    text = str(spec)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected 'a:b:n', got {text!r}")
        return np.linspace(float(parts[0]), float(parts[1]), int(parts[2]))
    return np.asarray([float(v) for v in text.split(",")], dtype=float)


def _prices(spec) -> np.ndarray | None:
    """A grid of finite purchase prices > 0; None for 'auto', set from the curves."""
    if spec in (None, "auto"):
        return None
    grid = _parse_grid(spec, None)
    if not np.all(np.isfinite(grid) & (grid > 0)):
        raise ValueError(f"expected finite prices > 0, got {spec!r}")
    return grid


def _rates(text: str) -> list[float]:
    """Comma list of adoption rates; empty entries are skipped."""
    return [float(v) for v in text.split(",") if v]


@dataclass(frozen=True)
class Setting:
    """One user-settable value: kind(value) checks it or raises ValueError;
    text converts a flag's or variable's text first, if it can; a callable
    default is called; key is `section.key` or a top-level config key."""

    kind: Callable
    default: object = None
    flag: str | None = None
    env: str | None = None
    key: str | None = None
    text: Callable | None = None
    help: str | None = None


SETTINGS = {
    "synth": Setting(lambda v: SynthConfig.from_dict(_object(v)), SynthConfig, key="synth"),
    "asset": Setting(lambda v: from_config(AssetSpec, "asset", _object(v)), AssetSpec,
                     key="asset"),
    "require_terminal_soc": Setting(partial(_json, bool, "true or false"), False,
                                    key="require_terminal_soc"),
    "seed": Setting(partial(_whole, 0), None, "--seed", text=int,
                    help="override the generator seed"),
    "n_samples": Setting(partial(_whole, 2), DEFAULT_SAMPLES, "--samples", key="fit.n_samples",
                         text=int, help=f"capacity sample count (default {DEFAULT_SAMPLES})"),
    "days": Setting(partial(_whole, 1), None, "--days", text=int,
                    help="subsample this many representative days"),
    "threads": Setting(partial(_whole, 1), 1, "--threads", env="DERSHARE_THREADS", text=int,
                       help="worker processes"),
    "t_grid": Setting(partial(_parse_grid, default=default_t_grid), default_t_grid, "--t-grid",
                      key="sweep.t_grid", help="adoption rates: 'a:b:n', comma list, or default"),
    "equilibrium_at": Setting(_rates, list, "--equilibrium-at", help="comma list of adoption "
                              "rates to dump per-household allocations for"),
    "p_grid": Setting(_prices, None, "--p-grid", key="prices.p_grid",
                      help="purchase prices: 'a:b:n', comma list, or 'auto'"),
    "price": Setting(lambda v: _prices([v]), None, "--price", text=float,
                     help="single purchase price"),
    "flows_at": Setting(_rates, list, "--flows-at",
                        help="comma list of adoption rates to dump flows for"),
}
_BY_KEY = {s.key: name for name, s in SETTINGS.items() if s.key}
_SECTIONS = {key.split(".")[0] for key in _BY_KEY if "." in key}


def _check(kind: Callable, value, source: tuple[str, str]):
    """kind(value); a value it refuses raises a ValidationError naming source."""
    try:
        return kind(value)
    except ValidationError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:  # OverflowError: an int past float range
        raise ValidationError(*source, str(exc)) from None


def _load_config(path: str | None) -> dict:
    """The config file's values by setting name, each checked by its kind,
    so a bad or unknown key fails every stage, not only its reader."""
    if not path:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ParseError(path, 0, "file not found") from None
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno,
                         f"invalid JSON: {exc.msg} (column {exc.colno})") from None
    config = {}
    for top, value in _check(_object, cfg, ("config", "root")).items():
        entries = [(top, value)]
        if top in _SECTIONS:
            entries = [(f"{top}.{key}", v)
                       for key, v in _check(_object, value, ("config", top)).items()]
        for key, v in entries:
            if key not in _BY_KEY:
                raise ValidationError("config", key, "unknown config key")
            config[_BY_KEY[key]] = _check(SETTINGS[_BY_KEY[key]].kind, v, ("config", key))
    return config


def _resolve(name: str, args: argparse.Namespace, config: dict):
    """A setting's value from its flag, else its environment variable, else
    the loaded config, else its default."""
    setting = SETTINGS[name]
    flag = getattr(args, setting.flag[2:].replace("-", "_"), None) if setting.flag else None
    env = os.environ.get(setting.env) if setting.env else None
    for value, source in ((flag, ("command line", setting.flag)),
                          (env, ("environment", setting.env))):
        if value is not None:
            if isinstance(value, str) and setting.text:
                with suppress(ValueError):
                    value = setting.text(value)
            return _check(setting.kind, value, source)
    if name in config:
        return config[name]
    return setting.default() if callable(setting.default) else setting.default


def _quantile(ascending: np.ndarray, q: float) -> float:
    """np.quantile(ascending, q) by numpy's "linear" method, term for term,
    without the numpy.ma import that np.quantile pays for on first use."""
    index = (ascending.size - 1) * q
    lo = math.floor(index)
    a, b = ascending[lo], ascending[min(lo + 1, ascending.size - 1)]
    t = index - lo
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def _auto_p_grid(order) -> np.ndarray:
    ns = np.sort(order.normalized)
    lo = max(_quantile(ns, 0.05), 1e-9)
    hi = max(_quantile(ns, 0.95), lo)
    return np.linspace(lo, hi, 21)


def _p_grid_for(out_dir: Path, cfg: dict, p_grid_spec, price, order) -> np.ndarray:
    run = Run(out_dir, argparse.Namespace(p_grid=p_grid_spec, price=price), cfg)
    run.order = order  # stands in for the order Run would build from the savings curves
    return run.p_grid


def _load_context(out_dir: Path, cfg: dict, days: int | None) -> ScenarioContext:
    return Run(out_dir, argparse.Namespace(days=days), cfg).context


def _fmt_bool(b) -> str:
    return "true" if b else "false"


# ---------------------------------------------------------------- run

def _resolved(name: str) -> cached_property:
    """A Run attribute holding the setting `name`, resolved on first use."""
    return cached_property(lambda run: _resolve(name, run.args, run.cfg))


@dataclass
class Run:
    """One invocation on one run directory.

    Settings are resolved when a stage asks for them, and each artifact
    is loaded from the run directory on first use and then kept, so the
    stages of one `all` share a single scenario, curve set and
    LongRunSolver. cfg holds the values _load_config checked.
    """

    out: Path
    args: argparse.Namespace
    cfg: dict

    asset = _resolved("asset")
    require_terminal_soc = _resolved("require_terminal_soc")
    n_samples = _resolved("n_samples")
    days = _resolved("days")
    threads = _resolved("threads")
    t_grid = _resolved("t_grid")
    equilibrium_at = _resolved("equilibrium_at")
    flows_at = _resolved("flows_at")

    @cached_property
    def manifest(self) -> dict:
        return _read_manifest(self.out)

    @cached_property
    def synth(self) -> SynthConfig:
        synth, seed = _resolve("synth", self.args, self.cfg), _resolve("seed", self.args, self.cfg)
        return synth if seed is None else replace(synth, rng_seed=seed)

    @cached_property
    def loaded(self):
        return load_scenario(self.out / DATA_SUBDIR, self.asset)

    @cached_property
    def context(self) -> ScenarioContext:
        from .dispatch import ScenarioContext
        scenario, days = self.loaded.scenario, self.days
        day_indices = (None if days is None or days >= scenario.n_days
                       else np.round(np.linspace(0, scenario.n_days - 1, days)).astype(int))
        return ScenarioContext(scenario, day_indices, require_terminal_soc=self.require_terminal_soc)

    @cached_property
    def curves(self):
        return read_savings_curves(self.out / SAVINGS_FILE)

    @cached_property
    def order(self):
        return build_order(self.curves)

    @cached_property
    def solver(self) -> LongRunSolver:
        return LongRunSolver(self.order, self.curves)

    @cached_property
    def purchases(self):
        return read_purchases_curves(self.out / PURCHASES_FILE)

    @cached_property
    def sweep_table(self) -> DemandCurves:
        return DemandCurves(**read_number_columns(self.out / SWEEP_FILE, SWEEP_HEADER,
                                                  int_columns=("owners",)))

    @cached_property
    def p_grid(self) -> np.ndarray:
        grid = _resolve("price", self.args, self.cfg)
        if grid is None:
            grid = _resolve("p_grid", self.args, self.cfg)
        return _auto_p_grid(self.order) if grid is None else grid

    @cached_property
    def long_run(self) -> list:
        return [long_run_adoption(self.order, self.curves, float(p), self.solver)
                for p in self.p_grid]


# ---------------------------------------------------------------- stage bodies

SWEEP_HEADER = [f.name for f in fields(DemandCurves)]

EQUILIBRIUM_SUMMARY_HEADER = ["t", "clearing_price", "volume", "owner_participation",
                              "non_owner_participation", "total_participation",
                              "owner_surplus", "renter_surplus", "total_surplus"]

LONGRUN_HEADER = ["price", "k_short", "t_short", "d_short", "k_long", "t_long", "d_long",
                  "delta_q", "r_at_long", "r_before_long", "saturated", "contraction",
                  "no_adoption"]


def _equilibrium_rels(run: Run) -> list[str]:
    return [f"equilibrium_t{t:g}.csv" for t in run.equilibrium_at]


def _flow_rels(run: Run) -> list[str]:
    return [f"flows_t{t:g}.csv" for t in run.flows_at]


def _gen_data(run: Run) -> None:
    scenario = generate_scenario(run.synth, run.asset)
    validate_scenario(scenario)
    write_scenario(scenario, run.out / DATA_SUBDIR)


def _validate(run: Run) -> None:
    result = run.loaded
    validate_scenario(result.scenario)
    write_exclusions(run.out / EXCLUSIONS_FILE, result.exclusions)
    print(f"validate: {len(result.scenario.households)} households retained, "
          f"{len(result.exclusions)} excluded")


def _fit(run: Run) -> None:
    threads = run.threads
    ctx = run.context
    print(f"fit: {len(ctx.scenario.households)} households x {run.n_samples + 1} capacity "
          f"samples x {ctx.day_indices.size} days on {threads} worker(s)")
    fits = fit_all(ctx, run.n_samples, workers=threads)
    write_savings_curves(run.out / SAVINGS_FILE, [f.savings for f in fits.values()])
    write_purchases_curves(run.out / PURCHASES_FILE, [f.purchases for f in fits.values()])


def _sweep(run: Run) -> None:
    table = sweep_adoption(run.order, run.curves, run.t_grid, run.solver)
    write_rows(run.out / SWEEP_FILE, SWEEP_HEADER,
               zip(*(getattr(table, name) for name in SWEEP_HEADER)))
    if not run.equilibrium_at:
        return
    summaries = []
    for t, rel in zip(run.equilibrium_at, _equilibrium_rels(run)):
        # per-household allocations and surpluses at one adoption rate
        eq = run.solver.equilibrium_at(run.order.count_at_rate(t))
        write_rows(run.out / rel, ["household_id", "role", "y_star", "surplus"],
                   [[hid, "owner" if hid in eq.owner_ids else "renter",
                     eq.allocations[hid], eq.surpluses[hid]] for hid in sorted(eq.allocations)])
        summaries.append([t, math.nan if eq.clearing_price is None else eq.clearing_price,
                          eq.volume, eq.owner_participation, eq.non_owner_participation,
                          eq.total_participation, eq.owner_surplus_total,
                          eq.renter_surplus_total, eq.total_surplus])
    write_rows(run.out / SUMMARY_FILE, EQUILIBRIUM_SUMMARY_HEADER, summaries)


def _longrun(run: Run) -> None:
    rows = [[lr.price, lr.k_short, lr.t_short, lr.d_short, lr.k_long, lr.t_long, lr.d_long,
             lr.delta_q,
             math.nan if lr.r_at_long is None else lr.r_at_long,
             math.nan if lr.r_before_long is None else lr.r_before_long,
             _fmt_bool(lr.saturated), _fmt_bool(lr.contraction), _fmt_bool(lr.no_adoption)]
            for lr in run.long_run]
    write_rows(run.out / "longrun.csv", LONGRUN_HEADER, rows)


def _subsidy(run: Run) -> None:
    rows = []
    for lr in run.long_run:
        sub = equivalent_subsidy(run.sweep_table, lr)
        rows.append([sub.price, sub.delta_q, sub.subsidy, _fmt_bool(sub.no_increase)])
    write_rows(run.out / "subsidy.csv", ["price", "delta_q", "subsidy", "no_increase"], rows)


def _localness(run: Run) -> None:
    from .localness import distance_matrix, min_cost_flow, regional_excess
    scenario = run.loaded.scenario
    dmat = distance_matrix(scenario.regions)
    region_ids = tuple(r.id for r in scenario.regions)

    def flow_at(t: float):
        eq = run.solver.equilibrium_at(run.order.count_at_rate(t))
        s = regional_excess(eq, scenario.households, scenario.regions)
        return min_cost_flow(s, dmat, eq.volume, region_ids)

    rows = []
    for t in run.sweep_table.t:
        rf = flow_at(float(t))
        rows.append([float(t), rf.volume, rf.objective, rf.fraction_local,
                     _fmt_bool(rf.degenerate)])
    write_rows(run.out / "localness.csv",
               ["t", "volume", "objective", "fraction_local", "degenerate"], rows)
    for t, rel in zip(run.flows_at, _flow_rels(run)):
        rf = flow_at(t)
        write_rows(run.out / rel, ["from_region", "to_region", "kw"],
                   [[region_ids[i], region_ids[j], rf.flow[i, j]]
                    for i in range(len(region_ids)) for j in range(len(region_ids))
                    if rf.flow[i, j] > 0])


def _stakeholders(run: Run) -> None:
    points = regime_boundary(run.order, run.curves, run.purchases, run.p_grid, run.solver)
    rows = [[pt.price, pt.delta_q, pt.vendor_gain, pt.utility_loss,
             ("" if pt.threshold is None else pt.threshold),
             _fmt_bool(pt.emerges_at_unit_ratio)] for pt in points]
    write_rows(run.out / "stakeholders.csv",
               ["price", "delta_q", "vendor_gain", "utility_loss",
                "threshold", "emerges_at_unit_ratio"], rows)


# ---------------------------------------------------------------- stage table

@dataclass(frozen=True)
class Stage:
    """One pipeline stage, declared once.

    inputs pairs each file the stage reads with the stage that writes
    it. The input hash covers params(run) and the inputs' contents (a
    stage without input files hashes its params alone); body(run) writes
    exactly outputs(run).
    """

    name: str
    help: str
    flags: tuple[str, ...]
    inputs: tuple[tuple[str, str], ...]
    params: Callable[[Run], dict]
    outputs: Callable[[Run], list[str]]
    body: Callable[[Run], None]


_DATA_INPUTS = tuple((rel, "gen-data") for rel in DATA_RELS)
_CURVES_INPUT = ((SAVINGS_FILE, "fit"),)
_SWEEP_INPUT = ((SWEEP_FILE, "sweep"),)
_PRICE_FLAGS = ("--p-grid", "--price")

STAGES = (
    Stage("gen-data", "generate a synthetic scenario", ("--seed",), (),
          lambda run: {"synth": asdict(run.synth), "asset": asdict(run.asset)},
          lambda run: DATA_RELS, _gen_data),
    Stage("validate", "ingest and validate the data directory", (), _DATA_INPUTS,
          lambda run: {"asset": asdict(run.asset)},
          lambda run: [EXCLUSIONS_FILE], _validate),
    Stage("fit", "sample and fit savings and purchases curves",
          ("--samples", "--days", "--threads"), _DATA_INPUTS,
          lambda run: {"n_samples": run.n_samples, "days": run.days,
                       "asset": asdict(run.asset),
                       "require_terminal_soc": run.require_terminal_soc},
          lambda run: [SAVINGS_FILE, PURCHASES_FILE], _fit),
    Stage("sweep", "clear the market along the adoption order",
          ("--t-grid", "--equilibrium-at"), _CURVES_INPUT,
          lambda run: {"t_grid": run.t_grid.tolist(), "equilibrium_at": run.equilibrium_at},
          lambda run: [SWEEP_FILE] + ([*_equilibrium_rels(run), SUMMARY_FILE]
                                      if run.equilibrium_at else []),
          _sweep),
    Stage("longrun", "short- and long-run adoption over purchase prices", _PRICE_FLAGS,
          _CURVES_INPUT, lambda run: {"p_grid": run.p_grid.tolist()},
          lambda run: ["longrun.csv"], _longrun),
    Stage("subsidy", "equivalent direct subsidy over purchase prices", _PRICE_FLAGS,
          _CURVES_INPUT + _SWEEP_INPUT, lambda run: {"p_grid": run.p_grid.tolist()},
          lambda run: ["subsidy.csv"], _subsidy),
    Stage("localness", "regional excesses and min-cost matching", ("--flows-at",),
          _DATA_INPUTS + _CURVES_INPUT + _SWEEP_INPUT,
          lambda run: {"flows_at": run.flows_at},
          lambda run: ["localness.csv"] + _flow_rels(run), _localness),
    Stage("stakeholders", "vendor gains against utility losses over purchase prices",
          _PRICE_FLAGS, _CURVES_INPUT + ((PURCHASES_FILE, "fit"),),
          lambda run: {"p_grid": run.p_grid.tolist()},
          lambda run: ["stakeholders.csv"], _stakeholders),
)


def run_stage(run: Run, stage: Stage) -> None:
    started = time.time()
    inputs = _require(run.out, stage.inputs)
    params = stage.params(run)
    input_hash = _input_hash(params, inputs) if inputs else _hash_obj(params)
    outputs = stage.outputs(run)
    if _stage_cached(run.out, run.manifest, stage.name, input_hash, outputs):
        print(f"{stage.name}: cached")
        return
    stage.body(run)
    _finish_stage(run.out, run.manifest, stage.name, input_hash, outputs, started)


# ---------------------------------------------------------------- entry

# `all` takes every stage's flags except --price: it runs the whole p-grid
ALL_FLAGS = tuple(dict.fromkeys(f for s in STAGES for f in s.flags if f != "--price"))
_HELP = {s.flag: s.help for s in SETTINGS.values() if s.flag}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dershare", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_, flags in ([(s.name, s.help, s.flags) for s in STAGES]
                               + [("all", "run the full pipeline", ALL_FLAGS)]):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--out", required=True, help="run directory for data and outputs")
        p.add_argument("--config", help="JSON config file")
        for flag in flags:
            p.add_argument(flag, help=_HELP[flag])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(out_dir, args, _load_config(args.config))
        for stage in STAGES:
            if args.command in ("all", stage.name):
                run_stage(run, stage)
    except (StageError, DomainError, ValidationError, ParseError, LPError, FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
