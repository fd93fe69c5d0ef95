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
value; the default worker count comes from DERSHARE_THREADS.

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
from dataclasses import asdict, dataclass, fields
from functools import cached_property
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
from .model import AssetSpec, DomainError, ValidationError, validate_scenario
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


# ---------------------------------------------------------------- config

# every top-level key, with the keys of its section; None where the reader checks them
CONFIG_KEYS = {"synth": None, "asset": None, "fit": ("n_samples",), "sweep": ("t_grid",),
               "prices": ("p_grid",), "require_terminal_soc": None}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ParseError(path, 0, "file not found") from None
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno,
                         f"invalid JSON: {exc.msg} (column {exc.colno})") from None
    if not isinstance(cfg, dict):
        raise ValidationError("config", "root", "config file must hold a JSON object")
    for name in cfg:
        if name not in CONFIG_KEYS:
            raise ValidationError("config", name, "unknown config key")
        if CONFIG_KEYS[name]:
            _section(cfg, name)  # a misspelled key fails every stage, not only its reader
    return cfg


def _section(cfg: dict, name: str) -> dict:
    """The config's `name` section; {} when absent."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ValidationError("config", name, f"expected a JSON object, got {section!r}")
    unknown = sorted(set(section) - set(CONFIG_KEYS[name] or section))
    if unknown:
        raise ValidationError("config", f"{name}.{unknown[0]}", "unknown config key")
    return section


def _asset_from(cfg: dict) -> AssetSpec:
    section = _section(cfg, "asset")
    unknown = set(section) - set(AssetSpec.__dataclass_fields__)
    if unknown:
        raise ValidationError("asset config", sorted(unknown)[0], "unknown config key")
    for key, value in section.items():
        if type(value) not in (int, float) or not math.isfinite(value):  # bool is not int here
            raise ValidationError("config", f"asset.{key}", f"expected a number, got {value!r}")
    return AssetSpec(**section)


def _checked(source: tuple[str, str], parse, *args):
    """parse(*args); a malformed value raises a ValidationError naming its source."""
    try:
        return parse(*args)
    except (ValueError, TypeError) as exc:
        raise ValidationError(*source, str(exc)) from None


def _whole_number(value) -> int:
    """A JSON integer, or a float with no fractional part."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected a whole number, got {value!r}")


def _count(minimum: int, value) -> int:
    """A whole number no smaller than minimum."""
    count = _whole_number(value)
    if count < minimum:
        raise ValueError(f"expected a whole number >= {minimum}, got {value!r}")
    return count


def _flag_or_config(value, flag: str, cfg: dict, section: str, key: str):
    """The flag's value if given, else the config's, with where it came from."""
    if value is not None:
        return value, ("command line", flag)
    return _section(cfg, section).get(key), ("config", f"{section}.{key}")


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


def _parse_rates(text: str | None) -> list[float]:
    """Comma list of adoption rates; empty entries are skipped."""
    return [float(v) for v in (text or "").split(",") if v]


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
    if price is not None:
        return np.asarray([price], dtype=float)
    spec, source = _flag_or_config(p_grid_spec, "--p-grid", cfg, "prices", "p_grid")
    if spec in (None, "auto"):
        return _auto_p_grid(order)
    return _checked(source, _parse_grid, spec, None)


def _load_context(out_dir: Path, cfg: dict, days: int | None) -> ScenarioContext:
    return Run(out_dir, argparse.Namespace(days=days), cfg).context


def _fmt_bool(b) -> str:
    return "true" if b else "false"


# ---------------------------------------------------------------- run

class Run:
    """One invocation on one run directory.

    Flags and config values are read when a stage asks for them, and
    each artifact is loaded from the run directory on first use and then
    kept, so the stages of one `all` share a single scenario, curve set
    and LongRunSolver.
    """

    def __init__(self, out: Path, args: argparse.Namespace, cfg: dict):
        self.out = out
        self.args = args
        self.cfg = cfg

    def flag(self, name: str):
        """A flag's value; None when this subcommand does not take it."""
        return getattr(self.args, name, None)

    @cached_property
    def manifest(self) -> dict:
        return _read_manifest(self.out)

    @cached_property
    def asset(self) -> AssetSpec:
        return _asset_from(self.cfg)

    @cached_property
    def synth(self) -> SynthConfig:
        section = dict(_section(self.cfg, "synth"))
        if self.flag("seed") is not None:
            section["rng_seed"] = self.flag("seed")
        return SynthConfig.from_dict(section)

    @cached_property
    def require_terminal_soc(self) -> bool:
        value = self.cfg.get("require_terminal_soc", False)
        if not isinstance(value, bool):
            raise ValidationError("config", "require_terminal_soc",
                                  f"expected true or false, got {value!r}")
        return value

    @cached_property
    def n_samples(self) -> int:
        value, source = _flag_or_config(self.flag("samples"), "--samples", self.cfg,
                                        "fit", "n_samples")
        return _checked(source, _count, 2, DEFAULT_SAMPLES if value is None else value)

    @cached_property
    def days(self) -> int | None:
        days = self.flag("days")
        return None if days is None else _checked(("command line", "--days"), _count, 1, days)

    @cached_property
    def threads(self) -> int:
        return max(1, self.flag("threads") or _checked(
            ("environment", "DERSHARE_THREADS"), int, os.environ.get("DERSHARE_THREADS", "1")))

    @cached_property
    def loaded(self):
        return load_scenario(self.out / DATA_SUBDIR, self.asset)

    @cached_property
    def context(self) -> ScenarioContext:
        from .dispatch import ScenarioContext
        scenario = self.loaded.scenario
        days = self.days
        day_indices = None
        if days is not None and days < scenario.n_days:
            day_indices = np.round(np.linspace(0, scenario.n_days - 1, days)).astype(int)
        return ScenarioContext(scenario, day_indices,
                               require_terminal_soc=self.require_terminal_soc)

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
    def t_grid(self) -> np.ndarray:
        spec, source = _flag_or_config(self.flag("t_grid"), "--t-grid", self.cfg,
                                       "sweep", "t_grid")
        return _checked(source, _parse_grid, spec, default_t_grid)

    @cached_property
    def equilibrium_at(self) -> list[float]:
        return _checked(("command line", "--equilibrium-at"), _parse_rates,
                        self.flag("equilibrium_at"))

    @cached_property
    def flows_at(self) -> list[float]:
        return _checked(("command line", "--flows-at"), _parse_rates, self.flag("flows_at"))

    @cached_property
    def p_grid(self) -> np.ndarray:
        return _p_grid_for(self.out, self.cfg, self.flag("p_grid"), self.flag("price"),
                           self.order)

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
          lambda run: {"synth": run.synth.to_dict(), "asset": asdict(run.asset)},
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

FLAGS = {
    "--seed": dict(type=int, help="override the generator seed"),
    "--samples": dict(type=int, help="capacity sample count (default 30)"),
    "--days": dict(type=int, help="subsample this many representative days"),
    "--threads": dict(type=int, help="worker processes"),
    "--t-grid": dict(help="adoption rates: 'a:b:n', comma list, or default"),
    "--equilibrium-at": dict(
        default="", help="comma list of adoption rates to dump per-household allocations for"),
    "--p-grid": dict(help="purchase prices: 'a:b:n', comma list, or 'auto'"),
    "--price": dict(type=float, help="single purchase price"),
    "--flows-at": dict(default="", help="comma list of adoption rates to dump flows for"),
}
# `all` takes every stage's flags except --price: it runs the whole p-grid
ALL_FLAGS = tuple(dict.fromkeys(f for s in STAGES for f in s.flags if f != "--price"))


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
            p.add_argument(flag, **FLAGS[flag])
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
