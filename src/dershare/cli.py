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
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .adoption import (DemandCurves, LongRunSolver, build_order, default_t_grid,
                       equivalent_subsidy, long_run_adoption, sweep_adoption)
from .dispatch import ScenarioContext
from .curves import FitError, fit_all
from .io import (EXCLUSIONS_FILE, IRRADIANCE_FILE, LOADS_FILE, REGIONS_FILE,
                 TARIFF_BUY_FILE, TARIFF_SELL_FILE, ParseError, load_scenario,
                 read_purchases_curves, read_savings_curves, write_exclusions,
                 write_purchases_curves, write_rows, write_savings_curves, write_scenario)
from .localness import distance_matrix, min_cost_flow, regional_excess
from .lp import LPError
from .model import AssetSpec, DomainError, ValidationError, validate_scenario
from .stakeholders import regime_boundary
from .synth import SynthConfig, generate_scenario

DATA_SUBDIR = "data"
MANIFEST_FILE = "manifest.json"
DATA_FILES = (LOADS_FILE, IRRADIANCE_FILE, TARIFF_BUY_FILE, TARIFF_SELL_FILE, REGIONS_FILE)


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


def _write_manifest(out_dir: Path, manifest: dict) -> None:
    path = out_dir / MANIFEST_FILE
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    os.replace(tmp, path)


def _require(out_dir: Path, relpaths, producer: str) -> list[Path]:
    paths = [out_dir / rel for rel in relpaths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        raise StageError(f"missing {missing[0].relative_to(out_dir)}; "
                         f"run `dershare {producer}` first")
    return paths


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
                  outputs: list[Path], started: float) -> None:
    for p in outputs:
        rel = str(p.relative_to(out_dir))
        manifest.setdefault("outputs", {})[rel] = _file_sha(p)
    manifest.setdefault("stages", {})[stage] = {
        "input_hash": input_hash,
        "completed_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "elapsed_s": round(time.time() - started, 3),
    }
    manifest["version"] = __version__
    _write_manifest(out_dir, manifest)
    print(f"{stage}: wrote {', '.join(str(p.relative_to(out_dir)) for p in outputs)} "
          f"({time.time() - started:.1f}s)")


# ---------------------------------------------------------------- config

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
    return cfg


def _asset_from(cfg: dict) -> AssetSpec:
    return AssetSpec(**cfg.get("asset", {}))


def _synth_from(cfg: dict, seed: int | None) -> SynthConfig:
    section = dict(cfg.get("synth", {}))
    if seed is not None:
        section["rng_seed"] = seed
    return SynthConfig.from_dict(section)


def _parse_grid(spec, default) -> np.ndarray:
    """Grid spec: 'a:b:n' for linspace, a comma list, a JSON list, or None."""
    if spec is None:
        return default() if callable(default) else default
    if isinstance(spec, (list, tuple)):
        return np.asarray(spec, dtype=float)
    text = str(spec)
    if ":" in text:
        a, b, n = text.split(":")
        return np.linspace(float(a), float(b), int(n))
    return np.asarray([float(v) for v in text.split(",")], dtype=float)


def _auto_p_grid(order) -> np.ndarray:
    ns = order.normalized
    lo = max(float(np.quantile(ns, 0.05)), 1e-9)
    hi = max(float(np.quantile(ns, 0.95)), lo)
    return np.linspace(lo, hi, 21)


def _fmt_bool(b) -> str:
    return "true" if b else "false"


# ---------------------------------------------------------------- stages

def cmd_gen(out_dir: Path, cfg: dict, seed: int | None) -> None:
    started = time.time()
    synth_cfg = _synth_from(cfg, seed)
    asset = _asset_from(cfg)
    manifest = _read_manifest(out_dir)
    input_hash = _hash_obj({"synth": synth_cfg.to_dict(), "asset": asdict(asset)})
    output_rels = [f"{DATA_SUBDIR}/{name}" for name in DATA_FILES]
    if _stage_cached(out_dir, manifest, "gen-data", input_hash, output_rels):
        print("gen-data: cached")
        return
    scenario = generate_scenario(synth_cfg, asset)
    validate_scenario(scenario)
    outputs = write_scenario(scenario, out_dir / DATA_SUBDIR)
    _finish_stage(out_dir, manifest, "gen-data", input_hash, outputs, started)


def _data_files(out_dir: Path) -> list[Path]:
    return _require(out_dir, [f"{DATA_SUBDIR}/{n}" for n in DATA_FILES], "gen-data")


def cmd_validate(out_dir: Path, cfg: dict) -> None:
    started = time.time()
    data = _data_files(out_dir)
    asset = _asset_from(cfg)
    manifest = _read_manifest(out_dir)
    input_hash = _input_hash({"asset": asdict(asset)}, data)
    if _stage_cached(out_dir, manifest, "validate", input_hash, [EXCLUSIONS_FILE]):
        print("validate: cached")
        return
    result = load_scenario(out_dir / DATA_SUBDIR, asset)
    validate_scenario(result.scenario)
    path = write_exclusions(out_dir / EXCLUSIONS_FILE, result.exclusions)
    print(f"validate: {len(result.scenario.households)} households retained, "
          f"{len(result.exclusions)} excluded")
    _finish_stage(out_dir, manifest, "validate", input_hash, [path], started)


def _load_context(out_dir: Path, cfg: dict, days: int | None) -> ScenarioContext:
    asset = _asset_from(cfg)
    scenario = load_scenario(out_dir / DATA_SUBDIR, asset).scenario
    day_indices = None
    if days is not None and days < scenario.n_days:
        day_indices = np.round(np.linspace(0, scenario.n_days - 1, days)).astype(int)
    return ScenarioContext(scenario, day_indices,
                           require_terminal_soc=bool(cfg.get("require_terminal_soc", False)))


def cmd_fit(out_dir: Path, cfg: dict, samples: int | None, days: int | None,
            threads: int) -> None:
    started = time.time()
    data = _data_files(out_dir)
    n_samples = samples or int(cfg.get("fit", {}).get("n_samples", 30))
    manifest = _read_manifest(out_dir)
    params = {"n_samples": n_samples, "days": days, "asset": asdict(_asset_from(cfg)),
              "require_terminal_soc": bool(cfg.get("require_terminal_soc", False))}
    input_hash = _input_hash(params, data)
    output_rels = ["savings_curves.csv", "purchases_curves.csv"]
    if _stage_cached(out_dir, manifest, "fit", input_hash, output_rels):
        print("fit: cached")
        return
    ctx = _load_context(out_dir, cfg, days)
    n = len(ctx.scenario.households)
    print(f"fit: {n} households x {n_samples + 1} capacity samples x "
          f"{ctx.day_indices.size} days on {threads} worker(s)")
    fits = fit_all(ctx, n_samples, workers=threads)
    outputs = [
        write_savings_curves(out_dir / "savings_curves.csv",
                             [f.savings for f in fits.values()]),
        write_purchases_curves(out_dir / "purchases_curves.csv",
                               [f.purchases for f in fits.values()]),
    ]
    _finish_stage(out_dir, manifest, "fit", input_hash, outputs, started)


def _load_curves(out_dir: Path):
    path = _require(out_dir, ["savings_curves.csv"], "fit")[0]
    curves = read_savings_curves(path)
    return curves, build_order(curves), path


SWEEP_HEADER = ["t", "owners", "adopted_quantity", "short_run_price", "clearing_price",
                "volume", "fraction_rented_out", "owner_participation",
                "non_owner_participation", "total_participation",
                "owner_surplus", "renter_surplus", "total_surplus"]

EQUILIBRIUM_SUMMARY_HEADER = ["t", "clearing_price", "volume", "owner_participation",
                              "non_owner_participation", "total_participation",
                              "owner_surplus", "renter_surplus", "total_surplus"]


def _write_equilibrium(out_dir: Path, rel: str, solver: LongRunSolver, t: float):
    """Per-household allocations and surpluses at one adoption rate."""
    eq = solver.equilibrium_at(solver.order.count_at_rate(t))
    rows = [[hid, "owner" if hid in eq.owner_ids else "renter",
             eq.allocations[hid], eq.surpluses[hid]] for hid in sorted(eq.allocations)]
    path = write_rows(out_dir / rel, ["household_id", "role", "y_star", "surplus"], rows)
    summary = [t, math.nan if eq.clearing_price is None else eq.clearing_price,
               eq.volume, eq.owner_participation, eq.non_owner_participation,
               eq.total_participation, eq.owner_surplus_total, eq.renter_surplus_total,
               eq.total_surplus]
    return path, summary


def cmd_sweep(out_dir: Path, cfg: dict, t_grid_spec, equilibrium_at=()) -> None:
    started = time.time()
    curves, order, curves_path = _load_curves(out_dir)
    t_grid = _parse_grid(t_grid_spec or cfg.get("sweep", {}).get("t_grid"), default_t_grid)
    equilibrium_at = [float(t) for t in equilibrium_at]
    manifest = _read_manifest(out_dir)
    input_hash = _input_hash({"t_grid": t_grid.tolist(), "equilibrium_at": equilibrium_at},
                             [curves_path])
    eq_rels = [f"equilibrium_t{t:g}.csv" for t in equilibrium_at]
    output_rels = ["sweep.csv"] + (eq_rels + ["equilibrium_summary.csv"] if eq_rels else [])
    if _stage_cached(out_dir, manifest, "sweep", input_hash, output_rels):
        print("sweep: cached")
        return
    solver = LongRunSolver(order, curves)
    table = sweep_adoption(order, curves, t_grid, solver)
    rows = zip(table.t, table.owners, table.adopted_quantity, table.short_run_price,
               table.clearing_price, table.volume, table.fraction_rented_out,
               table.owner_participation, table.non_owner_participation,
               table.total_participation, table.owner_surplus, table.renter_surplus,
               table.total_surplus)
    outputs = [write_rows(out_dir / "sweep.csv", SWEEP_HEADER,
                          [[float(v) if isinstance(v, (np.floating, float)) else int(v)
                            for v in row] for row in rows])]
    if equilibrium_at:
        summaries = []
        for t, rel in zip(equilibrium_at, eq_rels):
            path, summary = _write_equilibrium(out_dir, rel, solver, t)
            outputs.append(path)
            summaries.append(summary)
        outputs.append(write_rows(out_dir / "equilibrium_summary.csv",
                                  EQUILIBRIUM_SUMMARY_HEADER, summaries))
    _finish_stage(out_dir, manifest, "sweep", input_hash, outputs, started)


def _read_sweep_table(out_dir: Path):
    """Reconstruct the sweep arrays needed downstream from sweep.csv."""
    path = _require(out_dir, ["sweep.csv"], "sweep")[0]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))

    def col(name, dtype=float):
        return np.asarray([dtype(r[name]) for r in rows])
    return DemandCurves(
        t=col("t"), owners=col("owners", int), adopted_quantity=col("adopted_quantity"),
        short_run_price=col("short_run_price"), clearing_price=col("clearing_price"),
        volume=col("volume"), fraction_rented_out=col("fraction_rented_out"),
        owner_participation=col("owner_participation"),
        non_owner_participation=col("non_owner_participation"),
        total_participation=col("total_participation"), owner_surplus=col("owner_surplus"),
        renter_surplus=col("renter_surplus"), total_surplus=col("total_surplus")), path


def _p_grid_for(out_dir: Path, cfg: dict, p_grid_spec, price, order) -> np.ndarray:
    if price is not None:
        return np.asarray([price], dtype=float)
    spec = p_grid_spec or cfg.get("prices", {}).get("p_grid")
    if spec in (None, "auto"):
        return _auto_p_grid(order)
    return _parse_grid(spec, None)


LONGRUN_HEADER = ["price", "k_short", "t_short", "d_short", "k_long", "t_long", "d_long",
                  "delta_q", "r_at_long", "r_before_long", "saturated", "contraction",
                  "no_adoption"]


def _longrun_rows(order, curves, p_grid):
    solver = LongRunSolver(order, curves)
    results = [long_run_adoption(order, curves, float(p), solver) for p in p_grid]
    rows = [[lr.price, lr.k_short, lr.t_short, lr.d_short, lr.k_long, lr.t_long, lr.d_long,
             lr.delta_q,
             math.nan if lr.r_at_long is None else lr.r_at_long,
             math.nan if lr.r_before_long is None else lr.r_before_long,
             _fmt_bool(lr.saturated), _fmt_bool(lr.contraction), _fmt_bool(lr.no_adoption)]
            for lr in results]
    return results, rows


def cmd_longrun(out_dir: Path, cfg: dict, p_grid_spec, price) -> None:
    started = time.time()
    curves, order, curves_path = _load_curves(out_dir)
    p_grid = _p_grid_for(out_dir, cfg, p_grid_spec, price, order)
    manifest = _read_manifest(out_dir)
    input_hash = _input_hash({"p_grid": p_grid.tolist()}, [curves_path])
    if _stage_cached(out_dir, manifest, "longrun", input_hash, ["longrun.csv"]):
        print("longrun: cached")
        return
    _, rows = _longrun_rows(order, curves, p_grid)
    path = write_rows(out_dir / "longrun.csv", LONGRUN_HEADER, rows)
    _finish_stage(out_dir, manifest, "longrun", input_hash, [path], started)


def cmd_subsidy(out_dir: Path, cfg: dict, p_grid_spec, price) -> None:
    started = time.time()
    curves, order, curves_path = _load_curves(out_dir)
    table, sweep_path = _read_sweep_table(out_dir)
    p_grid = _p_grid_for(out_dir, cfg, p_grid_spec, price, order)
    manifest = _read_manifest(out_dir)
    input_hash = _input_hash({"p_grid": p_grid.tolist()}, [curves_path, sweep_path])
    if _stage_cached(out_dir, manifest, "subsidy", input_hash, ["subsidy.csv"]):
        print("subsidy: cached")
        return
    results, _ = _longrun_rows(order, curves, p_grid)
    rows = []
    for lr in results:
        sub = equivalent_subsidy(table, lr)
        rows.append([sub.price, sub.delta_q, sub.subsidy, _fmt_bool(sub.no_increase)])
    path = write_rows(out_dir / "subsidy.csv", ["price", "delta_q", "subsidy", "no_increase"], rows)
    _finish_stage(out_dir, manifest, "subsidy", input_hash, [path], started)


def cmd_localness(out_dir: Path, cfg: dict, flows_at) -> None:
    started = time.time()
    data = _data_files(out_dir)
    curves, order, curves_path = _load_curves(out_dir)
    table, sweep_path = _read_sweep_table(out_dir)
    flows_at = [float(t) for t in flows_at]
    manifest = _read_manifest(out_dir)
    input_hash = _input_hash({"flows_at": flows_at}, data + [curves_path, sweep_path])
    flow_rels = [f"flows_t{t:g}.csv" for t in flows_at]
    if _stage_cached(out_dir, manifest, "localness", input_hash,
                     ["localness.csv"] + flow_rels):
        print("localness: cached")
        return
    scenario = load_scenario(out_dir / DATA_SUBDIR, _asset_from(cfg)).scenario
    dmat = distance_matrix(scenario.regions)
    region_ids = tuple(r.id for r in scenario.regions)
    solver = LongRunSolver(order, curves)

    def flow_at(t: float):
        eq = solver.equilibrium_at(order.count_at_rate(t))
        s = regional_excess(eq, scenario.households, scenario.regions)
        return min_cost_flow(s, dmat, eq.volume, region_ids)

    rows = []
    for t in table.t:
        rf = flow_at(float(t))
        rows.append([float(t), rf.volume, rf.objective, rf.fraction_local,
                     _fmt_bool(rf.degenerate)])
    outputs = [write_rows(out_dir / "localness.csv",
                          ["t", "volume", "objective", "fraction_local", "degenerate"], rows)]
    for t, rel in zip(flows_at, flow_rels):
        rf = flow_at(t)
        frows = [[region_ids[i], region_ids[j], rf.flow[i, j]]
                 for i in range(len(region_ids)) for j in range(len(region_ids))
                 if rf.flow[i, j] > 0]
        outputs.append(write_rows(out_dir / rel, ["from_region", "to_region", "kw"], frows))
    _finish_stage(out_dir, manifest, "localness", input_hash, outputs, started)


def cmd_stakeholders(out_dir: Path, cfg: dict, p_grid_spec, price) -> None:
    started = time.time()
    curves, order, curves_path = _load_curves(out_dir)
    purchases_path = _require(out_dir, ["purchases_curves.csv"], "fit")[0]
    purchases = read_purchases_curves(purchases_path)
    p_grid = _p_grid_for(out_dir, cfg, p_grid_spec, price, order)
    manifest = _read_manifest(out_dir)
    input_hash = _input_hash({"p_grid": p_grid.tolist()}, [curves_path, purchases_path])
    if _stage_cached(out_dir, manifest, "stakeholders", input_hash, ["stakeholders.csv"]):
        print("stakeholders: cached")
        return
    points = regime_boundary(order, curves, purchases, p_grid)
    rows = [[pt.price, pt.delta_q, pt.vendor_gain, pt.utility_loss,
             ("" if pt.threshold is None else pt.threshold),
             _fmt_bool(pt.emerges_at_unit_ratio)] for pt in points]
    path = write_rows(out_dir / "stakeholders.csv",
                      ["price", "delta_q", "vendor_gain", "utility_loss",
                       "threshold", "emerges_at_unit_ratio"], rows)
    _finish_stage(out_dir, manifest, "stakeholders", input_hash, [path], started)


# ---------------------------------------------------------------- entry

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dershare", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        p.add_argument("--out", required=True, help="run directory for data and outputs")
        if config:
            p.add_argument("--config", help="JSON config file")

    p = sub.add_parser("gen-data", help="generate a synthetic scenario")
    common(p)
    p.add_argument("--seed", type=int, help="override the generator seed")

    p = sub.add_parser("validate", help="ingest and validate the data directory")
    common(p)

    p = sub.add_parser("fit", help="sample and fit savings and purchases curves")
    common(p)
    p.add_argument("--samples", type=int, help="capacity sample count (default 30)")
    p.add_argument("--days", type=int, help="subsample this many representative days")
    p.add_argument("--threads", type=int, default=None, help="worker processes")

    p = sub.add_parser("sweep", help="clear the market along the adoption order")
    common(p)
    p.add_argument("--t-grid", help="adoption rates: 'a:b:n', comma list, or default")
    p.add_argument("--equilibrium-at", default="",
                   help="comma list of adoption rates to dump per-household allocations for")

    for name, needs_price in (("longrun", True), ("subsidy", True), ("stakeholders", True)):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--p-grid", help="purchase prices: 'a:b:n', comma list, or 'auto'")
        if needs_price:
            p.add_argument("--price", type=float, help="single purchase price")

    p = sub.add_parser("localness", help="regional excesses and min-cost matching")
    common(p)
    p.add_argument("--flows-at", default="", help="comma list of adoption rates to dump flows for")

    p = sub.add_parser("all", help="run the full pipeline")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--days", type=int)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--t-grid")
    p.add_argument("--p-grid")
    p.add_argument("--flows-at", default="")
    p.add_argument("--equilibrium-at", default="")
    return parser


def _threads(args) -> int:
    if getattr(args, "threads", None):
        return max(1, args.threads)
    return max(1, int(os.environ.get("DERSHARE_THREADS", "1")))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        cfg = _load_config(getattr(args, "config", None))
        if args.command == "gen-data":
            cmd_gen(out_dir, cfg, args.seed)
        elif args.command == "validate":
            cmd_validate(out_dir, cfg)
        elif args.command == "fit":
            cmd_fit(out_dir, cfg, args.samples, args.days, _threads(args))
        elif args.command == "sweep":
            cmd_sweep(out_dir, cfg, args.t_grid,
                      [v for v in args.equilibrium_at.split(",") if v])
        elif args.command == "longrun":
            cmd_longrun(out_dir, cfg, args.p_grid, args.price)
        elif args.command == "subsidy":
            cmd_subsidy(out_dir, cfg, args.p_grid, args.price)
        elif args.command == "localness":
            flows_at = [v for v in args.flows_at.split(",") if v]
            cmd_localness(out_dir, cfg, flows_at)
        elif args.command == "stakeholders":
            cmd_stakeholders(out_dir, cfg, args.p_grid, args.price)
        elif args.command == "all":
            cmd_gen(out_dir, cfg, args.seed)
            cmd_validate(out_dir, cfg)
            cmd_fit(out_dir, cfg, args.samples, args.days, _threads(args))
            cmd_sweep(out_dir, cfg, args.t_grid,
                      [v for v in args.equilibrium_at.split(",") if v])
            cmd_longrun(out_dir, cfg, args.p_grid, None)
            cmd_subsidy(out_dir, cfg, args.p_grid, None)
            flows_at = [v for v in args.flows_at.split(",") if v]
            cmd_localness(out_dir, cfg, flows_at)
            cmd_stakeholders(out_dir, cfg, args.p_grid, None)
    except (StageError, DomainError, ValidationError, ParseError, LPError, FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
