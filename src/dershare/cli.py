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
config (all checked at load), else its default. The command's flags and
their variables are checked before its first stage, cached or not.

Each stage is declared once in STAGES (settings, which give its flags
and hash; inputs with their writers; outputs; body), and run_stage,
the whole stage protocol, gives every stage the same require, hash,
cache check and manifest record. A subcommand runs one entry and `all`
runs them in order on one Run, which keeps each artifact once it has
it, and each file's checksum once read: a file is hashed once per
process, and again only after a stage rewrites it. A stage that runs
hands what it wrote to the Run (gen-data its scenario, ingested on
first use; fit its curves), so a fresh `all` parses neither the
scenario nor the curves; an artifact whose stage was cached is loaded
from the run directory on first use, and a fully cached `all` parses no
scenario. The longrun, subsidy, localness and stakeholders stages write
one CSV row per result record, each value read off it by column name:
the header is the record type's fields (localness: t and four of
RegionalFlow's), and io writes a bool as true/false.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property, partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

try:  # CPython's own SHA-256; hashlib would map OpenSSL's libcrypto for it (see _file_sha)
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .adoption import (DemandCurves, LongRunResult, LongRunSolver, SubsidyResult, build_order,
                       default_t_grid, equivalent_subsidy, long_run_adoption, sweep_adoption)
from .io import (EXCLUSIONS_FILE, IRRADIANCE_FILE, LOADS_FILE, PURCHASES_FILE, REGIONS_FILE,
                 SAVINGS_FILE, SWEEP_FILE, TABLES, TARIFF_BUY_FILE, TARIFF_SELL_FILE, ParseError,
                 _atomic_open, ingest, load_scenario, read_purchases_curves, read_savings_curves,
                 read_sweep, read_text, write_exclusions, write_purchases_curves, write_rows,
                 write_savings_curves, write_scenario)
from .model import (DEFAULT_SAMPLES, HOURS, AssetSpec, CurveSet, DomainError, FitError, LPError,
                    Scenario, SynthConfig, ValidationError, from_config, validate_scenario)
from .stakeholders import RegimePoint, regime_points

if TYPE_CHECKING:  # the generator, the fit, its LP and the transport solver load in their stages
    from .dispatch import ScenarioContext

DATA_SUBDIR = "data"
MANIFEST_FILE = "manifest.json"
DATA_RELS = [f"{DATA_SUBDIR}/{name}" for name in
             (LOADS_FILE, IRRADIANCE_FILE, TARIFF_BUY_FILE, TARIFF_SELL_FILE, REGIONS_FILE)]
SUMMARY_FILE = "equilibrium_summary.csv"


class StageError(RuntimeError):
    """A stage cannot run; the message says which command to run first."""


# ---------------------------------------------------------------- manifest

def _file_sha(path: Path) -> str:
    """The file's sha256, read into one reused 64 KiB block: a whole loads.csv
    read at once would set the peak memory of a run whose stages are cache
    hits, and a rerun hashes its last output while every artifact is held.

    The digest comes from CPython's built-in SHA-256 module, as random.py
    takes its SHA-512, and from hashlib only where that module is missing:
    importing hashlib maps OpenSSL's libcrypto, ~3.5 MB of a run's peak
    memory, which no stage needs (the generator imports numpy.random with
    it hidden, see synth). Both are SHA-256, so every manifest checksum and
    input hash is the same bytes."""
    digest, block = sha256(), bytearray(1 << 16)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(block):
            digest.update(memoryview(block)[:n])
    return digest.hexdigest()


def _hash_obj(obj) -> str:
    """sha256 of obj as sorted JSON: a dataclass as its asdict, an array as its tolist()."""
    return sha256(json.dumps(obj, sort_keys=True, default=lambda v: (
        v.tolist() if isinstance(v, np.ndarray) else asdict(v))).encode()).hexdigest()


def _read_json(path) -> tuple[str, object]:
    """The file's text and its JSON value; a missing file or non-JSON text is a ParseError."""
    try:
        text = read_text(path)
        return text, json.loads(text)
    except FileNotFoundError:
        raise ParseError(path, 0, "file not found") from None
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno,
                         f"invalid JSON: {exc.msg} (column {exc.colno})") from None


def _read_manifest(out_dir: Path) -> dict:
    """The run's manifest; one that is not JSON, or whose root, `stages`,
    stage entries or `outputs` are not objects, is a ParseError."""
    path = out_dir / MANIFEST_FILE
    if not path.exists():
        return {"version": __version__, "stages": {}, "outputs": {}}
    text, manifest = _read_json(path)

    def refuse(what: str, value, key: str | None) -> None:
        # named at its key's line (the manifest is written one key per line), the root where
        # it starts
        at = text.find(f'"{key}"') if key else len(text) - len(text.lstrip())
        raise ParseError(path, text.count("\n", 0, max(at, 0)) + 1,
                         f"field '{what}': expected a JSON object, got {value!r}")
    if not isinstance(manifest, dict):
        refuse("root", manifest, None)
    for section in ("stages", "outputs"):
        if not isinstance(manifest.get(section, {}), dict):
            refuse(section, manifest[section], section)
    for stage, entry in manifest.get("stages", {}).items():
        if not isinstance(entry, dict):
            refuse(f"stages.{stage}", entry, stage)
    return manifest


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
    """Grid spec: 'a:b:n' for linspace, a comma list, a JSON list or number,
    or None. A grid has at least one point."""
    if spec is None:
        return default() if callable(default) else default
    text = str(spec)
    if isinstance(spec, (list, tuple)):
        grid = np.asarray(spec, dtype=float)
    elif isinstance(spec, bool) or not isinstance(spec, (str, int, float)):
        raise ValueError(f"expected 'a:b:n', a comma list or a list, got {spec!r}")
    elif ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected 'a:b:n', got {text!r}")
        grid = np.linspace(float(parts[0]), float(parts[1]), int(parts[2]))
    else:
        grid = np.asarray([float(v) for v in text.split(",")], dtype=float)
    if grid.size == 0:
        raise ValueError(f"expected at least one point, got {spec!r}")
    return grid


def _prices(spec) -> np.ndarray | None:
    """A grid of finite purchase prices > 0; None for 'auto', set from the curves."""
    if spec in (None, "auto"):
        return None
    grid = _parse_grid(spec, None)
    if not np.all(np.isfinite(grid) & (grid > 0)):
        raise ValueError(f"expected finite prices > 0, got {spec!r}")
    return grid


def _adoption_rates(rates, spec):
    """The rates, each in [0, 1]; NaN is refused."""
    if not all(0.0 <= t <= 1.0 for t in rates):
        raise ValueError(f"expected adoption rates in [0, 1], got {spec!r}")
    return rates


def _dump_rels(stem: str, rates) -> list[str]:
    """The file each adoption rate's dump writes, the stage's stem in its name."""
    return [f"{stem}_t{t:g}.csv" for t in rates]


def _rates(text: str) -> list[float]:
    """Comma list of adoption rates, each dumped to a file of its own;
    empty entries are skipped."""
    rates = _adoption_rates([float(v) for v in text.split(",") if v], text)
    rels = _dump_rels("*", rates)
    for i, rel in enumerate(rels):
        if rel in rels[:i]:
            raise ValueError(f"rates {rates[rels.index(rel)]!r} and {rates[i]!r} would write "
                             f"one file, {rel}")
    return rates


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
    "t_grid": Setting(lambda v: _adoption_rates(_parse_grid(v, default_t_grid), v),
                      default_t_grid, "--t-grid", key="sweep.t_grid",
                      help="adoption rates: 'a:b:n', comma list, or default"),
    "equilibrium_at": Setting(_rates, list, "--equilibrium-at", help="comma list of adoption "
                              "rates to dump per-household allocations for"),
    "p_grid": Setting(_prices, None, "--p-grid", key="prices.p_grid",
                      help="purchase prices: 'a:b:n', comma list, or 'auto'"),
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
    so a bad or unknown key fails every stage, not only its reader; so does
    a required terminal charge the asset cannot reach."""
    if not path:
        return {}
    _, cfg = _read_json(path)
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
    if config.get("require_terminal_soc"):
        _check_terminal_charge(config.get("asset", AssetSpec()))
    return config


def _check_terminal_charge(asset: AssetSpec) -> None:
    """Refuse a required terminal charge the asset cannot reach, which would
    make every block LP of the fit infeasible. A day starts at x0 * alpha
    kWh/kW; charging at u_charge_max every hour, retaining eta_s of the
    charge and capped at alpha, the most it holds after 24 hours must be
    x0 * alpha again."""
    start = x = asset.x0 * asset.alpha
    for _ in range(HOURS):
        x = min(asset.alpha, asset.eta_s * x + asset.u_charge_max)
    if x < start:
        raise ValidationError(
            "config", "require_terminal_soc",
            f"the storage cannot end a day at its starting charge asset.x0 * asset.alpha = "
            f"{asset.x0} * {asset.alpha} = {start:.6g} kWh/kW: charging at asset.u_charge_max = "
            f"{asset.u_charge_max} kW/kW while keeping asset.eta_s = {asset.eta_s} of the "
            f"charge each hour reaches at most {x:.6g} kWh/kW after {HOURS} hours")


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
    """The run's purchase-price grid; a price given is a grid of one point."""
    spec = p_grid_spec if price is None else [price]
    run = Run(out_dir, argparse.Namespace(p_grid=spec), cfg)
    run.order = order  # stands in for the order Run would build from the savings curves
    return run.p_grid


def _load_context(out_dir: Path, cfg: dict, days: int | None) -> ScenarioContext:
    return Run(out_dir, argparse.Namespace(days=days), cfg).context


# ---------------------------------------------------------------- run

@dataclass
class Run:
    """One invocation on one run directory.

    Each setting is an attribute of its SETTINGS name, resolved on first
    use and kept; synth (with the seed) and p_grid (else set from the
    curves) are properties. Each artifact is set by the stage that makes
    it, or else loaded from the run directory on first use, and then
    kept, so the stages of one `all` share a single scenario, curve set
    and LongRunSolver. cfg holds the values _load_config checked.
    """

    out: Path
    args: argparse.Namespace
    cfg: dict
    generated: Scenario | None = None  # the scenario gen-data wrote in this process
    shas: dict[str, str] = field(default_factory=dict)  # run-directory file -> its sha256

    def __getattr__(self, name: str):
        # synth and p_grid: an AttributeError inside the property must not give the raw value
        if name not in SETTINGS or hasattr(Run, name):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.__dict__.setdefault(name, _resolve(name, self.args, self.cfg))

    @cached_property
    def manifest(self) -> dict:
        return _read_manifest(self.out)

    def sha(self, rel: str) -> str:
        """The sha256 of the run-directory file rel, read once per process."""
        if rel not in self.shas:
            self.shas[rel] = _file_sha(self.out / rel)
        return self.shas[rel]

    @cached_property
    def synth(self) -> SynthConfig:
        synth, seed = _resolve("synth", self.args, self.cfg), self.seed
        return synth if seed is None else replace(synth, rng_seed=seed)

    @cached_property
    def loaded(self):
        if self.generated is None:
            return load_scenario(self.out / DATA_SUBDIR, self.asset)
        # what load_scenario would read back: repr round-trips every written value
        sc = self.generated
        return ingest({hh.id: (hh.region_id, hh.load) for hh in sc.households},
                      sc.buy, sc.sell, sc.irradiance, sc.regions, self.asset)

    @property
    def context(self) -> ScenarioContext:
        # not kept: the fit's HiGHS model is freed when the fit is done, before the
        # analysis stages reach the run's peak memory
        from .dispatch import ScenarioContext
        scenario, days = self.loaded.scenario, self.days
        day_indices = (None if days is None or days >= scenario.n_days
                       else np.round(np.linspace(0, scenario.n_days - 1, days)).astype(int))
        return ScenarioContext(scenario, day_indices, require_terminal_soc=self.require_terminal_soc)

    @cached_property
    def curves(self) -> CurveSet:
        return read_savings_curves(self.out / SAVINGS_FILE)

    @cached_property
    def order(self):
        return build_order(self.curves)

    @cached_property
    def solver(self) -> LongRunSolver:
        return LongRunSolver(self.order, self.curves)

    @cached_property
    def purchases(self) -> CurveSet:
        return read_purchases_curves(self.out / PURCHASES_FILE)

    @cached_property
    def sweep_table(self) -> DemandCurves:
        return DemandCurves(**read_sweep(self.out / SWEEP_FILE))

    @cached_property
    def p_grid(self) -> np.ndarray:
        grid = _resolve("p_grid", self.args, self.cfg)
        return _auto_p_grid(self.order) if grid is None else grid

    @cached_property
    def long_run(self) -> list:
        return [long_run_adoption(self.order, self.curves, float(p), self.solver)
                for p in self.p_grid]


# ---------------------------------------------------------------- stage bodies

def _fields(cls, *dropped: str) -> list[str]:
    return [f.name for f in fields(cls) if f.name not in dropped]


def _write_records(path: Path, columns: list[str], records, missing="") -> None:
    """One row per record (a dict of its fields), each value read off it by
    column name; a None is written as missing."""
    write_rows(path, columns, [[missing if r[c] is None else r[c] for c in columns]
                               for r in records])


def _gen_data(run: Run) -> None:
    recorded = run.manifest.get("outputs", {})
    for rel in DATA_RELS:  # a data file gen-data did not write is the user's: never overwrite it
        if (run.out / rel).exists() and recorded.get(rel) != run.sha(rel):
            raise StageError(f"{rel} is not the file gen-data wrote; remove it to regenerate it, "
                             "or run the stages from `dershare validate` to use it")
    from .synth import generate_scenario
    scenario = generate_scenario(run.synth, run.asset)
    validate_scenario(scenario)
    write_scenario(scenario, run.out / DATA_SUBDIR)
    run.generated = scenario


def _validate(run: Run) -> None:
    result = run.loaded
    write_exclusions(run.out / EXCLUSIONS_FILE, result.exclusions)
    print(f"validate: {len(result.scenario.households)} households retained, "
          f"{len(result.exclusions)} excluded")


def _fit(run: Run) -> None:
    from .curves import fit_all
    threads = run.threads
    ctx = run.context
    print(f"fit: {len(ctx.scenario.households)} households x {run.n_samples + 1} capacity "
          f"samples x {ctx.day_indices.size} days on {threads} worker(s)")
    # what the readers would return: a curve's values derive from its knots and slopes
    run.curves, run.purchases = fit_all(ctx, run.n_samples, workers=threads)
    write_savings_curves(run.out / SAVINGS_FILE, run.curves)
    write_purchases_curves(run.out / PURCHASES_FILE, run.purchases)


def _sweep(run: Run) -> None:
    table = sweep_adoption(run.order, run.curves, run.t_grid, run.solver)
    header = list(TABLES[SWEEP_FILE].columns)
    write_rows(run.out / SWEEP_FILE, header, zip(*(getattr(table, name) for name in header)))
    run.sweep_table = table  # what read_sweep would return: repr round-trips every value
    if not run.equilibrium_at:
        return
    for t, rel in zip(run.equilibrium_at, _dump_rels("equilibrium", run.equilibrium_at)):
        # per-household allocations and surpluses at one adoption rate
        eq = run.solver.equilibrium_at(run.order.count_at_rate(t))
        write_rows(run.out / rel, ["household_id", "role", "y_star", "surplus"],
                   zip(eq.ids, np.where(eq.owner, "owner", "renter").tolist(),
                       eq.allocations.tolist(), eq.surpluses.tolist()))
    # the sweep's columns at each --equilibrium-at rate
    summary = sweep_adoption(run.order, run.curves, run.equilibrium_at, run.solver)
    header = _fields(DemandCurves, "owners", "adopted_quantity", "short_run_price",
                     "fraction_rented_out")
    write_rows(run.out / SUMMARY_FILE, header, zip(*(getattr(summary, name) for name in header)))


def _longrun(run: Run) -> None:
    _write_records(run.out / "longrun.csv", _fields(LongRunResult, "equilibrium"),
                   map(vars, run.long_run), math.nan)


def _subsidy(run: Run) -> None:
    _write_records(run.out / "subsidy.csv", _fields(SubsidyResult),
                   (vars(equivalent_subsidy(run.sweep_table, lr)) for lr in run.long_run))


def _localness(run: Run) -> None:
    from .localness import distance_matrix, min_cost_flow, region_index, regional_excess
    scenario = run.loaded.scenario
    try:
        index = region_index(run.solver.ids, scenario.households, scenario.regions)
    except DomainError as exc:  # the regions were checked when the scenario was loaded
        raise DomainError(f"{run.out / SAVINGS_FILE} against {LOADS_FILE}: {exc}") from None
    dmat = distance_matrix(scenario.regions)
    region_ids = tuple(r.id for r in scenario.regions)

    def flow_at(t: float):
        eq = run.solver.equilibrium_at(run.order.count_at_rate(t))
        s = regional_excess(eq, scenario.households, scenario.regions, index)
        return min_cost_flow(s, dmat, eq.volume, region_ids)

    _write_records(run.out / "localness.csv",
                   ["t", "volume", "objective", "fraction_local", "degenerate"],
                   ({"t": float(t), **vars(flow_at(float(t)))} for t in run.sweep_table.t))
    for t, rel in zip(run.flows_at, _dump_rels("flows", run.flows_at)):
        rf = flow_at(t)
        write_rows(run.out / rel, ["from_region", "to_region", "kw"],
                   [[region_ids[i], region_ids[j], rf.flow[i, j]]
                    for i in range(len(region_ids)) for j in range(len(region_ids))
                    if rf.flow[i, j] > 0])


def _stakeholders(run: Run) -> None:
    s, p = run.curves, run.purchases
    differ = sorted(set(s) ^ set(p))
    if differ:
        what = "a purchases curve but no savings curve" if differ[0] in p else "no purchases curve"
        raise DomainError(f"{run.out / PURCHASES_FILE} against {SAVINGS_FILE}: household "
                          f"{differ[0]!r}: {what}")
    if not (np.array_equal(s.offsets, p.offsets) and np.array_equal(s.knots, p.knots)):
        knots = (np.split(c.knots, c.offsets[1:-1]) for c in (s, p))  # each household's
        hid = next(hid for hid, a, b in zip(s.ids, *knots) if not np.array_equal(a, b))
        raise DomainError(f"{run.out / PURCHASES_FILE} against {SAVINGS_FILE}: household "
                          f"{hid!r}: knots differ from its savings curve's")
    _write_records(run.out / "stakeholders.csv", _fields(RegimePoint),
                   map(vars, regime_points(run.order, run.purchases, run.long_run)))


# ---------------------------------------------------------------- stage table

@dataclass(frozen=True)
class Stage:
    """One pipeline stage, declared once.

    settings names each SETTINGS entry it reads (those with a flag are
    its command's flags); inputs pairs each file it reads with the stage
    that writes it. The input hash covers the settings but _UNHASHED and
    any inputs' contents; body(run) writes exactly outputs(run).
    """

    name: str
    help: str
    settings: tuple[str, ...]
    inputs: tuple[tuple[str, str], ...]
    outputs: Callable[[Run], list[str]]
    body: Callable[[Run], None]


_DATA_INPUTS = tuple((rel, "gen-data") for rel in DATA_RELS)
_CURVES_INPUT = ((SAVINGS_FILE, "fit"),)
_SWEEP_INPUT = ((SWEEP_FILE, "sweep"),)

STAGES = (
    Stage("gen-data", "generate a synthetic scenario", ("seed", "synth", "asset"), (),
          lambda run: DATA_RELS, _gen_data),
    Stage("validate", "ingest and validate the data directory", ("asset",), _DATA_INPUTS,
          lambda run: [EXCLUSIONS_FILE], _validate),
    Stage("fit", "sample and fit savings and purchases curves",
          ("n_samples", "days", "threads", "asset", "require_terminal_soc"), _DATA_INPUTS,
          lambda run: [SAVINGS_FILE, PURCHASES_FILE], _fit),
    Stage("sweep", "clear the market along the adoption order", ("t_grid", "equilibrium_at"),
          _CURVES_INPUT,
          lambda run: [SWEEP_FILE] + ([*_dump_rels("equilibrium", run.equilibrium_at),
                                       SUMMARY_FILE]
                                      if run.equilibrium_at else []),
          _sweep),
    Stage("longrun", "short- and long-run adoption over purchase prices", ("p_grid",),
          _CURVES_INPUT, lambda run: ["longrun.csv"], _longrun),
    Stage("subsidy", "equivalent direct subsidy over purchase prices", ("p_grid",),
          _CURVES_INPUT + _SWEEP_INPUT, lambda run: ["subsidy.csv"], _subsidy),
    Stage("localness", "regional excesses and min-cost matching", ("flows_at",),
          _DATA_INPUTS + _CURVES_INPUT + _SWEEP_INPUT,
          lambda run: ["localness.csv"] + _dump_rels("flows", run.flows_at), _localness),
    Stage("stakeholders", "vendor gains against utility losses over purchase prices",
          ("p_grid",), _CURVES_INPUT + ((PURCHASES_FILE, "fit"),),
          lambda run: ["stakeholders.csv"], _stakeholders),
)
# a stage's settings its input hash leaves out: threads changes no result, synth holds the seed
_UNHASHED = ("threads", "seed")


def run_stage(run: Run, stage: Stage) -> None:
    """The stage protocol: require the stage's inputs, hash its settings with
    their contents, and report it cached if the manifest holds that hash
    and the checksums of its outputs as they are; else run its body, then
    record the outputs' checksums and the hash in the manifest."""
    started = time.time()
    for rel, producer in stage.inputs:
        if not (run.out / rel).exists():
            raise StageError(f"missing {rel}; run `dershare {producer}` first")
    params = {name: getattr(run, name) for name in stage.settings if name not in _UNHASHED}
    input_hash = _hash_obj({"params": params, "inputs": {Path(rel).name: run.sha(rel)
                                                         for rel, _ in stage.inputs}}
                           if stage.inputs else params)
    outputs = stage.outputs(run)
    manifest = run.manifest
    entry = manifest.get("stages", {}).get(stage.name)
    if entry and entry.get("input_hash") == input_hash and all(
            (run.out / rel).exists() and manifest.get("outputs", {}).get(rel) == run.sha(rel)
            for rel in outputs):
        print(f"{stage.name}: cached")
        return
    stage.body(run)
    for rel in outputs:
        run.shas[rel] = manifest.setdefault("outputs", {})[rel] = _file_sha(run.out / rel)
    manifest.setdefault("stages", {})[stage.name] = {
        "input_hash": input_hash,
        "completed_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "elapsed_s": round(time.time() - started, 3),
    }
    manifest["version"] = __version__
    with _atomic_open(run.out / MANIFEST_FILE) as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"{stage.name}: wrote {', '.join(outputs)} ({time.time() - started:.1f}s)")


# ---------------------------------------------------------------- entry

def _flagged(stages) -> tuple[str, ...]:
    """The settings the stages name that have a flag, each once, in stage order."""
    return tuple(dict.fromkeys(name for s in stages for name in s.settings
                               if SETTINGS[name].flag))


_COMMANDS = {**{s.name: (s.help, _flagged([s])) for s in STAGES},
             "all": ("run the full pipeline", _flagged(STAGES))}


def _build_parser(argv=None) -> argparse.ArgumentParser:
    """Every command's parser; given argv, only those it may name get flags: one parses them."""
    parser = argparse.ArgumentParser(prog="dershare", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, flagged) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if argv is not None and name not in argv:
            continue
        p.add_argument("--out", required=True, help="run directory for data and outputs")
        p.add_argument("--config", help="JSON config file")
        for setting in map(SETTINGS.get, flagged):
            p.add_argument(setting.flag, help=setting.help)
    return parser


def main(argv=None) -> int:
    args = _build_parser(sys.argv[1:] if argv is None else argv).parse_args(argv)
    try:
        # the writers make --out, so a command refused before its first stage leaves none
        run = Run(Path(args.out), args, _load_config(args.config))
        # a cached stage never reads its flags, so they are checked here; not through run,
        # whose p_grid would read the curves before run_stage can say they are missing
        for name in _COMMANDS[args.command][1]:
            _resolve(name, args, run.cfg)
        for stage in STAGES:
            if args.command in ("all", stage.name):
                run_stage(run, stage)
    except (StageError, DomainError, ValidationError, ParseError, LPError, FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # --out or --config where the file system refuses it
        if exc.filename is None:
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0


def entry() -> int:
    """main() as a `dershare` process: `python -m dershare` and the console
    script both start here.

    When the process ends, the interpreter's last garbage collection walks
    every object the run made, tens of milliseconds for nothing: the
    memory goes back with the process. gc.freeze, run at exit, moves them
    all out of the collector's reach. Every output file is closed by then,
    so no byte changes. Only this entry registers it: importing the
    package or calling main() in a process of one's own leaves that
    process's exit alone.
    """
    import atexit
    import gc
    atexit.register(gc.freeze)
    return main()


if __name__ == "__main__":
    raise SystemExit(entry())
