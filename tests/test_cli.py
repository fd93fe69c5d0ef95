import argparse
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import child_env
from dershare import __version__
from dershare import cli
from dershare.adoption import LongRunSolver, build_order, default_t_grid
from dershare.cli import main
from dershare.synth import SynthConfig
from oracles import random_curve_population, random_tied_curve_population

TINY = {
    "synth": {"n_households": 10, "n_days": 3, "n_regions": 2, "rng_seed": 13},
    "fit": {"n_samples": 5},
    "sweep": {"t_grid": "0.1:0.9:9"},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return path


STAGES = ("gen-data", "validate", "fit", "sweep", "longrun", "subsidy", "localness",
          "stakeholders")

# every option of every subcommand; a change to the CLI surface must change this
CLI_SURFACE = {
    "gen-data": ["--config", "--out", "--seed"],
    "validate": ["--config", "--out"],
    "fit": ["--config", "--days", "--out", "--samples", "--threads"],
    "sweep": ["--config", "--equilibrium-at", "--out", "--t-grid"],
    "longrun": ["--config", "--out", "--p-grid", "--price"],
    "subsidy": ["--config", "--out", "--p-grid", "--price"],
    "localness": ["--config", "--flows-at", "--out"],
    "stakeholders": ["--config", "--out", "--p-grid", "--price"],
    "all": ["--config", "--days", "--equilibrium-at", "--flows-at", "--out", "--p-grid",
            "--samples", "--seed", "--t-grid", "--threads"],
}


def _run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A TINY run on which every stage has completed."""
    root = tmp_path_factory.mktemp("finished")
    config = root / "config.json"
    config.write_text(json.dumps(TINY))
    assert _run("all", "--config", config, "--out", root / "run") == 0
    return root / "run"


def test_full_pipeline(tmp_path, config_path):
    out = tmp_path / "run"
    assert _run("all", "--config", config_path, "--out", out, "--flows-at", "0.5") == 0
    for name in ("data/loads.csv", "exclusions.csv", "savings_curves.csv",
                 "purchases_curves.csv", "sweep.csv", "longrun.csv", "subsidy.csv",
                 "localness.csv", "flows_t0.5.csv", "stakeholders.csv", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["stages"]) == {"gen-data", "validate", "fit", "sweep", "longrun",
                                       "subsidy", "localness", "stakeholders"}
    assert "sweep.csv" in manifest["outputs"]


def test_module_entry_point_runs_from_any_directory(tmp_path):
    """A `python -m dershare` child started outside the checkout imports the
    same package as the tests (the environment that criterion 9 relies on)."""
    proc = subprocess.run([sys.executable, "-m", "dershare", "--version"],
                          capture_output=True, text=True, cwd=tmp_path, env=child_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.strip() == __version__


_IMPORT_PROBE = """
import sys
def loaded(*packages):
    return [m for m in sys.modules if any(m == p or m.startswith(p + ".") for p in packages)]
import dershare, dershare.cli
assert not loaded("scipy", "numpy.ma", "concurrent.futures.process"), loaded("scipy", "numpy.ma")
from dershare.lp import LPModel
LPModel([1.0], ((1, 1), ([0, 1], [0], [1.0])))
# the binding and the submodules it registers itself, and no other scipy module
assert "scipy.optimize._highspy._core" in sys.modules, loaded("scipy")
assert loaded("scipy") == loaded("scipy.optimize._highspy._core"), loaded("scipy")
core = sys.modules["scipy.optimize._highspy._core"]
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
from dershare.lp import highs
assert _core is core and highs is core
res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
assert res.status == 0 and res.fun == 1.0, res
"""


def test_import_loads_highs_without_scipy_optimize(tmp_path):
    """Importing the package loads no scipy module at all; the first LPModel
    loads scipy's HiGHS binding on its own, and a later scipy.optimize
    import in the same process reuses it."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                          text=True, cwd=tmp_path, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr + proc.stdout


_MODULES_PROBE = """
import json, sys
from dershare.cli import main
code = main(sys.argv[1:])
watched = ("scipy", "numpy.ma", "scipy.optimize._highspy._core", "dershare.dispatch",
           "dershare.localness")
print(json.dumps({"code": code, "loaded": [m for m in watched if m in sys.modules]}))
"""


def _modules_loaded_by(cwd, *argv):
    """Which of scipy's package, numpy.ma, the HiGHS binding, the dispatch LP
    and the transport solver a dershare child has loaded by the time its
    command returns, with its output."""
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, *map(str, argv)],
                          capture_output=True, text=True, cwd=cwd, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, proc.stderr + proc.stdout
    return sorted(result["loaded"]), proc.stdout


def test_runs_load_only_the_modules_their_stages_use(tmp_path, config_path):
    out = tmp_path / "run"
    loaded, _ = _modules_loaded_by(tmp_path, "all", "--config", config_path, "--out", out,
                                   "--equilibrium-at", "0.5", "--flows-at", "0.5")
    assert loaded == ["dershare.dispatch", "dershare.localness", "scipy.optimize._highspy._core"]
    # a new p-grid: five stages are cache hits, and no LP module is loaded
    loaded, stdout = _modules_loaded_by(tmp_path, "all", "--config", config_path, "--out", out,
                                        "--equilibrium-at", "0.5", "--flows-at", "0.5",
                                        "--p-grid", "0.5:2:4")
    assert loaded == []
    assert [line.split(":")[0] for line in stdout.splitlines() if ": wrote" in line] == [
        "longrun", "subsidy", "stakeholders"]


def test_quantile_is_numpys_linear_quantile():
    rng = np.random.default_rng(77)
    for n in range(1, 61):
        for x in (rng.uniform(0, 50, n), np.round(rng.uniform(0, 5, n))):  # ties when rounded
            for q in (0.0, 0.05, 0.25, 0.5, 0.95, 1.0):
                assert cli._quantile(np.sort(x), q) == np.quantile(x, q), (n, q)


@pytest.mark.parametrize("make", [random_curve_population, random_tied_curve_population])
def test_auto_p_grid_matches_numpy_quantile(make):
    for seed in range(6):
        order = build_order(make(np.random.default_rng(6000 + seed), 1 + 11 * seed))
        lo = max(float(np.quantile(order.normalized, 0.05)), 1e-9)
        hi = max(float(np.quantile(order.normalized, 0.95)), lo)
        assert cli._auto_p_grid(order).tolist() == np.linspace(lo, hi, 21).tolist()


def test_missing_upstream_is_actionable(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert _run("sweep", "--config", config_path, "--out", out) == 2
    err = capsys.readouterr().err
    assert "run `dershare fit` first" in err
    assert _run("fit", "--config", config_path, "--out", out) == 2
    err = capsys.readouterr().err
    assert "run `dershare gen-data` first" in err


def test_stage_caching(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    _run("gen-data", "--config", config_path, "--out", out)
    _run("fit", "--config", config_path, "--out", out)
    capsys.readouterr()
    _run("fit", "--config", config_path, "--out", out)
    assert "fit: cached" in capsys.readouterr().out
    # changing a parameter invalidates the cache
    _run("fit", "--config", config_path, "--out", out, "--samples", "6")
    assert "cached" not in capsys.readouterr().out


def test_seed_override_changes_data(tmp_path, config_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _run("gen-data", "--config", config_path, "--out", a)
    _run("gen-data", "--config", config_path, "--out", b, "--seed", "99")
    assert (a / "data/loads.csv").read_bytes() != (b / "data/loads.csv").read_bytes()


def test_thread_count_does_not_change_outputs(tmp_path, config_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run("all", "--config", config_path, "--out", a, "--threads", "1") == 0
    assert _run("all", "--config", config_path, "--out", b, "--threads", "2") == 0
    csvs = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
    assert csvs
    for rel in csvs:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    assert ma["outputs"] == mb["outputs"]


def test_days_subsample_runs(tmp_path, config_path):
    out = tmp_path / "run"
    _run("gen-data", "--config", config_path, "--out", out)
    assert _run("fit", "--config", config_path, "--out", out, "--days", "2") == 0
    assert (out / "savings_curves.csv").exists()


def test_equilibrium_dump(tmp_path, config_path):
    out = tmp_path / "run"
    _run("gen-data", "--config", config_path, "--out", out)
    _run("fit", "--config", config_path, "--out", out)
    assert _run("sweep", "--config", config_path, "--out", out,
                "--equilibrium-at", "0.4") == 0
    eq = (out / "equilibrium_t0.4.csv").read_text().splitlines()
    assert eq[0] == "household_id,role,y_star,surplus"
    assert len(eq) == 1 + TINY["synth"]["n_households"]
    roles = {line.split(",")[1] for line in eq[1:]}
    assert roles == {"owner", "renter"}
    summary = (out / "equilibrium_summary.csv").read_text().splitlines()
    assert summary[0].startswith("t,clearing_price,volume")
    assert len(summary) == 2


def test_validate_reports_exclusions(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    _run("gen-data", "--config", config_path, "--out", out)
    assert _run("validate", "--config", config_path, "--out", out) == 0
    assert "10 households retained" in capsys.readouterr().out
    assert (out / "exclusions.csv").read_text().startswith("household_id,reason")


def _assert_input_error(capsys, code, *expected):
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and "Traceback" not in err
    for text in expected:
        assert text in err


def test_malformed_config_exits_2_naming_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "synth": {"n_households": 10,}\n}\n')
    code = _run("gen-data", "--config", bad, "--out", tmp_path / "run")
    _assert_input_error(capsys, code, f"{bad}:2: invalid JSON")
    missing = tmp_path / "missing.json"
    code = _run("gen-data", "--config", missing, "--out", tmp_path / "run")
    _assert_input_error(capsys, code, f"{missing}:0: file not found")
    bad.write_text("[1]\n")
    code = _run("gen-data", "--config", bad, "--out", tmp_path / "run")
    _assert_input_error(capsys, code, "config: field 'root': expected a JSON object, got [1]")


def test_short_loads_row_exits_2_naming_file_and_line(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    _run("gen-data", "--config", config_path, "--out", out)
    loads = out / "data" / "loads.csv"
    lines = loads.read_text().splitlines(keepends=True)
    lines[3] = ",".join(lines[3].split(",")[:3]) + "\n"
    loads.write_text("".join(lines))
    capsys.readouterr()
    code = _run("validate", "--config", config_path, "--out", out)
    _assert_input_error(capsys, code, f"{loads}:4: expected 27 fields, got 3")


def test_lp_failure_exits_2_naming_the_household(tmp_path, config_path, capsys, monkeypatch):
    from dershare.lp import LPError, LPModel

    def failing_solve(self, *bounds):
        raise LPError("LP not solved to optimality: Infeasible")
    out = tmp_path / "run"
    _run("gen-data", "--config", config_path, "--out", out)
    monkeypatch.setattr(LPModel, "solve", failing_solve)
    capsys.readouterr()
    code = _run("fit", "--config", config_path, "--out", out)
    _assert_input_error(capsys, code, "household H", "Infeasible")


def test_fit_failure_exits_2_naming_the_household(tmp_path, config_path, capsys, monkeypatch):
    import dershare.curves
    # a projection that flattens every slope moves the samples far beyond the
    # repair tolerance, so the real fit check rejects the first household
    monkeypatch.setattr(dershare.curves, "pava_nonincreasing",
                        lambda values, weights=None: np.zeros_like(values))
    out = tmp_path / "run"
    _run("gen-data", "--config", config_path, "--out", out)
    capsys.readouterr()
    code = _run("fit", "--config", config_path, "--out", out)
    _assert_input_error(capsys, code, "household H", "concavity repair moved a sample")


def test_transport_failure_exits_2(tmp_path, capsys, monkeypatch):
    from dershare.lp import LPError, LPModel

    def failing_solve(self, *bounds):
        raise LPError("LP not solved to optimality: Infeasible")
    # with TINY's two regions every transport problem is 1x1 and needs no LP;
    # four regions give 2x2 problems along the sweep
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY, "synth": {**TINY["synth"], "n_regions": 4}}))
    out = tmp_path / "run"
    assert _run("all", "--config", config, "--out", out) == 0
    monkeypatch.setattr(LPModel, "solve", failing_solve)
    capsys.readouterr()
    code = _run("localness", "--config", config, "--out", out, "--flows-at", "0.5")
    _assert_input_error(capsys, code, "Infeasible")


@pytest.mark.parametrize("argv, env, config, expected", [
    (["sweep", "--t-grid", "0.1:0.9"], {}, {},
     "command line: field '--t-grid': expected 'a:b:n', got '0.1:0.9'"),
    (["longrun", "--p-grid", "1:2:x"], {}, {}, "command line: field '--p-grid'"),
    (["sweep", "--equilibrium-at", "abc"], {}, {}, "command line: field '--equilibrium-at'"),
    (["localness", "--flows-at", "abc"], {}, {}, "command line: field '--flows-at'"),
    # --samples 6 misses the cache, so the fit body reads the variable
    (["fit", "--samples", "6"], {"DERSHARE_THREADS": "abc"}, {},
     "environment: field 'DERSHARE_THREADS'"),
    (["gen-data"], {}, {"asset": {"bogus": 1}},
     "config: field 'asset.bogus': unknown config key"),
    (["sweep"], {}, {"sweep": {"t_grid": "0.1:0.9"}}, "config: field 'sweep.t_grid'"),
    (["subsidy"], {}, {"prices": {"p_grid": "1,x"}}, "config: field 'prices.p_grid'"),
    (["fit"], {}, {"fit": {"n_samples": "many"}}, "config: field 'fit.n_samples'"),
    (["validate"], {}, {"asset": {"alpha": "x"}},
     "config: field 'asset.alpha': expected a number, got 'x'"),
    (["sweep"], {}, {"sweep": 5}, "config: field 'sweep': expected a JSON object, got 5"),
    (["longrun"], {}, {"prices": "auto"}, "config: field 'prices': expected a JSON object"),
    (["fit"], {}, {"fit": [5]}, "config: field 'fit': expected a JSON object"),
    (["gen-data"], {}, {"synth": 3}, "config: field 'synth': expected a JSON object"),
    (["validate"], {}, {"asset": None}, "config: field 'asset': expected a JSON object"),
    (["fit"], {}, {"require_terminal_soc": "false"},
     "config: field 'require_terminal_soc': expected true or false, got 'false'"),
    (["gen-data"], {}, {"synth": {"n_households": "x"}},
     "config: field 'synth.n_households': expected an integer, got 'x'"),
    (["fit"], {}, {"fit": {"n_samples": 2.5}},
     "config: field 'fit.n_samples': expected a whole number, got 2.5"),
    (["validate"], {}, {"asset": {"alpha": float("nan")}},
     "config: field 'asset.alpha': expected a number, got nan"),
    (["fit"], {}, {"asset": {"u_charge_max": float("inf")}},
     "config: field 'asset.u_charge_max': expected a number, got inf"),
    (["fit"], {}, {"fit": {"samples": 100}}, "config: field 'fit.samples': unknown config key"),
    (["sweep"], {}, {"sweep": {"t-grid": "0.1:0.9:9"}},
     "config: field 'sweep.t-grid': unknown config key"),
    (["longrun"], {}, {"prices": {"pgrid": "auto"}},
     "config: field 'prices.pgrid': unknown config key"),
    # a misspelled key is refused by every stage, not only the one that reads it
    (["localness"], {}, {"fit": {"samples": 100}},
     "config: field 'fit.samples': unknown config key"),
    (["gen-data"], {}, {"fitt": {"n_samples": 5}}, "config: field 'fitt': unknown config key"),
    # a flag of 0 is a value, not a missing flag
    (["fit", "--samples", "0"], {}, {},
     "command line: field '--samples': expected a whole number >= 2, got 0"),
    (["fit"], {}, {"fit": {"n_samples": 1}},
     "config: field 'fit.n_samples': expected a whole number >= 2, got 1"),
    (["fit", "--days", "-3"], {}, {},
     "command line: field '--days': expected a whole number >= 1, got -3"),
    (["fit", "--days", "0"], {}, {},
     "command line: field '--days': expected a whole number >= 1, got 0"),
    (["longrun", "--price", "nan"], {}, {},
     "command line: field '--price': expected finite prices > 0, got [nan]"),
    (["subsidy", "--p-grid", "inf,1"], {}, {},
     "command line: field '--p-grid': expected finite prices > 0, got 'inf,1'"),
    (["stakeholders"], {}, {"prices": {"p_grid": [float("nan"), 1.0]}},
     "config: field 'prices.p_grid': expected finite prices > 0, got [nan, 1.0]"),
    # --threads 0 does not fall back to the variable
    (["fit", "--samples", "6", "--threads", "0"], {"DERSHARE_THREADS": "2"}, {},
     "command line: field '--threads': expected a whole number >= 1, got 0"),
    (["fit", "--samples", "6", "--threads", "-4"], {}, {},
     "command line: field '--threads': expected a whole number >= 1, got -4"),
    (["fit", "--samples", "6"], {"DERSHARE_THREADS": "0"}, {},
     "environment: field 'DERSHARE_THREADS': expected a whole number >= 1, got 0"),
    # every config value is checked at load, by every stage
    (["gen-data"], {}, {"sweep": {"t_grid": "0.1:0.9"}},
     "config: field 'sweep.t_grid': expected 'a:b:n', got '0.1:0.9'"),
    (["gen-data"], {}, {"synth": {"voltage": 1}},
     "config: field 'synth.voltage': unknown config key"),
    (["validate"], {}, {"asset": {"alpha": 10 ** 400}},
     "config: field 'asset': int too large to convert to float"),
    (["gen-data", "--seed", "-1"], {}, {},
     "command line: field '--seed': expected a whole number >= 0, got -1"),
    # a flag overrides a valid config value
    (["fit", "--samples", "1"], {}, {"fit": {"n_samples": 5}},
     "command line: field '--samples': expected a whole number >= 2, got 1"),
], ids=["t-grid", "p-grid", "equilibrium-at", "flows-at", "threads-env", "asset-key",
        "config-t-grid", "config-p-grid", "config-n-samples", "asset-value-type",
        "sweep-section", "prices-section", "fit-section", "synth-section", "asset-section",
        "terminal-soc-string", "synth-value-type", "n-samples-fraction", "asset-nan",
        "asset-infinity", "fit-key", "sweep-key", "prices-key", "key-read-elsewhere",
        "top-level-key", "samples-zero", "n-samples-one", "days-negative", "days-zero",
        "price-nan", "p-grid-inf", "config-p-grid-nan", "threads-zero", "threads-negative",
        "threads-env-zero", "t-grid-refused-by-gen-data", "synth-key", "asset-huge-int",
        "seed-negative", "flag-over-config"])
def test_bad_cli_config_and_env_input_exits_2(finished_run, tmp_path, capsys, monkeypatch,
                                             argv, env, config, expected):
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, **config}))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    capsys.readouterr()
    code = _run(*argv, "--config", path, "--out", out)
    _assert_input_error(capsys, code, expected)


def test_curve_file_without_households_exits_2(finished_run, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    curves = out / "savings_curves.csv"
    curves.write_text(curves.read_text().splitlines(keepends=True)[0])
    capsys.readouterr()
    code = _run("longrun", "--config", path, "--out", out)
    _assert_input_error(capsys, code, f"{curves}:1: no households")


def test_helpers_of_the_traced_benchmark_match_the_run(finished_run):
    """The cli helpers that perfbench/tracing.py calls with a plain {} config
    give what a Run gives for the same flags and config."""
    config = cli._load_config(finished_run.parent / "config.json")

    def run(**flags):
        return cli.Run(finished_run, argparse.Namespace(**flags), config)
    order = run().order
    assert cli._p_grid_for(finished_run, {}, None, None, order).tolist() == run().p_grid.tolist()
    assert (cli._p_grid_for(finished_run, {}, "0.5:2:4", None, order).tolist()
            == run(p_grid="0.5:2:4").p_grid.tolist() == [0.5, 1.0, 1.5, 2.0])
    plain, ctx = cli._load_context(finished_run, {}, 2), run(days=2).context
    assert plain.day_indices.tolist() == ctx.day_indices.tolist() == [0, 2]
    assert plain.scenario.household_map().keys() == ctx.scenario.household_map().keys()
    assert plain.require_terminal_soc is ctx.require_terminal_soc is False
    assert (cli._parse_grid("0.1:0.9:9", default_t_grid).tolist() == run().t_grid.tolist()
            == np.linspace(0.1, 0.9, 9).tolist())
    assert SynthConfig.from_dict(TINY["synth"]) == run().synth


def test_edited_sweep_csv_exits_2_naming_file_and_line(finished_run, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    sweep = out / "sweep.csv"
    original = sweep.read_text()
    sweep.write_text(original.replace("owners", "ownerz", 1))
    capsys.readouterr()
    code = _run("subsidy", "--config", path, "--out", out)
    _assert_input_error(capsys, code, f"{sweep}:1: expected header [", "'ownerz'")
    lines = original.splitlines(keepends=True)
    lines[2] = lines[2].rsplit(",", 1)[0] + "\n"
    sweep.write_text("".join(lines))
    code = _run("subsidy", "--config", path, "--out", out)
    _assert_input_error(capsys, code, f"{sweep}:3: expected 13 fields, got 12")


def test_edited_curve_value_exits_2_naming_file_and_line(finished_run, tmp_path, capsys):
    # f is derived from the knots and slopes, so an edited f is refused, not ignored
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    curves = out / "savings_curves.csv"
    lines = curves.read_text().splitlines(keepends=True)
    cells = lines[4].split(",")
    cells[3] = "999999.0"
    lines[4] = ",".join(cells)
    curves.write_text("".join(lines))
    capsys.readouterr()
    code = _run("sweep", "--config", path, "--out", out, "--t-grid", "0.1:0.9:5")
    _assert_input_error(capsys, code, f"{curves}:5: household {cells[0]!r}: f 999999.0 at knot 3 "
                        "differs from ")


def test_edited_curve_csv_exits_2_naming_file_and_line(finished_run, tmp_path, capsys):
    # a slope edited to -5.0 breaks concavity; the reader names the household's first line
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    curves = out / "savings_curves.csv"
    lines = curves.read_text().splitlines(keepends=True)
    cells = lines[3].split(",")
    cells[-1] = "-5.0\n"
    lines[3] = ",".join(cells)
    curves.write_text("".join(lines))
    capsys.readouterr()
    code = _run("sweep", "--config", path, "--out", out)
    _assert_input_error(capsys, code, f"{curves}:2: household {cells[0]!r}: slopes must be "
                        "nonincreasing (concavity)")


def test_all_matches_the_stages_one_by_one(tmp_path, config_path, capsys, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(cli, "load_scenario", counted("load_scenario", cli.load_scenario))
    monkeypatch.setattr(cli, "read_savings_curves",
                        counted("read_savings_curves", cli.read_savings_curves))
    monkeypatch.setattr(LongRunSolver, "__init__",
                        counted("LongRunSolver", LongRunSolver.__init__))
    flags = {"sweep": ["--equilibrium-at", "0.4"], "localness": ["--flows-at", "0.5"]}
    a, b = tmp_path / "a", tmp_path / "b"

    assert _run("all", "--config", config_path, "--out", a,
                "--flows-at", "0.5", "--equilibrium-at", "0.4") == 0
    assert calls == {"load_scenario": 1, "read_savings_curves": 1, "LongRunSolver": 1}

    for stage in STAGES:
        assert _run(stage, "--config", config_path, "--out", b, *flags.get(stage, [])) == 0
    csvs = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
    assert len(csvs) == 16
    assert csvs == sorted(p.relative_to(b) for p in b.rglob("*.csv"))
    for rel in csvs:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    capsys.readouterr()
    for stage in STAGES:
        assert _run(stage, "--config", config_path, "--out", a, *flags.get(stage, [])) == 0
        assert capsys.readouterr().out == f"{stage}: cached\n"

    calls.clear()
    assert _run("all", "--config", config_path, "--out", a,
                "--flows-at", "0.5", "--equilibrium-at", "0.4") == 0
    assert calls["load_scenario"] == 0 and calls["LongRunSolver"] == 0
    assert capsys.readouterr().out == "".join(f"{stage}: cached\n" for stage in STAGES)


def test_cli_surface_is_pinned():
    parser = cli._build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]

    def options(p):
        return sorted(o for a in p._actions for o in a.option_strings
                      if o not in ("-h", "--help"))
    assert options(parser) == ["--version"]
    assert {name: options(p) for name, p in sub.choices.items()} == CLI_SURFACE
