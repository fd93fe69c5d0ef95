import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_same_load, child_env
from dershare import __version__
from dershare import cli, io
from dershare.adoption import LongRunSolver, build_order, default_t_grid, long_run_adoption
from dershare.cli import main
from dershare.io import load_scenario, read_purchases_curves, read_savings_curves, read_sweep
from dershare.model import HOURS, AssetSpec, ValidationError
from dershare.synth import SynthConfig
from oracles import planner_misfits, random_curve_population, random_tied_curve_population
from runs import TINY, differences, stdout_differences


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
    "longrun": ["--config", "--out", "--p-grid"],
    "subsidy": ["--config", "--out", "--p-grid"],
    "localness": ["--config", "--flows-at", "--out"],
    "stakeholders": ["--config", "--out", "--p-grid"],
    "all": ["--config", "--days", "--equilibrium-at", "--flows-at", "--out", "--p-grid",
            "--samples", "--seed", "--t-grid", "--threads"],
}

# the header of every CSV a stage writes besides the scenario's (whose headers io.TABLES
# declares), dumps at one rate each; a header taken from a record's fields must not reorder one
RESULT_HEADERS = {
    "exclusions.csv": "household_id,reason",
    "savings_curves.csv": "household_id,knot_index,y,f,slope",
    "purchases_curves.csv": "household_id,knot_index,y,purchases",
    "sweep.csv": "t,owners,adopted_quantity,short_run_price,clearing_price,volume,"
                 "fraction_rented_out,owner_participation,non_owner_participation,"
                 "total_participation,owner_surplus,renter_surplus,total_surplus",
    "equilibrium_t0.4.csv": "household_id,role,y_star,surplus",
    "equilibrium_summary.csv": "t,clearing_price,volume,owner_participation,"
                               "non_owner_participation,total_participation,owner_surplus,"
                               "renter_surplus,total_surplus",
    "longrun.csv": "price,k_short,t_short,d_short,k_long,t_long,d_long,delta_q,r_at_long,"
                   "r_before_long,saturated,contraction,no_adoption",
    "subsidy.csv": "price,delta_q,subsidy,no_increase",
    "localness.csv": "t,volume,objective,fraction_local,degenerate",
    "flows_t0.5.csv": "from_region,to_region,kw",
    "stakeholders.csv": "price,delta_q,vendor_gain,utility_loss,threshold,"
                        "emerges_at_unit_ratio",
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


def _stage_lines(stdout: str) -> list[str]:
    """The stage lines of a run, without their elapsed times."""
    return [re.sub(r" \(\d+\.\ds\)$", "", line) for line in stdout.splitlines()]


def test_module_entry_point_matches_main(tmp_path, config_path, capsys):
    """A `python -m dershare all` process, which freezes the collector at
    exit, writes the same bytes and stage lines as main() in this process."""
    flags = ["--config", config_path, "--flows-at", "0.5", "--equilibrium-at", "0.4"]
    child, own = tmp_path / "child", tmp_path / "own"
    proc = subprocess.run([sys.executable, "-m", "dershare", "all", "--out", str(child),
                           *map(str, flags)], capture_output=True, text=True, cwd=tmp_path,
                          env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    capsys.readouterr()
    assert _run("all", "--out", own, *flags) == 0
    assert _stage_lines(proc.stdout) == _stage_lines(capsys.readouterr().out)
    assert [line.split(":")[0] for line in proc.stdout.splitlines() if ": wrote" in line] == [
        *STAGES]
    assert len(list(own.rglob("*.csv"))) == 16
    assert differences(child, own) == []


_ATEXIT_PROBE = """
import atexit, gc, json, runpy, sys
registered = []
_register = atexit.register
def register(func, *args, **kwargs):
    registered.append(func)
    return _register(func, *args, **kwargs)
atexit.register = register
import dershare, dershare.cli
code = dershare.cli.main(sys.argv[1:])
ours = [repr(f) for f in registered
        if f is gc.freeze or (getattr(f, "__module__", None) or "").startswith("dershare")]
# the process entry itself registers the freeze once
sys.argv = ["dershare", "--version"]
try:
    runpy.run_module("dershare", run_name="__main__")
except SystemExit as exc:
    exit_code = exc.code
print(json.dumps({"code": code, "in_process": ours, "exit_code": exit_code,
                  "entry": sum(f is gc.freeze for f in registered)}))
"""


def test_main_in_process_registers_no_exit_handler(tmp_path, config_path):
    proc = subprocess.run([sys.executable, "-c", _ATEXIT_PROBE, "all", "--config",
                           str(config_path), "--out", str(tmp_path / "run")],
                          capture_output=True, text=True, cwd=tmp_path, env=child_env(),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    lines = proc.stdout.splitlines()
    assert lines[-2] == __version__
    assert json.loads(lines[-1]) == {"code": 0, "in_process": [], "exit_code": 0, "entry": 1}


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
assert _core is core
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


def test_every_export_resolves_to_its_module():
    import importlib
    import dershare
    exported = [name for names in dershare._EXPORTS.values() for name in names]
    assert dershare.__all__ == ["__version__", *exported]
    for module, names in dershare._EXPORTS.items():
        for name in names:
            # called directly: an earlier access may have cached the name already
            value = dershare.__getattr__(name)
            assert value is getattr(importlib.import_module(f"dershare.{module}"), name), name
    assert set(dershare.__all__) <= set(dir(dershare))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dershare.__getattr__("no_such_name")


_MODULES_PROBE = """
import json, sys
from dershare.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --version
    code = exc.code
watched = ("scipy", "numpy.ma", "scipy.optimize._highspy._core", "dershare.curves",
           "dershare.dispatch", "dershare.localness", "dershare.lp", "dershare.synth", "logging",
           "_hashlib", "numpy.random", "numpy.random.mtrand", "numpy.random._mt19937",
           "numpy.random._philox", "numpy.random._sfc64", "numpy.random._pickle")
print(json.dumps({"code": code, "loaded": [m for m in watched if m in sys.modules],
                  "random": [m for m in sys.modules if m.startswith("numpy.random")]}))
"""


def _modules_loaded_by(cwd, *argv):
    """Which watched modules a dershare child has loaded by the time its
    command returns (scipy's package, numpy.ma, the HiGHS binding, the
    fitter, the dispatch LP, the transport solver, the LP module, the
    generator, logging, hashlib's OpenSSL binding, and numpy.random's
    package and the extensions a seeded generator never calls); every
    numpy.random module it has loaded; and its output."""
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, *map(str, argv)],
                          capture_output=True, text=True, cwd=cwd, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, proc.stderr + proc.stdout
    return sorted(result["loaded"]), sorted(result["random"]), proc.stdout


def test_runs_load_only_the_modules_their_stages_use(tmp_path, config_path):
    out = tmp_path / "run"
    loaded, random, _ = _modules_loaded_by(tmp_path, "all", "--config", config_path,
                                           "--out", out, "--equilibrium-at", "0.5",
                                           "--flows-at", "0.5")
    # the generator imports Generator and PCG64 alone, with OpenSSL's _hashlib
    # hidden, and never runs numpy.random's __init__
    assert loaded == ["dershare.curves", "dershare.dispatch", "dershare.localness",
                      "dershare.lp", "dershare.synth", "logging", "scipy.optimize._highspy._core"]
    assert random == ["numpy.random._bounded_integers", "numpy.random._common",
                      "numpy.random._generator", "numpy.random._pcg64",
                      "numpy.random.bit_generator"]
    # a new p-grid: five stages are cache hits, and neither the generator, the
    # fitter, logging, any LP module, any numpy.random module nor OpenSSL (the
    # manifest hashes with CPython's built-in SHA-256) is loaded
    loaded, random, stdout = _modules_loaded_by(tmp_path, "all", "--config", config_path,
                                                "--out", out, "--equilibrium-at", "0.5",
                                                "--flows-at", "0.5", "--p-grid", "0.5:2:4")
    assert loaded == [] and random == []
    assert [line.split(":")[0] for line in stdout.splitlines() if ": wrote" in line] == [
        "longrun", "subsidy", "stakeholders"]
    loaded, random, stdout = _modules_loaded_by(tmp_path, "--version")
    assert loaded == [] and random == [] and stdout.splitlines()[0] == __version__


def test_all_solves_the_long_run_once_per_price(tmp_path, config_path, monkeypatch):
    """longrun, subsidy and stakeholders share one long-run pass over the p-grid."""
    import dershare.stakeholders
    prices = Counter()

    def counted(order, curves, p, solver=None):
        prices[p] += 1
        return long_run_adoption(order, curves, p, solver)
    monkeypatch.setattr(cli, "long_run_adoption", counted)
    monkeypatch.setattr(dershare.stakeholders, "long_run_adoption", counted)
    assert _run("all", "--config", config_path, "--out", tmp_path / "run") == 0
    assert len(prices) == 21 and set(prices.values()) == {1}


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


# per stage, another value of one setting it names (threads aside), by flag or config key
OTHER_SETTINGS = {
    "gen-data": (["--seed", "14"], {}),
    "validate": ([], {"asset": {"eta_i": 0.9}}),
    "fit": (["--days", "2"], {}),
    "sweep": (["--t-grid", "0.2:0.8:4"], {}),
    "longrun": (["--p-grid", "0.5:2:4"], {}),
    "subsidy": (["--p-grid", "0.5:2:4"], {}),
    "localness": (["--flows-at", "0.5"], {}),
    "stakeholders": (["--p-grid", "0.5:2:4"], {}),
}


def test_each_setting_a_stage_hashes_reruns_it_and_threads_do_not(finished_run, tmp_path,
                                                                   config_path, capsys):
    """After an `all`, each stage rerun with another value of a setting it
    names runs and records a new input hash; fit rerun with only --threads
    changed is cached."""
    assert list(OTHER_SETTINGS) == [s.name for s in cli.STAGES]
    before = json.loads((finished_run / "manifest.json").read_text())["stages"]
    for stage, (flags, config) in OTHER_SETTINGS.items():
        out = tmp_path / stage
        shutil.copytree(finished_run, out)
        path = tmp_path / f"{stage}.json"
        path.write_text(json.dumps({**TINY, **config}))
        capsys.readouterr()
        assert _run(stage, "--config", path, "--out", out, *flags) == 0
        assert f"{stage}: wrote " in capsys.readouterr().out
        after = json.loads((out / "manifest.json").read_text())["stages"]
        assert after[stage]["input_hash"] != before[stage]["input_hash"], stage
    out = tmp_path / "threads"
    shutil.copytree(finished_run, out)
    assert _run("fit", "--config", config_path, "--out", out, "--threads", "2") == 0
    assert capsys.readouterr().out == "fit: cached\n"


def test_whole_float_sample_count_fits_and_hashes_as_its_int(tmp_path, config_path, capsys):
    path, out = tmp_path / "float.json", tmp_path / "run"
    path.write_text(json.dumps({**TINY, "fit": {"n_samples": 6.0}}))
    assert _run("gen-data", "--config", path, "--out", out) == 0
    assert _run("fit", "--config", path, "--out", out) == 0
    rows = Counter(line.split(",")[0] for line in
                   (out / "savings_curves.csv").read_text().splitlines()[1:])
    assert len(rows) == 10 and set(rows.values()) == {7}
    # the same input hash as n_samples 6: the fit is cached
    capsys.readouterr()
    assert _run("fit", "--config", config_path, "--out", out, "--samples", "6") == 0
    assert capsys.readouterr().out == "fit: cached\n"


def test_seed_override_changes_data(tmp_path, config_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _run("gen-data", "--config", config_path, "--out", a)
    _run("gen-data", "--config", config_path, "--out", b, "--seed", "99")
    assert (a / "data/loads.csv").read_bytes() != (b / "data/loads.csv").read_bytes()


def _files(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def test_gen_data_never_overwrites_data_it_did_not_write(finished_run, tmp_path, config_path,
                                                          capsys):
    """A data file whose bytes are not the ones gen-data recorded is the
    user's: one value doubled in a finished run's loads.csv, or data files in
    a directory with no manifest. gen-data and `all` exit 2 naming the first
    such file, and every byte stays as it was."""
    edited, supplied = tmp_path / "edited", tmp_path / "supplied"
    shutil.copytree(finished_run, edited)
    shutil.copytree(finished_run / cli.DATA_SUBDIR, supplied / cli.DATA_SUBDIR)
    loads = edited / cli.DATA_SUBDIR / "loads.csv"
    header, first, *rows = loads.read_text().splitlines(keepends=True)
    cells = first.split(",")
    cells[3] = repr(2 * float(cells[3]))
    loads.write_text("".join([header, ",".join(cells), *rows]))
    for out in (edited, supplied):
        before = _files(out)
        for command in ("gen-data", "all"):
            capsys.readouterr()
            assert _run(command, "--config", config_path, "--out", out) == 2
            assert capsys.readouterr().err == (
                "error: data/loads.csv is not the file gen-data wrote; remove it to regenerate "
                "it, or run the stages from `dershare validate` to use it\n")
            assert _files(out) == before


def test_gen_data_rewrites_its_own_data_with_a_new_seed(finished_run, tmp_path, config_path,
                                                        capsys):
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    original = _files(out / cli.DATA_SUBDIR)
    assert _run("gen-data", "--config", config_path, "--out", out, "--seed", "99") == 0
    assert _files(out / cli.DATA_SUBDIR)["loads.csv"] != original["loads.csv"]
    # the manifest now records the new seed's files, so the old seed writes over them again
    assert _run("gen-data", "--config", config_path, "--out", out) == 0
    assert _files(out / cli.DATA_SUBDIR) == original


def test_thread_count_does_not_change_outputs(tmp_path, config_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run("all", "--config", config_path, "--out", a, "--threads", "1") == 0
    assert _run("all", "--config", config_path, "--out", b, "--threads", "2") == 0
    assert list(a.rglob("*.csv"))
    assert differences(a, b) == []


def test_run_comparison_names_each_difference(finished_run, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(finished_run, copy)
    assert differences(finished_run, copy) == []
    manifest = json.loads((copy / "manifest.json").read_text())
    manifest["stages"]["fit"]["completed_at"] = "later"  # when a stage ran is not compared
    manifest["stages"]["sweep"]["input_hash"] = "0"
    manifest["outputs"]["subsidy.csv"] = "0"
    (copy / "manifest.json").write_text(json.dumps(manifest))
    (copy / "sweep.csv").write_bytes(b"t\r\n")
    (copy / "longrun.csv").unlink()
    (copy / "extra.csv").touch()
    found = [f"only in {copy}: extra.csv", f"only in {finished_run}: longrun.csv",
             "differs: sweep.csv", "manifest.json differs: outputs",
             "manifest.json differs: stages.sweep.input_hash"]
    assert differences(finished_run, copy) == found
    script = Path(__file__).with_name("runs.py")
    proc = subprocess.run([sys.executable, str(script), str(finished_run), str(copy)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.splitlines()) == (1, found)


def test_run_comparison_names_the_first_stdout_line_that_differs():
    once = "validate: wrote exclusions.csv (0.1s)\nfit: wrote savings_curves.csv (2.3s)\n"
    assert stdout_differences(once, once.replace("2.3s", "12.0s")) == []
    assert stdout_differences(once, once.replace("fit: wrote", "fit: made")) == [
        "stdout differs: fit: made savings_curves.csv (N.Ns)"]
    assert stdout_differences(once, once.split("fit")[0]) == ["stdout differs: <end>"]


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


def test_a_path_the_file_system_refuses_exits_2_naming_it(tmp_path, config_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    _assert_input_error(capsys, _run("all", "--out", afile, "--config", config_path),
                        f"error: {afile / cli.DATA_SUBDIR}: Not a directory\n")
    assert afile.read_text() == "kept\n"
    _assert_input_error(capsys, _run("all", "--out", tmp_path / "run", "--config", tmp_path),
                        f"error: {tmp_path}: Is a directory\n")
    assert not (tmp_path / "run").exists()


def test_an_os_error_that_names_no_path_is_not_caught(tmp_path, config_path, monkeypatch):
    def full(run, stage):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(cli, "run_stage", full)
    with pytest.raises(OSError, match="No space left on device"):
        _run("all", "--out", tmp_path / "run", "--config", config_path)


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


def _die(household_id):
    os._exit(1)


def test_a_fit_worker_that_dies_exits_2(tmp_path, config_path, capsys, monkeypatch):
    # forked workers inherit the patch, and pickle _die by its name in this module
    import dershare.curves
    out = tmp_path / "run"
    assert _run("gen-data", "--config", config_path, "--out", out) == 0
    monkeypatch.setattr(dershare.curves, "_fit_worker", _die)
    capsys.readouterr()
    code = _run("fit", "--config", config_path, "--out", out, "--threads", "2")
    assert (code, capsys.readouterr().err) == (2, "error: fit: a worker process died\n")
    assert not (out / cli.SAVINGS_FILE).exists()


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


# One value out of range for each range rule of SynthConfig and AssetSpec, by id, with what
# it must draw: the value passes the type check and the constructor refuses it.
OUT_OF_RANGE = {
    "households-range": ({"synth": {"n_households": 0}},
                         "config: field 'synth.n_households': must be >= 1, got 0"),
    "seed-range": ({"synth": {"rng_seed": -1}},
                   "config: field 'synth.rng_seed': must be >= 0, got -1"),
    "window-range": ({"synth": {"daylight_window": [19, 7]}},
                     "config: field 'synth.daylight_window': need 0 <= start < end <= 24, "
                     "got (19, 7)"),
    "base-load-range": ({"synth": {"base_load_range": [0, 1.2]}},
                        "config: field 'synth.base_load_range': need 0 < lo <= hi, got (0, 1.2)"),
    "multiplier-range": ({"synth": {"peak_multiplier_range": [0.5, 4.0]}},
                         "config: field 'synth.peak_multiplier_range': need 1 <= lo <= hi, "
                         "got (0.5, 4.0)"),
    "shift-range": ({"synth": {"peak_shift_range": [2, 2]}},
                    "config: field 'synth.peak_shift_range': need lo < hi, got (2, 2)"),
    "shifted-window-range": ({"synth": {"peak_shift_range": [-20, 4]}},
                             "config: field 'synth.peak_shift_range': shifted peak window would "
                             "leave the 24-hour day"),
    "irradiance-range": ({"synth": {"irradiance_peak": 0}},
                         "config: field 'synth.irradiance_peak': must be > 0"),
    "sell-range": ({"synth": {"sell_amplitude": 0.05}},
                   "config: field 'synth.sell_amplitude': sell price must stay nonnegative "
                   "over the day"),
    "peak-price-range": ({"synth": {"peak_price": 0.1}},
                         "config: field 'synth.peak_price': must be >= offpeak_price"),
    "offpeak-price-range": ({"synth": {"offpeak_price": 0.05}},
                            "config: field 'synth.offpeak_price': must be >= sell_mean + "
                            "sell_amplitude"),
    "efficiency-range": ({"asset": {"eta_c": 2}},
                         "config: field 'asset.eta_c': must be in (0, 1], got 2"),
    "alpha-range": ({"asset": {"alpha": 0}},
                    "config: field 'asset.alpha': must be > 0 and finite, got 0"),
    "x0-range": ({"asset": {"x0": 1.5}}, "config: field 'asset.x0': must be in [0, 1], got 1.5"),
    "region-range": ({"synth": {"region_center": [-89.9, 10.0], "region_spread_deg": 0.2}},
                     "config: field 'synth.region_center': regions up to region_spread_deg = "
                     "0.2 from (-89.9, 10.0) would leave latitude [-90, 90] or longitude "
                     "[-180, 180]"),
}


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
    (["longrun", "--p-grid", "nan"], {}, {},
     "command line: field '--p-grid': expected finite prices > 0, got 'nan'"),
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
    # a cached stage never reads --threads, so it is checked before the first stage
    (["fit", "--threads", "0"], {}, {},
     "command line: field '--threads': expected a whole number >= 1, got 0"),
    (["all"], {"DERSHARE_THREADS": "abc"}, {}, "environment: field 'DERSHARE_THREADS'"),
    # a grid has at least one point
    (["sweep", "--t-grid", "0.1:0.9:0"], {}, {},
     "command line: field '--t-grid': expected at least one point, got '0.1:0.9:0'"),
    (["longrun", "--p-grid", "1:2:0"], {}, {},
     "command line: field '--p-grid': expected at least one point, got '1:2:0'"),
    (["sweep"], {}, {"sweep": {"t_grid": []}},
     "config: field 'sweep.t_grid': expected at least one point, got []"),
    (["longrun"], {}, {"prices": {"p_grid": []}},
     "config: field 'prices.p_grid': expected at least one point, got []"),
    # adoption rates lie in [0, 1]
    (["sweep", "--t-grid", "0.5:1.5:3"], {}, {},
     "command line: field '--t-grid': expected adoption rates in [0, 1], got '0.5:1.5:3'"),
    (["gen-data"], {}, {"sweep": {"t_grid": [0.5, float("nan")]}},
     "config: field 'sweep.t_grid': expected adoption rates in [0, 1], got [0.5, nan]"),
    (["sweep", "--equilibrium-at", "0.5,1.5"], {}, {},
     "command line: field '--equilibrium-at': expected adoption rates in [0, 1], "
     "got '0.5,1.5'"),
    (["localness", "--flows-at", "nan"], {}, {},
     "command line: field '--flows-at': expected adoption rates in [0, 1], got 'nan'"),
    (["all", "--flows-at", "-0.1"], {}, {},
     "command line: field '--flows-at': expected adoption rates in [0, 1], got '-0.1'"),
    # two rates whose dumps would share one file name, an exact repeat among them
    (["sweep", "--equilibrium-at", "0.09999999,0.3,0.10000001"], {}, {},
     "command line: field '--equilibrium-at': rates 0.09999999 and 0.10000001 would write "
     "one file, *_t0.1.csv"),
    (["all", "--flows-at", "0.5,0.5"], {}, {},
     "command line: field '--flows-at': rates 0.5 and 0.5 would write one file, *_t0.5.csv"),
    *((["gen-data"], {}, config, expected) for config, expected in OUT_OF_RANGE.values()),
], ids=["t-grid", "p-grid", "equilibrium-at", "flows-at", "threads-env", "asset-key",
        "config-t-grid", "config-p-grid", "config-n-samples", "asset-value-type",
        "sweep-section", "prices-section", "fit-section", "synth-section", "asset-section",
        "terminal-soc-string", "synth-value-type", "n-samples-fraction", "asset-nan",
        "asset-infinity", "fit-key", "sweep-key", "prices-key", "key-read-elsewhere",
        "top-level-key", "samples-zero", "n-samples-one", "days-negative", "days-zero",
        "p-grid-nan", "p-grid-inf", "config-p-grid-nan", "threads-zero", "threads-negative",
        "threads-env-zero", "t-grid-refused-by-gen-data", "synth-key", "asset-huge-int",
        "seed-negative", "flag-over-config", "threads-zero-cached", "threads-env-cached-all",
        "t-grid-empty", "p-grid-empty", "config-t-grid-empty", "config-p-grid-empty",
        "t-grid-rate", "config-t-grid-nan", "equilibrium-at-rate", "flows-at-nan",
        "all-flows-at-rate", "equilibrium-at-one-file", "all-flows-at-one-file",
        *OUT_OF_RANGE])
def test_bad_cli_config_and_env_input_exits_2(finished_run, tmp_path, capsys, monkeypatch,
                                             argv, env, config, expected):
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, **config}))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    code = _run(*argv, "--config", path, "--out", out)
    _assert_input_error(capsys, code, expected)
    # refused before the first stage: the run directory is untouched
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("u_charge_max, fits", [(4e-5, False), (6e-5, True)])
def test_terminal_charge_refused_just_outside_its_bound_fits_inside(tmp_path, capsys, u_charge_max, fits):
    """x0 * alpha = 0.5 comes back after 24 hours iff u_charge_max >= 0.5 * (1 - eta_s)
    = 5e-5: just outside the bound is refused, just inside it fits."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, "require_terminal_soc": True,
                                "asset": {"x0": 0.5, "u_charge_max": u_charge_max}}))
    code = _run("all", "--config", path, "--out", tmp_path / "run")
    if fits:
        assert code == 0 and "fit: wrote" in capsys.readouterr().out
    else:
        _assert_input_error(capsys, code, "config: field 'require_terminal_soc': ")


def test_command_refused_before_its_first_stage_creates_no_out_directory(tmp_path, capsys,
                                                                         config_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"synth": {"n_households": 0}}))
    out = tmp_path / "new_dir"
    _assert_input_error(capsys, _run("gen-data", "--config", bad, "--out", out),
                        "config: field 'synth.n_households'")
    _assert_input_error(capsys, _run("all", "--config", config_path, "--out", out,
                                     "--t-grid", "0.1:0.9"), "field '--t-grid'")
    # from x0 * alpha = 15.2 kWh/kW the charge tends to 0.053 / (1 - 0.91) and never climbs
    # back, so every fit LP would be infeasible
    bad.write_text(json.dumps({"require_terminal_soc": True, "asset": {
        "alpha": 20.0, "u_charge_max": 0.053, "x0": 0.76, "eta_s": 0.91}}))
    _assert_input_error(capsys, _run("all", "--config", bad, "--out", out),
                        "config: field 'require_terminal_soc': the storage cannot end a day at "
                        "its starting charge asset.x0 * asset.alpha = 0.76 * 20.0 = 15.2 kWh/kW: "
                        "charging at asset.u_charge_max = 0.053 kW/kW while keeping "
                        "asset.eta_s = 0.91 of the charge each hour reaches at most "
                        "2.1083 kWh/kW after 24 hours")
    # nor does one whose first stage lacks its input
    _assert_input_error(capsys, _run("sweep", "--config", config_path, "--out", out),
                        "run `dershare fit` first")
    assert not out.exists()


# One bad value for each source (flag, environment variable, config key) of every
# setting in cli.SETTINGS, with the message it must draw.
BAD_SETTINGS = {
    "synth": {"key": (3, "config: field 'synth': expected a JSON object, got 3")},
    "asset": {"key": ([1], "config: field 'asset': expected a JSON object, got [1]")},
    "require_terminal_soc": {
        "key": (1, "config: field 'require_terminal_soc': expected true or false, got 1")},
    "seed": {"flag": ("1.5", "command line: field '--seed': expected a whole number, "
                             "got '1.5'")},
    "n_samples": {
        "flag": ("x", "command line: field '--samples': expected a whole number, got 'x'"),
        "key": (True, "config: field 'fit.n_samples': expected a whole number, got True")},
    "days": {"flag": ("2.5", "command line: field '--days': expected a whole number, "
                             "got '2.5'")},
    "threads": {
        "flag": ("two", "command line: field '--threads': expected a whole number, got 'two'"),
        "env": ("1.5", "environment: field 'DERSHARE_THREADS': expected a whole number, "
                       "got '1.5'")},
    "t_grid": {
        "flag": ("0.2,x", "command line: field '--t-grid': could not convert string to "
                          "float: 'x'"),
        "key": ([0.2, 2], "config: field 'sweep.t_grid': expected adoption rates in [0, 1], "
                          "got [0.2, 2]")},
    "equilibrium_at": {
        "flag": ("0.1,,2", "command line: field '--equilibrium-at': expected adoption rates "
                           "in [0, 1], got '0.1,,2'")},
    "p_grid": {
        "flag": ("0", "command line: field '--p-grid': expected finite prices > 0, got '0'"),
        "key": ("-1,2", "config: field 'prices.p_grid': expected finite prices > 0, "
                        "got '-1,2'")},
    "flows_at": {"flag": ("1e9", "command line: field '--flows-at': expected adoption rates "
                                 "in [0, 1], got '1e9'")},
}


def _sources(setting: cli.Setting) -> set[str]:
    return {source for source in ("flag", "env", "key") if getattr(setting, source)}


def test_bad_settings_cover_every_source_of_every_setting():
    # a setting cannot be added to the table, or given a source, without a case here
    assert {name: set(cases) for name, cases in BAD_SETTINGS.items()} == \
        {name: _sources(setting) for name, setting in cli.SETTINGS.items()}


def _valid_window(rng) -> list[int]:
    lo = int(rng.integers(0, HOURS))
    return [lo, int(rng.integers(lo + 1, HOURS + 1))]


def _valid_synth(rng) -> dict:
    """Every SynthConfig field, inside the ranges its __post_init__ accepts,
    at small sizes."""
    load_peak = _valid_window(rng)
    shift_lo = -int(rng.integers(0, load_peak[0] + 1))  # the shifted window stays in the day
    amplitude = float(rng.uniform(0.0, 0.05))
    sell_mean = amplitude + float(rng.uniform(0.0, 0.1))
    offpeak = sell_mean + amplitude + float(rng.uniform(0.0, 0.3))
    base_lo = float(rng.uniform(0.05, 2.0))
    mult_lo = float(rng.uniform(1.0, 3.0))
    return {"n_households": int(rng.integers(1, 13)), "n_days": int(rng.integers(1, 5)),
            "n_regions": int(rng.integers(1, 5)), "rng_seed": int(rng.integers(0, 2**63)),
            "base_load_range": [base_lo, base_lo * float(rng.uniform(1.0, 3.0))],
            "peak_multiplier_range": [mult_lo, mult_lo * float(rng.uniform(1.0, 2.0))],
            "load_peak_window": load_peak,
            "peak_shift_range": [shift_lo, int(rng.integers(shift_lo + 1,
                                                            HOURS + 2 - load_peak[1]))],
            "offpeak_price": offpeak, "peak_price": offpeak + float(rng.uniform(0.0, 0.5)),
            "tou_peak_window": _valid_window(rng),
            "sell_mean": sell_mean, "sell_amplitude": amplitude,
            "daylight_window": _valid_window(rng),
            "irradiance_peak": float(10 ** rng.uniform(-6, 0.3)),
            # a spread below 1 degree keeps the ring of regions on the globe
            "region_center": [float(rng.uniform(-89, 89)), float(rng.uniform(-179, 179))],
            "region_spread_deg": float(rng.uniform(0.0, 1.0))}


def _valid_fraction(rng, low: float) -> float:
    """A value in (0, 1] or [0, 1], exactly 1 in one draw of five."""
    return 1.0 if rng.uniform() < 0.2 else float(rng.uniform(low, 1.0))


def _valid_asset(rng) -> dict:
    """Every AssetSpec field, inside the ranges its __post_init__ accepts."""
    return {"alpha": float(rng.uniform(0.1, 20.0)),
            "u_charge_max": float(rng.uniform(0.05, 2.0)),
            "u_discharge_max": float(rng.uniform(0.05, 2.0)),
            "eta_c": _valid_fraction(rng, 0.05), "eta_d": _valid_fraction(rng, 0.05),
            "eta_s": _valid_fraction(rng, 0.9), "eta_i": _valid_fraction(rng, 0.05),
            "x0": 0.0 if rng.uniform() < 0.3 else _valid_fraction(rng, 0.0)}


def _valid_t_grid(rng) -> str:
    lo = float(rng.uniform(0.0, 0.5))
    return f"{lo!r}:{float(rng.uniform(lo + 0.05, 1.0))!r}:{int(rng.integers(2, 16))}"


def _valid_p_grid(rng) -> str:
    if rng.uniform() < 0.5:
        return "auto"
    lo = float(10 ** rng.uniform(-1, 2))
    return f"{lo!r}:{lo * float(rng.uniform(1.0, 20.0))!r}:{int(rng.integers(2, 7))}"


# each config key's draw of a value its setting accepts
VALID_SETTINGS = {
    "synth": _valid_synth,
    "asset": _valid_asset,
    "require_terminal_soc": lambda rng: bool(rng.uniform() < 0.3),
    "fit.n_samples": lambda rng: int(rng.integers(2, 9)),
    "sweep.t_grid": _valid_t_grid,
    "prices.p_grid": _valid_p_grid,
}


def _valid_config(rng) -> dict:
    config = {}
    for key, draw in VALID_SETTINGS.items():
        section, _, name = key.rpartition(".")
        (config.setdefault(section, {}) if section else config)[name] = draw(rng)
    return config


def test_valid_settings_cover_every_config_key_and_field():
    # a config key, or a field of synth or asset, cannot be added without a draw here
    assert set(VALID_SETTINGS) == {s.key for s in cli.SETTINGS.values() if s.key}
    rng = np.random.default_rng(0)
    assert set(_valid_synth(rng)) == {f.name for f in fields(SynthConfig)}
    assert set(_valid_asset(rng)) == {f.name for f in fields(AssetSpec)}


def test_valid_configs_run_or_are_refused_by_name(tmp_path, capsys):
    """Random configs the settings accept: each `all` exits 0, or exits 2
    with an error line; a traceback fails."""
    rng = np.random.default_rng(2510)
    codes = Counter()
    for i in range(40):
        config = _valid_config(rng)
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps(config))
        capsys.readouterr()
        try:
            code = _run("all", "--config", path, "--out", tmp_path / f"run{i}")
        except Exception as exc:
            raise AssertionError(f"config {i}: {json.dumps(config)}") from exc
        err = capsys.readouterr().err
        assert code == 0 or (code == 2 and re.search(r"^error: \S", err, re.M)), (i, config, err)
        codes[code] += 1
    assert codes[0] >= 20, codes  # most of the sample runs to the end


def _bad_setting_case(name: str, source: str):
    """(argv, env, config, expected) giving setting `name` its bad value through
    `source`, on the first stage that takes its flag (gen-data if it has none)."""
    setting = cli.SETTINGS[name]
    value, expected = BAD_SETTINGS[name][source]
    command = next((s.name for s in cli.STAGES if setting.flag and name in s.settings),
                   "gen-data")
    argv, env, config = [command], {}, {}
    if source == "flag":
        argv += [setting.flag, value]
    elif source == "env":
        env[setting.env] = value
    else:
        section, _, key = setting.key.rpartition(".")
        config = {section: {key: value}} if section else {key: value}
    return argv, env, config, expected


@pytest.mark.parametrize("name, source", [(name, source) for name, cases in BAD_SETTINGS.items()
                                          for source in cases],
                         ids=lambda v: v)
def test_each_bad_setting_exits_2_before_the_first_stage(finished_run, tmp_path, capsys,
                                                        monkeypatch, name, source):
    # the same checks as the hand-written cases: exit 2, the message, no file touched
    test_bad_cli_config_and_env_input_exits_2(finished_run, tmp_path, capsys, monkeypatch,
                                              *_bad_setting_case(name, source))


@pytest.mark.parametrize("edit, expected", [
    (lambda text: "{not json", ":1: invalid JSON: Expecting property name enclosed in double "
     "quotes (column 2)"),
    (lambda text: "[1,2]", ":1: field 'root': expected a JSON object, got [1, 2]"),
    (lambda text: "\n\n3\n", ":3: field 'root': expected a JSON object, got 3"),
    (lambda text: '{"stages": 5}', ":1: field 'stages': expected a JSON object, got 5"),
    # as written, one key per line: the error names the line of "stages"
    (lambda text: text.replace('"stages": {', '"stages": 5, "x": {'),
     ":{stages_line}: field 'stages': expected a JSON object, got 5"),
    (lambda text: '{\n  "outputs": [],\n  "stages": {}\n}\n',
     ":2: field 'outputs': expected a JSON object, got []"),
    (lambda text: '{\n  "stages": {\n    "sweep": null\n  }\n}\n',
     ":3: field 'stages.sweep': expected a JSON object, got None"),
    # cut short, the JSON ends on its last line
    (lambda text: text[:len(text) // 2], ":{last_line}: invalid JSON: "),
], ids=["not-json", "list-root", "number-root", "stages-number", "stages-in-place",
        "outputs-list", "stage-entry-null", "truncated"])
@pytest.mark.parametrize("command", ["sweep", "longrun"])
def test_corrupt_manifest_exits_2_naming_file_and_line(finished_run, tmp_path, capsys, command,
                                                       edit, expected):
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    manifest = out / "manifest.json"
    edited = edit(manifest.read_text())
    manifest.write_text(edited)
    stages_line = next((i for i, line in enumerate(edited.splitlines(), 1)
                        if line.startswith('  "stages"')), None)
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    code = _run(command, "--config", path, "--out", out, "--t-grid" if command == "sweep"
                else "--p-grid", "0.1:0.9:3")
    _assert_input_error(capsys, code, f"{manifest}" + expected.format(
        stages_line=stages_line, last_line=edited.count("\n") + 1))
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("key, value, expected", [
    ("sweep.t_grid", {"a": 1}, "expected 'a:b:n', a comma list or a list, got {'a': 1}"),
    ("prices.p_grid", True, "expected 'a:b:n', a comma list or a list, got True"),
    ("sweep.t_grid", False, "expected 'a:b:n', a comma list or a list, got False"),
    ("prices.p_grid", {}, "expected 'a:b:n', a comma list or a list, got {}"),
    # a bare JSON number stays a one-point grid
    ("sweep.t_grid", 0.5, [0.5]),
    ("prices.p_grid", 2, [2.0]),
], ids=["t-grid-object", "p-grid-true", "t-grid-false", "p-grid-empty-object", "t-grid-number",
        "p-grid-number"])
def test_grid_of_a_wrong_json_type_is_named_as_given(tmp_path, key, value, expected):
    section, _, name = key.partition(".")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({section: {name: value}}))
    if isinstance(expected, list):
        assert cli._load_config(path)[cli._BY_KEY[key]].tolist() == expected
        return
    with pytest.raises(ValidationError) as exc:
        cli._load_config(path)
    assert str(exc.value) == f"config: field '{key}': {expected}"


def test_config_that_is_not_utf8_exits_2_naming_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{\n  "synth": {"n_households": 10},\n  "s\xffnth": {}\n}\n')
    code = _run("gen-data", "--config", bad, "--out", tmp_path / "run")
    _assert_input_error(capsys, code, f"{bad}:3: not UTF-8 at byte 5")


def test_manifest_that_is_not_utf8_exits_2_naming_file_and_line(finished_run, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    manifest = out / "manifest.json"
    lines = manifest.read_bytes().splitlines(keepends=True)
    lines[2] = b"\xff" + lines[2]
    manifest.write_bytes(b"".join(lines))
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    code = _run("longrun", "--config", path, "--out", out, "--p-grid", "0.1:0.9:3")
    _assert_input_error(capsys, code, f"{manifest}:3: not UTF-8 at byte 1")
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


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


def test_run_resolves_a_setting_by_name_once_and_no_other_name(monkeypatch):
    run = cli.Run(Path("run"), argparse.Namespace(threads="3"), {})
    resolved, resolve = [], cli._resolve
    monkeypatch.setattr(cli, "_resolve", lambda name, *rest: resolved.append(name)
                        or resolve(name, *rest))
    assert run.threads == run.threads == 3 and resolved == ["threads"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_setting'"):
        run.no_such_setting
    # an AttributeError inside the p_grid property is not answered with the raw setting, None
    run.order = object()  # with no normalized savings for _auto_p_grid to read
    with pytest.raises(AttributeError, match="'p_grid'"):
        run.p_grid


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


COUNTED = ("load_scenario", "read_savings_curves", "read_purchases_curves", "read_sweep")


def _count_parses(monkeypatch) -> Counter:
    """Calls of the CLI's four parsers and of LongRunSolver, counted by name."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for name in COUNTED:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    monkeypatch.setattr(LongRunSolver, "__init__",
                        counted("LongRunSolver", LongRunSolver.__init__))
    return calls


def test_all_matches_the_stages_one_by_one(tmp_path, config_path, capsys, monkeypatch):
    calls = _count_parses(monkeypatch)
    flags = {"sweep": ["--equilibrium-at", "0.4"], "localness": ["--flows-at", "0.5"]}
    a, b = tmp_path / "a", tmp_path / "b"

    # gen-data, fit and sweep hand what they wrote to the later stages: nothing is parsed back
    assert _run("all", "--config", config_path, "--out", a,
                "--flows-at", "0.5", "--equilibrium-at", "0.4") == 0
    assert dict(calls) == {"LongRunSolver": 1}
    assert [calls[name] for name in COUNTED] == [0, 0, 0, 0]

    calls.clear()
    for stage in STAGES:
        assert _run(stage, "--config", config_path, "--out", b, *flags.get(stage, [])) == 0
    # one by one, each stage parses what it reads once: validate, fit and localness
    # the scenario, the five analysis stages the savings curves, stakeholders the purchases,
    # subsidy and localness the sweep
    assert [calls[name] for name in COUNTED] == [3, 5, 1, 2]
    assert len(list(a.rglob("*.csv"))) == 16
    assert differences(a, b) == []

    capsys.readouterr()
    for stage in STAGES:
        assert _run(stage, "--config", config_path, "--out", a, *flags.get(stage, [])) == 0
        assert capsys.readouterr().out == f"{stage}: cached\n"

    calls.clear()
    assert _run("all", "--config", config_path, "--out", a,
                "--flows-at", "0.5", "--equilibrium-at", "0.4") == 0
    assert calls["load_scenario"] == 0 and calls["LongRunSolver"] == 0
    assert capsys.readouterr().out == "".join(f"{stage}: cached\n" for stage in STAGES)


_DIGEST_PROBE = """
import json, sys
from pathlib import Path
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from dershare import cli
print(json.dumps({"files": [cli._file_sha(Path(p)) for p in sys.argv[2:]],
                  "obj": cli._hash_obj(json.loads(sys.argv[1])),
                  "fallback": "_hashlib" in sys.modules}))
"""


def test_manifest_digests_are_hashlibs_sha256(tmp_path):
    rng = np.random.default_rng(23)
    paths = []
    for size in (0, 1 << 16, (1 << 16) + 1, 5 * (1 << 16) + 123):  # the last spans 6 blocks
        path = tmp_path / f"f{size}.bin"
        path.write_bytes(rng.bytes(size))
        paths.append(path)
    obj = {"params": {"p_grid": [0.5, 1.25], "asset": {"x0": 0.0, "eta_s": 0.9999}},
           "inputs": {"loads.csv": "ab" * 32, "z": [None, True, {"k": "é"}]}}
    expected = [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
    expected_obj = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
    assert [cli._file_sha(p) for p in paths] == expected
    assert cli._hash_obj(obj) == expected_obj
    # with neither built-in module importable, the digests come from hashlib's
    proc = subprocess.run([sys.executable, "-c", _DIGEST_PROBE, json.dumps(obj), *map(str, paths)],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"files": expected, "obj": expected_obj, "fallback": True}


def test_all_hashes_each_file_once(tmp_path, config_path, capsys, monkeypatch):
    hashed = Counter()
    file_sha = cli._file_sha

    def counted(path):
        hashed[Path(path).relative_to(out).as_posix()] += 1
        return file_sha(path)
    monkeypatch.setattr(cli, "_file_sha", counted)
    out = tmp_path / "run"
    # fresh: each output once, after its stage writes it; a later stage's input hash reuses it
    assert _run("all", "--config", config_path, "--out", out) == 0
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*.csv"))
    assert len(written) == 13 and hashed == dict.fromkeys(written, 1)
    hashed.clear()
    # fully cached: each file once, for the check of the stage that writes it
    capsys.readouterr()
    assert _run("all", "--config", config_path, "--out", out) == 0
    assert capsys.readouterr().out == "".join(f"{stage}: cached\n" for stage in STAGES)
    assert hashed == dict.fromkeys(written, 1)


def test_all_after_a_cached_gen_data_parses_the_scenario_once(tmp_path, config_path, capsys,
                                                             monkeypatch):
    out = tmp_path / "run"
    assert _run("gen-data", "--config", config_path, "--out", out) == 0
    calls = _count_parses(monkeypatch)
    capsys.readouterr()
    # gen-data is a cache hit and leaves nothing behind: validate parses, fit reuses it
    assert _run("all", "--config", config_path, "--out", out) == 0
    assert capsys.readouterr().out.startswith("gen-data: cached\nvalidate: ")
    assert [calls[name] for name in COUNTED] == [1, 0, 0, 0]


def test_stages_hand_over_what_reading_their_files_gives(tmp_path, config_path):
    out = tmp_path / "run"
    args = cli._build_parser().parse_args(["all", "--out", str(out), "--config", str(config_path)])
    run = cli.Run(out, args, cli._load_config(args.config))
    for stage in cli.STAGES[:4]:  # gen-data, validate, fit, sweep
        cli.run_stage(run, stage)
    assert_same_load(run.loaded, load_scenario(out / cli.DATA_SUBDIR, run.asset))
    for held, read in ((run.curves, read_savings_curves(out / cli.SAVINGS_FILE)),
                       (run.purchases, read_purchases_curves(out / cli.PURCHASES_FILE))):
        assert type(held) is type(read) and list(held) == list(read) == sorted(read)
        for name in ("offsets", "knots", "slopes", "knot_values", "sizes", "totals"):
            assert getattr(held, name) is None is getattr(read, name) or \
                getattr(held, name).tobytes() == getattr(read, name).tobytes(), name
    read = read_sweep(out / cli.SWEEP_FILE)
    assert list(read) == [f.name for f in fields(run.sweep_table)]
    for name, column in read.items():
        held = getattr(run.sweep_table, name)
        assert (held.dtype, held.tobytes()) == (column.dtype, column.tobytes()), name


def test_tiny_sweep_reaches_the_planners_optimum(finished_run):
    sweep = read_sweep(finished_run / cli.SWEEP_FILE)
    assert planner_misfits(read_savings_curves(finished_run / cli.SAVINGS_FILE),
                           sweep["owners"].tolist(), sweep["clearing_price"].tolist(),
                           sweep["total_surplus"].tolist()) == []


def _short_run(finished_run, out, config_path, names) -> dict[str, np.ndarray]:
    """validate, fit and sweep in out, on finished_run's data with each
    household's loads.csv rows under the ids names(id), one block each; the
    sweep's columns."""
    shutil.copytree(finished_run / cli.DATA_SUBDIR, out / cli.DATA_SUBDIR)
    path = out / cli.DATA_SUBDIR / "loads.csv"
    header, *rows = path.read_text().splitlines()
    blocks: dict[str, list[str]] = {}
    for row in rows:
        hid, rest = row.split(",", 1)
        for name in names(hid):
            blocks.setdefault(name, []).append(f"{name},{rest}")
    path.write_text("\n".join([header, *sum(blocks.values(), [])]) + "\n")
    for stage in ("validate", "fit", "sweep"):
        assert _run(stage, "--config", config_path, "--out", out) == 0
    return read_sweep(out / cli.SWEEP_FILE)


def test_a_replica_market_clears_at_the_same_prices_with_twice_the_volume(
        finished_run, tmp_path, config_path):
    """Each household copied under a new id, which ranks next to it: every
    short-run clearing price is the same, bit for bit, at twice the owners,
    and every volume doubles. Long-run counts need not double (the marginal
    copy faces one more owner), so only the short-run stages are run."""
    sweep = read_sweep(finished_run / cli.SWEEP_FILE)
    twice = _short_run(finished_run, tmp_path / "replica", config_path,
                       lambda hid: (hid, hid + "c"))
    assert twice["owners"].tolist() == (2 * sweep["owners"]).tolist()
    assert twice["clearing_price"].tobytes() == sweep["clearing_price"].tobytes()
    assert twice["volume"] == pytest.approx(2 * sweep["volume"], rel=1e-12, abs=0.0)


# Each column of each output CSV under loads x 2: "x2" cells are exactly twice the original
# (kW, $ and localness' objective, flow times squared distance), the rest the same text
# (prices, counts, shares, flags and ids).
LOAD_LAW = {
    "exclusions.csv": {},
    "savings_curves.csv": {"y": "x2", "f": "x2"},
    "purchases_curves.csv": {"y": "x2", "purchases": "x2"},
    "sweep.csv": {name: "x2" for name in ("adopted_quantity", "volume", "owner_surplus",
                                          "renter_surplus", "total_surplus")},
    "equilibrium_t0.3.csv": {"y_star": "x2", "surplus": "x2"},
    "equilibrium_t0.7.csv": {"y_star": "x2", "surplus": "x2"},
    "equilibrium_summary.csv": {"volume": "x2", "owner_surplus": "x2", "renter_surplus": "x2",
                                "total_surplus": "x2"},
    "longrun.csv": {"d_short": "x2", "d_long": "x2", "delta_q": "x2"},
    "subsidy.csv": {"delta_q": "x2", "subsidy": "x2"},
    "localness.csv": {"volume": "x2", "objective": "x2"},
    "flows_t0.5.csv": {"kw": "x2"},
    "stakeholders.csv": {"delta_q": "x2", "vendor_gain": "x2", "utility_loss": "x2"},
}


def _law_runs(data: Path, config: dict, tmp_path: Path, doubled: dict[str, int]) -> list[Path]:
    """validate to stakeholders under config, with the sweep's and
    localness' dumps, on data and on a copy of data whose files named in
    doubled hold twice each cell after their first doubled[name] columns;
    the two run directories."""
    runs = [tmp_path / "once", tmp_path / "twice"]
    for run in runs:
        shutil.copytree(data, run / cli.DATA_SUBDIR)
    for name, keep in doubled.items():
        header, *rows = (data / name).read_text().splitlines()
        cells = [row.split(",") for row in rows]
        (runs[1] / cli.DATA_SUBDIR / name).write_text("\n".join([header, *(
            ",".join(c[:keep] + [repr(2 * float(v)) for v in c[keep:]]) for c in cells)]) + "\n")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    dumps = {"sweep": ["--equilibrium-at", "0.3,0.7"], "localness": ["--flows-at", "0.5"]}
    for run in runs:
        for stage in STAGES[1:]:
            assert _run(stage, "--config", path, "--out", run, *dumps.get(stage, [])) == 0
    return runs


def _misfits(law: str | None, pairs: list[tuple[str, str]]) -> list[int]:
    """The rows of one column's (once, twice) cell pairs that break its law:
    None, the same text; "x2", exactly twice; "~x2", twice to within
    TARIFF_TAU of the column's largest doubled magnitude; "~", the same to
    1e-15 relative. A cell that is not a finite number keeps its text."""
    if law is None:
        return [row for row, (x, y) in enumerate(pairs) if x != y]
    numbers = {row: (float(x), float(y)) for row, (x, y) in enumerate(pairs)
               if x and math.isfinite(float(x))}
    scale = max((2 * abs(x) for x, _ in numbers.values()), default=0.0)
    holds = {"x2": lambda x, y: y == 2 * x,
             "~x2": lambda x, y: abs(y - 2 * x) <= TARIFF_TAU * scale,
             "~": lambda x, y: abs(y - x) <= 1e-15 * abs(x)}[law]
    return [row for row, (x, y) in enumerate(pairs)
            if not (holds(*numbers[row]) if row in numbers else x == y)]


def _assert_law(runs: list[Path], laws: dict[str, dict[str, str]]) -> None:
    """Every cell of every output CSV of runs[1] against runs[0]'s obeys its
    column's law in laws (see _misfits)."""
    assert sorted(p.name for p in runs[0].glob("*.csv")) == sorted(laws)
    for name, columns in laws.items():
        (head, *once), (head2, *twice) = ((run / name).read_text().splitlines() for run in runs)
        assert head == head2 and len(once) == len(twice) and set(columns) <= set(head.split(","))
        rows = [list(zip(a.split(","), b.split(","))) for a, b in zip(once, twice)]
        for j, column in enumerate(head.split(",")):
            pairs = [row[j] for row in rows]
            bad = _misfits(columns.get(column), pairs)
            assert not bad, (name, column, [(row, *pairs[row]) for row in bad[:3]])


def _assert_load_law(data: Path, config: dict, tmp_path: Path) -> None:
    """validate to stakeholders on data and on data with every load doubled,
    under config: every cell of every output CSV obeys LOAD_LAW, bit for bit.
    The meter filter's 0.1 kW is absolute, so no household's mean load may
    lie within a factor 2 of it: then both runs keep the same households."""
    header, *rows = (data / "loads.csv").read_text().splitlines()
    means = {}
    for row in rows:
        hid, rest = row.split(",", 1)
        means.setdefault(hid, []).extend(map(float, rest.split(",")[2:]))
    assert all(not 0.05 <= np.mean(v) < 0.2 for v in means.values())
    _assert_law(_law_runs(data, config, tmp_path, {"loads.csv": 3}), LOAD_LAW)


def test_twice_the_loads_doubles_every_kw_and_dollar_and_keeps_every_price(finished_run,
                                                                            tmp_path):
    """Every bound of the dispatch LP is linear in the load and y together, and
    the net-zero size in the load, so doubling every load doubles the sample
    grid, every bill and knot value and keeps every slope; the market then
    keeps every price, count, share and flag and doubles every kW and $. A
    power of two scales exactly, so the law holds bit for bit, validate to
    stakeholders. TINY's mean loads are 0.56-1.6 kW, none within a factor 2
    of the meter filter's 0.1 kW."""
    _assert_load_law(finished_run / cli.DATA_SUBDIR, TINY, tmp_path)


MARKET_60 = {"synth": {"n_households": 60, "n_days": 1, "rng_seed": 5}, "fit": {"n_samples": 6},
             "sweep": {"t_grid": "0.005:0.995:60"}}


@pytest.fixture(scope="module")
def market_60_data(tmp_path_factory) -> Path:
    """The data files gen-data writes for MARKET_60."""
    root = tmp_path_factory.mktemp("market_60")
    path = root / "config.json"
    path.write_text(json.dumps(MARKET_60))
    assert _run("gen-data", "--config", path, "--out", root / "run") == 0
    return root / "run" / cli.DATA_SUBDIR


def test_twice_the_loads_of_60_households_on_one_day_obey_the_load_law(market_60_data,
                                                                      tmp_path):
    """The load law on a market of 60 households, one day each, six samples:
    many more owners clear at each rental price than in TINY. Their mean
    loads are 0.34-1.9 kW, none within a factor 2 of the meter filter's
    0.1 kW."""
    _assert_load_law(market_60_data, MARKET_60, tmp_path)


# The fit separates a curve's equal slopes by SLOPE_SEPARATION, an absolute 1e-6 $/kW that
# does not scale with the tariffs, so a doubled price or $ cell is off twice its value by up
# to 3.4e-6 of its column's largest magnitude on MARKET_60's run (9.6e-7 on TINY's).
TARIFF_TAU = 5e-6

# Each column of each output CSV under tariffs x 2 (laws as _misfits reads them): bills,
# values, slopes and prices double ("purchases" and "utility_loss", sums of bills, exactly);
# every kW, count, share, flag and id keeps its text; the blocking threshold, a ratio of $,
# stays to rounding.
TARIFF_LAW = {
    "exclusions.csv": {},
    "savings_curves.csv": {"f": "~x2", "slope": "~x2"},
    "purchases_curves.csv": {"purchases": "x2"},
    "sweep.csv": {name: "~x2" for name in ("short_run_price", "clearing_price", "owner_surplus",
                                           "renter_surplus", "total_surplus")},
    "equilibrium_t0.3.csv": {"surplus": "~x2"},
    "equilibrium_t0.7.csv": {"surplus": "~x2"},
    "equilibrium_summary.csv": {name: "~x2" for name in ("clearing_price", "owner_surplus",
                                                         "renter_surplus", "total_surplus")},
    "longrun.csv": {"price": "~x2", "r_at_long": "~x2", "r_before_long": "~x2"},
    "subsidy.csv": {"price": "~x2", "subsidy": "~x2"},
    "localness.csv": {},
    "flows_t0.5.csv": {},
    "stakeholders.csv": {"price": "~x2", "vendor_gain": "~x2", "utility_loss": "x2",
                         "threshold": "~"},
}


def test_twice_the_tariffs_of_60_households_double_every_price_and_keep_every_kw(
        market_60_data, tmp_path):
    """Doubling both tariffs doubles the dispatch LP's objective and moves none
    of its bounds, so every bill, value, slope and price doubles and every
    kW, count and share stays, validate to stakeholders, up to the slope
    separation (TARIFF_TAU)."""
    runs = _law_runs(market_60_data, MARKET_60, tmp_path, {"tariff_buy.csv": 1,
                                                           "tariff_sell.csv": 1})
    _assert_law(runs, TARIFF_LAW)


def test_reversing_the_id_order_moves_no_curve_row_and_no_price(finished_run, tmp_path,
                                                                config_path):
    """TINY's ids H0000..H0009 renamed in reverse order: each household's
    savings_curves.csv rows and every clearing price stay as they were, and
    every sum, summed in the new id order, agrees to 1e-12 of its column."""
    def rename(hid):
        return (f"X{9999 - int(hid[1:]):04d}",)

    def curve_rows(run) -> dict[str, list[str]]:
        rows: dict[str, list[str]] = {}
        for line in (run / cli.SAVINGS_FILE).read_text().splitlines()[1:]:
            hid, rest = line.split(",", 1)
            rows.setdefault(hid, []).append(rest)
        return rows

    sweep = read_sweep(finished_run / cli.SWEEP_FILE)
    renamed = _short_run(finished_run, tmp_path / "renamed", config_path, rename)
    assert curve_rows(tmp_path / "renamed") == {
        rename(hid)[0]: rows for hid, rows in curve_rows(finished_run).items()}
    assert renamed["clearing_price"].tobytes() == sweep["clearing_price"].tobytes()
    for name, column in sweep.items():
        assert np.all(np.abs(renamed[name] - column) <= 1e-12 * np.abs(column).max()), name


def test_result_csv_headers_are_pinned(finished_run, tmp_path, config_path):
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    assert _run("sweep", "--config", config_path, "--out", out, "--equilibrium-at", "0.4") == 0
    assert _run("localness", "--config", config_path, "--out", out, "--flows-at", "0.5") == 0
    headers = {p.name: p.read_text().splitlines()[0] for p in out.glob("*.csv")}
    assert headers == RESULT_HEADERS


def test_cli_surface_is_pinned():
    parser = cli._build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]

    def options(p):
        return sorted(o for a in p._actions for o in a.option_strings
                      if o not in ("-h", "--help"))
    assert options(parser) == ["--version"]
    assert {name: options(p) for name, p in sub.choices.items()} == CLI_SURFACE


def test_top_level_help_is_the_docstrings_first_line(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    text = capsys.readouterr().out
    assert cli.__doc__.splitlines()[0] in text
    assert "run_stage" not in text and "STAGES" not in text


# One bad value for each column kind of io.TABLES; for an ID column, an id no other row has.
BAD_CELLS = {io.ID: "X9", io.FINITE: "nan", io.NONNEGATIVE: "-1.0", io.WHOLE: "1.5",
             io.RATE: "1.5", io.MAYBE_NAN: "inf", io.LATITUDE: "95.0", io.LONGITUDE: "-180.5"}


def _readers(name: str) -> list[tuple[str, str]]:
    """(stage, file in the run directory) for each stage of cli.STAGES that reads table name."""
    return [(s.name, rel) for s in cli.STAGES for rel, _ in s.inputs if Path(rel).name == name]


def _set_cell(column: int, raw: str):
    def edit(lines: list[bytes]) -> list[bytes]:  # in the first data row
        cells = lines[1].rstrip(b"\r\n").split(b",")
        cells[column] = raw.encode()
        return [lines[0], b",".join(cells) + b"\r\n", *lines[2:]]
    return edit


def _corruptions(table: io.Table) -> dict:
    """Each corruption of a file of table by name: an edit of its lines."""
    header = list(table.columns)
    first = {}
    for column, kind in enumerate(table.columns.values()):
        first.setdefault(kind, column)
    cases = {f"bad-{header[column]}": _set_cell(column, BAD_CELLS.get(kind))
             for kind, column in first.items()}
    if table.group or table.index:
        cases["duplicated-row"] = lambda lines: [*lines[:2], *lines[1:]]
        cases["dropped-row"] = lambda lines: lines[:-1]
    if table.index:
        cases["index-out-of-range"] = _set_cell(header.index(table.index), "99")
    return {**cases,
            "header-only": lambda lines: lines[:1],
            "empty": lambda lines: [],
            "extra-column": lambda lines: [line.rstrip(b"\r\n") + b",x\r\n" for line in lines],
            "bom": lambda lines: [b"\xef\xbb\xbf" + lines[0], *lines[1:]],
            "not-utf8": lambda lines: [lines[0], b"\xff" + lines[1], *lines[2:]]}


CORRUPTIONS = [(name, case) for name, table in io.TABLES.items() for case in _corruptions(table)]


def test_corruptions_cover_every_table():
    # a table cannot be added without a stage that reads it and a bad value for each kind
    assert {name for name, _ in CORRUPTIONS} == set(io.TABLES)
    assert [name for name in io.TABLES if not _readers(name)] == []
    assert {k for table in io.TABLES.values() for k in table.columns.values()} <= set(BAD_CELLS)


@pytest.mark.parametrize("name, case", CORRUPTIONS, ids=lambda v: v)
def test_corrupt_input_exits_2_at_its_line_or_changes_no_output(finished_run, tmp_path, capsys,
                                                                 name, case):
    """Every stage that reads the corrupted file exits 2 naming a file and
    line, or, where the corruption is still valid input, writes the same bytes."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    readers = _readers(name)
    path = out / readers[0][1]
    edit = _corruptions(io.TABLES[name])[case]
    path.write_bytes(b"".join(edit(path.read_bytes().splitlines(keepends=True))))
    before = {p: p.read_bytes() for p in out.rglob("*.csv")}
    for stage, _ in readers:
        capsys.readouterr()
        code = _run(stage, "--config", config, "--out", out)
        err = capsys.readouterr().err
        if code == 0:
            assert {p: p.read_bytes() for p in out.rglob("*.csv")} == before, stage
        else:
            assert code == 2 and re.match(rf"error: {re.escape(str(out))}/\S+\.csv:[1-9]\d*: ",
                                          err), (stage, err)


def test_blank_line_between_data_rows_changes_no_output(finished_run, tmp_path, config_path,
                                                        capsys):
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    loads = out / "data" / "loads.csv"
    lines = loads.read_bytes().splitlines(keepends=True)
    loads.write_bytes(b"".join([*lines[:3], b"\r\n", *lines[3:]]))
    capsys.readouterr()
    for stage in STAGES[1:]:  # `all` would refuse the edited file at gen-data
        assert _run(stage, "--config", config_path, "--out", out) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
            if ": wrote " in line] == ["validate", "fit", "localness"]
    # the manifest keeps the checksum gen-data recorded for loads.csv
    assert differences(finished_run, out) == ["differs: data/loads.csv",
                                              *(f"manifest.json differs: stages.{stage}.input_hash"
                                                for stage in ("fit", "localness", "validate"))]


def _second_row_in_another_region(lines: list[bytes]) -> list[bytes]:
    cells = lines[2].split(b",")
    cells[1] = b"R0" if cells[1] == b"R1" else b"R1"
    return [*lines[:2], b",".join(cells), *lines[3:]]


def _nan_quantity_twice(lines: list[bytes]) -> list[bytes]:
    lines = _set_cell(2, "nan")(lines)  # the first row's adopted_quantity
    return [*lines[:2], *lines[1:]]


def _without_household(hid: bytes):
    def edit(lines: list[bytes]) -> list[bytes]:
        return [line for line in lines if not line.startswith(hid + b",")]
    return edit


def _with_copy_of_first_household_as(hid: bytes):
    def edit(lines: list[bytes]) -> list[bytes]:
        first = lines[1].split(b",")[0] + b","
        return lines + [hid + line[len(first) - 1:] for line in lines if line.startswith(first)]
    return edit


def _first_household_knots_halved(lines: list[bytes]) -> list[bytes]:
    first = lines[1].split(b",")[0] + b","
    halved = [line.split(b",") for line in lines if line.startswith(first)]
    for cells in halved:
        cells[2] = repr(float(cells[2]) / 2).encode()
    return [lines[0], *map(b",".join, halved), *lines[1 + len(halved):]]


def _every_hour_zero(lines: list[bytes]) -> list[bytes]:
    return [lines[0], *(line.split(b",")[0] + b",0.0" * 24 + b"\r\n" for line in lines[1:])]


@pytest.mark.parametrize("stage, rel, edit, expected", [
    ("validate", "data/regions.csv", _corruptions(io.TABLES["regions.csv"])["not-utf8"],
     "data/regions.csv:2: not UTF-8 at byte 1"),
    ("subsidy", "sweep.csv", _nan_quantity_twice,
     "sweep.csv:2: field 'adopted_quantity': not a finite number: 'nan'"),
    ("fit", "data/irradiance.csv", _set_cell(13, "-1.0"),
     "data/irradiance.csv:2: field 'h12': not in [0, inf]: '-1.0'"),
    ("validate", "data/regions.csv", lambda lines: lines[:1], "data/regions.csv:1: no regions"),
    # the first file that disagrees with the irradiance's day count names it
    ("validate", "data/irradiance.csv", lambda lines: lines[:-1],
     "data/tariff_buy.csv:4: 3 days, but irradiance.csv has 2"),
    ("validate", "data/regions.csv", _corruptions(io.TABLES["regions.csv"])["bom"],
     "data/regions.csv:1: starts with a UTF-8 byte-order mark"),
    # a curve set whose households differ from the scenario's names the first differing id
    ("localness", "savings_curves.csv", _without_household(b"H0007"),
     "savings_curves.csv against loads.csv: household 'H0007': no curve"),
    ("localness", "savings_curves.csv", _with_copy_of_first_household_as(b"H9999"),
     "savings_curves.csv against loads.csv: household 'H9999': a curve but no household"),
    # so does a purchases set whose households differ from the savings curves'
    ("stakeholders", "purchases_curves.csv", _without_household(b"H0007"),
     "purchases_curves.csv against savings_curves.csv: household 'H0007': no purchases curve"),
    ("stakeholders", "purchases_curves.csv", _with_copy_of_first_household_as(b"H9999"),
     "purchases_curves.csv against savings_curves.csv: household 'H9999': a purchases curve "
     "but no savings curve"),
    ("validate", "data/loads.csv", _second_row_in_another_region,
     "data/loads.csv:3: household 'H0000': conflicting region_id: ['R0'], first ['R1']"),
    ("validate", "data/loads.csv", _set_cell(8, "1" * 131_073),
     "data/loads.csv:2: not CSV: field larger than field limit (131072)"),
    # a purchases curve on other knots than its savings curve's
    ("stakeholders", "purchases_curves.csv", _first_household_knots_halved,
     "purchases_curves.csv against savings_curves.csv: household 'H0000': knots differ from "
     "its savings curve's"),
    ("validate", "data/regions.csv", _set_cell(1, "95.0"),
     "data/regions.csv:2: field 'lat': not in [-90, 90]: '95.0'"),
    ("validate", "data/irradiance.csv", _every_hour_zero,
     "data/irradiance.csv:2: every value is zero: net-zero sizing requires positive total "
     "irradiance"),
], ids=["regions-not-utf8", "sweep-nan-and-duplicate", "fit-negative-irradiance",
        "regions-header-only", "irradiance-missing-its-last-day", "regions-byte-order-mark",
        "curves-missing-a-household", "curves-of-a-household-not-in-loads",
        "purchases-missing-a-household", "purchases-of-a-household-without-savings",
        "household-in-two-regions", "cell-past-the-csv-field-limit",
        "purchases-on-other-knots", "latitude-past-the-pole", "irradiance-all-zero"])
def test_inputs_that_once_passed_or_crashed_exit_2_at_their_line(finished_run, tmp_path, capsys,
                                                                  stage, rel, edit, expected):
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    path = out / rel
    path.write_bytes(b"".join(edit(path.read_bytes().splitlines(keepends=True))))
    capsys.readouterr()
    code = _run(stage, "--config", config, "--out", out)
    _assert_input_error(capsys, code, f"{out}/{expected}")
